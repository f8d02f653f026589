"""Zero-dependency asyncio HTTP/JSON frontend for the job broker.

``repro serve`` binds :class:`ServiceServer` — a deliberately small
HTTP/1.1 implementation on ``asyncio.start_server`` with persistent
connections: a connection carries one request after another until the
client sends ``Connection: close``, a request cannot be framed, an
event stream ends, the service stops or drains, or the connection sits
idle for :data:`KEEPALIVE_IDLE_S`.  It exposes:

- ``POST /v1/jobs`` — submit an experiment (full
  :meth:`~repro.runner.spec.ExperimentSpec.to_dict` form or the
  shorthand ``{"workload": "BFS", "scale": "tiny", "modes":
  ["baseline", "graphpim"]}``); 202 + job id, 200 + the job document
  when it is already done, 429/503 + ``Retry-After`` when admission
  rejects;
- ``GET /v1/jobs/{id}`` — job status, or the canonical result body
  once done (bit-identical for every caller of the same spec);
- ``GET /v1/jobs/{id}/events`` — Server-Sent Events stream of the
  job's lifecycle (``queued`` → ``running`` → ``progress``* →
  ``done``/``failed``) with ``Last-Event-ID`` replay from a bounded
  per-job ring and ``: heartbeat`` comments on idle streams;
- ``POST /v1/fleet/{register,lease,heartbeat,complete,deregister}`` —
  the pull-worker protocol (PR 10): workers lease job batches from
  their ``spec_key`` shard, renew under a TTL (piggybacking progress
  frames and span batches into the SSE streams), and upload canonical
  results idempotently;
- ``GET /healthz`` (liveness + broker stats), ``GET /readyz``
  (503 while draining, or when nothing can execute — every local
  worker slot crashed past its restart budget *and* no fleet worker
  has a fresh heartbeat — so load balancers stop routing here first);
- ``GET /metrics`` — the service :class:`MetricsRegistry` rendered in
  Prometheus text format.

Every request gets an ``X-Request-Id`` echoed in the response and
bound via :func:`repro.obs.logs.request_id_context`, so all log lines
a request produced — HTTP layer, broker, runner — correlate on one
``request_id`` field.  Callers may supply their own via the
``X-Request-Id`` header; the id a submission carried travels with the
job through lease and complete, so worker-side log lines correlate
with the original submit.

``POST /v1/jobs`` remembers the last :data:`SUBMIT_MEMO_ENTRIES`
submission bodies it accepted, byte for byte, with the parsed spec and
its ``spec_key``: a repeated body skips the JSON parse, the spec build
and the hash, and goes straight to the broker's admission steps.

A submission whose job is already done (outcome ``duplicate`` or
``cache_hit``) is answered in the same round trip: a 200 whose body is
the job document ``GET /v1/jobs/{id}`` returns, byte for byte, with
``Content-Location: /v1/jobs/{id}`` naming it (RFC 9110 §8.7) and
``X-Job-Outcome`` carrying the outcome.  A live submission gets a 202
ticket to poll.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import uuid
from collections import OrderedDict
from typing import Awaitable, Callable, Optional

from repro.common.errors import ReproError, ServiceError
from repro.obs.logs import get_logger, request_id_context
from repro.obs.metrics import MetricsRegistry, render_prometheus
from repro.runner.spec import ExperimentSpec
from repro.service.broker import (
    AdmissionError,
    DrainingError,
    JobBroker,
    TERMINAL_EVENTS,
)
from repro.service.config import ServiceConfig
from repro.sim.config import SystemConfig

_log = get_logger("service.http")

#: Largest accepted request body (a full ExperimentSpec is ~2 KiB).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Seconds a kept-alive connection may wait for its next request
#: before the server closes it.
KEEPALIVE_IDLE_S = 15.0

#: Submission bodies whose parsed spec the server keeps (LRU), and the
#: largest body it keeps: about 6 KiB an entry for a two-mode spec.
SUBMIT_MEMO_ENTRIES = 128
SUBMIT_MEMO_MAX_BODY = 64 * 1024

#: Request-latency histogram bounds in seconds (admission and polls
#: are sub-millisecond; only misconfigured handlers reach the tail).
REQUEST_SECONDS_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0,
)

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    414: "URI Too Long",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_MODE_CTORS = {
    "baseline": SystemConfig.baseline,
    "upei": SystemConfig.upei,
    "graphpim": SystemConfig.graphpim,
}

#: Characters allowed in a caller-supplied ``X-Request-Id`` (anything
#: else falls back to a generated id — header values land in response
#: headers and log lines, so they are strictly whitelisted).
_REQUEST_ID_SAFE = frozenset(
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


def _new_request_id() -> str:
    return uuid.uuid4().hex[:12]


def sanitize_request_id(raw: str) -> str:
    """A caller-supplied request id, or ``""`` when unusable."""
    if not raw or len(raw) > 64:
        return ""
    if not all(ch in _REQUEST_ID_SAFE for ch in raw):
        return ""
    return raw


def spec_from_request(body: dict) -> ExperimentSpec:
    """Build the spec a ``POST /v1/jobs`` body describes.

    Two forms are accepted: the full wire format under ``"spec"``
    (exactly :meth:`ExperimentSpec.to_dict`), or the shorthand with
    ``workload`` / ``scale`` / ``modes`` (preset names) / ``threads``
    / ``params`` / ``faults`` (a ``ber=...,seed=...`` spec string).
    Raises :class:`~repro.common.errors.ServiceError` on malformed
    input so the HTTP layer can answer 400 instead of 500.
    """
    if not isinstance(body, dict):
        raise ServiceError("request body must be a JSON object")
    if "spec" in body:
        try:
            return ExperimentSpec.from_dict(body["spec"])
        except (ReproError, KeyError, TypeError, ValueError) as error:
            raise ServiceError(f"malformed spec: {error}") from error
    from repro.core.presets import resolve_scale, workload_params
    from repro.workloads.registry import get_workload

    workload = body.get("workload")
    if not workload:
        raise ServiceError(
            'submit body needs "workload" (or a full "spec" object)'
        )
    try:
        get_workload(workload)  # fail fast on unknown codes
        scale = resolve_scale(body.get("scale"))
        faults = None
        if body.get("faults"):
            from repro.faults import FaultPlan

            faults = FaultPlan.from_spec(body["faults"])
        mode_names = body.get("modes") or ["baseline", "graphpim"]
        modes = []
        for name in mode_names:
            ctor = _MODE_CTORS.get(str(name).lower())
            if ctor is None:
                raise ServiceError(
                    f"unknown mode {name!r}; choose from "
                    f"{sorted(_MODE_CTORS)}"
                )
            modes.append(ctor().with_faults(faults))
        params = dict(workload_params(workload))
        params.update(body.get("params") or {})
        return ExperimentSpec.for_workload(
            workload,
            scale,
            modes=modes,
            num_threads=int(body.get("threads", 16)),
            params=params,
        )
    except ServiceError:
        raise
    except (ReproError, TypeError, ValueError) as error:
        raise ServiceError(f"invalid submission: {error}") from error


class ServiceServer:
    """The asyncio HTTP listener in front of one :class:`JobBroker`."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        broker: Optional[JobBroker] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.config = config or ServiceConfig()
        self.registry = (
            registry
            if registry is not None
            else (broker.registry if broker is not None
                  else MetricsRegistry())
        )
        self.broker = broker or JobBroker(
            self.config, registry=self.registry
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping = False
        #: Connections waiting for their next request -> handler task.
        self._idle: "dict[asyncio.StreamWriter, asyncio.Task]" = {}
        #: Exact submission body -> (spec, priority, client, spec_key),
        #: LRU.  Keyed on the bytes, not on spec equality: equal specs
        #: can key differently (a param of 2 and one of 2.0).
        self._submissions: (
            "OrderedDict[bytes, tuple[ExperimentSpec, str, str, str]]"
        ) = OrderedDict()
        self._m_requests = self.registry.counter(
            "service_requests_total", "HTTP requests by route and code"
        )
        self._m_connections = self.registry.counter(
            "service_connections_total", "HTTP connections accepted"
        )
        self._m_latency = self.registry.histogram(
            "service_request_seconds",
            "HTTP request handling latency",
            buckets=REQUEST_SECONDS_BUCKETS,
        )

    @property
    def port(self) -> int:
        """The bound TCP port (meaningful after :meth:`start`)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        await self.broker.start()
        self._server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port
        )

    async def stop(self) -> int:
        """Stop accepting connections, then drain the broker.

        Idle connections are closed at once; a connection busy with a
        request answers it with ``Connection: close`` and reads no
        more.  From Python 3.12 ``wait_closed`` waits for every open
        connection, so an idle one must not be left open.
        """
        if self._server is not None:
            self._stopping = True
            self._server.close()
            for writer in self._idle:
                writer.close()
            if self._idle:
                await asyncio.wait(list(self._idle.values()))
            await self._server.wait_closed()
            self._server = None
        return await self.broker.drain()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._m_connections.inc()
        try:
            while await self._serve_one(reader, writer):
                pass
        finally:
            writer.close()

    async def _serve_one(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Read and answer one request; True keeps the connection open.

        As in HTTP/1.1 the connection stays open unless the client sent
        ``Connection: close`` (or spoke HTTP/1.0 without keep-alive),
        the request could not be framed (a 400, 413, 414, 431 or 500
        may leave part of it unread), the answer was an event stream,
        or the service is stopping or draining.
        """
        request_id = ""  # generated once the head shows none is usable
        loop = asyncio.get_running_loop()
        started = loop.time()
        route = "unparsed"
        code = 0  # 0 = no response written (connection closed)
        keep_alive = False  # only a routed answer may keep it open
        try:
            request_line = await self._next_request_line(reader, writer)
            if not request_line:
                return False
            started = loop.time()
            method, path, headers, wanted = await self._read_head(
                request_line, reader
            )
            # Honor a caller-supplied correlation id: the same
            # request_id then spans client, HTTP layer, broker, and
            # (through lease/complete) the worker that executed it.
            request_id = (
                sanitize_request_id(headers.get("x-request-id", ""))
                or _new_request_id()
            )
            with request_id_context(request_id):
                bare = path.split("?", 1)[0]
                if (
                    method == "GET"
                    and bare.startswith("/v1/jobs/")
                    and bare.endswith("/events")
                ):
                    # SSE: long-lived, incrementally written response
                    # that bypasses the Content-Length writer below.
                    route = "/v1/jobs/{id}/events"
                    job_id = bare[len("/v1/jobs/"):-len("/events")]
                    code = await self._stream_events(
                        writer, job_id, headers, request_id
                    )
                else:
                    body = await self._read_body(reader, headers)
                    route, code, payload, extra = await self._route(
                        method, path, body
                    )
                    keep_alive = wanted and not (
                        self._stopping or self.broker.draining
                    )
                    self._write_response(
                        writer, code, payload, request_id, extra,
                        keep_alive,
                    )
                _log.info(
                    "%s %s -> %d",
                    method,
                    path,
                    code,
                    extra={
                        "event": "request",
                        "method": method,
                        "path": path,
                        "route": route,
                        "code": code,
                        "duration_s": loop.time() - started,
                    },
                )
        except _TooLarge as error:
            code = error.code
            self._write_response(
                writer, code, {"error": str(error)},
                request_id or _new_request_id(), {},
            )
        except ServiceError as error:
            code = 400
            self._write_response(
                writer, 400, {"error": str(error)},
                request_id or _new_request_id(), {},
            )
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            code = 0  # torn connection: nothing to answer
        except Exception as error:  # never kill the accept loop
            code = 500
            _log.exception("handler crashed: %s", error)
            try:
                self._write_response(
                    writer, 500,
                    {"error": f"{type(error).__name__}: {error}"},
                    request_id or _new_request_id(), {},
                )
            except ConnectionError:
                pass
        finally:
            if code:
                self._m_requests.inc(route=route, code=str(code))
                self._m_latency.observe(
                    loop.time() - started, route=route
                )
        try:
            await writer.drain()
        except ConnectionError:
            return False
        return keep_alive

    async def _next_request_line(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bytes:
        """The next request line, or ``b""`` when the connection is done.

        While it waits the connection is idle: :meth:`stop` closes it,
        and so does a timer after :data:`KEEPALIVE_IDLE_S`.  A line that
        arrives on a connection closed meanwhile is dropped unanswered,
        so a client that resends on a fresh connection is served once.
        """
        if self._stopping:
            return b""
        timer = asyncio.get_running_loop().call_later(
            KEEPALIVE_IDLE_S, writer.close
        )
        self._idle[writer] = asyncio.current_task()
        try:
            line = await reader.readline()
        except ValueError:  # past the reader's limit
            raise _TooLarge(414, "request line too long") from None
        finally:
            timer.cancel()
            del self._idle[writer]
        if writer.is_closing() or not line.strip():
            return b""
        return line

    async def _read_head(
        self, request_line: bytes, reader: asyncio.StreamReader
    ):
        """``(method, path, headers, wanted)`` of one request, where
        ``wanted`` says whether the client would keep the connection."""
        try:
            method, path, version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            raise ServiceError("malformed request line") from None
        headers: "dict[str, str]" = {}
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # past the reader's limit
                raise _TooLarge(431, "header line too long") from None
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        tokens = {
            token.strip()
            for token in headers.get("connection", "").lower().split(",")
        }
        if version.upper() == "HTTP/1.1":
            wanted = "close" not in tokens
        else:
            wanted = "keep-alive" in tokens
        return method.upper(), path, headers, wanted

    async def _read_body(self, reader, headers: dict) -> bytes:
        if "transfer-encoding" in headers:
            raise ServiceError(
                "request bodies need Content-Length "
                "(Transfer-Encoding is not supported)"
            )
        length = headers.get("content-length") or "0"
        if not length.isdecimal():
            raise ServiceError("malformed Content-Length")
        if int(length) > MAX_BODY_BYTES:
            raise _TooLarge(413, "request body too large")
        return await reader.readexactly(int(length))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _route(self, method: str, path: str, body: bytes):
        """Dispatch; returns ``(route, code, payload, extra_headers)``.

        ``payload`` is a dict (JSON-rendered), pre-serialized bytes, or
        a ``(bytes, content_type)`` pair for non-JSON responses.
        """
        path = path.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            return (
                "/healthz", 200,
                {"status": "ok", **self.broker.stats()}, {},
            )
        if path == "/readyz" and method == "GET":
            if self.broker.draining:
                return (
                    "/readyz", 503, {"status": "draining"},
                    {"Retry-After":
                     f"{self.config.retry_after_s:g}"},
                )
            stats = self.broker.stats()
            fleet = stats.get("fleet", {})
            local_alive = stats["workers_alive"]
            fleet_alive = fleet.get("workers_alive", 0)
            # Degraded = nothing can execute: no local worker slot is
            # alive (every one crashed past its restart budget, or
            # dispatch-only mode runs none) AND no fleet worker has a
            # fresh heartbeat.  Queued jobs would never run, so stop
            # admitting.
            if not local_alive and not fleet_alive:
                return (
                    "/readyz", 503,
                    {"status": "degraded",
                     "workers_alive": 0,
                     "fleet_workers_alive": 0,
                     "worker_crashes": stats["worker_crashes"]},
                    {"Retry-After":
                     f"{self.config.retry_after_s:g}"},
                )
            return (
                "/readyz", 200,
                {"status": "ready",
                 "workers_alive": local_alive,
                 "fleet_workers_alive": fleet_alive},
                {},
            )
        if path == "/metrics" and method == "GET":
            text = render_prometheus(self.registry.snapshot())
            return (
                "/metrics", 200,
                (text.encode("utf-8"),
                 "text/plain; version=0.0.4; charset=utf-8"),
                {},
            )
        if path == "/" and method == "GET":
            return (
                "/", 200,
                {
                    "service": "repro",
                    "endpoints": [
                        "POST /v1/jobs",
                        "GET /v1/jobs/{id}",
                        "GET /v1/jobs/{id}/events",
                        "POST /v1/fleet/register",
                        "POST /v1/fleet/lease",
                        "POST /v1/fleet/heartbeat",
                        "POST /v1/fleet/complete",
                        "POST /v1/fleet/deregister",
                        "GET /healthz",
                        "GET /readyz",
                        "GET /metrics",
                    ],
                },
                {},
            )
        if path == "/v1/jobs":
            if method != "POST":
                return "/v1/jobs", 405, {"error": "POST only"}, {}
            return await self._submit(body)
        if path.startswith("/v1/jobs/") and method == "GET":
            return self._job_status(path[len("/v1/jobs/"):])
        if path.startswith("/v1/fleet/"):
            return await self._fleet(method, path, body)
        return path, 404, {"error": f"no route for {method} {path}"}, {}

    async def _fleet(self, method: str, path: str, body: bytes):
        """The pull-worker protocol (all POST, all JSON bodies)."""
        route = path
        if method != "POST":
            return route, 405, {"error": "POST only"}, {}
        try:
            parsed = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return (
                route, 400,
                {"error": f"invalid JSON body: {error}"}, {},
            )
        if not isinstance(parsed, dict):
            return (
                route, 400,
                {"error": "request body must be a JSON object"}, {},
            )
        worker_id = str(parsed.get("worker_id") or "")
        if not worker_id or len(worker_id) > 128:
            return (
                route, 400,
                {"error": 'fleet request needs "worker_id"'}, {},
            )
        fleet = self.broker.fleet
        action = path[len("/v1/fleet/"):]
        if action == "register":
            if self.broker.draining:
                return (
                    route, 503, {"error": "service is draining"},
                    {"Retry-After": f"{self.config.retry_after_s:g}"},
                )
            capacity = int(parsed.get("capacity", 1) or 1)
            return route, 200, fleet.register(worker_id, capacity), {}
        if action == "lease":
            max_jobs = int(parsed.get("max_jobs", 1) or 1)
            return route, 200, fleet.lease(worker_id, max_jobs), {}
        if action == "heartbeat":
            jobs = parsed.get("jobs") or []
            if not isinstance(jobs, list):
                return (
                    route, 400, {"error": '"jobs" must be a list'}, {},
                )
            payload = fleet.heartbeat(
                worker_id,
                [str(job_id) for job_id in jobs],
                frames=parsed.get("frames"),
                spans=parsed.get("spans"),
            )
            return route, 200, payload, {}
        if action == "complete":
            job_id = str(parsed.get("job_id") or "")
            if not job_id:
                return (
                    route, 400,
                    {"error": 'complete needs "job_id"'}, {},
                )
            return (
                route, 200, fleet.complete(worker_id, job_id, parsed),
                {},
            )
        if action == "deregister":
            return route, 200, await fleet.deregister(worker_id), {}
        return (
            route, 404, {"error": f"no fleet action {action!r}"}, {}
        )

    async def _submit(self, body: bytes):
        entry = self._submissions.get(body)
        if entry is None:
            try:
                parsed = json.loads(body.decode("utf-8") or "{}")
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                return (
                    "/v1/jobs", 400,
                    {"error": f"invalid JSON body: {error}"}, {},
                )
            try:
                spec = spec_from_request(parsed)
            except ServiceError as error:
                return "/v1/jobs", 400, {"error": str(error)}, {}
            entry = (
                spec,
                parsed.get("priority", "interactive"),
                str(parsed.get("client", "")),
                self.broker.key_of(spec),
            )
        spec, priority, client, key = entry
        try:
            job, outcome = await self.broker.submit(
                spec, priority=priority, client=client, key=key
            )
        except AdmissionError as error:
            self._remember(body, entry)
            code = 503 if isinstance(error, DrainingError) else 429
            return (
                "/v1/jobs", code,
                {
                    "error": str(error),
                    "reason": error.reason,
                    "retry_after_s": error.retry_after_s,
                },
                {"Retry-After": f"{error.retry_after_s:g}"},
            )
        except ServiceError as error:
            return "/v1/jobs", 400, {"error": str(error)}, {}
        self._remember(body, entry)
        if job.status == "done":
            # A hit in one round trip: the body is the job document
            # itself, the bytes GET /v1/jobs/{id} answers.
            return (
                "/v1/jobs", 200, job.result_bytes,
                {
                    "Content-Location": f"/v1/jobs/{job.job_id}",
                    "X-Job-Outcome": outcome,
                },
            )
        return (
            "/v1/jobs", 202,
            {
                "job_id": job.job_id,
                "status": job.status,
                "outcome": outcome,
                "poll": f"/v1/jobs/{job.job_id}",
            },
            {},
        )

    def _remember(self, body: bytes, entry: tuple) -> None:
        """Keep an admissible body's parse for its next submission.

        Only bodies the broker admitted or turned away for load reach
        here: one it refused as invalid is parsed again each time.
        """
        if len(body) > SUBMIT_MEMO_MAX_BODY:
            return
        self._submissions[body] = entry
        self._submissions.move_to_end(body)
        while len(self._submissions) > SUBMIT_MEMO_ENTRIES:
            self._submissions.popitem(last=False)

    def _job_status(self, job_id: str):
        route = "/v1/jobs/{id}"
        job = self.broker.get(job_id)
        if job is not None and job.status == "done":
            return route, 200, job.result_bytes, {}
        if job is not None:
            return route, 200, job.status_dict(), {}
        stored = self.broker.lookup_response(job_id)
        if stored is not None:
            return route, 200, stored, {}
        return route, 404, {"error": f"unknown job {job_id!r}"}, {}

    # ------------------------------------------------------------------
    # Event streaming (SSE)
    # ------------------------------------------------------------------

    @staticmethod
    def _sse_frame(entry) -> bytes:
        event_id, event, data = entry
        return (
            f"id: {event_id}\nevent: {event}\n"
            f"data: {json.dumps(data)}\n\n"
        ).encode("utf-8")

    async def _stream_events(
        self, writer, job_id: str, headers: dict, request_id: str
    ) -> int:
        """``GET /v1/jobs/{id}/events``: stream until a terminal event.

        Replays the broker's per-job ring (filtered past the client's
        ``Last-Event-ID`` if it reconnected), then relays live events
        from a bounded subscriber queue, writing ``: heartbeat``
        comments whenever ``stream_heartbeat_s`` passes without one.
        The stream ends after a terminal event (``done`` / ``failed`` /
        ``checkpointed``), when the client disconnects, or when the
        service starts draining.  Returns the HTTP status code for the
        request log/metrics.
        """
        last_id: Optional[int] = None
        raw = headers.get("last-event-id", "")
        if raw:
            try:
                last_id = int(raw)
            except ValueError:
                last_id = None  # ignore garbage resume cookies
        subscription = self.broker.subscribe(
            job_id, last_event_id=last_id
        )
        if subscription is None:
            self._write_response(
                writer, 404,
                {"error": f"unknown job {job_id!r}"},
                request_id, {},
            )
            return 404
        replay, queue = subscription
        head = [
            "HTTP/1.1 200 OK",
            "Content-Type: text/event-stream",
            "Cache-Control: no-cache",
            f"X-Request-Id: {request_id}",
            "Connection: close",
        ]
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
        )
        try:
            for entry in replay:
                writer.write(self._sse_frame(entry))
                if entry[1] in TERMINAL_EVENTS:
                    await writer.drain()
                    return 200
            await writer.drain()
            while True:
                try:
                    entry = await asyncio.wait_for(
                        queue.get(),
                        timeout=self.config.stream_heartbeat_s,
                    )
                except asyncio.TimeoutError:
                    if self.broker.draining:
                        # Graceful drain closes every queued job's
                        # stream via "checkpointed"; anything still
                        # idle here would pin the shutdown.
                        return 200
                    writer.write(b": heartbeat\n\n")
                    await writer.drain()
                    continue
                writer.write(self._sse_frame(entry))
                await writer.drain()
                if entry[1] in TERMINAL_EVENTS:
                    return 200
        except ConnectionError:
            return 200  # client went away mid-stream
        finally:
            self.broker.unsubscribe(job_id, queue)

    # ------------------------------------------------------------------
    # Response writing
    # ------------------------------------------------------------------

    def _write_response(
        self,
        writer,
        code: int,
        payload,
        request_id: str,
        extra: dict,
        keep_alive: bool = False,
    ) -> None:
        if isinstance(payload, tuple):
            body, content_type = payload
        elif isinstance(payload, (bytes, bytearray)):
            body, content_type = bytes(payload), "application/json"
        else:
            body = json.dumps(payload).encode("utf-8") + b"\n"
            content_type = "application/json"
        head = [
            f"HTTP/1.1 {code} {_STATUS_TEXT.get(code, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"X-Request-Id: {request_id}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in extra.items():
            head.append(f"{name}: {value}")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        )


class _TooLarge(Exception):
    """Internal: a request line or header line past the stream reader's
    limit (64 KiB), or a body past :data:`MAX_BODY_BYTES`."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ----------------------------------------------------------------------
# Process entry points
# ----------------------------------------------------------------------


async def serve_async(
    config: ServiceConfig,
    announce: Callable[[str], None] = print,
    ready: "Optional[Callable[[ServiceServer], Awaitable[None] | None]]" = None,
) -> int:
    """Run the service until SIGTERM/SIGINT, then drain gracefully.

    ``announce`` receives human-readable lifecycle lines (the CLI
    prints them; the smoke test parses the "listening on" line for the
    ephemeral port).  ``ready`` is an optional hook invoked once the
    listener is bound — tests use it to trigger client traffic.
    Returns the process exit code: 0 after a clean drain.
    """
    server = ServiceServer(config)
    await server.start()
    # Handlers go in before the announcement: a supervisor may SIGTERM
    # the moment it reads "listening on", and that must drain.
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: "list[signal.Signals]" = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or exotic platform: rely on stop()
    announce(
        f"repro service listening on "
        f"http://{config.host}:{server.port}"
    )
    _log.info(
        "service started",
        extra={
            "event": "service_start",
            "host": config.host,
            "port": server.port,
            "workers": config.workers,
            "queue_capacity": config.queue_capacity,
        },
    )
    if ready is not None:
        outcome = ready(server)
        if asyncio.iscoroutine(outcome):
            await outcome
    try:
        await stop.wait()
        announce("repro service draining ...")
        checkpointed = await server.stop()
        announce(
            f"repro service stopped "
            f"({checkpointed} queued job(s) checkpointed)"
        )
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
    _log.info(
        "service stopped",
        extra={"event": "service_stop"},
    )
    return 0


class ThreadedServer:
    """Run a service on a background thread (tests, benchmarks).

    Usage::

        with ThreadedServer(config) as server:
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
            ...

    The context exit triggers the same graceful drain SIGTERM would.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.port: Optional[int] = None
        self.server: Optional[ServiceServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._failed: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            server = ServiceServer(self.config)
            await server.start()
            self.server = server
            self.port = server.port
            self._started.set()
            await self._stop.wait()
            await server.stop()

        try:
            asyncio.run(main())
        except BaseException as error:  # surface bind errors to caller
            self._failed = error
            self._started.set()

    def __enter__(self) -> "ThreadedServer":
        self._thread.start()
        self._started.wait(timeout=30)
        if self._failed is not None:
            raise ServiceError(
                f"service thread failed to start: {self._failed}"
            ) from self._failed
        if self.port is None:
            raise ServiceError("service thread did not come up in 30s")
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)


__all__ = [
    "KEEPALIVE_IDLE_S",
    "MAX_BODY_BYTES",
    "REQUEST_SECONDS_BUCKETS",
    "SUBMIT_MEMO_ENTRIES",
    "SUBMIT_MEMO_MAX_BODY",
    "ServiceServer",
    "ThreadedServer",
    "sanitize_request_id",
    "serve_async",
    "spec_from_request",
]
