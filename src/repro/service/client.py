"""Typed synchronous client for the simulation service.

Zero-dependency (a small HTTP/1.1 transport on a plain socket) so any
consumer that can import :mod:`repro` can talk to ``repro serve``::

    from repro.service.client import ServiceClient

    client = ServiceClient("http://127.0.0.1:8477", client_id="ci")
    ticket = client.submit(workload="BFS", scale="tiny")
    status = client.wait(ticket.job_id, timeout_s=120)
    print(status.results["GraphPIM"]["cycles"])

Admission rejections surface as typed exceptions carrying the server's
``Retry-After`` hint (:class:`ClientBackpressureError`), so callers can
implement polite retry loops; :meth:`ServiceClient.submit_and_wait`
implements one.

A submission the server answers with the job document (a done job:
status 200 with ``Content-Location: /v1/jobs/{id}``) costs one round
trip: the client keeps that document, and :meth:`ServiceClient.status`
and :meth:`ServiceClient.wait` answer the job from it without asking
again.

Calls reuse a persistent connection, one per calling thread; see
:class:`ServiceClient`.  The client speaks the framing ``repro serve``
speaks and no more.  A request goes out in one ``sendall``, its body
(if any) framed by ``Content-Length``.  A response's status line and
headers are bounded as :mod:`http.client` bounds them (64 KiB a line,
100 header lines); its body is exactly ``Content-Length`` bytes, or,
when it gives no length, every byte up to the end of the stream, after
which the connection is closed.  A response framed by
``Transfer-Encoding`` (chunked), or one past those bounds, raises
:class:`~repro.common.errors.ServiceError`.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Optional

from repro.common.errors import ServiceError
from repro.runner.spec import ExperimentSpec

#: Bounds on a response's head, as :mod:`http.client` sets them: the
#: longest status or header line, and the most header lines.
MAX_LINE_BYTES = 65536
MAX_HEADER_LINES = 100

#: Done job documents one client keeps from one-trip submissions, and
#: submission bodies it keeps encoded, one per spec object and priority.
DONE_JOBS_KEPT = 128
ENCODED_SPECS_KEPT = 128


class ClientBackpressureError(ServiceError):
    """The server rejected the submission (429/503) with a retry hint."""

    def __init__(self, message: str, reason: str, retry_after_s: float):
        super().__init__(message)
        self.reason = reason
        self.retry_after_s = retry_after_s


class JobFailedError(ServiceError):
    """The submitted job reached the ``failed`` terminal state."""


@dataclass(frozen=True)
class StreamEvent:
    """One Server-Sent Event from ``GET /v1/jobs/{id}/events``.

    ``event_id`` is the server's monotonically increasing per-job id
    (feed the last one seen back as ``last_event_id`` to resume after
    a disconnect).  ``event`` is the lifecycle name (``queued``,
    ``running``, ``progress``, ``done``, ``failed``,
    ``checkpointed``); ``data`` is the decoded JSON payload — a job
    status dict, or a ProgressSnapshot dict for ``progress`` frames.
    """

    event_id: int
    event: str
    data: dict

    @property
    def terminal(self) -> bool:
        return self.event in ("done", "failed", "checkpointed")


@dataclass(frozen=True)
class SubmitTicket:
    """What ``POST /v1/jobs`` answered."""

    job_id: str
    status: str
    outcome: str  # accepted | coalesced | duplicate | cache_hit

    @property
    def done(self) -> bool:
        return self.status == "done"


def _json_object(data: bytes) -> dict:
    """``data`` decoded as a JSON object, or :class:`ServiceError`."""
    try:
        parsed = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceError(f"server sent unparseable JSON: {error}") from error
    if not isinstance(parsed, dict):
        raise ServiceError("server sent a non-object JSON body")
    return parsed


@dataclass(frozen=True)
class JobStatus:
    """One job document, raw bytes retained.

    ``raw`` is the exact body the server sent — for a done job these
    bytes are canonical and bit-identical across every client of the
    same spec, which tests assert directly.  ``body`` is the document
    decoded: a ``GET /v1/jobs/{id}`` answer is decoded as it arrives
    (its status is read from it), a done submission's document on the
    first access of ``body``.
    """

    job_id: str
    status: str
    raw: bytes
    _body: Optional[dict] = field(default=None, repr=False, compare=False)

    @property
    def body(self) -> dict:
        """The decoded document; :class:`ServiceError` if ``raw`` is
        not a JSON object."""
        if self._body is None:
            object.__setattr__(self, "_body", _json_object(self.raw))
        return self._body

    @property
    def done(self) -> bool:
        return self.status == "done"

    @property
    def failed(self) -> bool:
        return self.status == "failed"

    @property
    def results(self) -> "dict[str, dict]":
        """Mode label -> versioned SimResult payload (done jobs)."""
        return self.body.get("results", {})

    @property
    def error(self) -> str:
        return self.body.get("error", "")


def _read_line(reader: BinaryIO, what: str) -> bytes:
    line = reader.readline(MAX_LINE_BYTES + 1)
    if len(line) > MAX_LINE_BYTES:
        raise ServiceError(f"{what} longer than {MAX_LINE_BYTES} bytes")
    return line


def _read_head(reader: BinaryIO) -> "tuple[int, dict[str, str], bool]":
    """One response's status code, its headers (names lower-cased), and
    whether the server keeps the connection open after it."""
    line = _read_line(reader, "status line")
    if not line:
        raise ServiceError("the server closed the connection unanswered")
    version, _, rest = line.partition(b" ")
    try:
        code = int(rest[:3])
    except ValueError:
        code = 0
    if not version.startswith(b"HTTP/1.") or not 100 <= code <= 999:
        raise ServiceError(f"malformed status line {line[:80]!r}")
    headers: "dict[str, str]" = {}
    for _ in range(MAX_HEADER_LINES + 1):
        line = _read_line(reader, "header line")
        if line in (b"\r\n", b"\n", b""):
            break
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon:
            raise ServiceError(f"malformed header line {line[:80]!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ServiceError(f"more than {MAX_HEADER_LINES} header lines")
    if "transfer-encoding" in headers:
        raise ServiceError(
            f"response framed by Transfer-Encoding: "
            f"{headers['transfer-encoding']} (the client reads "
            f"Content-Length or close-delimited bodies only)"
        )
    tokens = {
        token.strip()
        for token in headers.get("connection", "").lower().split(",")
    }
    # An older HTTP/1.x server's connection is not reused.
    keep_alive = version == b"HTTP/1.1" and "close" not in tokens
    return code, headers, keep_alive


def _read_response(
    reader: BinaryIO,
) -> "tuple[int, dict[str, str], bytes, bool]":
    """``(code, headers, body, keep_alive)`` of one whole response."""
    code, headers, keep_alive = _read_head(reader)
    length = headers.get("content-length")
    if length is None:
        return code, headers, reader.read(), False
    if not length.isdecimal():
        raise ServiceError(f"malformed Content-Length {length!r}")
    body = reader.read(int(length))
    if len(body) != int(length):
        raise ServiceError(
            f"response ended after {len(body)} of {length} body bytes"
        )
    return code, headers, body, keep_alive


def _keep(kept: dict, key, value, bound: int) -> None:
    """Put ``key`` in ``kept`` as its newest entry, then drop the oldest
    entries past ``bound`` (a dict keeps insertion order)."""
    kept.pop(key, None)
    kept[key] = value
    while len(kept) > bound:
        del kept[next(iter(kept))]


class _Connection:
    """One TCP connection to the server and a buffered reader on it."""

    def __init__(self, address: "tuple[str, int]", timeout_s: float):
        self.sock = socket.create_connection(address, timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader: BinaryIO = self.sock.makefile("rb")

    def send(self, request: bytes) -> bool:
        """Send one request; False when the server closed the connection
        before any byte of an answer (a reset, a broken pipe, or end of
        stream: it closed the connection while it sat idle)."""
        try:
            self.sock.sendall(request)
            return bool(self.reader.peek(1))
        except (ConnectionResetError, BrokenPipeError):
            return False

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class ServiceClient:
    """Small blocking client over persistent HTTP connections.

    Each thread that calls it gets its own connection, a socket with
    ``TCP_NODELAY`` opened on its first call and reused for the next
    ones, so one client can be shared between threads (a fleet worker's
    job loop and heartbeat thread).  The connection is closed, and the
    next call opens a new one, after a response that says
    ``Connection: close`` or has no ``Content-Length``, and after any
    failed call.  When a reused connection fails before any response
    byte arrives, because the server closed it while it sat idle, the
    call is sent once more on a fresh connection; it is never resent
    once a response has started.  :meth:`events` streams over a
    connection of its own.  :meth:`close` closes every thread's
    connection; one left by a finished thread is closed when the next
    thread connects.

    A submission answered with the job document (a done job: 200 with
    ``Content-Location``) is one round trip.  The client keeps the last
    :data:`DONE_JOBS_KEPT` such documents under its lock, and
    :meth:`status` and :meth:`wait` answer those jobs from them without
    a request; a later submission of the job that is answered any other
    way drops its document.  A ``spec`` submission's body is encoded
    once per spec object and priority.

    ``base_url`` is ``http://host:port`` or a bare ``host:port``; the
    port defaults to 80, and an IPv6 host goes in brackets.
    """

    def __init__(
        self,
        base_url: str = "http://127.0.0.1:8477",
        timeout_s: float = 30.0,
        client_id: str = "",
    ):
        if "://" not in base_url:
            base_url = f"http://{base_url}"
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme != "http":
            raise ServiceError(
                f"unsupported scheme {parsed.scheme!r} (http only)"
            )
        try:
            port = parsed.port
        except ValueError as error:
            raise ServiceError(
                f"bad port in base url {base_url!r}: {error}"
            ) from None
        if not parsed.hostname:
            raise ServiceError(f"cannot parse base url {base_url!r}")
        self._host = parsed.hostname
        self._port = 80 if port is None else port
        host = f"[{self._host}]" if ":" in self._host else self._host
        self._authority = f"{host}:{self._port}"
        self.timeout_s = timeout_s
        self.client_id = client_id
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: "dict[threading.Thread, _Connection]" = {}
        #: Job id -> the done status a one-trip submission answered.
        self._done: "dict[str, JobStatus]" = {}
        #: (id(spec), priority, client id) -> (spec, encoded body).
        self._bodies: (
            "dict[tuple[int, str, str], tuple[ExperimentSpec, bytes]]"
        ) = {}

    def close(self) -> None:
        """Close every thread's connection; a later call opens anew."""
        with self._lock:
            connections = list(self._connections.values())
            self._connections.clear()
            self._local = threading.local()
        for conn in connections:
            conn.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _connection(self) -> "tuple[_Connection, bool]":
        """This thread's connection, and whether an earlier call used
        it; opened when the thread has none."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            return conn, True
        conn = _Connection((self._host, self._port), self.timeout_s)
        with self._lock:
            for thread in list(self._connections):
                if not thread.is_alive():
                    self._connections.pop(thread).close()
            self._connections[threading.current_thread()] = conn
        self._local.conn = conn
        return conn, False

    def _drop(self, conn: _Connection) -> None:
        """Close this thread's connection; its next call opens anew."""
        self._local.conn = None
        with self._lock:
            thread = threading.current_thread()
            if self._connections.get(thread) is conn:
                del self._connections[thread]
        conn.close()

    def _encode(
        self,
        method: str,
        path: str,
        headers: "dict[str, str]",
        payload: bytes = b"",
    ) -> bytes:
        """One request's bytes: the request line, ``Host``, ``headers``
        in order, a blank line, then ``payload``."""
        head = f"{method} {path} HTTP/1.1\r\nHost: {self._authority}\r\n"
        for name, value in headers.items():
            if "\r" in value or "\n" in value:
                raise ServiceError(
                    f"{name} header holds a line break: {value!r}"
                )
            head += f"{name}: {value}\r\n"
        return (head + "\r\n").encode("latin-1") + payload

    def _failure(
        self, method: str, path: str, error: Exception
    ) -> ServiceError:
        return ServiceError(
            f"{method} {path} failed against "
            f"{self._host}:{self._port}: {error}"
        )

    def _request(
        self,
        method: str,
        path: str,
        body: "dict | bytes | None" = None,
        request_id: str = "",
    ) -> "tuple[int, dict[str, str], bytes]":
        """One request and its response; ``body`` is a JSON object, or
        one already encoded."""
        headers: "dict[str, str]" = {}
        payload = b""
        if body is not None:
            payload = (
                body if isinstance(body, bytes)
                else json.dumps(body).encode("utf-8")
            )
            headers["Content-Type"] = "application/json"
            headers["Content-Length"] = str(len(payload))
        if self.client_id:
            headers["X-Client-Id"] = self.client_id
        if request_id:
            # Correlation id: the server echoes it, binds its logs to
            # it, and carries it with the job through lease/complete.
            headers["X-Request-Id"] = request_id
        request = self._encode(method, path, headers, payload)
        conn = None
        try:
            conn, reused = self._connection()
            sent = conn.send(request)
            if not sent and reused:  # closed while idle: resend once
                self._drop(conn)
                conn, _ = self._connection()
                sent = conn.send(request)
            if not sent:
                raise ServiceError(
                    "the server closed the connection unanswered"
                )
            code, response_headers, data, keep_alive = _read_response(
                conn.reader
            )
        except (OSError, ServiceError) as error:
            if conn is not None:
                self._drop(conn)
            raise self._failure(method, path, error) from error
        if not keep_alive:
            self._drop(conn)
        return code, response_headers, data

    def _spec_body(self, spec: ExperimentSpec, priority: str) -> bytes:
        """The encoded submission body for ``spec``, built once per spec
        object, priority and client id.

        Keyed on the object, not on equality: equal specs can have
        different ``spec_key``s (a param of 2 and one of 2.0), so each
        must send its own bytes.  The entry holds the spec, so no other
        object takes its id while the entry lives.
        """
        key = (id(spec), priority, self.client_id)
        with self._lock:
            kept = self._bodies.get(key)
        if kept is not None:
            return kept[1]
        body: "dict[str, Any]" = {"priority": priority}
        if self.client_id:
            body["client"] = self.client_id
        body["spec"] = spec.to_dict()
        payload = json.dumps(body).encode("utf-8")
        with self._lock:
            _keep(self._bodies, key, (spec, payload), ENCODED_SPECS_KEPT)
        return payload

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------

    def submit(
        self,
        workload: Optional[str] = None,
        scale: Optional[str] = None,
        modes: Optional["list[str]"] = None,
        threads: Optional[int] = None,
        params: Optional[dict] = None,
        faults: Optional[str] = None,
        spec: Optional[ExperimentSpec] = None,
        priority: str = "interactive",
        request_id: str = "",
    ) -> SubmitTicket:
        """Submit one experiment; returns the admission ticket.

        Either pass a full ``spec`` (an
        :class:`~repro.runner.spec.ExperimentSpec`) or the shorthand
        fields.  Raises :class:`ClientBackpressureError` on 429/503
        and :class:`~repro.common.errors.ServiceError` on other
        protocol failures.  A done job's document, when the server
        answers with it, is kept for :meth:`status`.
        """
        body: "dict[str, Any] | bytes"
        if spec is not None:
            body = self._spec_body(spec, priority)
        else:
            if workload is None:
                raise ServiceError("submit needs a workload or a spec")
            body = {"priority": priority}
            if self.client_id:
                body["client"] = self.client_id
            body["workload"] = workload
            if scale is not None:
                body["scale"] = scale
            if modes is not None:
                body["modes"] = list(modes)
            if threads is not None:
                body["threads"] = threads
            if params:
                body["params"] = params
            if faults:
                body["faults"] = faults
        code, headers, data = self._request(
            "POST", "/v1/jobs", body, request_id=request_id
        )
        location = headers.get("content-location") if code == 200 else None
        if location is not None:
            # The document of the job Content-Location names, which the
            # server sends only for a done job; kept undecoded.
            job_id = urllib.parse.unquote(location.rpartition("/")[2])
            with self._lock:
                _keep(
                    self._done, job_id, JobStatus(job_id, "done", data),
                    DONE_JOBS_KEPT,
                )
            return SubmitTicket(
                job_id=job_id,
                status="done",
                outcome=headers.get("x-job-outcome", ""),
            )
        parsed = _json_object(data)
        if code in (429, 503):
            raise ClientBackpressureError(
                parsed.get("error", f"rejected with HTTP {code}"),
                reason=parsed.get("reason", "rejected"),
                retry_after_s=float(
                    parsed.get(
                        "retry_after_s",
                        headers.get("retry-after", 1.0),
                    )
                ),
            )
        if code not in (200, 202):
            detail = parsed.get("error") or repr(data[:200])
            raise ServiceError(
                f"submit rejected with HTTP {code}: {detail}"
            )
        ticket = SubmitTicket(
            job_id=parsed["job_id"],
            status=parsed["status"],
            outcome=parsed.get("outcome", ""),
        )
        with self._lock:
            self._done.pop(ticket.job_id, None)
        return ticket

    def status(self, job_id: str) -> JobStatus:
        """Current state of one job (raw response bytes retained).

        A job whose submission this client saw answered done in one
        trip is answered from that document, without a request.
        """
        with self._lock:
            kept = self._done.get(job_id)
        if kept is not None:
            return kept
        code, _headers, data = self._request(
            "GET", f"/v1/jobs/{urllib.parse.quote(job_id)}"
        )
        if code == 404:
            raise ServiceError(f"unknown job {job_id!r}")
        if code != 200:
            raise ServiceError(
                f"status failed with HTTP {code}: {data[:200]!r}"
            )
        parsed = _json_object(data)
        return JobStatus(
            job_id=parsed.get("job_id", job_id),
            status=parsed.get("status", "unknown"),
            raw=data,
            _body=parsed,
        )

    def wait(
        self,
        job_id: str,
        timeout_s: float = 300.0,
        poll_s: float = 0.05,
    ) -> JobStatus:
        """Poll until the job is terminal; raise on failure/timeout."""
        deadline = time.monotonic() + timeout_s
        while True:
            status = self.status(job_id)
            if status.done:
                return status
            if status.failed:
                raise JobFailedError(
                    f"job {job_id} failed: {status.error}"
                )
            if status.status == "checkpointed":
                raise ServiceError(
                    f"job {job_id} was checkpointed by a drain; "
                    f"resubmit after the service restarts"
                )
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} not finished after {timeout_s:g}s "
                    f"(last status: {status.status})"
                )
            time.sleep(poll_s)

    def events(
        self,
        job_id: str,
        last_event_id: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ):
        """Yield :class:`StreamEvent` frames from the SSE endpoint.

        Holds one connection open and parses the ``text/event-stream``
        wire format incrementally (``id:`` / ``event:`` / ``data:``
        fields, blank-line dispatch, ``:`` comment heartbeats are
        skipped).  The generator ends when the server closes the
        stream — after a terminal event, or on drain.  Pass the last
        ``event_id`` you processed as ``last_event_id`` to resume a
        dropped stream without missing (ring-retained) events.

        ``timeout_s`` bounds each socket read; the server's periodic
        heartbeats keep a healthy-but-quiet stream under any bound
        larger than ``stream_heartbeat_s``.
        """
        headers = {
            "Accept": "text/event-stream",
            "Connection": "close",
        }
        if self.client_id:
            headers["X-Client-Id"] = self.client_id
        if last_event_id is not None:
            headers["Last-Event-ID"] = str(last_event_id)
        path = f"/v1/jobs/{urllib.parse.quote(job_id)}/events"
        request = self._encode("GET", path, headers)
        try:
            conn = _Connection(
                (self._host, self._port),
                timeout_s if timeout_s is not None else self.timeout_s,
            )
        except OSError as error:
            raise self._failure("GET", path, error) from error
        try:
            try:
                conn.sock.sendall(request)
                code, _headers, _keep_alive = _read_head(conn.reader)
            except (OSError, ServiceError) as error:
                raise self._failure("GET", path, error) from error
            if code == 404:
                raise ServiceError(f"unknown job {job_id!r}")
            if code != 200:
                raise ServiceError(f"events answered HTTP {code}")
            event_id = 0
            event_name = "message"
            data_lines: "list[str]" = []
            while True:
                try:
                    raw = conn.reader.readline()
                except OSError as error:
                    raise ServiceError(
                        f"event stream for {job_id} broke: {error}"
                    ) from error
                if not raw:
                    return  # server closed the stream
                line = raw.decode("utf-8", "replace").rstrip("\r\n")
                if not line:
                    if data_lines:
                        try:
                            data = json.loads("\n".join(data_lines))
                        except json.JSONDecodeError:
                            data = {}
                        if not isinstance(data, dict):
                            data = {}
                        yield StreamEvent(
                            event_id=event_id,
                            event=event_name,
                            data=data,
                        )
                    event_name = "message"
                    data_lines = []
                    continue
                if line.startswith(":"):
                    continue  # heartbeat comment
                name, _, value = line.partition(":")
                if value.startswith(" "):
                    value = value[1:]
                if name == "id":
                    try:
                        event_id = int(value)
                    except ValueError:
                        pass
                elif name == "event":
                    event_name = value
                elif name == "data":
                    data_lines.append(value)
        finally:
            conn.close()

    def submit_and_wait(
        self,
        timeout_s: float = 300.0,
        max_retries: int = 8,
        **submit_kwargs,
    ) -> JobStatus:
        """Submit with polite backpressure retries, then wait."""
        deadline = time.monotonic() + timeout_s
        attempts = 0
        while True:
            try:
                ticket = self.submit(**submit_kwargs)
                break
            except ClientBackpressureError as error:
                attempts += 1
                if (
                    attempts > max_retries
                    or time.monotonic() >= deadline
                ):
                    raise
                time.sleep(min(error.retry_after_s, 5.0))
        return self.wait(
            ticket.job_id,
            timeout_s=max(deadline - time.monotonic(), 0.1),
        )

    # ------------------------------------------------------------------
    # Fleet protocol (used by the ``repro worker`` daemon)
    # ------------------------------------------------------------------

    def _fleet_post(
        self, action: str, body: dict, request_id: str = ""
    ) -> dict:
        code, _headers, data = self._request(
            "POST", f"/v1/fleet/{action}", body, request_id=request_id
        )
        parsed = _json_object(data)
        if code == 503:
            raise ClientBackpressureError(
                parsed.get("error", "service is draining"),
                reason=parsed.get("reason", "draining"),
                retry_after_s=float(parsed.get("retry_after_s", 1.0)),
            )
        if code != 200:
            raise ServiceError(
                f"fleet {action} answered HTTP {code}: "
                f"{parsed.get('error', '')}"
            )
        return parsed

    def fleet_register(
        self, worker_id: str, capacity: int = 1
    ) -> dict:
        """Join the fleet; returns lease TTL and heartbeat cadence."""
        return self._fleet_post(
            "register",
            {"worker_id": worker_id, "capacity": capacity},
        )

    def fleet_lease(self, worker_id: str, max_jobs: int = 1) -> dict:
        """Pull up to ``max_jobs`` queued jobs from this shard."""
        return self._fleet_post(
            "lease", {"worker_id": worker_id, "max_jobs": max_jobs}
        )

    def fleet_heartbeat(
        self,
        worker_id: str,
        jobs: "list[str]",
        frames: Optional["list[dict]"] = None,
        spans: Optional["list[dict]"] = None,
    ) -> dict:
        """Renew leases; piggyback progress frames and span batches."""
        body: "dict[str, Any]" = {
            "worker_id": worker_id,
            "jobs": list(jobs),
        }
        if frames:
            body["frames"] = frames
        if spans:
            body["spans"] = spans
        return self._fleet_post("heartbeat", body)

    def fleet_complete(
        self,
        worker_id: str,
        job_id: str,
        body: dict,
        request_id: str = "",
    ) -> dict:
        """Upload one result (idempotent by ``spec_key``)."""
        payload = dict(body)
        payload["worker_id"] = worker_id
        payload["job_id"] = job_id
        return self._fleet_post(
            "complete", payload, request_id=request_id
        )

    def fleet_deregister(self, worker_id: str) -> dict:
        """Graceful leave; the broker requeues any held leases."""
        return self._fleet_post(
            "deregister", {"worker_id": worker_id}
        )

    # ------------------------------------------------------------------
    # Introspection endpoints
    # ------------------------------------------------------------------

    def health(self) -> dict:
        code, _headers, data = self._request("GET", "/healthz")
        if code != 200:
            raise ServiceError(f"healthz answered HTTP {code}")
        return _json_object(data)

    def ready(self) -> bool:
        """True when the server accepts new work (not draining)."""
        code, _headers, _data = self._request("GET", "/readyz")
        return code == 200

    def metrics_text(self) -> str:
        """The raw Prometheus exposition from ``GET /metrics``."""
        code, _headers, data = self._request("GET", "/metrics")
        if code != 200:
            raise ServiceError(f"metrics answered HTTP {code}")
        return data.decode("utf-8")


__all__ = [
    "ClientBackpressureError",
    "JobFailedError",
    "JobStatus",
    "ServiceClient",
    "StreamEvent",
    "SubmitTicket",
]
