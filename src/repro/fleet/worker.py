"""The ``repro worker`` pull-worker daemon.

:class:`FleetWorker` is the client half of the fleet protocol: it
registers with a broker, then loops ``lease -> execute -> complete``
while a background thread heartbeats lease renewals (piggybacking
progress frames and timeline span batches into the broker's SSE
streams).  Execution itself is the same code every other tier runs —
:func:`~repro.runner.engine.execute_spec` inline, or a PR 8
:class:`~repro.runner.pool.SupervisedWorkerPool` when the runner asks
for parallelism — so a result computed here is bit-identical to the
serial reference by construction.

Failure discipline mirrors the supervised pool one tier up:

- a worker that dies mid-lease simply stops heartbeating; the broker's
  reaper requeues its jobs for the surviving shard owners;
- ``stop()`` (the CLI's SIGTERM handler) drains gracefully — the
  current batch finishes, uploads, and the worker deregisters so its
  leases never have to expire;
- the chaos ``lease`` hook (:class:`~repro.chaos.plan.ChaosPlan`
  ``lease_abandon_after``) makes the worker abandon a batch the way a
  SIGKILL would — no completes, no deregister, heartbeats stop — which
  is how tests drive the expiry/redispatch path deterministically.

Request ids travel end to end: the id bound at submission rides the
lease, is re-bound around execution here (so worker-side JSON log
lines correlate with the original submit), and returns to the broker
on the ``complete`` upload.
"""

from __future__ import annotations

import contextlib
import threading
import time
import uuid
from typing import Optional

from repro.common.errors import ReproError, ServiceError
from repro.obs.logs import get_logger, request_id_context
from repro.obs.progress import BufferedPublisher
from repro.obs.timeline import SpanStream
from repro.runner.spec import ExperimentSpec, RunnerConfig
from repro.service.client import ClientBackpressureError, ServiceClient

_log = get_logger("fleet.worker")

#: Fallback polling cadence between empty leases.
DEFAULT_POLL_S = 0.2

#: Frames buffered per in-flight job before drop-oldest kicks in.
FRAME_BUFFER = 16


def make_worker_id() -> str:
    """A fresh worker identity (hostname-tagged for operators)."""
    import socket

    host = socket.gethostname().split(".")[0] or "worker"
    return f"{host}-{uuid.uuid4().hex[:8]}"


class FleetWorker:
    """One pull-worker process (or in-process test harness)."""

    def __init__(
        self,
        client: ServiceClient,
        runner: RunnerConfig,
        worker_id: str = "",
        capacity: int = 1,
        poll_interval_s: float = DEFAULT_POLL_S,
        heartbeat_s: Optional[float] = None,
    ):
        self.client = client
        self.runner = runner
        self.worker_id = worker_id or make_worker_id()
        self.capacity = max(1, capacity)
        self.poll_interval_s = max(0.01, poll_interval_s)
        self._heartbeat_s = heartbeat_s
        self.chaos = runner.chaos
        self._stop = threading.Event()
        self._hb_stop = threading.Event()
        self._hb_thread: Optional[threading.Thread] = None
        #: job_id -> request_id for every lease currently held.
        self._held: "dict[str, str]" = {}
        #: job_id -> BufferedPublisher feeding heartbeat frames.
        self._publishers: "dict[str, BufferedPublisher]" = {}
        #: job_id -> SpanStream feeding heartbeat span batches.
        self._recorders: "dict[str, SpanStream]" = {}
        self._span_limit = 0
        self._progress_events = 0
        self._leased_total = 0
        self.executed = 0
        self.failed = 0
        self.abandoned = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Request a graceful drain (the SIGTERM path)."""
        self._stop.set()

    def run(self, max_batches: Optional[int] = None) -> dict:
        """Pull-execute-complete until stopped (or ``max_batches``).

        Returns a summary dict: executed/failed job counts, batches
        served, and whether the chaos hook abandoned the final batch.
        """
        info = self._register()
        if info is None:  # stopped before the broker ever answered
            return self._summary(batches=0)
        if self._heartbeat_s is None:
            self._heartbeat_s = float(
                info.get("heartbeat_s")
                or float(info.get("lease_ttl_s", 15.0)) / 3.0
            )
        self._hb_thread = threading.Thread(
            target=self._heartbeat_loop,
            name=f"fleet-hb-{self.worker_id}",
            daemon=True,
        )
        self._hb_thread.start()
        batches = 0
        try:
            while not self._stop.is_set():
                if max_batches is not None and batches >= max_batches:
                    break
                try:
                    lease = self.client.fleet_lease(
                        self.worker_id, max_jobs=self.capacity
                    )
                except (ServiceError, ClientBackpressureError):
                    # Broker unreachable or draining: back off, retry.
                    self._stop.wait(self.poll_interval_s * 4)
                    continue
                jobs = lease.get("jobs") or []
                stream = lease.get("stream") or {}
                self._span_limit = int(stream.get("spans", 0) or 0)
                self._progress_events = int(
                    stream.get("progress_events", 0) or 0
                )
                if not jobs:
                    if lease.get("draining"):
                        self._stop.wait(self.poll_interval_s * 4)
                    else:
                        self._stop.wait(self.poll_interval_s)
                    continue
                batches += 1
                self._leased_total += len(jobs)
                for job in jobs:
                    self._held[str(job["job_id"])] = str(
                        job.get("request_id") or ""
                    )
                if self._chaos_tripped():
                    # Abandon in place: keep no appointments, send no
                    # goodbyes — exactly what a SIGKILL looks like to
                    # the broker.  Its lease expiry takes over.
                    self.abandoned = True
                    _log.warning(
                        "chaos: abandoning lease batch (%d job(s))",
                        len(jobs),
                        extra={
                            "event": "fleet_chaos_abandon",
                            "worker": self.worker_id,
                            "jobs": sorted(self._held),
                        },
                    )
                    return self._summary(batches)
                self._execute_batch(jobs)
        finally:
            self._hb_stop.set()
            if self._hb_thread is not None:
                self._hb_thread.join(timeout=5.0)
            if not self.abandoned:
                try:
                    self.client.fleet_deregister(self.worker_id)
                except ServiceError:
                    pass  # broker gone: the reaper cleans us up
            # The job loop's and the heartbeat thread's connections.
            self.client.close()
        return self._summary(batches)

    def _summary(self, batches: int) -> dict:
        return {
            "worker_id": self.worker_id,
            "executed": self.executed,
            "failed": self.failed,
            "batches": batches,
            "leased": self._leased_total,
            "abandoned": self.abandoned,
        }

    def _register(self) -> Optional[dict]:
        while not self._stop.is_set():
            try:
                return self.client.fleet_register(
                    self.worker_id, capacity=self.capacity
                )
            except (ServiceError, ClientBackpressureError):
                self._stop.wait(self.poll_interval_s * 4)
        return None

    def _chaos_tripped(self) -> bool:
        return (
            self.chaos is not None
            and self.chaos.lease_abandon_after >= 0
            and self._leased_total > self.chaos.lease_abandon_after
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute_batch(self, jobs: "list[dict]") -> None:
        # A stop request drains gracefully: the whole leased batch
        # still executes and uploads before the worker deregisters.
        if self.runner.parallel and len(jobs) > 1:
            self._execute_batch_pool(jobs)
        else:
            for job in jobs:
                self._execute_inline(job)

    def _attach_streams(self, job_id: str):
        publisher = None
        recorder = None
        if self._progress_events > 0:
            publisher = BufferedPublisher(
                interval=self._progress_events,
                max_frames=FRAME_BUFFER,
            )
            self._publishers[job_id] = publisher
        if self._span_limit > 0:
            recorder = SpanStream()
            self._recorders[job_id] = recorder
        return publisher, recorder

    def _detach_streams(self, job_id: str) -> None:
        self._publishers.pop(job_id, None)
        self._recorders.pop(job_id, None)
        self._held.pop(job_id, None)

    def _execute_inline(self, job: dict) -> None:
        from repro.runner.engine import execute_spec

        job_id = str(job["job_id"])
        request_id = str(job.get("request_id") or "")
        publisher, recorder = self._attach_streams(job_id)
        started = time.perf_counter()
        context = (
            request_id_context(request_id)
            if request_id
            else contextlib.nullcontext()
        )
        with context:
            try:
                spec = ExperimentSpec.from_dict(job["spec"])
                payload = execute_spec(
                    spec,
                    self.runner,
                    publisher=publisher,
                    recorder=recorder,
                )
            except ReproError as error:
                self._complete_failed(
                    job_id, "error", str(error), request_id
                )
                return
            except Exception as error:  # job bug ≠ worker death
                self._complete_failed(
                    job_id,
                    "crash",
                    f"{type(error).__name__}: {error}",
                    request_id,
                )
                return
            self._complete_done(
                job_id,
                payload["trace_hash"],
                payload["modes"],
                time.perf_counter() - started,
                request_id,
            )

    def _execute_batch_pool(self, jobs: "list[dict]") -> None:
        """Run one lease batch through a supervised pool.

        The pool supplies crash supervision *inside* this worker node
        (its own child processes), while the broker's lease TTL covers
        the whole node dying; ``collect`` fires incrementally so each
        finished job uploads without waiting for its batch.  Specs
        that fail to parse never reach the pool.
        """
        from repro.runner.pool import SupervisedWorkerPool

        batch: "list[tuple[int, ExperimentSpec]]" = []
        meta: "dict[int, dict]" = {}
        for index, job in enumerate(jobs):
            job_id = str(job["job_id"])
            request_id = str(job.get("request_id") or "")
            try:
                spec = ExperimentSpec.from_dict(job["spec"])
            except (ReproError, KeyError, TypeError, ValueError) as err:
                self._complete_failed(
                    job_id, "error", f"malformed spec: {err}",
                    request_id,
                )
                continue
            self._attach_streams(job_id)
            batch.append((index, spec))
            meta[index] = {
                "job_id": job_id,
                "request_id": request_id,
                "started": time.perf_counter(),
            }

        def _on_progress(index: int, snapshot) -> None:
            entry = meta.get(index)
            if entry is None:
                return
            publisher = self._publishers.get(entry["job_id"])
            if publisher is not None:
                publisher.publish(snapshot)

        def _collect(index: int, outcome: dict) -> None:
            entry = meta[index]
            if outcome["status"] == "done":
                payload = outcome["payload"]
                self._complete_done(
                    entry["job_id"],
                    payload["trace_hash"],
                    payload["modes"],
                    time.perf_counter() - entry["started"],
                    entry["request_id"],
                )
            else:
                self._complete_failed(
                    entry["job_id"],
                    str(outcome.get("kind") or "error"),
                    str(outcome.get("message") or "pool failure"),
                    entry["request_id"],
                )

        if not batch:
            return
        pool = SupervisedWorkerPool(
            self.runner, on_progress=_on_progress
        )
        try:
            pool.run(batch, _collect)
        finally:
            pool.shutdown()
        # Anything the pool never collected (circuit open) goes back
        # to the broker as a failure so the job is not stuck leased.
        for index, entry in meta.items():
            if entry["job_id"] in self._held:
                self._complete_failed(
                    entry["job_id"],
                    "crash",
                    "worker pool gave up on this job "
                    "(circuit open)",
                    entry["request_id"],
                )

    # ------------------------------------------------------------------
    # Uploads
    # ------------------------------------------------------------------

    def _complete_done(
        self,
        job_id: str,
        trace_hash: str,
        modes: dict,
        seconds: float,
        request_id: str,
    ) -> None:
        body = {
            "status": "done",
            "trace_hash": trace_hash,
            "modes": {
                label: {
                    "payload": entry["payload"],
                    "cached": bool(entry.get("cached")),
                    "fallback": bool(entry.get("fallback")),
                }
                for label, entry in modes.items()
            },
            "seconds": seconds,
        }
        self._upload(job_id, body, request_id)
        self.executed += 1

    def _complete_failed(
        self, job_id: str, kind: str, message: str, request_id: str
    ) -> None:
        self._upload(
            job_id,
            {"status": "failed", "kind": kind, "message": message},
            request_id,
        )
        self.failed += 1

    def _upload(
        self, job_id: str, body: dict, request_id: str
    ) -> None:
        try:
            outcome = self.client.fleet_complete(
                self.worker_id, job_id, body, request_id=request_id
            )
        except (ServiceError, ClientBackpressureError) as error:
            # The lease will expire and redispatch; content-addressed
            # execution makes the retry bit-identical.
            outcome = {"outcome": f"upload-failed: {error}"}
        finally:
            self._flush_job_streams(job_id)
            self._detach_streams(job_id)
        _log.info(
            "complete %s: %s",
            job_id,
            outcome.get("outcome"),
            extra={
                "event": "fleet_worker_complete",
                "worker": self.worker_id,
                "spec_key": job_id,
                "outcome": outcome.get("outcome"),
            },
        )

    # ------------------------------------------------------------------
    # Heartbeats (lease renewal + telemetry piggyback)
    # ------------------------------------------------------------------

    def _drain_telemetry(self) -> "tuple[list[dict], list[dict]]":
        frames: "list[dict]" = []
        spans: "list[dict]" = []
        for job_id, publisher in list(self._publishers.items()):
            buffered = publisher.drain()
            if buffered:
                # Latest frame only: progress is a gauge, not a log.
                frames.append(
                    {"job_id": job_id, "frame": buffered[-1].to_dict()}
                )
        if self._span_limit > 0:
            for job_id, recorder in list(self._recorders.items()):
                batch = recorder.drain(self._span_limit)
                if batch:
                    spans.append({"job_id": job_id, "spans": batch})
        return frames, spans

    def _flush_job_streams(self, job_id: str) -> None:
        """Ship one finished job's telemetry tail with its upload."""
        publisher = self._publishers.get(job_id)
        recorder = self._recorders.get(job_id)
        frames: "list[dict]" = []
        spans: "list[dict]" = []
        if publisher is not None:
            buffered = publisher.drain()
            if buffered:
                frames.append(
                    {"job_id": job_id, "frame": buffered[-1].to_dict()}
                )
        if recorder is not None and self._span_limit > 0:
            batch = recorder.drain(self._span_limit)
            if batch:
                spans.append({"job_id": job_id, "spans": batch})
        if frames or spans:
            try:
                self.client.fleet_heartbeat(
                    self.worker_id,
                    [job_id],
                    frames=frames or None,
                    spans=spans or None,
                )
            except (ServiceError, ClientBackpressureError):
                pass  # telemetry is best-effort

    def _heartbeat_loop(self) -> None:
        interval = max(0.05, float(self._heartbeat_s or 5.0))
        while not self._hb_stop.wait(interval):
            if self.abandoned:
                return  # chaos: go silent, let the lease expire
            held = sorted(self._held)
            frames, spans = self._drain_telemetry()
            if not held and not frames and not spans:
                continue
            try:
                reply = self.client.fleet_heartbeat(
                    self.worker_id,
                    held,
                    frames=frames or None,
                    spans=spans or None,
                )
            except (ServiceError, ClientBackpressureError):
                continue  # lease loop handles a dead broker
            for job_id in reply.get("lost") or ():
                # The broker redispatched it (our renewal came too
                # late); any complete we still send is absorbed
                # idempotently, so just log the race.
                _log.warning(
                    "lease lost mid-flight: %s",
                    job_id,
                    extra={
                        "event": "fleet_lease_lost",
                        "worker": self.worker_id,
                        "spec_key": job_id,
                    },
                )


__all__ = [
    "DEFAULT_POLL_S",
    "FRAME_BUFFER",
    "FleetWorker",
    "make_worker_id",
]
