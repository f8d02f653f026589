"""Job broker: admission control between the HTTP frontend and runner.

The broker is the service's state machine.  One submitted
:class:`~repro.runner.spec.ExperimentSpec` becomes one :class:`Job`
whose identity *is* its content hash
(:func:`~repro.runner.fingerprint.spec_key`), which buys three
properties for free:

- **single-flight coalescing** — N concurrent submissions of the same
  spec map onto one Job; exactly one simulation runs and every caller
  polls the same job id and receives the same canonical response bytes;
- **cache short-circuit** — a spec whose response is already in the
  on-disk response store completes at admission time without ever
  entering the queue (no tracing, no simulation);
- **idempotent retries** — a client that times out and resubmits can
  never duplicate work.

Admission control is explicit and bounded:

- a per-client token bucket (``rate_limit_rps`` / ``rate_limit_burst``)
  rejects chatty clients with :class:`RateLimitedError`;
- a bounded admission count (``queue_capacity`` over both priority
  lanes) rejects overload with :class:`QueueFullError` — queue memory
  can never grow without bound;
- two priority lanes (``interactive`` drains before ``batch``) keep
  small what-if queries responsive under bulk sweeps.

Graceful drain (:meth:`JobBroker.drain`, wired to SIGTERM by
``repro serve``): new submissions are rejected with
:class:`DrainingError`, in-flight jobs run to completion (bounded by
``drain_timeout_s``), and queued-but-unstarted jobs are checkpointed to
``service_queue.jsonl`` under the cache root — a
:class:`~repro.runner.cache.JsonlJournal`, torn-line tolerant — which
:meth:`JobBroker.start` restores and clears on the next boot.  A drain
with nothing queued leaves no checkpoint behind.

With ``workers=0`` the broker runs no local execution slots (and no
thread pool): every admitted job waits for a fleet worker's lease.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.common.errors import ReproError, ServiceError
from repro.fleet.manager import FleetManager
from repro.obs.logs import (
    current_request_id,
    get_logger,
    reset_request_id,
    set_request_id,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import CallbackPublisher
from repro.runner.cache import JsonlJournal, ResultCache
from repro.runner.engine import execute_spec
from repro.runner.fingerprint import spec_key
from repro.runner.spec import ExperimentSpec
from repro.service.config import QUEUE_CHECKPOINT_FILENAME, ServiceConfig

_log = get_logger("service")

#: Priority lanes in drain order: interactive jobs always pop first.
LANES = ("interactive", "batch")

#: SSE event names that end a job's stream; after one of these the
#: server closes the connection and clients stop reconnecting.
TERMINAL_EVENTS = ("done", "failed", "checkpointed")

#: Request-latency-ish histogram bounds in seconds (simulations run
#: from milliseconds at tiny scale to minutes at paper scale).
EXECUTE_SECONDS_BUCKETS = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
    60.0, 120.0,
)


class AdmissionError(ServiceError):
    """A submission was rejected by admission control."""

    #: Machine-readable rejection reason (metrics label, JSON field).
    reason = "rejected"

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class QueueFullError(AdmissionError):
    """The bounded admission queue is at capacity (HTTP 429)."""

    reason = "backpressure"


class RateLimitedError(AdmissionError):
    """The client's token bucket is empty (HTTP 429)."""

    reason = "rate_limited"


class DrainingError(AdmissionError):
    """The broker is draining and accepts no new work (HTTP 503)."""

    reason = "draining"


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity."""

    def __init__(
        self,
        rate: float,
        burst: int,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.rate = rate
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._updated = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._updated) * self.rate
        )
        self._updated = now

    def try_acquire(self) -> bool:
        """Take one token if available."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def retry_after_s(self) -> float:
        """Seconds until one token will be available."""
        self._refill()
        if self._tokens >= 1.0 or self.rate <= 0:
            return 0.0
        return (1.0 - self._tokens) / self.rate


def canonical_json(payload: dict) -> bytes:
    """The one serialization used for every job response.

    Sorted keys, no whitespace: two renderings of equal payloads are
    equal *bytes*, which is what makes the coalescing bit-identity
    guarantee checkable with ``==`` on raw HTTP bodies.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


@dataclass
class Job:
    """One unit of service work, identified by its spec's content hash."""

    job_id: str  # == spec_key(spec)
    spec: ExperimentSpec
    priority: str
    status: str = "queued"  # queued|running|done|failed|checkpointed
    error: str = ""
    #: Extra submissions that mapped onto this job while it was live.
    coalesced: int = 0
    #: True when admission answered from the response store (no queue).
    from_cache: bool = False
    #: Canonical response body once terminal-with-results.
    result_bytes: Optional[bytes] = None
    execute_seconds: float = 0.0
    #: Request id of the original submission, propagated through fleet
    #: lease/complete calls into worker-side structured logs.
    request_id: str = ""
    #: Fleet worker currently holding this job's lease ("" = none).
    lease_worker: str = ""
    #: Involuntary lease releases this job survived (expiry / dead
    #: worker); at MAX_LEASE_EXPIRIES the job is quarantined.
    lease_expiries: int = 0
    done_event: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def finished(self) -> bool:
        return self.status in ("done", "failed", "checkpointed")

    def status_dict(self) -> dict:
        """Lightweight status view (``GET /v1/jobs/{id}`` while live)."""
        status = {
            "job_id": self.job_id,
            "status": self.status,
            "priority": self.priority,
            "workload": self.spec.workload,
            "scale": self.spec.scale,
            "coalesced": self.coalesced,
            "from_cache": self.from_cache,
            "error": self.error,
        }
        if self.lease_worker:
            status["worker"] = self.lease_worker
        return status


@dataclass
class _JobStream:
    """Per-job SSE fan-out state: monotonic ids, replay ring, queues.

    Event ids start at 1 and only grow; the ring keeps the newest
    ``stream_ring_size`` ``(id, event, data)`` tuples for
    ``Last-Event-ID`` replay.  ``closed`` flips when a terminal event
    is published — late subscribers then get the terminal event from
    the ring (or a synthesized one) and the server ends their stream.
    """

    ring: deque
    subscribers: "list[asyncio.Queue]" = field(default_factory=list)
    next_id: int = 0
    closed: bool = False


class JobBroker:
    """Single-flight, bounded, priority-aware front of the runner.

    All mutable state is touched only from coroutines on one event
    loop, so there are no locks — every await point leaves the
    structures consistent.  The actual simulation runs in a bounded
    :class:`ThreadPoolExecutor` via ``execute`` (default:
    :func:`~repro.runner.engine.execute_spec`, always called with
    ``publisher=`` and ``recorder=``, None when off), which tests
    replace with counting fakes to prove the coalescing invariant.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        execute: Optional[Callable[..., dict]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or ServiceConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._execute = execute or execute_spec
        self._clock = clock
        self._streams: "dict[str, _JobStream]" = {}
        self._stream_subscribers = 0
        self._jobs: "dict[str, Job]" = {}
        self._lanes: "dict[str, deque[Job]]" = {
            lane: deque() for lane in LANES
        }
        self._cond: Optional[asyncio.Condition] = None
        self._workers: "list[asyncio.Task]" = []
        self._prune_task: Optional[asyncio.Task] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self._terminal: "deque[str]" = deque()
        self._draining = False
        self._inflight = 0
        self._workers_alive = 0
        self._worker_crashes = 0
        self._worker_restarts = 0
        cache_dir = self.config.runner.cache_dir
        #: Response store: full canonical job responses keyed by
        #: spec_key, in a sibling namespace of the SimResult cache so
        #: `repro cache --verify` never sees (and quarantines) them.
        self._responses = (
            ResultCache(Path(cache_dir) / "service")
            if cache_dir is not None
            else None
        )
        self._checkpoint = (
            JsonlJournal(Path(cache_dir) / QUEUE_CHECKPOINT_FILENAME)
            if cache_dir is not None
            else None
        )
        self._init_metrics()
        #: Remote-worker tier: registry, hash-ring sharding, leases.
        self.fleet = FleetManager(self)
        self._fleet_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def _init_metrics(self) -> None:
        reg = self.registry
        self._m_depth = reg.gauge(
            "service_queue_depth", "Queued jobs per priority lane"
        )
        self._m_inflight = reg.gauge(
            "service_jobs_inflight", "Jobs currently executing"
        )
        self._m_submissions = reg.counter(
            "service_submissions_total",
            "Submissions by admission outcome",
        )
        self._m_coalesced = reg.counter(
            "service_coalesced_hits_total",
            "Submissions coalesced onto an already-live identical job",
        )
        self._m_rejected = reg.counter(
            "service_rejected_total", "Rejected submissions by reason"
        )
        self._m_jobs = reg.counter(
            "service_jobs_total", "Jobs reaching a terminal state"
        )
        self._m_execute = reg.histogram(
            "service_job_execute_seconds",
            "Wall seconds one job spent executing",
            buckets=EXECUTE_SECONDS_BUCKETS,
        )
        self._m_engine_fallbacks = reg.counter(
            "service_engine_fallbacks_total",
            "Mode simulations where the vectorized kernel declined "
            "and the reference interpreter ran instead",
        )
        self._m_trace_reuses = reg.counter(
            "service_trace_reuses_total",
            "Jobs executed here whose trace came from the process's "
            "trace memo instead of a capture",
        )
        self._m_prune_runs = reg.counter(
            "service_cache_prune_runs_total",
            "Completed cache-prune sweeps",
        )
        self._m_pruned_bytes = reg.counter(
            "service_cache_pruned_bytes_total",
            "Bytes reclaimed by cache pruning",
        )
        self._m_worker_crashes = reg.counter(
            "service_worker_crashes_total",
            "Broker worker tasks that died with an unexpected exception",
        )
        self._m_worker_restarts = reg.counter(
            "service_worker_restarts_total",
            "Crashed broker worker tasks restarted by the supervisor",
        )
        self._m_workers_alive = reg.gauge(
            "service_workers_alive", "Broker worker tasks currently running"
        )
        self._m_stream_subscribers = reg.gauge(
            "service_stream_subscribers",
            "Open SSE subscriptions across all job streams",
        )
        self._m_stream_events = reg.counter(
            "service_stream_events_total",
            "SSE events published to job streams, by event name",
        )
        self._m_stream_dropped = reg.counter(
            "service_stream_dropped_total",
            "SSE events dropped from slow subscriber queues",
        )
        self._m_stream_subscribers.set(0)
        for lane in LANES:
            self._m_depth.set(0, lane=lane)

    def _sync_depth(self) -> None:
        for lane in LANES:
            self._m_depth.set(len(self._lanes[lane]), lane=lane)
        self._m_inflight.set(self._inflight)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def stats(self) -> dict:
        """Point-in-time broker summary (``GET /healthz`` payload)."""
        return {
            "draining": self._draining,
            "queued": {
                lane: len(self._lanes[lane]) for lane in LANES
            },
            "inflight": self._inflight,
            "jobs_tracked": len(self._jobs),
            "workers": len(self._workers),
            "workers_alive": self._workers_alive,
            "worker_crashes": self._worker_crashes,
            "worker_restarts": self._worker_restarts,
            "fleet": self.fleet.stats(),
        }

    async def start(self) -> None:
        """Restore any drain checkpoint and start the consumer tasks."""
        self._cond = asyncio.Condition()
        if self.config.workers:
            self._pool = ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="repro-service",
            )
        restored = self._restore_checkpoint()
        if restored:
            _log.info(
                "restored %d checkpointed job(s)",
                restored,
                extra={"event": "queue_restored", "jobs": restored},
            )
        roster = self.fleet.restore_registry()
        if roster:
            _log.info(
                "restored %d fleet worker(s) from the registry journal",
                roster,
                extra={"event": "fleet_restored", "workers": roster},
            )
        self._workers = [
            asyncio.ensure_future(self._supervised_worker(slot))
            for slot in range(self.config.workers)
        ]
        self._fleet_task = asyncio.ensure_future(self.fleet.reap_loop())
        if (
            self.config.prune_interval_s > 0
            and self.config.runner.cache_dir is not None
        ):
            self._prune_task = asyncio.ensure_future(self._prune_loop())

    async def drain(self) -> int:
        """Graceful shutdown: reject new work, finish in-flight jobs.

        Queued-but-unstarted jobs are checkpointed (and their waiters
        released with status ``checkpointed``).  Returns the number of
        checkpointed jobs; 0 means the next boot finds no journal.
        """
        if self._draining:
            return 0
        self._draining = True
        assert self._cond is not None
        # Remote leases first: their jobs rejoin the lanes (voluntary
        # release, no expiry penalty) and get checkpointed below.
        await self.fleet.release_all()
        checkpointed: "list[Job]" = []
        async with self._cond:
            for lane in LANES:
                queue = self._lanes[lane]
                while queue:
                    job = queue.popleft()
                    job.status = "checkpointed"
                    job.done_event.set()
                    self._m_jobs.inc(status="checkpointed")
                    self._publish_event(
                        job.job_id, "checkpointed", job.status_dict()
                    )
                    checkpointed.append(job)
            self._sync_depth()
            self._cond.notify_all()
        self._write_checkpoint(checkpointed)
        _log.info(
            "drain: %d in-flight, %d checkpointed",
            self._inflight,
            len(checkpointed),
            extra={
                "event": "drain_start",
                "inflight": self._inflight,
                "checkpointed": len(checkpointed),
            },
        )
        if self._workers:
            done, pending = await asyncio.wait(
                self._workers, timeout=self.config.drain_timeout_s
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        if self._prune_task is not None:
            self._prune_task.cancel()
            await asyncio.gather(self._prune_task, return_exceptions=True)
            self._prune_task = None
        if self._fleet_task is not None:
            self._fleet_task.cancel()
            await asyncio.gather(self._fleet_task, return_exceptions=True)
            self._fleet_task = None
        if self._pool is not None:
            self._pool.shutdown(wait=False)
        _log.info(
            "drain complete",
            extra={"event": "drain_finish",
                   "checkpointed": len(checkpointed)},
        )
        return len(checkpointed)

    # ------------------------------------------------------------------
    # Drain checkpoint
    # ------------------------------------------------------------------

    def _write_checkpoint(self, jobs: "list[Job]") -> None:
        """Persist queued jobs; with none, the journal is removed."""
        if self._checkpoint is None:
            return
        self._checkpoint.replace(
            {
                "spec": job.job_id,
                "job_id": job.spec.job_id,
                "priority": job.priority,
                "request": job.spec.to_dict(),
            }
            for job in jobs
        )

    def _restore_checkpoint(self) -> int:
        """Re-enqueue jobs a previous drain checkpointed; clear the file."""
        if self._checkpoint is None:
            return 0
        restored = 0
        for entry in self._checkpoint.records():
            try:
                spec = ExperimentSpec.from_dict(entry["request"])
                priority = entry.get("priority", "batch")
            except (KeyError, TypeError, ValueError, ReproError):
                continue  # stale record: drop, don't crash boot
            if priority not in LANES:
                priority = "batch"
            job = Job(job_id=self.key_of(spec), spec=spec, priority=priority)
            self._jobs[job.job_id] = job
            self._lanes[priority].append(job)
            self._m_jobs.inc(status="restored")
            restored += 1
        self._sync_depth()
        self._checkpoint.clear()
        return restored

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def key_of(self, spec: ExperimentSpec) -> str:
        """The job id of ``spec``: its ``spec_key`` under this broker's
        cache salt."""
        return spec_key(spec, self.config.runner.cache_salt)

    def _bucket_for(self, client: str) -> TokenBucket:
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(
                self.config.rate_limit_rps,
                self.config.rate_limit_burst,
                clock=self._clock,
            )
            self._buckets[client] = bucket
            # Bound per-client state: forget the coldest buckets.
            while len(self._buckets) > 1024:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(client)
        return bucket

    def _active_count(self) -> int:
        return (
            sum(len(self._lanes[lane]) for lane in LANES)
            + self._inflight
            + self.fleet.leased_count
        )

    async def submit(
        self,
        spec: ExperimentSpec,
        priority: str = "interactive",
        client: str = "",
        key: Optional[str] = None,
    ) -> "tuple[Job, str]":
        """Admit one spec; returns ``(job, outcome)``.

        ``key`` is ``spec``'s :meth:`key_of`, when the caller already
        has it (the HTTP layer keeps it beside a memoized parse).

        ``outcome`` is one of ``"accepted"`` (queued), ``"coalesced"``
        (an identical job is already queued or running),
        ``"duplicate"`` (an identical job already finished in memory),
        or ``"cache_hit"`` (answered from the on-disk response store
        without queuing).  Raises an :class:`AdmissionError` subclass
        when the submission is rejected.
        """
        if priority not in LANES:
            raise ServiceError(
                f"unknown priority {priority!r}; choose from {LANES}"
            )
        if self._draining:
            self._m_rejected.inc(reason=DrainingError.reason)
            raise DrainingError(
                "service is draining; submit to another replica",
                retry_after_s=self.config.retry_after_s,
            )
        if self.config.rate_limit_rps > 0:
            bucket = self._bucket_for(client)
            if not bucket.try_acquire():
                self._m_rejected.inc(reason=RateLimitedError.reason)
                raise RateLimitedError(
                    f"client {client or '<anonymous>'} exceeded "
                    f"{self.config.rate_limit_rps:g} req/s "
                    f"(burst {self.config.rate_limit_burst})",
                    retry_after_s=max(
                        bucket.retry_after_s(), 0.05
                    ),
                )
        if key is None:
            key = self.key_of(spec)
        existing = self._jobs.get(key)
        if existing is not None and not existing.finished:
            # Single-flight: ride the live job, whatever its phase.
            existing.coalesced += 1
            self._m_coalesced.inc()
            self._m_submissions.inc(outcome="coalesced")
            return existing, "coalesced"
        if existing is not None and existing.status == "done":
            self._m_submissions.inc(outcome="duplicate")
            return existing, "duplicate"
        # Cache short-circuit: a stored response means this exact spec
        # (same content, same code version) already ran to completion —
        # answer it at admission time, before the queue.
        if self._responses is not None:
            stored = self._responses.get(key)
            if isinstance(stored, dict) and stored.get("status") == "done":
                job = Job(
                    job_id=key,
                    spec=spec,
                    priority=priority,
                    status="done",
                    from_cache=True,
                    result_bytes=canonical_json(stored),
                )
                job.done_event.set()
                self._track_terminal(job)
                self._m_submissions.inc(outcome="cache_hit")
                return job, "cache_hit"
        if self._active_count() >= self.config.queue_capacity:
            self._m_rejected.inc(reason=QueueFullError.reason)
            raise QueueFullError(
                f"admission queue at capacity "
                f"({self.config.queue_capacity} jobs)",
                retry_after_s=self.config.retry_after_s,
            )
        job = Job(
            job_id=key,
            spec=spec,
            priority=priority,
            request_id=current_request_id() or "",
        )
        self._jobs[key] = job
        assert self._cond is not None, "JobBroker.start() was not awaited"
        async with self._cond:
            self._lanes[priority].append(job)
            self._sync_depth()
            self._cond.notify()
        self._m_submissions.inc(outcome="accepted")
        self._publish_event(key, "queued", job.status_dict())
        _log.info(
            "job accepted: %s (%s)",
            job.spec.job_id,
            priority,
            extra={
                "event": "job_accepted",
                "spec_key": key,
                "job_id": job.spec.job_id,
                "priority": priority,
            },
        )
        return job, "accepted"

    def get(self, job_id: str) -> Optional[Job]:
        """In-memory job lookup (live and recently terminal jobs)."""
        return self._jobs.get(job_id)

    def lookup_response(self, job_id: str) -> Optional[bytes]:
        """Canonical response bytes for a job, wherever they live.

        Falls back to the on-disk response store for jobs evicted from
        memory (or completed by an earlier server process), preserving
        bit-identity: the store holds the same payload the canonical
        serializer produced.
        """
        job = self._jobs.get(job_id)
        if job is not None and job.result_bytes is not None:
            return job.result_bytes
        if self._responses is not None:
            stored = self._responses.get(job_id)
            if isinstance(stored, dict):
                return canonical_json(stored)
        return None

    # ------------------------------------------------------------------
    # Event streaming (SSE fan-out per job)
    # ------------------------------------------------------------------

    def _stream_for(self, job_id: str) -> _JobStream:
        stream = self._streams.get(job_id)
        if stream is None:
            stream = _JobStream(
                ring=deque(maxlen=self.config.stream_ring_size)
            )
            self._streams[job_id] = stream
        return stream

    def _publish_event(self, job_id: str, event: str, data: dict) -> None:
        """Append one event to the job's stream and fan it out.

        Runs on the event loop only (worker threads cross over via
        ``call_soon_threadsafe``).  Slow subscribers lose their oldest
        undelivered events (drop-oldest, counted) instead of blocking
        the broker; the replay ring still covers reconnects.
        """
        stream = self._stream_for(job_id)
        stream.next_id += 1
        entry = (stream.next_id, event, data)
        stream.ring.append(entry)
        self._m_stream_events.inc(event=event)
        if event in TERMINAL_EVENTS:
            stream.closed = True
        for queue in stream.subscribers:
            while True:
                try:
                    queue.put_nowait(entry)
                    break
                except asyncio.QueueFull:
                    try:
                        queue.get_nowait()
                        self._m_stream_dropped.inc()
                    except asyncio.QueueEmpty:  # pragma: no cover
                        break

    def subscribe(
        self, job_id: str, last_event_id: Optional[int] = None
    ):
        """Open one SSE subscription; ``None`` if the job is unknown.

        Returns ``(replay, queue)``: ``replay`` is the list of ring
        events with id greater than ``last_event_id`` (all of them for
        a fresh subscriber), after which new events arrive on
        ``queue``.  Jobs that finished before any stream existed (cache
        hits, jobs restored from the response store) get a synthesized
        terminal event so late watchers still see an end-of-stream
        frame.  Pair every call with :meth:`unsubscribe`.
        """
        stream = self._streams.get(job_id)
        if stream is None:
            job = self._jobs.get(job_id)
            if job is not None:
                stream = self._stream_for(job_id)
                if job.finished:
                    self._publish_event(
                        job_id,
                        "failed" if job.status == "failed" else job.status,
                        job.status_dict(),
                    )
            elif self.lookup_response(job_id) is not None:
                stream = self._stream_for(job_id)
                self._publish_event(
                    job_id,
                    "done",
                    {"job_id": job_id, "status": "done",
                     "from_cache": True},
                )
            else:
                return None
        queue: "asyncio.Queue" = asyncio.Queue(
            maxsize=self.config.stream_queue_size
        )
        stream.subscribers.append(queue)
        self._stream_subscribers += 1
        self._m_stream_subscribers.set(self._stream_subscribers)
        replay = [
            entry
            for entry in stream.ring
            if last_event_id is None or entry[0] > last_event_id
        ]
        return replay, queue

    def unsubscribe(self, job_id: str, queue: "asyncio.Queue") -> None:
        stream = self._streams.get(job_id)
        if stream is not None:
            try:
                stream.subscribers.remove(queue)
            except ValueError:
                return  # already removed (double unsubscribe)
        self._stream_subscribers = max(0, self._stream_subscribers - 1)
        self._m_stream_subscribers.set(self._stream_subscribers)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    async def _next_job(self) -> Optional[Job]:
        assert self._cond is not None
        async with self._cond:
            while True:
                for lane in LANES:
                    if self._lanes[lane]:
                        job = self._lanes[lane].popleft()
                        self._inflight += 1
                        self._sync_depth()
                        return job
                if self._draining:
                    return None
                await self._cond.wait()

    async def _worker(self) -> None:
        while True:
            job = await self._next_job()
            if job is None:
                return
            try:
                await self._execute_job(job)
            finally:
                self._inflight -= 1
                self._sync_depth()

    async def _supervised_worker(self, slot: int) -> None:
        """One worker slot, restarted after unexpected crashes.

        :meth:`_execute_job` already absorbs simulation failures into
        the job's terminal state, so an exception escaping
        :meth:`_worker` is a broker bug — but one dead slot must not
        silently halve service throughput forever.  The supervisor
        restarts the slot up to ``max_worker_restarts`` times, then
        abandons it; when every slot is dead, ``workers_alive`` hits 0
        and ``/readyz`` flips to 503.
        """
        restarts = 0
        self._workers_alive += 1
        self._m_workers_alive.set(self._workers_alive)
        try:
            while True:
                try:
                    await self._worker()
                    return  # clean exit: the broker is draining
                except asyncio.CancelledError:
                    raise
                except Exception as error:
                    self._worker_crashes += 1
                    self._m_worker_crashes.inc()
                    if restarts >= self.config.max_worker_restarts:
                        _log.error(
                            "worker slot %d abandoned after %d "
                            "restart(s): %s",
                            slot,
                            restarts,
                            error,
                            extra={
                                "event": "service_worker_abandoned",
                                "slot": slot,
                                "restarts": restarts,
                                "error": f"{type(error).__name__}: {error}",
                            },
                        )
                        return
                    restarts += 1
                    self._worker_restarts += 1
                    self._m_worker_restarts.inc()
                    _log.warning(
                        "worker slot %d crashed (%s); restarting "
                        "(%d/%d)",
                        slot,
                        error,
                        restarts,
                        self.config.max_worker_restarts,
                        extra={
                            "event": "service_worker_restarted",
                            "slot": slot,
                            "restarts": restarts,
                            "error": f"{type(error).__name__}: {error}",
                        },
                    )
        finally:
            self._workers_alive -= 1
            self._m_workers_alive.set(self._workers_alive)

    async def _execute_job(self, job: Job) -> None:
        job.status = "running"
        loop = asyncio.get_running_loop()
        self._publish_event(job.job_id, "running", job.status_dict())
        job_id = job.job_id
        recorder = None
        if self.config.stream_spans > 0:
            from repro.obs.timeline import SpanStream

            recorder = SpanStream()
        publisher = None
        if self.config.stream_progress_events > 0:

            def _frame(snapshot) -> None:
                # Executor thread -> event loop: progress frames cross
                # via call_soon_threadsafe; a loop already shut down
                # just drops the tail frames.
                try:
                    loop.call_soon_threadsafe(
                        self._publish_event, job_id, "progress",
                        snapshot.to_dict(),
                    )
                    if recorder is not None:
                        loop.call_soon_threadsafe(
                            self._publish_spans, job_id, recorder
                        )
                except RuntimeError:
                    pass

            publisher = CallbackPublisher(
                _frame, interval=self.config.stream_progress_events
            )
        call = functools.partial(
            self._execute, job.spec, self.config.runner,
            publisher=publisher, recorder=recorder,
        )
        started = self._clock()
        token = (
            set_request_id(job.request_id) if job.request_id else None
        )
        try:
            payload = await loop.run_in_executor(self._pool, call)
        except ReproError as error:
            self._fail(job, str(error))
            return
        except Exception as error:  # worker bug ≠ broker crash
            self._fail(job, f"{type(error).__name__}: {error}")
            return
        finally:
            if recorder is not None:
                # Flush the tail spans before any terminal event.
                self._publish_spans(job_id, recorder, flush=True)
            if token is not None:
                reset_request_id(token)
        if payload.get("trace_reused"):
            self._m_trace_reuses.inc()
        self._finish_done(
            job,
            payload["trace_hash"],
            payload["modes"],
            execute_seconds=self._clock() - started,
        )

    def _publish_spans(
        self, job_id: str, recorder, flush: bool = False
    ) -> None:
        """Drain buffered timeline spans into ``span`` SSE events.

        Runs on the event loop.  Each event carries at most
        ``stream_spans`` spans; ``flush`` empties the whole buffer in
        bounded batches (end of execution), otherwise one batch per
        progress frame keeps the stream paced.
        """
        limit = self.config.stream_spans
        while True:
            batch = recorder.drain(limit)
            if not batch:
                return
            self._publish_event(
                job_id,
                "span",
                {"job_id": job_id, "spans": batch, "count": len(batch)},
            )
            if not flush:
                return

    def _finish_done(
        self,
        job: Job,
        trace_hash: str,
        modes: dict,
        execute_seconds: float = 0.0,
    ) -> None:
        """Terminal bookkeeping for a successful execution.

        One serializer for both execution tiers: the local executor
        path and fleet ``complete`` uploads land here, so response
        bytes are canonical — and therefore bit-identical — no matter
        where the simulation ran.
        """
        job.execute_seconds = execute_seconds
        self._m_execute.observe(job.execute_seconds)
        fallbacks = sum(
            1 for entry in modes.values() if entry.get("fallback")
        )
        if fallbacks:
            self._m_engine_fallbacks.inc(fallbacks)
        body = {
            "job_id": job.job_id,
            "spec_key": job.job_id,
            "status": "done",
            "workload": job.spec.workload,
            "scale": job.spec.scale,
            "trace_hash": trace_hash,
            "results": {
                label: entry["payload"]
                for label, entry in modes.items()
            },
            "cached_modes": {
                label: bool(entry.get("cached"))
                for label, entry in modes.items()
            },
        }
        job.result_bytes = canonical_json(body)
        job.status = "done"
        job.done_event.set()
        if self._responses is not None:
            self._responses.put(job.job_id, body)
        self._m_jobs.inc(status="done")
        self._track_terminal(job)
        self._publish_event(job.job_id, "done", job.status_dict())
        _log.info(
            "job done: %s (%.2fs, coalesced %d)",
            job.spec.job_id,
            job.execute_seconds,
            job.coalesced,
            extra={
                "event": "job_done",
                "spec_key": job.job_id,
                "job_id": job.spec.job_id,
                "execute_seconds": job.execute_seconds,
                "coalesced": job.coalesced,
            },
        )

    def _remove_from_lanes(self, job: Job) -> None:
        """Pull a job out of its lane, wherever it sits (idempotent).

        Used when a result arrives for a job that was requeued after a
        lease expiry: accepting the late upload must also stop the job
        from executing a second time.
        """
        for lane in LANES:
            try:
                self._lanes[lane].remove(job)
            except ValueError:
                continue
            self._sync_depth()
            return

    def _fail(self, job: Job, message: str) -> None:
        job.status = "failed"
        job.error = message
        job.done_event.set()
        self._m_jobs.inc(status="failed")
        self._track_terminal(job)
        self._publish_event(job.job_id, "failed", job.status_dict())
        _log.error(
            "job failed: %s — %s",
            job.spec.job_id,
            message,
            extra={
                "event": "job_failed",
                "spec_key": job.job_id,
                "job_id": job.spec.job_id,
                "error": message,
            },
        )

    def _track_terminal(self, job: Job) -> None:
        """Retain terminal jobs in memory, bounded by config.

        Evicted done jobs remain answerable through the response
        store; evicted failed jobs simply age out (a resubmission
        re-executes them, which is the desired retry semantics).
        """
        self._jobs[job.job_id] = job
        self._terminal.append(job.job_id)
        while len(self._terminal) > self.config.completed_jobs_kept:
            old_id = self._terminal.popleft()
            old = self._jobs.get(old_id)
            if old is not None and old.finished and old is not job:
                del self._jobs[old_id]
                self._streams.pop(old_id, None)

    # ------------------------------------------------------------------
    # Cache pruning timer
    # ------------------------------------------------------------------

    def prune_caches(self) -> dict:
        """One pruning sweep over the result cache + response store."""
        budget = self.config.max_cache_bytes
        freed = 0
        removed = 0
        caches: "list[ResultCache]" = []
        if self.config.runner.cache_dir is not None:
            caches.append(ResultCache(self.config.runner.cache_dir))
        if self._responses is not None:
            caches.append(self._responses)
        for cache in caches:
            outcome = cache.prune(budget)
            freed += outcome["freed_bytes"]
            removed += outcome["removed"]
        self._m_prune_runs.inc()
        self._m_pruned_bytes.inc(freed)
        if removed:
            _log.info(
                "cache prune: removed %d object(s), freed %d byte(s)",
                removed,
                freed,
                extra={
                    "event": "cache_pruned",
                    "removed": removed,
                    "freed_bytes": freed,
                },
            )
        return {"removed": removed, "freed_bytes": freed}

    async def _prune_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.prune_interval_s)
            try:
                await loop.run_in_executor(None, self.prune_caches)
            except OSError:  # unwritable cache: try again next tick
                continue


__all__ = [
    "AdmissionError",
    "DrainingError",
    "EXECUTE_SECONDS_BUCKETS",
    "Job",
    "JobBroker",
    "LANES",
    "QueueFullError",
    "RateLimitedError",
    "TERMINAL_EVENTS",
    "TokenBucket",
    "canonical_json",
]
