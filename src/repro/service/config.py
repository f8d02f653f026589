"""Service configuration.

:class:`ServiceConfig` carries everything ``repro serve`` needs:
network binding, broker sizing (worker slots, queue capacity), the
admission-control policy (per-client token-bucket rate limiting,
``Retry-After`` hints), cache-pruning cadence, and the
:class:`~repro.runner.spec.RunnerConfig` the broker executes specs
under.

None of these settings ever enter
:class:`~repro.sim.config.SystemConfig` — exactly like the obs layer,
service deployment knobs are outside all three cache-key factors
(trace, config, code version), so moving a cache between a CLI run and
a server, or resizing the server, can never churn cache fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError
from repro.runner.spec import RunnerConfig

#: Default TCP port (unassigned range; "GPIM" on a phone keypad is taken).
DEFAULT_PORT = 8477

#: Filename of the drain checkpoint under the cache root (a
#: :class:`~repro.runner.cache.JsonlJournal`, torn-line tolerant).
QUEUE_CHECKPOINT_FILENAME = "service_queue.jsonl"


@dataclass(frozen=True)
class ServiceConfig:
    """How one ``repro serve`` process behaves.

    Parameters
    ----------
    host / port:
        TCP binding; ``port=0`` binds an ephemeral port (the server
        reports the real one — CI smoke tests use this).
    workers:
        Concurrent local simulation slots: the broker runs this many
        asyncio consumers, each executing specs in a thread off the
        event loop.  0 is dispatch-only mode (``repro serve --workers
        0``): no local slot and no thread pool; every admitted job
        waits for a ``repro worker`` pull-worker to lease it, and
        ``/readyz`` answers 503 until at least one registered worker
        has a fresh heartbeat.
    queue_capacity:
        Bound on *admitted but not yet finished* jobs across both
        priority lanes.  Submissions beyond it are rejected with HTTP
        429 and a ``Retry-After`` hint — queue memory is bounded no
        matter how fast clients submit.
    rate_limit_rps / rate_limit_burst:
        Per-client token bucket: sustained requests/second and burst
        size.  ``rate_limit_rps=0`` disables rate limiting.  Clients
        identify themselves with the ``X-Client-Id`` header (or the
        ``client`` field of the submit body); anonymous callers share
        one bucket.
    retry_after_s:
        ``Retry-After`` hint attached to backpressure rejections.
    drain_timeout_s:
        Hard cap on waiting for in-flight jobs during graceful drain;
        jobs still running after it are abandoned (their specs are NOT
        checkpointed — they were in flight, not queued).
    prune_interval_s / max_cache_mb:
        When ``prune_interval_s > 0`` the service prunes the result
        cache (and its own response store) to ``max_cache_mb`` on this
        cadence via :meth:`~repro.runner.cache.ResultCache.prune`, so a
        long-lived server cannot fill the disk.
    completed_jobs_kept:
        Terminal jobs retained in memory for ``GET /v1/jobs/{id}``;
        older ones are answered from the on-disk response store.
    max_worker_restarts:
        Times each broker worker slot may be restarted after an
        unexpected crash before that slot is abandoned.  When every
        slot is dead the service keeps answering status queries but
        ``/readyz`` reports 503 so load balancers route elsewhere.
    runner:
        Execution settings for each spec (cache dir, strictness,
        salt).  The broker runs one spec at a time per worker slot, so
        the runner's own pool/parallel settings are not used here.
    stream_ring_size:
        Per-job replay ring for the SSE endpoint
        (``GET /v1/jobs/{id}/events``): the last N events are kept so a
        reconnecting client can resume from ``Last-Event-ID``.  Events
        older than the ring are gone — the client falls back to the
        terminal status endpoint.
    stream_queue_size:
        Per-subscriber delivery queue bound.  A subscriber that cannot
        keep up has its *oldest* undelivered events dropped (counted in
        ``service_stream_dropped_total``) rather than stalling the
        broker or growing memory without bound.
    stream_heartbeat_s:
        Idle cadence of SSE ``: heartbeat`` comment lines, keeping
        proxies and clients from timing out a quiet stream.
    stream_progress_events:
        Publish cadence (retired simulation events) for jobs executed
        by this service; overrides ``runner.progress_interval_events``
        for service executions.  0 disables live progress frames —
        lifecycle events (queued/running/done/failed) still stream.
        Observability only: never part of cache identity.
    stream_spans:
        Bound on timeline spans piggybacked per ``span`` SSE event
        (``GET /v1/jobs/{id}/events``).  0 (the default) disables span
        streaming entirely.  Enabling it attaches a live recorder to
        simulated modes, which routes them through the per-event
        reference interpreter — results stay bit-identical by the
        engine-equivalence contract, and like every obs knob this never
        enters cache identity.
    fleet_lease_ttl_s:
        Lease validity window.  A worker must renew (heartbeat) within
        it or the job is requeued for redispatch, exactly like the
        PR 8 worker-crash path.
    fleet_lease_jobs:
        Server-side cap on jobs handed out per ``/v1/fleet/lease``
        call, whatever batch size the worker asks for.
    fleet_worker_timeout_s:
        Registered-worker liveness horizon: a worker silent for longer
        is expired from the hash ring (its leases requeue, its shard
        rebalances deterministically onto the survivors).
    fleet_ring_vnodes / fleet_ring_seed:
        Virtual-node count and placement seed of the ``spec_key``
        consistent-hash ring.  Topology-only: sharding never touches
        ``spec_key`` or cache fingerprints.
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    workers: int = 2
    queue_capacity: int = 64
    rate_limit_rps: float = 0.0
    rate_limit_burst: int = 16
    retry_after_s: float = 1.0
    drain_timeout_s: float = 30.0
    prune_interval_s: float = 0.0
    max_cache_mb: float = 512.0
    completed_jobs_kept: int = 512
    max_worker_restarts: int = 3
    runner: RunnerConfig = field(default_factory=RunnerConfig)
    stream_ring_size: int = 256
    stream_queue_size: int = 64
    stream_heartbeat_s: float = 10.0
    stream_progress_events: int = 20_000
    stream_spans: int = 0
    fleet_lease_ttl_s: float = 15.0
    fleet_lease_jobs: int = 4
    fleet_worker_timeout_s: float = 45.0
    fleet_ring_vnodes: int = 64
    fleet_ring_seed: int = 0

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigError("service workers must be >= 0")
        if self.queue_capacity < 1:
            raise ConfigError("service queue_capacity must be >= 1")
        if self.rate_limit_rps < 0:
            raise ConfigError("service rate_limit_rps must be >= 0")
        if self.rate_limit_burst < 1:
            raise ConfigError("service rate_limit_burst must be >= 1")
        if self.max_cache_mb < 0:
            raise ConfigError("service max_cache_mb must be >= 0")
        if self.completed_jobs_kept < 1:
            raise ConfigError("service completed_jobs_kept must be >= 1")
        if self.max_worker_restarts < 0:
            raise ConfigError("service max_worker_restarts must be >= 0")
        if self.stream_ring_size < 1:
            raise ConfigError("service stream_ring_size must be >= 1")
        if self.stream_queue_size < 1:
            raise ConfigError("service stream_queue_size must be >= 1")
        if self.stream_heartbeat_s <= 0:
            raise ConfigError("service stream_heartbeat_s must be > 0")
        if self.stream_progress_events < 0:
            raise ConfigError(
                "service stream_progress_events must be >= 0"
            )
        if self.stream_spans < 0:
            raise ConfigError("service stream_spans must be >= 0")
        if self.fleet_lease_ttl_s <= 0:
            raise ConfigError("service fleet_lease_ttl_s must be > 0")
        if self.fleet_lease_jobs < 1:
            raise ConfigError("service fleet_lease_jobs must be >= 1")
        if self.fleet_worker_timeout_s <= 0:
            raise ConfigError(
                "service fleet_worker_timeout_s must be > 0"
            )
        if self.fleet_ring_vnodes < 1:
            raise ConfigError("service fleet_ring_vnodes must be >= 1")

    @property
    def max_cache_bytes(self) -> int:
        return int(self.max_cache_mb * 1024 * 1024)
