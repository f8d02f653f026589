"""Multi-core system assembly and the deterministic scheduler.

Cores advance smallest-clock-first so shared-resource reservations
(L3, HMC banks, SerDes links) are claimed in a globally consistent
time order; barriers synchronize all cores to the slowest.  The result
is bit-for-bit reproducible across runs.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

from repro.common.errors import SimulationError
from repro.dram.device import DdrDevice, DdrStats
from repro.dram.memory_system import MemorySystem
from repro.hmc.device import HmcDevice, HmcStats
from repro.obs.metrics import MetricsRegistry
from repro.sim.cache import CacheHierarchy, CacheLevelStats
from repro.sim.config import SystemConfig
from repro.sim.core import STEP_BARRIER, STEP_DONE, Core, CoreStats
from repro.trace.stream import Trace

#: Version of the :meth:`SimResult.to_dict` payload layout.  Bump when
#: fields are added/renamed so stale cache entries and cross-process
#: payloads are rejected instead of silently misread.
#: v2: HmcStats fault counters + SystemConfig.faults.
RESULT_SCHEMA_VERSION = 2


@dataclass
class SimResult:
    """Outcome of one (trace, configuration) timing simulation."""

    config: SystemConfig
    cycles: float
    core_stats: CoreStats
    cache_stats: dict[str, CacheLevelStats]
    hmc_stats: HmcStats
    cache_invalidations: int = 0
    cache_writebacks: int = 0
    #: DDR-side stats for hybrid-memory runs (None for pure HMC).
    dram_stats: DdrStats | None = None
    cache_prefetches: int = 0

    @property
    def instructions(self) -> int:
        return self.core_stats.instructions

    @property
    def ipc(self) -> float:
        """Aggregate instructions per cycle across all cores."""
        return self.instructions / self.cycles if self.cycles else 0.0

    def speedup_over(self, baseline: "SimResult") -> float:
        """Execution-time speedup of this run relative to ``baseline``."""
        if self.cycles == 0:
            raise SimulationError("cannot compute speedup of a zero-cycle run")
        return baseline.cycles / self.cycles

    # ------------------------------------------------------------------
    # Serialization (result cache, worker IPC, `repro run --json`)
    # ------------------------------------------------------------------

    def to_dict(self, include_metrics: bool = False) -> dict:
        """Stable JSON-safe payload; round-trips via :meth:`from_dict`.

        ``include_metrics`` appends a ``"metrics"`` key holding the
        versioned :class:`~repro.obs.metrics.MetricsRegistry` snapshot
        of every stats object.  The flag defaults to off so cached
        payloads and worker IPC stay byte-for-byte what they were;
        :meth:`from_dict` ignores the key either way.
        """
        payload = self._base_dict()
        if include_metrics:
            payload["metrics"] = self.metrics_snapshot()
        return payload

    def _base_dict(self) -> dict:
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "cycles": self.cycles,
            "core_stats": self.core_stats.to_dict(),
            "cache_stats": {
                level: stats.to_dict()
                for level, stats in self.cache_stats.items()
            },
            "hmc_stats": self.hmc_stats.to_dict(),
            "cache_invalidations": self.cache_invalidations,
            "cache_writebacks": self.cache_writebacks,
            "dram_stats": (
                self.dram_stats.to_dict()
                if self.dram_stats is not None
                else None
            ),
            "cache_prefetches": self.cache_prefetches,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimResult":
        """Rebuild a result from :meth:`to_dict` output.

        Raises :class:`SimulationError` on schema mismatch so cache
        readers can treat incompatible entries as misses.
        """
        schema = data.get("schema")
        if schema != RESULT_SCHEMA_VERSION:
            raise SimulationError(
                f"unsupported SimResult schema {schema!r} "
                f"(expected {RESULT_SCHEMA_VERSION})"
            )
        return cls(
            config=SystemConfig.from_dict(data["config"]),
            cycles=data["cycles"],
            core_stats=CoreStats.from_dict(data["core_stats"]),
            cache_stats={
                level: CacheLevelStats.from_dict(stats)
                for level, stats in data["cache_stats"].items()
            },
            hmc_stats=HmcStats.from_dict(data["hmc_stats"]),
            cache_invalidations=data["cache_invalidations"],
            cache_writebacks=data["cache_writebacks"],
            dram_stats=(
                DdrStats.from_dict(data["dram_stats"])
                if data["dram_stats"] is not None
                else None
            ),
            cache_prefetches=data["cache_prefetches"],
        )

    # ------------------------------------------------------------------
    # Observability (repro.obs)
    # ------------------------------------------------------------------

    def publish(self, registry: MetricsRegistry) -> None:
        """Publish every component's stats into ``registry``.

        Fans out to the per-component ``publish`` hooks (core, cache
        levels, HMC, optional DDR) and adds the run-level quantities
        that live on the result itself.
        """
        self.core_stats.publish(registry)
        for level, stats in self.cache_stats.items():
            stats.publish(registry, level)
        self.hmc_stats.publish(registry)
        if self.dram_stats is not None:
            self.dram_stats.publish(registry)
        registry.gauge(
            "sim_cycles", help="end-to-end simulated cycles"
        ).set(self.cycles)
        registry.gauge(
            "sim_ipc", help="aggregate instructions per cycle"
        ).set(self.ipc)
        coherence = registry.counter(
            "cache_coherence_events_total",
            help="hierarchy-level coherence traffic",
        )
        coherence.inc(self.cache_invalidations, event="invalidation")
        coherence.inc(self.cache_writebacks, event="writeback")
        coherence.inc(self.cache_prefetches, event="prefetch")

    def metrics_snapshot(self) -> dict:
        """Versioned JSON snapshot of this result's metric registry."""
        registry = MetricsRegistry()
        self.publish(registry)
        return registry.snapshot()

    # ------------------------------------------------------------------
    # Figure 9 breakdown
    # ------------------------------------------------------------------

    def execution_breakdown(self) -> dict[str, float]:
        """Cycle shares: Atomic-inCore / Atomic-inCache / Other.

        Per-core overheads are summed and normalized by total core-time
        (cycles x cores is implicit: stats are already summed over
        cores, so we normalize by summed per-core time, approximated by
        cycles x num_cores_active via total attribution).
        """
        stats = self.core_stats
        total = self.cycles
        # Overheads are per-core sums; convert to a per-core average
        # share by dividing by (cycles * active cores). We recover the
        # active-core count from issue+stall+atomic attribution.
        attributed = (
            stats.issue_cycles
            + stats.mem_stall_cycles
            + stats.atomic_incore_cycles
            + stats.atomic_incache_cycles
        )
        denom = max(attributed, 1e-9)
        scale = 1.0  # shares of attributed time
        incore = stats.atomic_incore_cycles / denom * scale
        incache = stats.atomic_incache_cycles / denom * scale
        other = 1.0 - incore - incache
        return {
            "Atomic-inCore": incore,
            "Atomic-inCache": incache,
            "Other": other,
            "total_cycles": total,
        }

    def pipeline_breakdown(self) -> dict[str, float]:
        """Figure 2-style top-down shares (Frontend/BadSpec synthetic).

        The trace model has no fetch or speculation path; small fixed
        frontend/bad-speculation shares are synthesized so the chart
        reads like the paper's, and the remainder splits into Retiring
        (issue) vs Backend (all stalls).  Documented in EXPERIMENTS.md.
        """
        stats = self.core_stats
        attributed = (
            stats.issue_cycles
            + stats.mem_stall_cycles
            + stats.atomic_incore_cycles
            + stats.atomic_incache_cycles
        )
        denom = max(attributed, 1e-9)
        retiring = stats.issue_cycles / denom
        frontend = 0.03
        bad_speculation = 0.04
        remaining = max(1.0 - frontend - bad_speculation, 0.0)
        retiring_share = retiring * remaining
        backend = remaining - retiring_share
        return {
            "Backend": backend,
            "Frontend": frontend,
            "BadSpeculation": bad_speculation,
            "Retiring": retiring_share,
        }

    def mpki(self) -> dict[str, float]:
        """L1D/L2/L3 misses per kilo-instruction (Figure 2 bottom)."""
        kilo = self.instructions / 1000.0
        return {
            level: stats.mpki(kilo)
            for level, stats in self.cache_stats.items()
        }

    def candidate_miss_rate(self) -> float:
        """LLC miss rate of offloading candidates (Figure 10)."""
        stats = self.core_stats
        if stats.candidate_total == 0:
            return 0.0
        return stats.candidate_llc_miss / stats.candidate_total


@dataclass(frozen=True)
class EngineInfo:
    """Whether one simulation left the batch kernel for the reference.

    The kernel declines some inputs (see
    :func:`~repro.sim.vectorized.decline_reason`); those run on the
    per-event reference interpreter instead, and this record is how
    that per-input fallback is surfaced (runner epilogues, the
    service's ``engine_fallbacks`` metric).
    """

    #: True when the kernel declined this input and the reference ran.
    fallback: bool = False
    #: Human-readable decline reason when ``fallback`` is set.
    reason: str | None = None


def simulate(
    trace: Trace, config: SystemConfig, recorder=None, publisher=None,
) -> SimResult:
    """Replay ``trace`` under ``config`` and return aggregate results.

    ``recorder`` (a :class:`~repro.obs.timeline.TimelineRecorder`)
    collects execution spans in simulated time; the default ``None``
    (equivalent to the :data:`~repro.obs.timeline.NULL_RECORDER`) adds
    no per-event work and is bit-identical to a recorded run — the
    recorder only *observes* reservation decisions, never makes them.

    ``publisher`` (a :class:`~repro.obs.progress.NullPublisher`
    subclass) receives live :class:`~repro.obs.progress.ProgressSnapshot`
    frames while the simulation runs — every ``publisher.interval``
    retired events in the reference interpreter, at chunk boundaries in
    the batch kernel.  Like the recorder it only observes: results
    are bit-identical with the publisher on or off, and the default
    ``None`` / :data:`~repro.obs.progress.NULL_PUBLISHER` path carries
    zero per-event work.

    Results are bit-identical whichever implementation runs; callers
    that need to know use :func:`simulate_with_engine`.
    """
    result, _info = simulate_with_engine(
        trace, config, recorder=recorder, publisher=publisher,
    )
    return result


def simulate_with_engine(
    trace: Trace, config: SystemConfig, recorder=None, publisher=None,
) -> tuple[SimResult, EngineInfo]:
    """Like :func:`simulate`, but also report whether the kernel ran.

    The batch kernel (:mod:`repro.sim.vectorized`) runs whenever it can
    model the input, fault plans included; inputs it declines (hybrid
    DDR, timeline recording, more than 64 threads, FP offload with zero
    FP units, no loadable kernel) fall back *per input* to
    :func:`simulate_reference`, reported as
    ``EngineInfo(fallback=True, reason=...)``.
    """
    from repro.sim.vectorized import try_simulate_vectorized

    num_threads = trace.num_threads
    if num_threads > config.num_cores:
        raise SimulationError(
            f"trace has {num_threads} threads but the system has only "
            f"{config.num_cores} cores"
        )
    result, reason = try_simulate_vectorized(
        trace, config, recorder, publisher=publisher
    )
    if result is not None:
        return result, EngineInfo()
    return (
        simulate_reference(trace, config, recorder, publisher),
        EngineInfo(fallback=True, reason=reason),
    )


def _publish_frame(pub, phase, events_done, events_total, cores, start):
    """Emit one progress frame from live interpreter state.

    Runs only on the every-N publish path, never per event; the frame
    reads (sums) simulation state without touching it, which is what
    keeps publisher-on runs bit-identical to publisher-off runs.
    """
    from repro.obs.progress import ProgressSnapshot

    elapsed = time.monotonic() - start
    eta = None
    if events_total > 0 and events_done > 0:
        remaining = max(events_total - events_done, 0)
        eta = elapsed / events_done * remaining
    pub.publish(
        ProgressSnapshot(
            label="",
            phase=phase,
            events_done=events_done,
            events_total=events_total,
            sim_cycles=max(core.t for core in cores) if cores else 0.0,
            instructions=sum(core.stats.instructions for core in cores),
            offloaded_atomics=sum(
                core.stats.offloaded_atomics for core in cores
            ),
            host_atomics=sum(core.stats.host_atomics for core in cores),
            elapsed_s=elapsed,
            eta_s=eta,
        )
    )


def simulate_reference(
    trace: Trace, config: SystemConfig, rec=None, pub=None
) -> SimResult:
    """The per-event reference interpreter: the bit-identity oracle.

    The batch kernel must reproduce its ``SimResult.to_dict()`` byte
    for byte (or raise the same ``SimulationError``).  Tests,
    benchmarks and CI call it directly; production reaches it only
    through :func:`simulate_with_engine`, for inputs the kernel
    declines.
    """
    rec = rec if rec is not None and rec.enabled else None
    pub = pub if pub is not None and pub.enabled else None
    num_threads = trace.num_threads
    if rec is not None:
        # All component clocks are host-core cycles; export converts to
        # simulated nanoseconds at the configured core frequency.
        rec.set_time_base(1.0 / config.hmc.core_ghz)
    hierarchy = CacheHierarchy(
        num_threads,
        config.l1,
        config.l2,
        config.l3,
        prefetch_next_line=config.prefetch_next_line,
    )
    hmc = HmcDevice(config.hmc, fault_plan=config.faults, recorder=rec)
    dram = DdrDevice(config.dram) if config.dram is not None else None
    memory = MemorySystem(hmc, dram, config.property_hmc_fraction)
    cores = [
        Core(
            i, thread.event_tuples(), config, hierarchy, memory,
            recorder=rec,
        )
        for i, thread in enumerate(trace.threads)
    ]

    # Smallest-clock-first scheduling with barrier synchronization.
    ready = [(core.t, core.core_id) for core in cores]
    heapq.heapify(ready)
    at_barrier: list[Core] = []
    barrier_id: int | None = None
    done_count = 0
    # Progress publishing: hoisted so the pub-off loop stays untouched.
    events_total = trace.num_events
    events_done = 0
    publish_every = pub.interval if pub is not None else 0
    publish_at = publish_every
    start_wall = time.monotonic() if pub is not None else 0.0

    while ready:
        _t, core_id = heapq.heappop(ready)
        core = cores[core_id]
        status = core.step()
        if pub is not None and status != STEP_DONE:
            events_done += 1
            if events_done >= publish_at:
                publish_at += publish_every
                _publish_frame(
                    pub, "simulate", events_done, events_total,
                    cores, start_wall,
                )
        if status == STEP_BARRIER:
            if barrier_id is None:
                barrier_id = core.pending_barrier
            elif core.pending_barrier != barrier_id:
                raise SimulationError(
                    f"core {core_id} reached barrier {core.pending_barrier} "
                    f"while others wait at {barrier_id}"
                )
            at_barrier.append(core)
            if len(at_barrier) + done_count == len(cores):
                release_time = max(c.t for c in at_barrier)
                for waiting in at_barrier:
                    wait = release_time - waiting.t
                    if rec is not None and wait > 0.0:
                        rec.span(
                            "cores", waiting.core_id, "stall:barrier",
                            waiting.t, wait,
                            args={"barrier": barrier_id},
                        )
                    # Imbalance wait counts as backend stall time.
                    waiting.stats.mem_stall_cycles += wait
                    waiting.t = release_time
                    heapq.heappush(ready, (waiting.t, waiting.core_id))
                at_barrier = []
                barrier_id = None
        elif status == STEP_DONE:
            done_count += 1
        else:
            heapq.heappush(ready, (core.t, core_id))

    if at_barrier:
        raise SimulationError(
            "simulation ended with cores stuck at a barrier "
            f"(barrier {barrier_id}, {len(at_barrier)} cores)"
        )

    if pub is not None:
        _publish_frame(
            pub, "simulate", events_done, events_total, cores, start_wall
        )

    total = CoreStats()
    for core in cores:
        total.merge(core.stats)
        if rec is not None:
            # Whole-thread execute span; stalls/atomics nest inside it.
            rec.span("cores", core.core_id, "core:execute", 0.0, core.t)
    cycles = max(core.t for core in cores)
    return SimResult(
        config=config,
        cycles=cycles,
        core_stats=total,
        cache_stats=hierarchy.level_stats(),
        hmc_stats=hmc.stats,
        cache_invalidations=hierarchy.invalidations,
        cache_writebacks=hierarchy.writebacks,
        dram_stats=dram.stats if dram else None,
        cache_prefetches=hierarchy.prefetches_issued,
    )
