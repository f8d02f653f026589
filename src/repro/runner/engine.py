"""Experiment-execution engine: job fan-out, caching, fallback.

One :class:`ExperimentSpec` is executed by :func:`execute_spec` —
trace the workload once, then for each mode either load the simulation
result from the content-addressed cache or simulate and store it.  A
process keeps its most recently used frozen traces (:func:`trace_spec`),
so a later job of the same workload skips graph build, capture and
digest.  The
same function runs in-process (``parallel=False``) and, split into its
:func:`trace_spec` and :func:`simulate_spec_modes` phases, inside the
:class:`~repro.runner.pool.SupervisedWorkerPool` workers that every
parallel grid runs on; results are bit-identical either way because
each job is internally deterministic and jobs share nothing.

Pool workers return the stable ``SimResult.to_dict()`` payloads (the
representation the disk cache stores) and send the traced
:class:`~repro.workloads.base.WorkloadRun` back over their pipe, so a
report can describe the trace and a re-dispatched job can skip
tracing.

The pool owns the failure taxonomy (crash, hang, timeout with
full-jitter retry backoff, poisoned spec).  When it runs out of
restart budget its circuit opens, and the engine finishes the jobs it
hands back in-process, flagging the fallback in the
:class:`RunnerReport` instead of failing the grid.

Resilience features ride on :class:`RunnerConfig`:

- ``job_timeout_s`` — pool jobs that exceed their wall-clock budget are
  killed and retried with exponential backoff (``job_retries``,
  ``backoff_base_s``); ``backoff_rng`` makes the jitter injectable for
  tests.
- ``allow_partial`` — failed jobs become structured
  :class:`~repro.runner.spec.JobFailure` records on the report and the
  grid returns the surviving outcomes instead of raising.
- ``resume`` — completed specs are checkpointed in the cache root's
  journal; a resumed grid re-runs only the incomplete ones.
"""

from __future__ import annotations

import random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import repro.workloads  # noqa: F401  (registry side effects for workers)
from repro.common.errors import ReproError, RunnerError
from repro.core.api import EvaluationReport
from repro.core.presets import resolve_scale, workload_graph, workload_params
from repro.obs.logs import configure_logging, get_logger
from repro.obs.progress import (
    CallbackPublisher,
    LabelledPublisher,
    ProgressSnapshot,
)
from repro.runner.cache import CheckpointJournal, ResultCache
from repro.runner.fingerprint import (
    config_fingerprint,
    result_key,
    spec_key,
)
from repro.runner.spec import (
    ExperimentSpec,
    JobFailure,
    JobRecord,
    RunnerConfig,
    RunnerReport,
)
from repro.sim.config import Mode, SystemConfig
from repro.sim.system import SimResult
from repro.trace.io import trace_digest
from repro.workloads.base import WorkloadRun
from repro.workloads.registry import (
    FIGURE7_CODES,
    all_workloads,
    get_workload,
)

ProgressFn = Callable[[JobRecord], None]
#: Live-frame hook: (spec index, snapshot) as simulation progresses.
FrameFn = Callable[[int, ProgressSnapshot], None]
#: Incremental-result hook: (spec index, outcome) the moment it lands.
OutcomeFn = Callable[[int, "SpecOutcome"], None]

#: Parent-side structured run log.  Silent unless the embedding
#: application (or ``RunnerConfig.log_level``) attaches a handler;
#: workers never touch it, so pool stderr stays clean.
_log = get_logger("runner")


@dataclass
class SpecOutcome:
    """Everything one executed spec produced, rehydrated parent-side."""

    spec: ExperimentSpec
    run: WorkloadRun
    trace_hash: str
    results: dict[str, SimResult] = field(default_factory=dict)
    cached: dict[str, bool] = field(default_factory=dict)
    #: Per-mode kernel-declined flag (False for cached modes).
    fallbacks: dict[str, bool] = field(default_factory=dict)

    def report(self) -> EvaluationReport:
        """View as the facade's per-workload report type."""
        return EvaluationReport(
            workload_code=self.spec.workload,
            run=self.run,
            results=dict(self.results),
        )


#: Most frozen trace bytes (:attr:`ColumnarTrace.nbytes`) the trace memo
#: keeps: the eight ``tiny`` Figure 7 traces take 7.7 MB.  A trace
#: larger than this is not kept.
TRACE_MEMO_BYTES = 8 << 20


class _TraceMemo:
    """Frozen traces and their digests by trace identity, least recently
    used first, within :data:`TRACE_MEMO_BYTES` of columns.

    One per process.  A lock guards it, because the service broker runs
    jobs on executor threads; two concurrent misses of one identity may
    both capture, and the first to finish is kept.
    """

    def __init__(self) -> None:
        #: key -> (run, trace digest, column bytes), oldest use first.
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, key: tuple) -> "Optional[tuple[WorkloadRun, str]]":
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0], entry[1]

    def put(self, key: tuple, run: WorkloadRun, trace_hash: str) -> None:
        """Keep ``run``, freezing its trace, and evict the least recently
        used traces past the bound."""
        size = run.trace.columnar().nbytes
        with self._lock:
            if size > TRACE_MEMO_BYTES or key in self._entries:
                return
            self._entries[key] = (run, trace_hash, size)
            self._bytes += size
            while self._bytes > TRACE_MEMO_BYTES:
                _key, (_run, _hash, dropped) = self._entries.popitem(
                    last=False
                )
                self._bytes -= dropped

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0


_TRACES = _TraceMemo()


def clear_trace_memo() -> None:
    """Drop every kept trace (tests)."""
    _TRACES.clear()


def trace_identity(spec: ExperimentSpec) -> Optional[tuple]:
    """Everything ``spec``'s trace depends on, or None when a parameter
    value cannot be a key.

    ``workload_graph(workload, scale)`` builds its graph from a fixed
    seed, so the graph follows from the workload and the scale; the
    capture adds the thread count, ``plain_atomics`` and the parameters,
    each with its type (a parameter of 2 and one of 2.0 are different
    arguments).
    """
    key = (
        spec.workload,
        resolve_scale(spec.scale),
        spec.num_threads,
        spec.plain_atomics,
        tuple((name, type(value), value) for name, value in spec.params),
    )
    try:
        hash(key)
    except TypeError:
        return None
    return key


def trace_spec(
    spec: ExperimentSpec, config: RunnerConfig
) -> "tuple[WorkloadRun, str]":
    """Phase 1 of a job: trace the workload and gate it (strict).

    Returns the functional run and its trace digest.  Split out of
    :func:`execute_spec` so a pool worker can send the traced run to
    the supervisor between tracing and simulation — a re-dispatched
    job receives that run instead of re-running this.
    """
    run, trace_hash, _reused = _trace_and_check(spec, config)
    return run, trace_hash


def _trace_and_check(
    spec: ExperimentSpec, config: RunnerConfig
) -> "tuple[WorkloadRun, str, bool]":
    """:func:`trace_spec`, also saying whether the run came from the
    trace memo.

    A miss builds the graph, captures, digests and freezes the trace,
    and keeps the frozen run.  The strict pre-flight runs either way,
    under this spec's GraphPIM config; its clean set makes a repeat
    cheap.
    """
    key = trace_identity(spec)
    kept = _TRACES.get(key) if key is not None else None
    if kept is None:
        graph = workload_graph(spec.workload, spec.scale)
        workload = get_workload(spec.workload)
        run = workload.run(
            graph,
            num_threads=spec.num_threads,
            plain_atomics=spec.plain_atomics,
            **spec.params_dict(),
        )
        trace_hash = trace_digest(run.trace)
        if key is not None:
            _TRACES.put(key, run, trace_hash)
    else:
        run, trace_hash = kept
    if config.strict and not spec.strict_exempt:
        from repro.analysis import preflight_run

        lint_cfg = next(
            (c for c in spec.modes if c.mode is Mode.GRAPHPIM),
            SystemConfig.graphpim(),
        )
        preflight_run(
            run,
            config=lint_cfg,
            trace_hash=trace_hash,
            baseline=config.lint_baseline,
        )
    return run, trace_hash, kept is not None


def simulate_spec_modes(
    run: WorkloadRun,
    trace_hash: str,
    spec: ExperimentSpec,
    config: RunnerConfig,
    publisher=None,
    recorder=None,
) -> "dict[str, dict]":
    """Phase 2 of a job: each mode from the cache or the simulator.

    ``publisher`` receives live progress frames from each simulated
    mode, relabeled ``"<job_id>/<mode>"``.  ``recorder`` (a timeline
    recorder, e.g. a streaming
    :class:`~repro.obs.timeline.SpanStream`) observes each simulated
    mode; an enabled recorder routes execution through the per-event
    reference interpreter, whose results are bit-identical to the
    kernel's.  Cache keys fingerprint only (trace, SystemConfig, salt),
    so a publisher/recorder-on run hits the exact entries a bare run
    stored — cached modes simply emit no frames or spans (nothing
    executes).
    """
    from repro.sim.system import simulate_with_engine  # local: fork cost

    cache = (
        ResultCache(config.cache_dir) if config.cache_dir is not None else None
    )
    pub = publisher if publisher is not None and publisher.enabled else None
    modes: dict[str, dict] = {}
    for mode_config in spec.modes:
        key = result_key(
            trace_hash, config_fingerprint(mode_config), config.cache_salt
        )
        payload = cache.get(key) if cache is not None else None
        if payload is not None:
            try:  # schema sanity: stale layouts are regenerated
                SimResult.from_dict(payload)
            except ReproError:
                payload = None
        fallback = False
        if payload is None:
            mode_pub = (
                LabelledPublisher(
                    pub, f"{spec.job_id}/{mode_config.display_name}"
                )
                if pub is not None
                else None
            )
            result, engine_info = simulate_with_engine(
                run.trace, mode_config, recorder=recorder,
                publisher=mode_pub,
            )
            payload = result.to_dict()
            fallback = engine_info.fallback
            if cache is not None:
                cache.put(key, payload)
            cached = False
        else:
            cached = True
        modes[mode_config.display_name] = {
            "payload": payload,
            "cached": cached,
            "fallback": fallback,
        }
    return modes


def execute_spec(
    spec: ExperimentSpec,
    config: RunnerConfig,
    publisher=None,
    recorder=None,
) -> dict:
    """Run one job; returns a picklable payload (worker entry point).

    Payload layout::

        {"run": WorkloadRun, "trace_hash": str, "trace_reused": bool,
         "seconds": float,
         "modes": {label: {"payload": SimResult.to_dict(), "cached": bool,
                           "fallback": bool}}}

    ``trace_reused`` is set when the run came from this process's trace
    memo (:func:`trace_spec`) instead of a capture.  ``fallback`` is
    set when the kernel declined a freshly simulated mode and the
    reference interpreter ran it (never for cache hits).
    ``publisher`` streams live progress frames and ``recorder``
    observes timeline spans from simulated modes; both ride the
    execution only and never alter the payload.
    """
    started = time.perf_counter()
    run, trace_hash, reused = _trace_and_check(spec, config)
    modes = simulate_spec_modes(
        run, trace_hash, spec, config, publisher=publisher,
        recorder=recorder,
    )
    return {
        "run": run,
        "trace_hash": trace_hash,
        "trace_reused": reused,
        "modes": modes,
        "seconds": time.perf_counter() - started,
    }


class ExperimentRunner:
    """Executes a grid of specs under one :class:`RunnerConfig`.

    ``backoff_rng`` maps a spec_key to the :class:`random.Random`
    driving that job's full-jitter retry backoff in the pool — the
    default seeds from the spec_key itself, so retry schedules are
    deterministic per job yet decorrelated across jobs (no synchronized
    retry stampedes).
    """

    def __init__(
        self,
        config: Optional[RunnerConfig] = None,
        backoff_rng: Optional[Callable[[str], random.Random]] = None,
    ):
        self.config = config or RunnerConfig()
        self._backoff_rng = backoff_rng or (
            lambda key: random.Random(f"backoff:{key}")
        )
        self._journal: Optional[CheckpointJournal] = None
        self._spec_keys: "list[str]" = []
        self._failures: "list[JobFailure]" = []
        #: Submission timestamps by spec index, for queue-wait
        #: attribution (turnaround minus execute seconds).
        self._submitted: "dict[int, float]" = {}
        self._on_frame: Optional[FrameFn] = None
        self._on_outcome: Optional[OutcomeFn] = None
        self._report: Optional[RunnerReport] = None

    def partial_report(self) -> Optional[RunnerReport]:
        """The in-flight report while :meth:`run` executes.

        Job records mutate in place as the grid drains, so callers
        observing from ``progress`` / ``on_frame`` callbacks see an
        incrementally filled report; ``wall_seconds`` and ``failures``
        are finalized only when :meth:`run` returns.
        """
        return self._report

    def run(
        self,
        specs: "list[ExperimentSpec]",
        progress: Optional[ProgressFn] = None,
        on_frame: Optional[FrameFn] = None,
        on_outcome: Optional[OutcomeFn] = None,
    ) -> "tuple[list[SpecOutcome], RunnerReport]":
        """Execute every spec; outcomes are returned in spec order.

        After the grid drains, jobs that failed (deterministic errors,
        exhausted timeout retries) raise :class:`RunnerError` unless
        ``allow_partial`` is set, in which case the surviving outcomes
        are returned and the report carries one
        :class:`~repro.runner.spec.JobFailure` per lost job.  An open
        pool circuit alone is never a failure — the jobs it leaves are
        re-run in-process.  With ``resume``, specs whose key appears in
        the cache root's checkpoint journal are skipped entirely.

        ``on_frame`` receives live ``(spec index, ProgressSnapshot)``
        pairs while jobs simulate (requires
        ``progress_interval_events > 0``; frames from pool workers ride
        the heartbeat pipe).  ``on_outcome`` streams each
        :class:`SpecOutcome` the moment it lands — before the grid
        finishes — enabling incremental consumption of wide grids.
        Both hooks observe only; results are bit-identical with or
        without them.
        """
        self._on_frame = on_frame
        self._on_outcome = on_outcome
        if self.config.log_level is not None:
            configure_logging(
                self.config.log_level, json_lines=self.config.log_json
            )
        started = time.monotonic()
        records = [
            JobRecord(
                job_id=spec.job_id,
                workload=spec.workload,
                scale=spec.scale,
                modes_total=len(spec.modes),
            )
            for spec in specs
        ]
        self._failures = []
        self._submitted = {}
        self._spec_keys = [
            spec_key(spec, self.config.cache_salt) for spec in specs
        ]
        self._journal = (
            CheckpointJournal(self.config.cache_dir)
            if self.config.cache_dir is not None
            else None
        )
        pending = self._resolve_pending(specs, records)
        use_pool = (
            self.config.parallel
            and len(pending) > 1
            and self.config.resolved_jobs() > 1
        )
        report = RunnerReport(
            jobs=records,
            parallel=use_pool,
            worker_count=self.config.resolved_jobs() if use_pool else 1,
        )
        self._report = report
        _log.info(
            "grid start: %d job(s), %d pending",
            len(specs),
            len(pending),
            extra={
                "event": "grid_start",
                "jobs_total": len(specs),
                "jobs_pending": len(pending),
                "parallel": use_pool,
                "workers": report.worker_count,
            },
        )
        chaos = self.config.chaos
        if (
            chaos is not None
            and chaos.corrupt_cache_entries
            and self.config.cache_dir is not None
        ):
            from repro.chaos import corrupt_cache_entries

            corrupt_cache_entries(self.config.cache_dir, chaos)
        outcomes: list[Optional[SpecOutcome]] = [None] * len(specs)
        if use_pool:
            leftover = self._run_supervised(
                specs, records, outcomes, progress, pending, report
            )
            if leftover:
                report.fell_back = True
                _log.error(
                    "pool circuit open: re-running %d job(s) in-process",
                    len(leftover),
                    extra={"event": "pool_broken", "jobs": len(leftover)},
                )
                for index in leftover:
                    self._run_inline(
                        specs, records, outcomes, index, progress,
                        executor="fallback",
                    )
        else:
            for index in pending:
                self._run_inline(
                    specs, records, outcomes, index, progress,
                    executor="inline",
                )
        if (
            chaos is not None
            and chaos.truncate_journal_bytes
            and self._journal is not None
        ):
            from repro.chaos import truncate_journal

            truncate_journal(
                str(self._journal.path), chaos.truncate_journal_bytes
            )
        report.wall_seconds = time.monotonic() - started
        report.failures = list(self._failures)
        _log.info(
            "grid finish: %d job(s), %d failure(s)",
            report.jobs_total,
            len(report.failures),
            extra={
                "event": "grid_finish",
                "jobs_total": report.jobs_total,
                "failures": len(report.failures),
                "cache_hits": report.cache_hits,
                "simulations": report.simulations,
                "retries": report.retries,
                "total_sim_cycles": report.total_sim_cycles,
                "wall_seconds": report.wall_seconds,
                "pool_restarts": report.pool_restarts,
                "worker_crashes": report.worker_crashes,
            },
        )
        if report.failures and not self.config.allow_partial:
            details = "; ".join(
                f"{failure.job_id}: [{failure.kind}] {failure.message}"
                for failure in report.failures
            )
            raise RunnerError(
                f"{len(report.failures)} of {len(specs)} job(s) failed — "
                f"{details}"
            )
        return [outcome for outcome in outcomes if outcome is not None], report

    def _resolve_pending(
        self,
        specs: "list[ExperimentSpec]",
        records: "list[JobRecord]",
    ) -> "list[int]":
        """Indexes to execute; resumed-complete specs become skips."""
        if not self.config.resume:
            return list(range(len(specs)))
        if self._journal is None:
            raise RunnerError(
                "resume requires a cache directory (the checkpoint "
                "journal lives in the cache root)"
            )
        completed = self._journal.completed()
        pending: list[int] = []
        for index in range(len(specs)):
            if self._spec_keys[index] in completed:
                records[index].status = "skipped"
                _log.info(
                    "job skipped (resume): %s",
                    records[index].job_id,
                    extra={
                        "event": "job_skipped",
                        "job_id": records[index].job_id,
                        "spec_key": self._spec_keys[index],
                    },
                )
            else:
                pending.append(index)
        return pending

    # ------------------------------------------------------------------
    # Execution paths
    # ------------------------------------------------------------------

    def _run_supervised(
        self,
        specs: "list[ExperimentSpec]",
        records: "list[JobRecord]",
        outcomes: "list[Optional[SpecOutcome]]",
        progress: Optional[ProgressFn],
        pending: "list[int]",
        report: RunnerReport,
    ) -> "list[int]":
        """Fan out over the supervised pool; returns circuit leftovers.

        Completion callbacks fire in this process as jobs drain, so
        journal checkpointing, progress reporting, and failure
        accounting behave exactly like the inline path — a SIGTERM
        mid-grid keeps every already-completed spec resumable.
        """
        from repro.runner.pool import SupervisedWorkerPool

        def on_dispatch(index: int, attempts: int, resumed: bool) -> None:
            record = records[index]
            record.status = "running"
            record.executor = "worker"
            self._submitted[index] = time.monotonic()
            _log.debug(
                "job submitted: %s",
                record.job_id,
                extra={
                    "event": "job_submitted",
                    "job_id": record.job_id,
                    "spec_key": self._spec_keys[index],
                    "attempt": attempts,
                    "resumed": resumed,
                },
            )

        def collect(index: int, outcome: dict) -> None:
            record = records[index]
            record.attempts = outcome["attempts"]
            if outcome["status"] == "done":
                self._finish(
                    record, outcome["payload"], specs[index], outcomes,
                    index,
                )
                record.queue_seconds = outcome.get(
                    "queue_seconds", record.queue_seconds
                )
                if progress is not None:
                    progress(record)
            else:
                self._fail(
                    record, outcome["kind"], outcome["message"], progress
                )

        pool = SupervisedWorkerPool(
            self.config,
            backoff_rng=lambda index: self._backoff_rng(
                self._spec_keys[index]
            ),
            on_dispatch=on_dispatch,
            on_progress=self._on_frame,
        )
        try:
            result = pool.run(
                [(index, specs[index]) for index in pending], collect
            )
        finally:
            pool.shutdown()
        report.pool_restarts += result.restarts
        report.worker_crashes += result.worker_crashes
        return list(result.leftover)

    def _fail(
        self,
        record: JobRecord,
        kind: str,
        message: str,
        progress: Optional[ProgressFn],
    ) -> None:
        """Record one lost job as a structured failure."""
        record.status = "failed"
        record.error = message
        self._failures.append(
            JobFailure(
                job_id=record.job_id,
                kind=kind,
                message=message,
                attempts=max(record.attempts, 1),
            )
        )
        _log.error(
            "job failed: %s [%s] %s",
            record.job_id,
            kind,
            message,
            extra={
                "event": "job_failed",
                "job_id": record.job_id,
                "kind": kind,
                "attempts": max(record.attempts, 1),
            },
        )
        if progress is not None:
            progress(record)

    def _run_inline(
        self,
        specs: "list[ExperimentSpec]",
        records: "list[JobRecord]",
        outcomes: "list[Optional[SpecOutcome]]",
        index: int,
        progress: Optional[ProgressFn],
        executor: str,
    ) -> None:
        record = records[index]
        record.status = "running"
        record.executor = executor
        record.attempts += 1
        self._submitted[index] = time.monotonic()
        publisher = None
        if (
            self._on_frame is not None
            and self.config.progress_interval_events > 0
        ):
            frame_cb = self._on_frame
            publisher = CallbackPublisher(
                lambda snap, _index=index: frame_cb(_index, snap),
                interval=self.config.progress_interval_events,
            )
        try:
            payload = execute_spec(
                specs[index], self.config, publisher=publisher
            )
        except ReproError as error:
            self._fail(record, "error", str(error), progress)
            return
        except OSError as error:
            # Environment trouble (unwritable cache, fd exhaustion)
            # rather than a deterministic modeling error.
            self._fail(record, "crash", str(error), progress)
            return
        self._finish(record, payload, specs[index], outcomes, index)
        if progress is not None:
            progress(record)

    def _finish(
        self,
        record: JobRecord,
        payload: dict,
        spec: ExperimentSpec,
        outcomes: "list[Optional[SpecOutcome]]",
        index: int,
    ) -> None:
        outcome = SpecOutcome(
            spec=spec,
            run=payload["run"],
            trace_hash=payload["trace_hash"],
        )
        for label, entry in payload["modes"].items():
            outcome.results[label] = SimResult.from_dict(entry["payload"])
            outcome.cached[label] = entry["cached"]
            outcome.fallbacks[label] = entry.get("fallback", False)
            if entry["cached"]:
                _log.debug(
                    "cache hit: %s mode %s",
                    record.job_id,
                    label,
                    extra={
                        "event": "cache_hit",
                        "job_id": record.job_id,
                        "spec_key": self._spec_keys[index],
                        "mode": label,
                    },
                )
        outcomes[index] = outcome
        record.status = "done"
        record.wall_seconds = payload["seconds"]
        submitted = self._submitted.get(index)
        if submitted is not None:
            # Turnaround minus execute time: waiting for a pool slot
            # (plus, for pool jobs, waiting to be collected).
            record.queue_seconds = max(
                0.0, (time.monotonic() - submitted) - record.wall_seconds
            )
        record.sim_cycles = sum(
            result.cycles for result in outcome.results.values()
        )
        record.modes_cached = sum(
            1 for cached in outcome.cached.values() if cached
        )
        record.modes_simulated = record.modes_total - record.modes_cached
        record.engine_fallbacks = sum(
            1 for fellback in outcome.fallbacks.values() if fellback
        )
        _log.info(
            "job finished: %s (%.2fs execute, %.2fs queued)",
            record.job_id,
            record.wall_seconds,
            record.queue_seconds,
            extra={
                "event": "job_finished",
                "job_id": record.job_id,
                "spec_key": self._spec_keys[index],
                "execute_seconds": record.wall_seconds,
                "queue_seconds": record.queue_seconds,
                "modes_cached": record.modes_cached,
                "modes_simulated": record.modes_simulated,
                "sim_cycles": record.sim_cycles,
                "attempts": record.attempts,
            },
        )
        if self._journal is not None:
            # Checkpoint for --resume: this spec never needs to re-run.
            self._journal.mark(self._spec_keys[index], record.job_id)
        if self._on_outcome is not None:
            # Incremental delivery: stream the cell before the grid ends.
            self._on_outcome(index, outcome)


# ----------------------------------------------------------------------
# Grid builders: the paper's standard sweeps as explicit spec lists
# ----------------------------------------------------------------------


def workload_specs(
    codes: Sequence[str], modes: Sequence[SystemConfig], scale: str
) -> "list[ExperimentSpec]":
    """One spec per workload code: its bench graph at ``scale``, under
    ``modes``."""
    return [
        ExperimentSpec.for_workload(
            code, scale, modes=modes, params=workload_params(code)
        )
        for code in codes
    ]


def evaluation_grid_specs(
    scale: str, faults=None
) -> "list[ExperimentSpec]":
    """Figure 7 workloads x (Baseline / U-PEI / GraphPIM).

    ``faults`` (a :class:`~repro.faults.plan.FaultPlan`) applies the
    same fault-injection plan to every mode of every spec.
    """
    trio = SystemConfig(faults=faults).evaluation_trio()
    return workload_specs(FIGURE7_CODES, trio, scale)


def motivation_extra_specs(scale: str) -> "list[ExperimentSpec]":
    """The non-Figure-7 workloads, baseline mode only (Figures 1/2)."""
    codes = [
        workload.code
        for workload in all_workloads()
        if workload.code not in FIGURE7_CODES
    ]
    return workload_specs(codes, [SystemConfig.baseline()], scale)


def plain_atomics_specs(scale: str) -> "list[ExperimentSpec]":
    """Figure 4's "atomics as load+store" grid (strict-exempt: the
    recorded races are the point of the micro-benchmark)."""
    return [
        ExperimentSpec.for_workload(
            code,
            scale,
            modes=[SystemConfig.baseline()],
            plain_atomics=True,
            params=workload_params(code),
            strict_exempt=True,
        )
        for code in FIGURE7_CODES
    ]


def run_evaluation_grid(
    config: Optional[RunnerConfig] = None,
    progress: Optional[ProgressFn] = None,
    faults=None,
    on_frame: Optional[FrameFn] = None,
) -> "tuple[dict[str, EvaluationReport], RunnerReport]":
    """Execute the Figure 7 evaluation grid under ``config``.

    With ``allow_partial`` (or ``resume``) the returned mapping covers
    only the jobs that produced results; the report's ``failures`` and
    ``jobs`` records account for the rest.  ``on_frame`` streams live
    per-job progress frames (``repro run --progress``).
    """
    config = config or RunnerConfig()
    scale = config.resolved_scale()
    specs = evaluation_grid_specs(scale, faults=faults)
    outcomes, report = ExperimentRunner(config).run(
        specs, progress, on_frame=on_frame
    )
    return {
        outcome.spec.workload: outcome.report() for outcome in outcomes
    }, report
