"""Parallel experiment runner with a persistent result cache.

Turns the harness's implicit (workload, scale, mode) grid into explicit
:class:`ExperimentSpec` jobs, fans them out across a supervised worker
pool, and
backs every simulation with a content-addressed on-disk cache
(``.repro_cache/`` by default) keyed by trace hash + config fingerprint
+ code-version salt — a repeated grid performs zero simulations.

Strictness, scale, parallelism, and cache placement travel on
:class:`RunnerConfig` values instead of module globals.

Entry points:

- :func:`run_evaluation_grid` — the Figure 7 grid (CLI ``repro run``);
  :func:`evaluation_grid_specs`, :func:`motivation_extra_specs` and
  :func:`plain_atomics_specs` — the paper's standard grids as spec
  lists (``examples/reproduce_all.py``).
- :class:`ExperimentRunner` — execute an arbitrary spec list.
- :class:`ResultCache` — cache inspection/maintenance (``repro cache``).
- :class:`JsonlJournal` — the torn-write tolerant JSON-lines journal
  behind the resume checkpoint, the service's drain checkpoint and the
  fleet roster.
- :class:`SupervisedWorkerPool` — the heartbeat-monitored worker pool
  behind every parallel grid, with crash/hang/timeout/poison recovery.
"""

from repro.chaos import ChaosPlan
from repro.faults import FaultPlan
from repro.runner.cache import (
    CACHE_LAYOUT_VERSION,
    CheckpointJournal,
    JsonlJournal,
    ResultCache,
)
from repro.runner.engine import (
    ExperimentRunner,
    SpecOutcome,
    clear_trace_memo,
    evaluation_grid_specs,
    execute_spec,
    motivation_extra_specs,
    plain_atomics_specs,
    run_evaluation_grid,
)
from repro.runner.pool import PoolOutcome, SupervisedWorkerPool
from repro.runner.fingerprint import (
    CODE_VERSION,
    config_fingerprint,
    result_key,
    spec_key,
    trace_digest,
)
from repro.runner.spec import (
    DEFAULT_CACHE_DIR,
    ExperimentSpec,
    JobFailure,
    JobRecord,
    RunnerConfig,
    RunnerReport,
)

__all__ = [
    "CACHE_LAYOUT_VERSION",
    "ChaosPlan",
    "CheckpointJournal",
    "CODE_VERSION",
    "DEFAULT_CACHE_DIR",
    "ExperimentRunner",
    "ExperimentSpec",
    "FaultPlan",
    "JobFailure",
    "JobRecord",
    "JsonlJournal",
    "PoolOutcome",
    "ResultCache",
    "RunnerConfig",
    "RunnerReport",
    "SpecOutcome",
    "SupervisedWorkerPool",
    "clear_trace_memo",
    "config_fingerprint",
    "evaluation_grid_specs",
    "execute_spec",
    "motivation_extra_specs",
    "plain_atomics_specs",
    "result_key",
    "spec_key",
    "run_evaluation_grid",
    "trace_digest",
]
