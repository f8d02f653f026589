"""The harness's one way to its simulations: runner specs, one memo.

The paper's evaluation is one grid seen many ways.  Figures 7, 9, 10,
12, 15 and 16 read the eight Figure 7 workloads under Baseline / U-PEI
/ GraphPIM; Figures 1 and 2 add the other workloads' baselines;
Figure 4 the plain-atomics runs; Figures 11 and 13 and the ablations
re-run some workloads under swept configs (:func:`sweep`).  Every one
of them is a list of :class:`~repro.runner.ExperimentSpec` jobs handed
to :func:`run_specs`, which executes the unseen ones in one
:class:`~repro.runner.ExperimentRunner` grid and memoizes their results
for the lifetime of the process.

Execution policy (strictness, parallelism, cache placement) is carried
by an explicit :class:`~repro.runner.RunnerConfig` argument; without
one, :func:`default_runner` applies: in-process, non-strict, no disk
cache unless ``REPRO_JOBS`` / ``REPRO_CACHE_DIR`` say otherwise.
:func:`sweep` always runs under :func:`default_runner` and discards the
runner's report.  An orchestrator warms the memo by running its own
spec list through :func:`run_specs` under its own config
(``examples/reproduce_all.py``); later suite calls are answered from
the memo.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from repro.common.errors import ConfigError
from repro.core.api import EvaluationReport
from repro.core.presets import resolve_scale
from repro.runner.engine import (
    ExperimentRunner,
    evaluation_grid_specs,
    motivation_extra_specs,
    plain_atomics_specs,
    workload_specs,
)
from repro.runner.fingerprint import spec_key
from repro.runner.spec import ExperimentSpec, RunnerConfig, RunnerReport
from repro.sim.config import SystemConfig
from repro.sim.system import SimResult

#: spec_key -> (results by mode label, whether the strict pre-flight
#: passed the spec's trace).  Traced runs are not kept.
_RESULTS: dict[str, tuple[dict[str, SimResult], bool]] = {}


def default_runner() -> RunnerConfig:
    """The library-default execution policy for suite calls.

    Conservative on purpose: in-process execution and no disk cache, so
    tests and ad-hoc imports get no surprise subprocesses or cache
    directories.  Setting ``REPRO_CACHE_DIR`` opts suite calls into the
    persistent cache, and ``REPRO_JOBS`` fans each call's unseen specs
    out over that many pool workers; orchestrators that want full
    control pass an explicit :class:`RunnerConfig` instead.
    """
    jobs_env = os.environ.get("REPRO_JOBS")
    cache_env = os.environ.get("REPRO_CACHE_DIR")
    return RunnerConfig(
        jobs=int(jobs_env) if jobs_env else None,
        parallel=bool(jobs_env and int(jobs_env) > 1),
        cache_dir=cache_env if cache_env else None,
    )


def run_specs(
    specs: Sequence[ExperimentSpec],
    runner: Optional[RunnerConfig] = None,
) -> "tuple[list[dict[str, SimResult]], Optional[RunnerReport]]":
    """Each spec's results by mode label, in spec order, memoized.

    Specs the memo cannot answer run in one :class:`ExperimentRunner`
    grid under ``runner`` (by default :func:`default_runner`), whose
    report is returned alongside (None when every spec was answered).
    The results do not depend on the execution policy, with one
    exception: a strict runner is not answered by results whose trace
    skipped the pre-flight, so such a spec runs again under it.  A spec
    that produced no results (``allow_partial``, ``resume``) maps to an
    empty dict.
    """
    config = runner or default_runner()
    keys = [spec_key(spec) for spec in specs]
    unseen: dict[str, ExperimentSpec] = {}
    for key, spec in zip(keys, specs):
        kept = _RESULTS.get(key)
        checked = config.strict and not spec.strict_exempt
        if kept is None or (checked and not kept[1]):
            unseen.setdefault(key, spec)
    report = None
    if unseen:
        for key in unseen:
            _RESULTS.pop(key, None)
        outcomes, report = ExperimentRunner(config).run(list(unseen.values()))
        for outcome in outcomes:
            _RESULTS[spec_key(outcome.spec)] = (
                outcome.results,
                config.strict and not outcome.spec.strict_exempt,
            )
    return [_RESULTS.get(key, ({}, False))[0] for key in keys], report


def sweep(
    workloads: Sequence[str],
    modes: Sequence[SystemConfig],
    scale: str | None = None,
) -> "dict[str, list[SimResult]]":
    """``workloads`` on their bench graphs at ``scale``, each under
    ``modes``: by workload, the results in mode order.

    A spec's results key on :attr:`SystemConfig.display_name`, so every
    mode needs its own label (``GraphPIM/fu4``, ``Baseline/bw0.5``).
    """
    labels = [mode.display_name for mode in modes]
    if len(set(labels)) != len(labels):
        raise ConfigError(
            f"every mode of a sweep needs its own label: {labels}"
        )
    specs = workload_specs(workloads, modes, resolve_scale(scale))
    results, _report = run_specs(specs)
    return {
        code: [by_label[label] for label in labels]
        for code, by_label in zip(workloads, results)
    }


def evaluation_suite(
    scale: str | None = None,
    runner: Optional[RunnerConfig] = None,
) -> dict[str, EvaluationReport]:
    """Figure 7 workloads under the three system modes.

    The reports carry no traced run (``run`` is None).
    """
    specs = evaluation_grid_specs(resolve_scale(scale))
    results, _report = run_specs(specs, runner)
    return {
        spec.workload: EvaluationReport(
            workload_code=spec.workload, results=dict(modes)
        )
        for spec, modes in zip(specs, results)
    }


def motivation_suite(
    scale: str | None = None,
    runner: Optional[RunnerConfig] = None,
) -> dict[str, SimResult]:
    """Every workload's baseline result (Figures 1 and 2).

    The Figure 7 workloads share the evaluation grid's baselines.
    """
    scale = resolve_scale(scale)
    specs = evaluation_grid_specs(scale) + motivation_extra_specs(scale)
    results, _report = run_specs(specs, runner)
    return {
        spec.workload: modes["Baseline"]
        for spec, modes in zip(specs, results)
    }


def plain_atomics_suite(
    scale: str | None = None,
    runner: Optional[RunnerConfig] = None,
) -> dict[str, SimResult]:
    """Figure 4's "without atomics" runs: atomics recorded as load+store.

    Deliberately exempt from the strict pre-flight (the specs carry
    ``strict_exempt``): recording shared atomics as plain load+store
    pairs is *exactly* the data race the detector exists to flag — that
    is the point of the micro-benchmark.
    """
    specs = plain_atomics_specs(resolve_scale(scale))
    results, _report = run_specs(specs, runner)
    return {
        spec.workload: modes["Baseline"]
        for spec, modes in zip(specs, results)
    }


def clear_caches() -> None:
    """Drop all memoized results (tests use this to control memory)."""
    _RESULTS.clear()
