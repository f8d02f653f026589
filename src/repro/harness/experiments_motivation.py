"""Motivation experiments: Figures 1, 2, and 4."""

from __future__ import annotations

from repro.harness.registry import ExperimentResult, experiment
from repro.harness.suite import (
    evaluation_suite,
    motivation_suite,
    plain_atomics_suite,
)
from repro.workloads.registry import FIGURE7_CODES, all_workloads


@experiment("fig01")
def fig01_ipc(scale: str | None = None) -> ExperimentResult:
    """Figure 1: per-core IPC of graph workloads on the baseline."""
    results = motivation_suite(scale)
    rows = []
    ipc_by_category: dict[str, list[float]] = {}
    for workload in all_workloads():
        baseline = results[workload.code]
        per_core_ipc = baseline.ipc / baseline.config.num_cores
        category = workload.category.value
        rows.append([workload.code, category, per_core_ipc])
        ipc_by_category.setdefault(category, []).append(per_core_ipc)
    metrics = {
        f"mean_ipc_{cat}": sum(vals) / len(vals)
        for cat, vals in ipc_by_category.items()
    }
    return ExperimentResult(
        experiment_id="fig01",
        title="IPC of graph workloads (baseline, per core)",
        headers=["workload", "category", "ipc"],
        rows=rows,
        metrics=metrics,
        notes="paper: GT workloads mostly below 0.1 IPC; RP higher",
    )


@experiment("fig02")
def fig02_breakdown_mpki(scale: str | None = None) -> ExperimentResult:
    """Figure 2: execution-cycle breakdown and cache MPKI (baseline)."""
    results = motivation_suite(scale)
    rows = []
    backend_shares = []
    for workload in all_workloads():
        baseline = results[workload.code]
        breakdown = baseline.pipeline_breakdown()
        mpki = baseline.mpki()
        rows.append(
            [
                workload.code,
                breakdown["Backend"],
                breakdown["Frontend"],
                breakdown["BadSpeculation"],
                breakdown["Retiring"],
                mpki["L1"],
                mpki["L2"],
                mpki["L3"],
            ]
        )
        backend_shares.append(breakdown["Backend"])
    return ExperimentResult(
        experiment_id="fig02",
        title="Cycle breakdown + MPKI (baseline)",
        headers=[
            "workload",
            "backend",
            "frontend",
            "badspec",
            "retiring",
            "L1_mpki",
            "L2_mpki",
            "L3_mpki",
        ],
        rows=rows,
        metrics={"mean_backend": sum(backend_shares) / len(backend_shares)},
        notes=(
            "frontend/bad-speculation shares are synthesized constants "
            "(the trace model has no fetch/speculation path)"
        ),
    )


@experiment("fig04")
def fig04_atomic_overhead(scale: str | None = None) -> ExperimentResult:
    """Figure 4: slowdown of atomics vs plain read+write (baseline)."""
    with_atomics = evaluation_suite(scale)
    without_atomics = plain_atomics_suite(scale)
    rows = []
    overheads = []
    for code in FIGURE7_CODES:
        atomic_cycles = with_atomics[code].baseline.cycles
        plain_cycles = without_atomics[code].cycles
        overhead = atomic_cycles / plain_cycles
        rows.append([code, plain_cycles, atomic_cycles, overhead])
        overheads.append(overhead)
    mean = sum(overheads) / len(overheads)
    return ExperimentResult(
        experiment_id="fig04",
        title="Atomic instruction overhead (with / without atomics)",
        headers=["workload", "plain_cycles", "atomic_cycles", "slowdown"],
        rows=rows,
        metrics={"mean_slowdown": mean, "max_slowdown": max(overheads)},
        notes="paper: 29.8% average overhead, up to 64% for DCentr",
    )
