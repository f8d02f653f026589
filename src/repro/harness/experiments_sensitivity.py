"""Sensitivity experiments: Figures 11, 13, and 14."""

from __future__ import annotations

from dataclasses import replace

from repro.core.presets import resolve_scale, workload_params
from repro.graph.generators import ldbc_like_graph
from repro.harness.registry import ExperimentResult, experiment
from repro.harness.suite import evaluation_suite, sweep
from repro.sim.config import SystemConfig
from repro.sim.system import simulate
from repro.workloads.registry import get_workload

#: Workload subset for the per-sweep experiments (the paper sweeps all
#: eight; the atomic-dense half captures every trend and keeps the
#: bench tractable — pass ``workloads=FIGURE7_CODES`` for the full set).
SWEEP_WORKLOADS = ("BFS", "DC", "kCore", "PRank")

#: Graph-size families per scale, keeping the paper's geometric shape.
SIZE_FAMILY = {
    "tiny": (200, 400),
    "small": (500, 1_000, 2_000, 4_000),
    "paper": (1_000, 2_000, 4_000, 8_000),
}


@experiment("fig11")
def fig11_fu_sensitivity(
    scale: str | None = None,
    fu_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
    workloads: tuple[str, ...] = SWEEP_WORKLOADS,
) -> ExperimentResult:
    """Figure 11: GraphPIM speedup vs functional units per vault."""
    suite = evaluation_suite(scale)
    hmc = SystemConfig().hmc
    swept = sweep(
        workloads,
        [
            replace(
                SystemConfig.graphpim(),
                hmc=hmc.with_fus(fus),
                label=f"GraphPIM/fu{fus}",
            )
            for fus in fu_counts
        ],
        scale,
    )
    rows = []
    spreads = []
    for code in workloads:
        baseline_cycles = suite[code].baseline.cycles
        speedups = [baseline_cycles / result.cycles for result in swept[code]]
        rows.append([code, *speedups])
        spreads.append(max(speedups) - min(speedups))
    return ExperimentResult(
        experiment_id="fig11",
        title="GraphPIM speedup vs PIM functional units per vault",
        headers=["workload", *[f"{f}FU" for f in fu_counts]],
        rows=rows,
        metrics={"max_speedup_spread": max(spreads)},
        notes="paper: no noticeable impact, even with a single FU per vault",
    )


@experiment("fig13")
def fig13_link_bandwidth(
    scale: str | None = None,
    factors: tuple[float, ...] = (0.5, 1.0, 2.0),
    workloads: tuple[str, ...] = SWEEP_WORKLOADS,
) -> ExperimentResult:
    """Figure 13: sensitivity to HMC link bandwidth."""
    suite = evaluation_suite(scale)
    hmc = SystemConfig().hmc
    swept = sweep(
        workloads,
        [
            replace(
                base,
                hmc=hmc.scaled_link_bandwidth(factor),
                label=f"{base.label}/bw{factor:g}",
            )
            for base in (SystemConfig.baseline(), SystemConfig.graphpim())
            for factor in factors
        ],
        scale,
    )
    rows = []
    spreads = []
    for code in workloads:
        reference = suite[code].baseline.cycles
        speedups_row = [
            code,
            *(reference / result.cycles for result in swept[code]),
        ]
        rows.append(speedups_row)
        base_vals = speedups_row[1 : 1 + len(factors)]
        gpim_vals = speedups_row[1 + len(factors) :]
        spreads.append(
            max(
                max(base_vals) - min(base_vals),
                max(gpim_vals) - min(gpim_vals),
            )
        )
    headers = ["workload"]
    headers += [f"Base-{f}x" for f in factors]
    headers += [f"GraphPIM-{f}x" for f in factors]
    return ExperimentResult(
        experiment_id="fig13",
        title="Speedup with different HMC link bandwidth",
        headers=headers,
        rows=rows,
        metrics={"max_bandwidth_spread": max(spreads)},
        notes="paper: graph workloads are insensitive to link bandwidth",
    )


@experiment("fig14")
def fig14_graph_size(
    scale: str | None = None,
    workloads: tuple[str, ...] = SWEEP_WORKLOADS,
) -> ExperimentResult:
    """Figure 14: GraphPIM vs U-PEI and baseline across graph sizes."""
    scale = resolve_scale(scale)
    sizes = SIZE_FAMILY[scale]
    rows = []
    small_size, large_size = sizes[0], sizes[-1]
    improvements: dict[tuple[str, int], float] = {}
    for code in workloads:
        workload = get_workload(code)
        params = workload_params(code)
        for size in sizes:
            graph = ldbc_like_graph(
                size, seed=7, weighted=(code == "SSSP")
            )
            run = workload.run(graph, num_threads=16, **params)
            results = {}
            for config in SystemConfig().evaluation_trio():
                results[config.display_name] = simulate(run.trace, config)
            baseline = results["Baseline"]
            upei = results["U-PEI"]
            graphpim = results["GraphPIM"]
            improvement = upei.cycles / graphpim.cycles - 1.0
            speedup = graphpim.speedup_over(baseline)
            improvements[(code, size)] = improvement
            rows.append([code, size, improvement, speedup])
    small_mean = sum(
        improvements[(c, small_size)] for c in workloads
    ) / len(workloads)
    large_mean = sum(
        improvements[(c, large_size)] for c in workloads
    ) / len(workloads)
    return ExperimentResult(
        experiment_id="fig14",
        title="(a) GraphPIM improvement over U-PEI, (b) speedup, by size",
        headers=["workload", "vertices", "improvement_over_upei", "speedup"],
        rows=rows,
        metrics={
            "mean_improvement_smallest": small_mean,
            "mean_improvement_largest": large_mean,
        },
        notes=(
            "paper: cache bypassing loses on graphs that fit in the LLC "
            "(U-PEI wins small sizes) but overall speedup stays stable"
        ),
    )
