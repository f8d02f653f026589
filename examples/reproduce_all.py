"""Regenerate every table and figure of the paper's evaluation.

Run with::

    python examples/reproduce_all.py [tiny|small|paper] [--jobs N]
                                     [--no-cache] [experiment ...]

With no experiment arguments, runs the full index from DESIGN.md.
``tiny`` finishes in a couple of minutes; ``small`` (default) matches
the numbers recorded in EXPERIMENTS.md; ``paper`` is the calibration
scale (slow).

The standard simulation grid (the evaluation, motivation and
plain-atomics specs) is executed up front by one
:func:`repro.harness.run_specs` call: jobs fan out over ``--jobs``
worker processes (default: all CPUs) and results persist in
``.repro_cache/``, so a re-run of this script performs zero simulations
of that grid.  Strictness is carried explicitly by
``RunnerConfig(strict=True)`` — every trace is linted and race-checked
before simulation and the run fails fast on invariant violations
instead of rendering skewed figures.
"""

import sys
import time

from repro.analysis import check_strict, lint_config
from repro.harness import EXPERIMENTS, get_experiment, run_experiment, run_specs
from repro.harness.charts import bar_chart
from repro.runner import (
    RunnerConfig,
    evaluation_grid_specs,
    motivation_extra_specs,
    plain_atomics_specs,
)
from repro.sim.config import SystemConfig

DEFAULT_ORDER = [
    "fig01", "fig02", "fig04",
    "tab02", "tab03", "tab05", "tab06",
    "fig07", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16", "tab08", "fig17",
]


def _parse_args(argv: list) -> tuple:
    scale = "small"
    jobs = None
    cache = True
    experiments = []
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg in ("tiny", "small", "paper"):
            scale = arg
        elif arg == "--jobs":
            if not args:
                raise SystemExit("--jobs requires a worker count")
            jobs = int(args.pop(0))
        elif arg == "--no-cache":
            cache = False
        else:
            experiments.append(arg)
    return scale, jobs, cache, experiments


def main() -> None:
    scale, jobs, cache, experiments = _parse_args(sys.argv[1:])
    get_experiment("fig07")  # force registry load
    experiments = experiments or DEFAULT_ORDER
    unknown = [e for e in experiments if e not in EXPERIMENTS]
    if unknown:
        raise SystemExit(f"unknown experiments: {unknown}")

    # Validate the three evaluated configurations up front, then run the
    # standard grid through the strict parallel runner; the experiments
    # below read it from the harness memo.
    for config in SystemConfig().evaluation_trio():
        check_strict(lint_config(config))
    runner_config = RunnerConfig(
        strict=True,
        jobs=jobs,
        cache_dir=".repro_cache" if cache else None,
    )
    print(f"Reproducing {len(experiments)} artifacts at scale={scale!r}\n")
    total_start = time.time()
    specs = (
        evaluation_grid_specs(scale)
        + motivation_extra_specs(scale)
        + plain_atomics_specs(scale)
    )
    _results, runner_report = run_specs(specs, runner_config)
    print(runner_report.summary())
    print()

    for experiment_id in experiments:
        start = time.time()
        result = run_experiment(experiment_id, scale=scale)
        print(result.render())
        if experiment_id == "fig07":
            print()
            print(
                bar_chart(
                    result.column("workload"),
                    result.column("GraphPIM"),
                    title="GraphPIM speedup over baseline (· = 1.0x)",
                    reference=1.0,
                )
            )
        elif experiment_id == "fig10":
            print()
            print(
                bar_chart(
                    result.column("workload"),
                    result.column("llc_miss_rate"),
                    title="offload-candidate LLC miss rate",
                )
            )
        print(f"  ({time.time() - start:.1f}s)\n")
    print(f"Done in {time.time() - total_start:.1f}s")


if __name__ == "__main__":
    main()
