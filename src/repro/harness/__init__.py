"""Experiment harness: one entry point per paper table and figure.

Each experiment function regenerates the rows/series of one artifact of
the paper's evaluation section and returns an
:class:`ExperimentResult`; the ``benchmarks/`` tree wraps them in
pytest-benchmark targets, and ``examples/reproduce_all.py`` runs the
whole index.  Heavy simulations are shared through the memoized
:func:`evaluation_suite`.
"""

from repro.harness.registry import (
    EXPERIMENTS,
    ExperimentResult,
    get_experiment,
    run_experiment,
)
from repro.harness.suite import (
    adopt_grid_results,
    default_runner,
    evaluation_suite,
    motivation_suite,
    plain_atomics_suite,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "adopt_grid_results",
    "default_runner",
    "evaluation_suite",
    "get_experiment",
    "motivation_suite",
    "plain_atomics_suite",
    "run_experiment",
]
