"""Experiment harness: one entry point per paper table and figure.

Each experiment function regenerates the rows/series of one artifact of
the paper's evaluation section and returns an
:class:`ExperimentResult`; the ``benchmarks/`` tree wraps them in
pytest-benchmark targets, and ``examples/reproduce_all.py`` runs the
whole index.  Experiments on the standard traces reach their
simulations as runner specs through :func:`run_specs`, whose memo
shares each result among every experiment that reads it.
"""

from repro.harness.registry import (
    EXPERIMENTS,
    ExperimentResult,
    get_experiment,
    run_experiment,
)
from repro.harness.suite import (
    default_runner,
    evaluation_suite,
    motivation_suite,
    plain_atomics_suite,
    run_specs,
    sweep,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "default_runner",
    "evaluation_suite",
    "get_experiment",
    "motivation_suite",
    "plain_atomics_suite",
    "run_experiment",
    "run_specs",
    "sweep",
]
