"""Experiment registry: id -> callable, plus the result record."""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import ConfigError
from repro.harness.render import format_table


@dataclass
class ExperimentResult:
    """Rows of one regenerated table or figure."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    #: Free-form metrics the benches assert on (speedup averages, ...).
    metrics: dict[str, float] = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        """ASCII rendering, matching the paper artifact's layout."""
        text = format_table(
            self.headers, self.rows, f"[{self.experiment_id}] {self.title}"
        )
        if self.notes:
            text += f"\n  note: {self.notes}"
        return text

    def column(self, header: str) -> list:
        """Extract one column by header name."""
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]

    def row_for(self, key) -> list:
        """Extract the row whose first cell equals ``key``."""
        for row in self.rows:
            if row[0] == key:
                return row
        raise KeyError(f"no row with key {key!r} in {self.experiment_id}")


EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {}


def experiment(experiment_id: str):
    """Decorator registering an experiment function."""

    def wrap(fn: Callable[..., ExperimentResult]):
        if experiment_id in EXPERIMENTS:
            raise ConfigError(f"duplicate experiment id {experiment_id!r}")
        EXPERIMENTS[experiment_id] = fn
        return fn

    return wrap


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    """Look up an experiment by id (e.g. ``"fig07"``)."""
    _ensure_loaded()
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run one experiment by id.

    ``scale`` reaches only experiments that take one; the static tables
    take none.
    """
    fn = get_experiment(experiment_id)
    if "scale" not in inspect.signature(fn).parameters:
        kwargs.pop("scale", None)
    return fn(**kwargs)


def _ensure_loaded() -> None:
    """Import experiment modules for their registration side effects."""
    from repro.harness import (  # noqa: F401
        experiments_eval,
        experiments_faults,
        experiments_motivation,
        experiments_realworld,
        experiments_sensitivity,
        experiments_tables,
    )
