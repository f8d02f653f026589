"""Analysis-pass framework: registry, context, and the PassManager.

A *pass* is one unit of static analysis that runs over a trace and
produces an :class:`~repro.analysis.findings.AnalysisReport` (and,
optionally, structured profile data).  Passes declare whether they have
a vectorized implementation over the columnar IR
(:class:`~repro.trace.columnar.ColumnarTrace`), a legacy per-event
implementation over the tuple form, or both:

- ``lint`` / ``race`` have **both**.  The vectorized implementations
  are gated by finding-for-finding equivalence tests against the PR 1
  per-event analyzers, which survive as the reference oracle and as the
  fallback for traces that trip a vectorization guard.
- ``profile`` / ``offload`` / ``screening`` are **vectorized-only** —
  whole-trace aggregations the per-event linter could never afford.

The :class:`PassManager` runs the columnar implementation of each pass
and falls back per pass to its per-event one when the columnar one
returns ``None`` (a guard tripped).
Tests call the oracles directly: :func:`~repro.analysis.lint_trace`,
:func:`~repro.analysis.detect_races` and each pass's
:meth:`AnalysisPass.run_legacy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from repro.common.errors import ConfigError
from repro.sim.config import SystemConfig
from repro.trace.columnar import ColumnarTrace
from repro.trace.events import EV_BARRIER
from repro.trace.stream import Trace
from repro.analysis.findings import AnalysisReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.memlayout.allocator import AddressSpace

#: Events per chunk of the lint and race sweeps.  A sweep builds its
#: per-event temporaries (a few int64 and bool arrays) for one chunk at
#: a time, so their memory stays that of one chunk whatever the trace
#: length.
CHUNK_EVENTS = 65_536


def event_chunks(col: ColumnarTrace) -> Iterator[tuple[int, int, int]]:
    """``(thread position, first row, end row)`` of each chunk of
    :data:`CHUNK_EVENTS` events, thread-major; no chunk spans two
    threads, and an empty thread has none."""
    step = CHUNK_EVENTS
    bounds = col.starts.tolist()
    for pos, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        for start in range(lo, hi, step):
            yield pos, start, min(start + step, hi)


def epoch_chunks(
    col: ColumnarTrace,
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """``(first row, end row, is_barrier, epochs)`` of each chunk of
    :func:`event_chunks`: its barrier mask and each event's barrier
    epoch within its thread.

    Epoch ``k`` spans the events after the thread's ``k``-th barrier and
    before its ``k+1``-th; a barrier carries the epoch it closes, as the
    legacy race detector's ``_split_epochs`` segments a thread.  The
    thread's barrier count is carried across its chunks, so a chunk's
    epochs are its slice of a whole-thread walk.
    """
    closed = 0
    thread = -1
    for pos, lo, hi in event_chunks(col):
        if pos != thread:
            thread, closed = pos, 0
        is_barrier = col.kind[lo:hi] == EV_BARRIER
        epochs = np.cumsum(is_barrier, dtype=np.int64)
        epochs -= is_barrier
        epochs += closed
        closed = int(epochs[-1]) + int(is_barrier[-1])
        yield lo, hi, is_barrier, epochs


def locate_rows(
    col: ColumnarTrace, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Thread position and index within that thread of each global
    row (int64 arrays of ``rows``' length)."""
    pos = np.searchsorted(col.starts, rows, side="right") - 1
    return pos, rows - col.starts[pos]


def run_starts(values: np.ndarray) -> np.ndarray:
    """Start offsets of equal-value runs in a sorted, non-empty array."""
    change = np.empty(values.size, dtype=bool)
    change[0] = True
    np.not_equal(values[1:], values[:-1], out=change[1:])
    return np.flatnonzero(change)


def unique_sorted(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` as a sort plus a run-starts mask.

    With no index requested, numpy 2 sends ``np.unique`` down a hash
    path that is tens of times slower than a sort on wide int64 keys
    (packed race keys, line addresses), which are what the passes
    reduce.
    """
    ordered = np.sort(values)
    if not ordered.size:
        return ordered
    return ordered[run_starts(ordered)]


def in_sorted_set(values: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """``np.isin(values, sorted_set)`` for an already-sorted needle set.

    One ``searchsorted`` instead of ``np.isin``'s sort of both arrays:
    several times faster for the small needle sets the passes use
    (atomic ops, lock words, candidate cells, offloaded lines).
    """
    if sorted_set.size == 0:
        return np.zeros(values.shape, dtype=bool)
    slot = np.searchsorted(sorted_set, values)
    np.minimum(slot, sorted_set.size - 1, out=slot)
    return sorted_set[slot] == values


@dataclass
class PassContext:
    """Everything a pass may consume.

    ``trace`` is materialized lazily from ``columnar`` when a legacy
    fallback needs it.
    """

    config: SystemConfig
    columnar: ColumnarTrace
    trace: Optional[Trace] = None
    address_space: "Optional[AddressSpace]" = None
    #: Extra configs for cross-config passes (screening).
    screen_configs: Sequence[SystemConfig] = ()

    def require_trace(self) -> Trace:
        """The trace, built from the columns on first use."""
        if self.trace is None:
            self.trace = Trace.from_columnar(self.columnar)
        return self.trace

    @property
    def subject(self) -> str:
        return self.columnar.name or "trace"


@dataclass
class PassResult:
    """Outcome of one pass over one trace."""

    name: str
    report: AnalysisReport
    #: Which implementation actually ran ("vectorized" or "legacy").
    engine: str
    #: Structured pass-specific payload (profile passes).
    data: dict = field(default_factory=dict)


class AnalysisPass:
    """Base class; subclasses override one or both run methods."""

    #: Stable registry name (also the report grouping key).
    name: str = ""

    #: Whether this pass contributes findings that gate CI (lint/race)
    #: as opposed to informational profile data.
    gating: bool = True

    def run_columnar(self, ctx: PassContext) -> Optional[PassResult]:
        """Vectorized implementation; None = not available, fall back."""
        return None

    def run_legacy(self, ctx: PassContext) -> Optional[PassResult]:
        """Per-event reference implementation; None = vectorized-only."""
        return None


_PASS_REGISTRY: dict[str, AnalysisPass] = {}


def register_pass(pass_: AnalysisPass) -> AnalysisPass:
    """Register a pass instance under its ``name``."""
    if not pass_.name:
        raise ConfigError("analysis pass must define a name")
    if pass_.name in _PASS_REGISTRY:
        raise ConfigError(f"duplicate analysis pass {pass_.name!r}")
    _PASS_REGISTRY[pass_.name] = pass_
    return pass_


def get_pass(name: str) -> AnalysisPass:
    """Look up a registered pass by name."""
    try:
        return _PASS_REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown analysis pass {name!r}; known: {sorted(_PASS_REGISTRY)}"
        ) from None


def all_passes() -> list[AnalysisPass]:
    """All registered passes in registration order."""
    return list(_PASS_REGISTRY.values())


class PassManager:
    """Runs a pipeline of passes over one trace with per-pass fallback."""

    def __init__(self, passes: Sequence[AnalysisPass | str]):
        self.passes: list[AnalysisPass] = [
            get_pass(p) if isinstance(p, str) else p for p in passes
        ]

    def run(
        self,
        trace,
        config: SystemConfig | None = None,
        address_space: "Optional[AddressSpace]" = None,
        screen_configs: Sequence[SystemConfig] = (),
    ) -> dict[str, PassResult]:
        """Run every pass; returns ``{pass name: PassResult}``.

        ``trace`` may be a ``Trace`` or a ``ColumnarTrace``.
        """
        if isinstance(trace, ColumnarTrace):
            columnar, trace = trace, None
        else:
            columnar = trace.columnar()
        ctx = PassContext(
            config=config or SystemConfig.graphpim(),
            columnar=columnar,
            trace=trace,
            address_space=address_space,
            screen_configs=screen_configs,
        )
        results: dict[str, PassResult] = {}
        for pass_ in self.passes:
            result = pass_.run_columnar(ctx)
            if result is None:
                result = pass_.run_legacy(ctx)
            results[pass_.name] = result
        return results

    def merged_report(
        self, results: dict[str, PassResult], subject: str
    ) -> AnalysisReport:
        """Concatenate gating reports in pass order."""
        merged = AnalysisReport(subject=subject)
        for pass_ in self.passes:
            result = results.get(pass_.name)
            if result is not None and pass_.gating:
                merged.findings.extend(result.report.findings)
        return merged
