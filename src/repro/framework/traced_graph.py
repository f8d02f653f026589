"""Traced view over a CSR graph.

Iterating a vertex's neighbor list issues the loads a compiled program
would: two offset loads (adjacent, so usually one cache line) followed
by streaming loads of the column array.  This reproduces the paper's
"graph structure" component with its good spatial locality.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.framework.layout import Slot
from repro.graph.csr import CsrGraph
from repro.memlayout.allocator import Allocation
from repro.trace.events import EV_LOAD
from repro.trace.stream import ThreadTrace

#: Loop-body bookkeeping instructions charged per visited neighbor
#: (index increment, bounds compare, branch).
NEIGHBOR_LOOP_WORK = 3

#: Per-vertex bookkeeping (offset arithmetic, loop setup).
VERTEX_VISIT_WORK = 6


class TracedGraph:
    """Read-only traced accessors over an immutable CSR graph."""

    def __init__(
        self,
        graph: CsrGraph,
        offsets_alloc: Allocation,
        columns_alloc: Allocation,
        weights_alloc: Allocation | None = None,
    ):
        self.graph = graph
        self.offsets_alloc = offsets_alloc
        self.columns_alloc = columns_alloc
        self.weights_alloc = weights_alloc

    @property
    def num_vertices(self) -> int:
        """Vertex count of the wrapped graph."""
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        """Edge count of the wrapped graph."""
        return self.graph.num_edges

    def degree(self, trace: ThreadTrace, vertex: int) -> int:
        """Traced degree lookup (two offset loads)."""
        trace.work(VERTEX_VISIT_WORK)
        trace.load(self.offsets_alloc.addr_of(vertex), 8)
        trace.load(self.offsets_alloc.addr_of(vertex + 1), 8)
        return self.graph.degree(vertex)

    def neighbors(self, trace: ThreadTrace, vertex: int) -> Iterator[int]:
        """Iterate neighbor ids, tracing the structure loads."""
        trace.work(VERTEX_VISIT_WORK)
        trace.load(self.offsets_alloc.addr_of(vertex), 8)
        trace.load(self.offsets_alloc.addr_of(vertex + 1), 8)
        start, end = self.graph.neighbor_slice(vertex)
        columns = self.graph.columns
        for j in range(start, end):
            trace.work(NEIGHBOR_LOOP_WORK)
            trace.load(self.columns_alloc.addr_of(j), 8)
            yield int(columns[j])

    def neighbors_with_weights(
        self, trace: ThreadTrace, vertex: int
    ) -> Iterator[tuple[int, float]]:
        """Iterate (neighbor, weight) pairs, tracing both loads."""
        if self.weights_alloc is None or self.graph.weights is None:
            raise ValueError("graph is unweighted")
        trace.work(VERTEX_VISIT_WORK)
        trace.load(self.offsets_alloc.addr_of(vertex), 8)
        trace.load(self.offsets_alloc.addr_of(vertex + 1), 8)
        start, end = self.graph.neighbor_slice(vertex)
        columns = self.graph.columns
        weights = self.graph.weights
        for j in range(start, end):
            trace.work(NEIGHBOR_LOOP_WORK)
            trace.load(self.columns_alloc.addr_of(j), 8)
            trace.load(self.weights_alloc.addr_of(j), 8)
            yield int(columns[j]), float(weights[j])

    # ------------------------------------------------------------------
    # Row slots (decide-then-emit capture, :mod:`repro.framework.layout`)
    # ------------------------------------------------------------------

    def edge_positions(self, vertices: np.ndarray):
        """``(positions, degrees)``: the column indices of ``vertices``'
        edges, concatenated in order, and each vertex's out-degree."""
        offsets = self.graph.row_offsets
        starts = offsets[vertices]
        degrees = offsets[vertices + 1] - starts
        before = np.cumsum(degrees) - degrees
        positions = np.arange(int(degrees.sum())) + np.repeat(
            starts - before, degrees
        )
        return positions, degrees

    def offset_slots(self, vertices, work=0, keep=True) -> list:
        """The two offset loads that open :meth:`neighbors`, per vertex."""
        offsets = self.offsets_alloc
        return [
            Slot(
                EV_LOAD, offsets.addrs_of(vertices), 8,
                VERTEX_VISIT_WORK + work, keep,
            ),
            Slot(EV_LOAD, offsets.addrs_of(vertices + 1), 8, 0, keep),
        ]

    def column_slots(self, positions, with_weights=False) -> list:
        """The loads :meth:`neighbors` records per visited edge, or
        :meth:`neighbors_with_weights` if ``with_weights`` is set."""
        slots = [
            Slot(
                EV_LOAD, self.columns_alloc.addrs_of(positions), 8,
                NEIGHBOR_LOOP_WORK,
            )
        ]
        if with_weights:
            if self.weights_alloc is None or self.graph.weights is None:
                raise ValueError("graph is unweighted")
            slots.append(
                Slot(EV_LOAD, self.weights_alloc.addrs_of(positions), 8)
            )
        return slots

    def neighbor_array(self, vertex: int) -> np.ndarray:
        """Untraced neighbor access (result checking only)."""
        return self.graph.neighbors(vertex)
