"""Tests for TracedGraph: structure-access tracing."""

import pytest

from repro.framework.context import FrameworkContext
from repro.graph.csr import CsrGraph
from repro.memlayout.regions import Region, region_of
from repro.trace.events import EV_LOAD


@pytest.fixture
def setup(tiny_csr):
    ctx = FrameworkContext(num_threads=1)
    tg = ctx.register_graph(tiny_csr)
    return ctx, tg, ctx.threads[0]


class TestTracedGraph:
    def test_neighbors_values(self, setup):
        _ctx, tg, trace = setup
        assert list(tg.neighbors(trace, 0)) == [1, 2]

    def test_neighbors_trace_offsets_then_columns(self, setup):
        _ctx, tg, trace = setup
        list(tg.neighbors(trace, 0))
        loads = [e for e in trace.event_tuples() if e[0] == EV_LOAD]
        # Two offset loads + one column load per neighbor.
        assert len(loads) == 2 + 2
        for event in loads:
            assert region_of(event[1]) is Region.STRUCTURE

    def test_offset_loads_are_adjacent(self, setup):
        _ctx, tg, trace = setup
        list(tg.neighbors(trace, 3))
        first, second = trace.event_tuples()[:2]
        assert second[1] - first[1] == 8

    def test_column_loads_are_sequential(self, setup):
        _ctx, tg, trace = setup
        list(tg.neighbors(trace, 0))
        column_loads = trace.event_tuples()[2:]
        assert column_loads[1][1] - column_loads[0][1] == 8

    def test_degree_traced(self, setup):
        _ctx, tg, trace = setup
        assert tg.degree(trace, 0) == 2
        assert len(trace.event_tuples()) == 2  # two offset loads

    def test_work_charged_per_neighbor(self, setup):
        _ctx, tg, trace = setup
        list(tg.neighbors(trace, 0))
        total_gap = sum(e[3] for e in trace.event_tuples())
        from repro.framework.traced_graph import (
            NEIGHBOR_LOOP_WORK,
            VERTEX_VISIT_WORK,
        )

        assert total_gap == VERTEX_VISIT_WORK + 2 * NEIGHBOR_LOOP_WORK

    def test_weighted_iteration(self):
        graph = CsrGraph.from_edges(
            3, [(0, 1), (0, 2)], weights=[1.5, 2.5]
        )
        ctx = FrameworkContext(num_threads=1)
        tg = ctx.register_graph(graph)
        trace = ctx.threads[0]
        pairs = list(tg.neighbors_with_weights(trace, 0))
        assert pairs == [(1, 1.5), (2, 2.5)]

    def test_weighted_iteration_requires_weights(self, setup):
        _ctx, tg, trace = setup
        with pytest.raises(ValueError):
            list(tg.neighbors_with_weights(trace, 0))

    def test_sizes_exposed(self, setup):
        _ctx, tg, _trace = setup
        assert tg.num_vertices == 6
        assert tg.num_edges == 5

    def test_neighbor_array_untraced(self, setup):
        _ctx, tg, trace = setup
        before = len(trace.event_tuples())
        tg.neighbor_array(0)
        assert len(trace.event_tuples()) == before
