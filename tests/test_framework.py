"""Tests for the graph framework: context, property tables, frontiers."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.framework.context import FrameworkContext
from repro.framework.frontier import Frontier
from repro.framework.properties import PropertyTable
from repro.memlayout.regions import Region, region_of
from repro.trace.events import EV_ATOMIC, EV_LOAD, EV_STORE, AtomicOp


class TestContext:
    def test_thread_count(self):
        ctx = FrameworkContext(num_threads=4)
        assert len(ctx.threads) == 4

    def test_invalid_thread_count(self):
        with pytest.raises(ConfigError):
            FrameworkContext(num_threads=0)

    def test_partition_strided(self):
        ctx = FrameworkContext(num_threads=3)
        parts = ctx.partition(list(range(10)))
        assert parts[0] == [0, 3, 6, 9]
        assert parts[1] == [1, 4, 7]
        assert parts[2] == [2, 5, 8]

    def test_partition_covers_all_items(self):
        ctx = FrameworkContext(num_threads=4)
        parts = ctx.partition(list(range(23)))
        merged = sorted(x for part in parts for x in part)
        assert merged == list(range(23))

    def test_partition_fewer_items_than_threads(self):
        ctx = FrameworkContext(num_threads=8)
        parts = ctx.partition([1, 2])
        assert sum(len(p) for p in parts) == 2

    def test_barrier_appends_to_all_threads(self):
        ctx = FrameworkContext(num_threads=3)
        bid = ctx.barrier()
        assert bid == 0
        for thread in ctx.threads:
            assert thread.event_tuples()[-1][0:2] == (3, 0)  # EV_BARRIER, id 0

    def test_barrier_ids_increment(self):
        ctx = FrameworkContext(num_threads=2)
        assert ctx.barrier() == 0
        assert ctx.barrier() == 1

    def test_parallel_for_runs_body_per_item(self):
        ctx = FrameworkContext(num_threads=2)
        seen = []
        ctx.parallel_for([1, 2, 3], lambda tid, tr, x: seen.append((tid, x)))
        assert sorted(x for _, x in seen) == [1, 2, 3]

    def test_parallel_for_inserts_barrier(self):
        ctx = FrameworkContext(num_threads=2)
        ctx.parallel_for([1], lambda tid, tr, x: None)
        assert ctx.threads[0].event_tuples()[-1][0] == 3  # EV_BARRIER

    def test_parallel_for_no_sync(self):
        ctx = FrameworkContext(num_threads=2)
        ctx.parallel_for([1], lambda tid, tr, x: None, sync=False)
        assert not ctx.threads[0].event_tuples()

    def test_finish_validates_and_seals(self):
        ctx = FrameworkContext(num_threads=2, name="test")
        trace = ctx.finish()
        assert trace.name == "test"
        assert trace.num_threads == 2

    def test_property_table_in_pmr(self):
        ctx = FrameworkContext(num_threads=1)
        table = ctx.property_table("x", 10)
        assert table.allocation.in_pmr
        assert region_of(table.addr(0)) is Region.PROPERTY

    def test_property_table_line_strided_by_default(self):
        ctx = FrameworkContext(num_threads=1)
        table = ctx.property_table("x", 10)
        assert table.addr(1) - table.addr(0) == 64

    def test_property_table_packed_option(self):
        ctx = FrameworkContext(num_threads=1)
        table = ctx.property_table("x", 10, element_size=8)
        assert table.addr(1) - table.addr(0) == 8

    def test_vertex_object_table_shared(self):
        ctx = FrameworkContext(num_threads=1)
        a = ctx.property_table("a", 10)
        b = ctx.property_table("b", 10)
        assert a.object_index is b.object_index

    def test_register_graph_places_structure(self, tiny_csr):
        ctx = FrameworkContext(num_threads=1)
        tg = ctx.register_graph(tiny_csr)
        assert region_of(tg.offsets_alloc.base) is Region.STRUCTURE
        assert region_of(tg.columns_alloc.base) is Region.STRUCTURE


class TestPropertyTable:
    def _table(self, n=8, fill=0, dtype=np.int64, plain=False):
        ctx = FrameworkContext(num_threads=1)
        ctx.plain_atomics = plain
        table = ctx.property_table(
            "t", n, fill, dtype=dtype, via_vertex_object=False
        )
        return table, ctx.threads[0]

    def test_read_write(self):
        table, trace = self._table()
        table.write(trace, 2, 7)
        assert table.read(trace, 2) == 7
        kinds = [e[0] for e in trace.event_tuples()]
        assert kinds == [EV_STORE, EV_LOAD]

    def test_peek_untraced(self):
        table, trace = self._table()
        table.write(trace, 1, 5)
        events_before = len(trace.event_tuples())
        assert table.peek(1) == 5
        assert len(trace.event_tuples()) == events_before

    def test_cas_success(self):
        table, trace = self._table()
        assert table.cas(trace, 0, 0, 42)
        assert table.peek(0) == 42

    def test_cas_failure(self):
        table, trace = self._table(fill=1)
        assert not table.cas(trace, 0, 0, 42)
        assert table.peek(0) == 1

    def test_cas_event_is_atomic_with_return(self):
        table, trace = self._table()
        table.cas(trace, 0, 0, 1)
        event = trace.event_tuples()[0]
        assert event[0] == EV_ATOMIC
        assert event[4] is AtomicOp.CAS
        assert event[5] is True

    def test_fetch_add(self):
        table, trace = self._table()
        old = table.fetch_add(trace, 3, 5)
        assert old == 0
        assert table.peek(3) == 5

    def test_fetch_sub(self):
        table, trace = self._table(fill=10)
        old = table.fetch_sub(trace, 0, 4)
        assert old == 10
        assert table.peek(0) == 6

    def test_swap(self):
        table, trace = self._table(fill=1)
        assert table.swap(trace, 0, 9) == 1
        assert table.peek(0) == 9

    def test_cas_improve_min(self):
        table, trace = self._table(fill=100)
        assert table.cas_improve_min(trace, 0, 50)
        assert not table.cas_improve_min(trace, 0, 80)
        assert table.peek(0) == 50

    def test_atomic_min_max(self):
        table, trace = self._table(fill=10)
        assert table.atomic_min(trace, 0, 5)
        assert table.atomic_max(trace, 0, 50)
        assert table.peek(0) == 50

    def test_fp_add(self):
        table, trace = self._table(fill=0.0, dtype=np.float64)
        table.fp_add(trace, 0, 1.5)
        table.fp_add(trace, 0, 2.0)
        assert table.peek(0) == pytest.approx(3.5)
        assert trace.event_tuples()[0][4] is AtomicOp.FP_ADD

    def test_bitwise_or(self):
        table, trace = self._table()
        table.bitwise_or(trace, 0, 0b101)
        table.bitwise_or(trace, 0, 0b010)
        assert table.peek(0) == 0b111

    def test_plain_atomics_mode(self):
        table, trace = self._table(plain=True)
        assert table.cas(trace, 0, 0, 1)  # functionally identical
        kinds = [e[0] for e in trace.event_tuples()]
        assert kinds == [EV_LOAD, EV_STORE]  # but traced as plain RMW

    def test_vertex_object_load_precedes_access(self, tiny_csr):
        ctx = FrameworkContext(num_threads=1)
        table = ctx.property_table("t", 6)
        trace = ctx.threads[0]
        table.read(trace, 3)
        assert trace.event_tuples()[0][0] == EV_LOAD
        assert region_of(trace.event_tuples()[0][1]) is Region.STRUCTURE
        assert region_of(trace.event_tuples()[1][1]) is Region.PROPERTY

    def test_length_mismatch_rejected(self):
        ctx = FrameworkContext(num_threads=1)
        alloc = ctx.alloc_property("bad", 4, 8)
        with pytest.raises(ConfigError):
            PropertyTable(alloc, np.zeros(5))

    def test_zeros_and_full_constructors(self):
        ctx = FrameworkContext(num_threads=1)
        alloc = ctx.alloc_property("z", 4, 8)
        assert PropertyTable.zeros(alloc).peek(0) == 0
        alloc2 = ctx.alloc_property("f", 4, 8)
        assert PropertyTable.full(alloc2, 9).peek(3) == 9


class TestFrontier:
    def test_fifo_order(self):
        ctx = FrameworkContext(num_threads=1)
        frontier = Frontier(ctx, "f", 16)
        trace = ctx.threads[0]
        for v in [3, 1, 2]:
            frontier.push(trace, v)
        assert frontier.drain(trace) == [3, 1, 2]

    def test_len_and_bool(self):
        ctx = FrameworkContext(num_threads=1)
        frontier = Frontier(ctx, "f", 16)
        trace = ctx.threads[0]
        assert not frontier
        frontier.push(trace, 5)
        assert len(frontier) == 1
        assert frontier

    def test_drain_empties(self):
        ctx = FrameworkContext(num_threads=1)
        frontier = Frontier(ctx, "f", 16)
        trace = ctx.threads[0]
        frontier.push(trace, 1)
        frontier.drain(trace)
        assert frontier.drain(trace) == []

    def test_traces_meta_accesses(self):
        ctx = FrameworkContext(num_threads=1)
        frontier = Frontier(ctx, "f", 16)
        trace = ctx.threads[0]
        frontier.push(trace, 1)
        frontier.drain(trace)
        regions = {region_of(e[1]) for e in trace.event_tuples()}
        assert regions == {Region.META}

    def test_snapshot(self):
        ctx = FrameworkContext(num_threads=1)
        frontier = Frontier(ctx, "f", 16)
        trace = ctx.threads[0]
        frontier.push(trace, 7)
        assert frontier.snapshot() == [7]
