"""Tests for trace events, streams, and statistics."""

import pytest

from repro.common.errors import TraceError
from repro.memlayout.allocator import AddressSpace
from repro.memlayout.regions import REGION_BASE, Region
from repro.trace.events import (
    EV_ATOMIC,
    EV_BARRIER,
    EV_LOAD,
    EV_STORE,
    AtomicOp,
    is_fp_op,
)
from repro.trace.stats import summarize_trace
from repro.trace.stream import ThreadTrace, Trace

META = REGION_BASE[Region.META]
PROP = REGION_BASE[Region.PROPERTY]


class TestThreadTrace:
    def test_load_event_layout(self):
        t = ThreadTrace(0)
        t.load(META + 8, 8)
        assert t.event_tuples() == [(EV_LOAD, META + 8, 8, 0)]

    def test_store_event_layout(self):
        t = ThreadTrace(0)
        t.store(META, 4)
        assert t.event_tuples()[0][0] == EV_STORE

    def test_atomic_event_layout(self):
        t = ThreadTrace(0)
        t.atomic(AtomicOp.CAS, PROP, 8, with_return=True)
        kind, addr, size, gap, op, ret = t.event_tuples()[0]
        assert kind == EV_ATOMIC
        assert op is AtomicOp.CAS
        assert ret is True

    def test_work_folds_into_gap(self):
        t = ThreadTrace(0)
        t.work(5)
        t.work(2)
        t.load(META, 8)
        assert t.event_tuples()[0][3] == 7

    def test_gap_resets_after_event(self):
        t = ThreadTrace(0)
        t.work(5)
        t.load(META, 8)
        t.load(META, 8)
        assert t.event_tuples()[1][3] == 0

    def test_negative_work_rejected(self):
        with pytest.raises(TraceError):
            ThreadTrace(0).work(-1)

    def test_barrier_carries_pending_work(self):
        t = ThreadTrace(0)
        t.work(9)
        t.barrier(0)
        assert t.event_tuples()[0] == (EV_BARRIER, 0, 9)

    def test_barrier_without_work(self):
        t = ThreadTrace(0)
        t.barrier(3)
        assert t.event_tuples()[0] == (EV_BARRIER, 3, 0)

    def test_num_events(self):
        t = ThreadTrace(0)
        t.load(META, 8)
        t.store(META, 8)
        assert t.num_events == 2


class TestTrace:
    def test_requires_threads(self):
        with pytest.raises(TraceError):
            Trace([])

    def test_duplicate_thread_ids_rejected(self):
        with pytest.raises(TraceError):
            Trace([ThreadTrace(0), ThreadTrace(0)])

    def test_num_events_sums_threads(self):
        a, b = ThreadTrace(0), ThreadTrace(1)
        a.load(META, 8)
        b.load(META, 8)
        b.store(META, 8)
        assert Trace([a, b]).num_events == 3

    def test_barrier_validation_passes(self):
        a, b = ThreadTrace(0), ThreadTrace(1)
        for t in (a, b):
            t.barrier(0)
            t.barrier(1)
        Trace([a, b]).validate_barriers()

    def test_barrier_validation_catches_mismatch(self):
        a, b = ThreadTrace(0), ThreadTrace(1)
        a.barrier(0)
        b.barrier(1)
        with pytest.raises(TraceError):
            Trace([a, b]).validate_barriers()


class TestAtomicOps:
    def test_fp_classification(self):
        assert is_fp_op(AtomicOp.FP_ADD)
        assert is_fp_op(AtomicOp.FP_SUB)
        assert not is_fp_op(AtomicOp.CAS)
        assert not is_fp_op(AtomicOp.ADD)


class TestTraceStats:
    def _make_trace(self):
        space = AddressSpace()
        meta = space.malloc("m", Region.META, 8, 8)
        prop = space.pmr_malloc("p", 8, 8)
        t = ThreadTrace(0)
        t.work(10)
        t.load(meta.addr_of(0), 8)
        t.load(prop.addr_of(1), 8)
        t.store(meta.addr_of(2), 8)
        t.atomic(AtomicOp.CAS, prop.addr_of(3), 8, True)
        t.atomic(AtomicOp.ADD, meta.addr_of(4), 8, False)
        t.barrier(0)
        return Trace([t])

    def test_counts(self):
        stats = summarize_trace(self._make_trace())
        assert stats.loads == 2
        assert stats.stores == 1
        assert stats.atomics == 2
        assert stats.barriers == 1

    def test_instruction_total(self):
        stats = summarize_trace(self._make_trace())
        # 10 work + 5 memory events.
        assert stats.total_instructions == 15

    def test_property_atomics(self):
        stats = summarize_trace(self._make_trace())
        assert stats.property_atomics == 1

    def test_region_accesses(self):
        stats = summarize_trace(self._make_trace())
        assert stats.region_accesses[Region.META] == 3
        assert stats.region_accesses[Region.PROPERTY] == 2

    def test_fractions(self):
        stats = summarize_trace(self._make_trace())
        assert stats.atomic_fraction == pytest.approx(2 / 15)
        assert stats.pim_candidate_fraction == pytest.approx(1 / 15)

    def test_atomic_op_histogram(self):
        stats = summarize_trace(self._make_trace())
        assert stats.atomic_ops[AtomicOp.CAS] == 1
        assert stats.atomic_ops[AtomicOp.ADD] == 1

    def test_empty_trace(self):
        t = ThreadTrace(0)
        stats = summarize_trace(Trace([t]))
        assert stats.total_instructions == 0
        assert stats.atomic_fraction == 0.0
