"""Property-based tests of the timing simulator on random traces."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.memlayout.regions import REGION_BASE, Region
from repro.sim.config import SystemConfig
from repro.sim.system import simulate
from repro.trace.events import AtomicOp
from repro.trace.stream import ThreadTrace, Trace

# Random event descriptors: (kind, region, line, gap, op, ret)
event_strategy = st.tuples(
    st.sampled_from(["load", "store", "atomic", "work"]),
    st.sampled_from(list(Region)),
    st.integers(0, 63),
    st.integers(0, 12),
    st.sampled_from(list(AtomicOp)),
    st.booleans(),
)

trace_strategy = st.lists(
    st.lists(event_strategy, max_size=40), min_size=1, max_size=4
)


def build_trace(thread_specs) -> Trace:
    threads = []
    for tid, events in enumerate(thread_specs):
        thread = ThreadTrace(tid)
        for kind, region, line, gap, op, ret in events:
            addr = REGION_BASE[region] + line * 64
            thread.work(gap)
            if kind == "load":
                thread.load(addr, 8)
            elif kind == "store":
                thread.store(addr, 8)
            elif kind == "atomic":
                thread.atomic(op, addr, 8, ret)
            # "work" contributes only gap instructions.
        thread.barrier(0)
        threads.append(thread)
    return Trace(threads)


@given(trace_strategy)
@settings(max_examples=40, deadline=None)
def test_simulation_never_crashes_and_is_deterministic(specs):
    trace = build_trace(specs)
    for config in SystemConfig().evaluation_trio():
        first = simulate(trace, config)
        second = simulate(trace, config)
        assert first.cycles == second.cycles
        assert first.cycles >= 0


@given(trace_strategy)
@settings(max_examples=40, deadline=None)
def test_atomics_are_either_host_or_offloaded(specs):
    trace = build_trace(specs)
    total_atomics = sum(
        1
        for thread in trace.threads
        for event in thread.event_tuples()
        if event[0] == 2  # EV_ATOMIC
    )
    for config in SystemConfig().evaluation_trio():
        result = simulate(trace, config)
        stats = result.core_stats
        handled = (
            stats.host_atomics
            + stats.offloaded_atomics
            + stats.upei_cache_atomics
        )
        assert handled == total_atomics


@given(trace_strategy)
@settings(max_examples=30, deadline=None)
def test_graphpim_never_touches_cache_for_property(specs):
    trace = build_trace(specs)
    baseline = simulate(trace, SystemConfig.baseline())
    graphpim = simulate(trace, SystemConfig.graphpim())
    assert (
        graphpim.cache_stats["L1"].accesses
        <= baseline.cache_stats["L1"].accesses
    )


@given(trace_strategy)
@settings(max_examples=30, deadline=None)
def test_cycles_bounded_below_by_issue_time(specs):
    trace = build_trace(specs)
    config = SystemConfig.baseline()
    result = simulate(trace, config)
    slowest_thread_instructions = max(
        sum(
            (event[3] if event[0] != 3 else event[2]) + (event[0] != 3)
            for event in thread.event_tuples()
        )
        for thread in trace.threads
    )
    min_cycles = slowest_thread_instructions / config.issue_width
    assert result.cycles >= min_cycles - 1e-6


@given(trace_strategy)
@settings(max_examples=30, deadline=None)
def test_instruction_count_mode_invariant(specs):
    trace = build_trace(specs)
    counts = {
        config.display_name: simulate(trace, config).instructions
        for config in SystemConfig().evaluation_trio()
    }
    assert len(set(counts.values())) == 1


@given(st.integers(1, 8), st.integers(1, 16))
@settings(max_examples=20, deadline=None)
def test_wider_window_never_slower(num_lines, mlp):
    thread = ThreadTrace(0)
    for i in range(32):
        thread.load(REGION_BASE[Region.META] + (i % num_lines) * 4096, 8)
    thread.barrier(0)
    trace = Trace([thread])
    narrow = simulate(trace, SystemConfig.baseline(mlp=mlp))
    wide = simulate(trace, SystemConfig.baseline(mlp=mlp + 4))
    assert wide.cycles <= narrow.cycles + 1e-6


class TestBarrierMismatch:
    def test_mismatched_barriers_detected(self):
        a, b = ThreadTrace(0), ThreadTrace(1)
        a.barrier(0)
        a.barrier(1)
        b.barrier(1)  # wrong sequence
        b.barrier(0)
        trace = Trace([a, b])
        with pytest.raises(SimulationError):
            simulate(trace, SystemConfig.baseline())
