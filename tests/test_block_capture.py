"""Decide-then-emit capture: the bulk row append, the layout helper, and
the Figure 7 workloads against their per-event references.

The references (:mod:`repro.workloads.reference`) record one event per
framework call; the registered workloads decide each step once per
group of threads and record one row block per thread.  Over random
small graphs (duplicate edges, self-loops, isolated vertices, weights),
every parameter, 1 to 64 threads and both ``plain_atomics`` settings,
the two must produce the same ``trace_digest`` and bit-equal functional
outputs, and so must every way of grouping the threads.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import TraceError
from repro.core.presets import workload_graph, workload_params
from repro.framework import context
from repro.framework.layout import WORK, Slot, lay_out, work_slot
from repro.graph.csr import CsrGraph
from repro.trace.events import EV_ATOMIC, EV_LOAD, EV_STORE, AtomicOp
from repro.trace.io import trace_digest
from repro.trace.stream import ThreadTrace
from repro.workloads.reference import reference_workload
from repro.workloads.registry import FIGURE7_CODES, get_workload
from tests.conftest import without_c_library


def _rows(*events):
    return np.array(events, dtype=np.int64).reshape(-1, 6)


def _per_event(script):
    """A thread recorded call by call from ``(method, args)`` pairs."""
    thread = ThreadTrace(0)
    for method, args in script:
        getattr(thread, method)(*args)
    return thread


class TestAppendBlock:
    def test_pending_work_folds_into_first_row(self):
        thread = ThreadTrace(0)
        thread.work(5)
        block = _rows((EV_LOAD, 64, 8, 2, -1, 0), (EV_STORE, 128, 8, 1, -1, 0))
        thread.append_block(block)
        assert thread.rows().tolist() == [
            [EV_LOAD, 64, 8, 7, -1, 0],
            [EV_STORE, 128, 8, 1, -1, 0],
        ]
        # The caller's block is left as it was.
        assert block[0, 3] == 2

    def test_trailing_work_reaches_next_event_and_barrier(self):
        thread = ThreadTrace(0)
        thread.append_block(_rows((EV_LOAD, 64, 8, 0, -1, 0)), 4)
        thread.load(128)
        thread.append_block(_rows((EV_LOAD, 192, 8, 1, -1, 0)), 3)
        thread.work(2)
        thread.barrier(0)
        assert [row[3] for row in thread.rows().tolist()] == [0, 4, 1, 5]

    def test_empty_block_only_adds_trailing_work(self):
        thread = ThreadTrace(0)
        thread.work(2)
        thread.append_block(np.empty((0, 6), dtype=np.int64), 3)
        assert thread.num_events == 0
        thread.store(64)
        assert thread.rows().tolist() == [[EV_STORE, 64, 8, 5, -1, 0]]

    def test_gap_past_int64_raises(self):
        thread = ThreadTrace(0)
        thread.load(64)
        thread.work(2**63 - 1)
        with pytest.raises(TraceError, match="^thread 0 event 1: "):
            thread.append_block(_rows((EV_LOAD, 64, 8, 1, -1, 0)))
        assert thread.rows().tolist() == [[EV_LOAD, 64, 8, 0, -1, 0]]

    def test_rejects_unknown_kinds_and_negative_trailing_work(self):
        thread = ThreadTrace(0)
        with pytest.raises(TraceError):
            thread.append_block(_rows((9, 64, 8, 0, -1, 0)))
        with pytest.raises(TraceError):
            thread.append_block(_rows((EV_LOAD, 64, 8, 0, -1, 0)), -1)

    def test_mixed_appends_equal_per_event_rows(self):
        script = [
            ("work", (3,)),
            ("load", (64,)),
            ("work", (2,)),
            ("atomic", (AtomicOp.ADD, 128, 8, False)),
            ("work", (1,)),
            ("store", (192, 16)),
            ("work", (4,)),
            ("load", (256,)),
            ("work", (6,)),
            ("barrier", (0,)),
        ]
        reference = _per_event(script)
        mixed = ThreadTrace(0)
        mixed.work(3)
        mixed.load(64)
        mixed.work(2)
        mixed.append_block(
            _rows(
                (EV_ATOMIC, 128, 8, 0, int(AtomicOp.ADD), 0),
                (EV_STORE, 192, 16, 1, -1, 0),
            ),
            4,
        )
        mixed.append_block(_rows((EV_LOAD, 256, 8, 0, -1, 0)), 6)
        mixed.barrier(0)
        assert mixed.rows().tobytes() == reference.rows().tobytes()


class TestLayOut:
    def test_head_edge_tail_order_masks_and_work(self):
        # Two items: item 0 has two edges, item 1 none.  The edge's
        # second row runs only where ``keep`` holds; its work still
        # lands in the next row that runs, and so does the work slot.
        layout = lay_out(
            2,
            head=[Slot(EV_LOAD, np.array([10, 20]), work=5)],
            edge=[
                Slot(EV_LOAD, np.array([30, 40]), work=1),
                Slot(EV_STORE, np.array([50, 60]), work=2,
                     keep=np.array([False, True])),
                work_slot(7),
            ],
            tail=[Slot(EV_STORE, np.array([70, 80]), size=4)],
            degrees=np.array([2, 0]),
        )
        assert layout.rows().tolist() == [
            [EV_LOAD, 10, 8, 5, -1, 0],
            [EV_LOAD, 30, 8, 1, -1, 0],
            [EV_LOAD, 40, 8, 7 + 1, -1, 0],
            [EV_STORE, 60, 8, 2, -1, 0],
            [EV_STORE, 70, 4, 7, -1, 0],
            [EV_LOAD, 20, 8, 5, -1, 0],
            [EV_STORE, 80, 4, 0, -1, 0],
        ]
        assert layout.bounds == [0, 7]
        assert layout.trailing == [0]

    def test_work_after_the_last_row_is_trailing(self):
        layout = lay_out(
            3,
            head=[
                Slot(EV_LOAD, 8, work=1, keep=np.array([True, False, False])),
                work_slot(np.array([2, 3, 4])),
            ],
        )
        assert layout.rows().tolist() == [[EV_LOAD, 8, 8, 1, -1, 0]]
        assert layout.bounds == [0, 1]
        assert layout.trailing == [9]

    def test_no_items(self):
        layout = lay_out(0, head=[Slot(EV_LOAD, 8)])
        assert layout.rows().shape == (0, 6)
        assert layout.bounds == [0, 0]
        assert layout.trailing == [0]


@st.composite
def _slot_field(draw, entries, values):
    """A slot field: a scalar, or one value per entry in an array of a
    drawn integer type (bool for masks)."""
    if draw(st.booleans()):
        return draw(values)
    array = np.array(
        draw(st.lists(values, min_size=entries, max_size=entries))
    )
    if array.dtype != bool:
        # uint16 is not read in place: the layout widens it first.
        small = array.size and 0 <= array.min() and array.max() < 128
        types = [np.int64, np.int32, np.uint16, np.int8] if small else [np.int64]
        array = array.astype(draw(st.sampled_from(types)))
    return array


@st.composite
def _slot_lists(draw, entries):
    """Up to three slots, event or :data:`WORK`, whose fields hold one
    entry per item or edge."""
    slots = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from([WORK, EV_LOAD, EV_STORE, EV_ATOMIC]))
        slots.append(Slot(
            kind,
            addr=draw(_slot_field(entries, st.integers(-2**62, 2**62))),
            size=draw(st.sampled_from([1, 4, 8, 300, 70000])),
            work=draw(_slot_field(entries, st.one_of(
                st.integers(0, 9), st.integers(0, 2**40)
            ))),
            keep=draw(_slot_field(entries, st.booleans())),
            op=draw(st.integers(-1, 12)) if kind == EV_ATOMIC else -1,
            ret=draw(st.integers(0, 1)) if kind == EV_ATOMIC else 0,
        ))
    return slots


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_c_lay_out_equals_numpy_body(data):
    """The C layout returns the numpy body's bytes: each column's type
    and values, ``bounds`` and ``trailing``, over empty segments,
    zero-degree items, every row dropped and work after the last row."""
    counts = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    items = sum(counts)
    degrees = np.array(
        data.draw(st.lists(st.integers(0, 3), min_size=items,
                           max_size=items)),
        dtype=np.int64,
    )
    slots = dict(
        head=data.draw(_slot_lists(items)),
        edge=data.draw(_slot_lists(int(degrees.sum()))),
        tail=data.draw(_slot_lists(items)),
    )
    if data.draw(st.booleans()):
        slots = {
            group: [slot._replace(keep=False) for slot in group_slots]
            for group, group_slots in slots.items()
        }
    with without_c_library():
        expected = lay_out(counts, degrees=degrees, **slots)
    layout = lay_out(counts, degrees=degrees, **slots)
    assert [c.dtype for c in layout.columns] == [
        c.dtype for c in expected.columns
    ]
    assert [c.tobytes() for c in layout.columns] == [
        c.tobytes() for c in expected.columns
    ]
    assert layout.bounds == expected.bounds
    assert layout.trailing == expected.trailing


def _slots(vertices, degrees):
    """A step's slots over ``vertices``: a head load, per edge a load
    and a store kept where the target is odd, then work 2, and a tail
    store where the vertex is even.  Edge ``j`` of vertex ``v`` targets
    ``10 * v + j``."""
    first = np.cumsum(degrees) - degrees
    targets = np.repeat(vertices * 10 - first, degrees) + np.arange(
        int(degrees.sum())
    )
    return dict(
        head=[Slot(EV_LOAD, vertices * 8, work=3)],
        edge=[
            Slot(EV_LOAD, targets * 8, work=1),
            Slot(EV_STORE, targets * 8, work=1, keep=targets % 2 == 1),
            work_slot(2),
        ],
        tail=[Slot(EV_STORE, vertices * 8 + 4, keep=vertices % 2 == 0)],
        degrees=degrees,
    )


class TestSegmentedLayOut:
    """One call over several threads' items equals one call per thread."""

    def _check(self, counts, degrees, pending=()):
        vertices = np.arange(len(degrees))
        whole = lay_out(counts, **_slots(vertices, degrees))
        grouped = [ThreadTrace(tid) for tid in range(len(counts))]
        alone = [ThreadTrace(tid) for tid in range(len(counts))]
        for tid, work in enumerate(pending):
            grouped[tid].work(work)
            alone[tid].work(work)
        start = 0
        for tid, count in enumerate(counts):
            part = slice(start, start + count)
            layout = lay_out(count, **_slots(vertices[part], degrees[part]))
            rows = layout.rows()
            assert layout.bounds == [0, len(rows)]
            alone[tid].append_block(rows, *layout.trailing)
            assert whole.rows(tid).tolist() == rows.tolist()
            assert whole.trailing[tid] == layout.trailing[0]
            grouped[tid].append_block(whole.rows(tid), whole.trailing[tid])
            start += count
        for a, b in zip(grouped, alone):
            a.barrier(0)
            b.barrier(0)
            assert a.rows().tobytes() == b.rows().tobytes()
        return whole

    def test_pending_work_folds_per_thread(self):
        self._check([2, 3], np.array([1, 0, 2, 1, 0]), pending=(5, 7))

    def test_trailing_work_per_thread(self):
        # Each thread's last item is odd (no tail store) and ends on
        # its edge's work slot: that work stays pending on its thread.
        whole = self._check([2, 2], np.array([0, 1, 2, 1]))
        assert whole.trailing == [2, 2]

    def test_thread_whose_items_record_no_rows(self):
        # Thread 1's one item runs only its head's work: no row, and the
        # work stays pending on thread 1.  The unkept edge load of
        # thread 2 counts no work.
        whole = lay_out(
            [1, 1, 1],
            head=[work_slot(3)],
            edge=[
                Slot(EV_LOAD, 8, work=1, keep=np.array([True, False])),
                work_slot(2),
            ],
            tail=[Slot(EV_STORE, 16, work=4, keep=np.arange(3) != 1)],
            degrees=np.array([1, 0, 1]),
        )
        assert whole.bounds == [0, 2, 2, 3]
        assert [row[3] for k in range(3) for row in whole.rows(k)] == [4, 6, 9]
        assert whole.trailing == [0, 3, 0]

    def test_thread_with_no_items(self):
        whole = self._check([2, 0, 0, 1], np.array([1, 2, 1]), (1, 2, 3, 4))
        assert whole.bounds[1] == whole.bounds[2] == whole.bounds[3]
        assert whole.trailing[1] == whole.trailing[2] == 0


@st.composite
def random_graphs(draw):
    """Small graphs with duplicate edges, self-loops, isolated vertices.

    Half are drawn edge by edge; the other half are denser seeded
    graphs, where frontier vertices on different threads share
    neighbours (the cases thread-major order decides).
    """
    n = draw(st.integers(1, 20))
    vertex = st.integers(0, n - 1)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        edges = rng.integers(0, n, (draw(st.integers(0, 4 * n)), 2)).tolist()
    else:
        edges = draw(st.lists(st.tuples(vertex, vertex), max_size=70))
    if edges and draw(st.booleans()):
        edges += draw(st.lists(st.sampled_from(edges), max_size=10))
    weights = None
    if draw(st.booleans()):
        weights = draw(
            st.lists(
                st.one_of(
                    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                    st.floats(-1.0, 10.0, allow_nan=False),
                ),
                min_size=len(edges),
                max_size=len(edges),
            )
        )
    return CsrGraph.from_edges(n, edges, weights)


def _params(draw, code: str, n: int) -> dict:
    root = st.one_of(st.none(), st.integers(0, n - 1))
    if code in ("BFS", "SSSP"):
        return {"root": draw(root)}
    if code == "kCore":
        return {"k": draw(st.one_of(st.none(), st.integers(0, 6)))}
    if code == "BC":
        return {"num_sources": draw(st.integers(0, n + 1))}
    if code == "PRank":
        return {
            "iterations": draw(st.integers(0, 4)),
            "damping": draw(st.floats(0.0, 1.0)),
        }
    if code == "TC":
        return {
            "max_degree": draw(st.one_of(st.none(), st.integers(0, 12))),
            "sample_fraction": draw(
                st.one_of(st.just(1.0), st.floats(0.05, 1.0))
            ),
        }
    return {}


def _same_output(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
            and a.tobytes() == b.tobytes()
        )
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("code", FIGURE7_CODES)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_block_capture_matches_reference(code, data):
    _check_block_capture(code, data)


@pytest.mark.parametrize("code", FIGURE7_CODES)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_block_capture_without_c_library_matches_reference(code, data):
    """The numpy layout, which capture runs without a C compiler."""
    with without_c_library():
        _check_block_capture(code, data)


def _check_block_capture(code, data):
    graph = data.draw(random_graphs())
    params = _params(data.draw, code, graph.num_vertices)
    threads = data.draw(st.one_of(st.integers(2, 8), st.integers(1, 64)))
    plain = data.draw(st.booleans())
    reference = reference_workload(code).run(
        graph, num_threads=threads, plain_atomics=plain, **params
    )
    block = get_workload(code).run(
        graph, num_threads=threads, plain_atomics=plain, **params
    )
    assert trace_digest(block.trace) == trace_digest(reference.trace)
    assert block.outputs.keys() == reference.outputs.keys()
    for key, value in reference.outputs.items():
        assert _same_output(block.outputs[key], value), key


@pytest.mark.parametrize("code", FIGURE7_CODES)
def test_grouping_does_not_change_capture(code, monkeypatch):
    """One thread per group and one group per step capture the same
    trace and outputs as the default budget."""
    graph = workload_graph(code, "tiny")
    params = workload_params(code)
    # (threads, threads with items) of each group.
    widths: "list[tuple[int, int]]" = []
    run_group = context.FrameworkContext._run_group

    def spy(self, first, end, bounds, *args):
        counts = np.diff(bounds[first : end + 1])
        widths.append((end - first, int(np.count_nonzero(counts))))
        return run_group(self, first, end, bounds, *args)

    monkeypatch.setattr(context.FrameworkContext, "_run_group", spy)
    captures = {}
    for budget in (None, 0, float("inf")):
        if budget is not None:
            monkeypatch.setattr(context, "GROUP_BUDGET", budget)
        widths.clear()
        captures[budget] = get_workload(code).run(graph, **params)
        if budget == 0:
            assert {busy for _, busy in widths} <= {0, 1}
        elif budget is not None:
            assert {threads for threads, _ in widths} == {16}
    default = captures[None]
    for run in captures.values():
        assert trace_digest(run.trace) == trace_digest(default.trace)
        assert run.outputs.keys() == default.outputs.keys()
        for key, value in default.outputs.items():
            assert _same_output(run.outputs[key], value), key
