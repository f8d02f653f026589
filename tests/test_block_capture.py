"""Decide-then-emit capture: the bulk row append, the layout helper, and
the Figure 7 workloads against their per-event references.

The references (:mod:`repro.workloads.reference`) record one event per
framework call; the registered workloads decide each step first and
record one row block per thread.  Over random small graphs (duplicate
edges, self-loops, isolated vertices, weights), every parameter, 1 to
64 threads and both ``plain_atomics`` settings, the two must produce
the same ``trace_digest`` and bit-equal functional outputs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import TraceError
from repro.framework.layout import Slot, lay_out, work_slot
from repro.graph.csr import CsrGraph
from repro.trace.events import EV_ATOMIC, EV_LOAD, EV_STORE, AtomicOp
from repro.trace.io import trace_digest
from repro.trace.stream import ThreadTrace
from repro.workloads.reference import reference_workload
from repro.workloads.registry import FIGURE7_CODES, get_workload


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
        rows, trailing = lay_out(
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
        assert rows.tolist() == [
            [EV_LOAD, 10, 8, 5, -1, 0],
            [EV_LOAD, 30, 8, 1, -1, 0],
            [EV_LOAD, 40, 8, 7 + 1, -1, 0],
            [EV_STORE, 60, 8, 2, -1, 0],
            [EV_STORE, 70, 4, 7, -1, 0],
            [EV_LOAD, 20, 8, 5, -1, 0],
            [EV_STORE, 80, 4, 0, -1, 0],
        ]
        assert trailing == 0

    def test_work_after_the_last_row_is_trailing(self):
        rows, trailing = lay_out(
            3,
            head=[
                Slot(EV_LOAD, 8, work=1, keep=np.array([True, False, False])),
                work_slot(np.array([2, 3, 4])),
            ],
        )
        assert rows.tolist() == [[EV_LOAD, 8, 8, 1, -1, 0]]
        assert trailing == 9

    def test_no_items(self):
        rows, trailing = lay_out(0, head=[Slot(EV_LOAD, 8)])
        assert rows.shape == (0, 6) and trailing == 0


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
