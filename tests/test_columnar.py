"""Columnar trace IR: lossless conversion and digest preservation."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.passes import (
    detect_races_columnar,
    lint_columnar,
    offload_summary_columnar,
    profile_columnar,
)
from repro.analysis.passes import base as passes_base
from repro.analysis.passes.profile_pass import screen_configs
from repro.common.errors import TraceError
from repro.core.presets import workload_graph
from repro.memlayout.regions import REGION_SHIFT, Region
from repro.runner.fingerprint import config_fingerprint, result_key
from repro.sim.config import SystemConfig
from repro.trace import columnar
from repro.trace.columnar import ColumnarTrace
from repro.trace.events import EV_ATOMIC, EV_BARRIER, EV_LOAD, EV_STORE, AtomicOp
from repro.trace.io import load_trace, save_trace, trace_digest
from repro.trace.stream import ThreadTrace, Trace
from repro.workloads.registry import get_workload

PMR = int(Region.PROPERTY) << REGION_SHIFT
META = int(Region.META) << REGION_SHIFT


# ---------------------------------------------------------------------------
# Hypothesis: random builder-generated traces round-trip losslessly
# ---------------------------------------------------------------------------

# Rows hold malformed fields too: the linter reports them, so the
# strategy draws negative sizes and an op no AtomicOp names.
_ops = st.one_of(st.sampled_from(list(AtomicOp)), st.just(99))
_addr = st.integers(0, 1 << 44)
_size = st.integers(-8, 64)


@st.composite
def _thread_events(draw):
    """A list of (method, args) actions for one ThreadTrace builder."""
    actions = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("load"), _addr, _size),
                st.tuples(st.just("store"), _addr, _size),
                st.tuples(
                    st.just("atomic"), _ops, _addr, _size, st.booleans()
                ),
                st.tuples(st.just("work"), st.integers(0, 50)),
                st.tuples(st.just("barrier"), st.integers(0, 5)),
            ),
            max_size=30,
        )
    )
    return actions


def _build_trace(per_thread_actions, name="hyp"):
    threads = []
    for tid, actions in enumerate(per_thread_actions):
        thread = ThreadTrace(tid)
        for action in actions:
            method, args = action[0], action[1:]
            if method == "load":
                thread.load(*args)
            elif method == "store":
                thread.store(*args)
            elif method == "atomic":
                op, addr, size, ret = args
                thread.atomic(op, addr, size, with_return=ret)
            elif method == "work":
                thread.work(*args)
            else:
                thread.barrier(*args)
        threads.append(thread)
    return Trace(threads, name=name)


@given(st.lists(_thread_events(), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_roundtrip_is_identity(per_thread):
    trace = _build_trace(per_thread)
    back = Trace.from_columnar(ColumnarTrace.from_events(trace))
    assert back.name == trace.name
    assert [t.thread_id for t in back.threads] == [
        t.thread_id for t in trace.threads
    ]
    for original, restored in zip(trace.threads, back.threads):
        assert restored.event_tuples() == original.event_tuples()


@given(st.lists(_thread_events(), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_digest_is_representation_independent(per_thread):
    trace = _build_trace(per_thread)
    assert trace_digest(ColumnarTrace.from_events(trace)) == trace_digest(
        trace
    )


def test_roundtrip_empty_threads():
    trace = Trace([ThreadTrace(0), ThreadTrace(3)], name="empty")
    col = ColumnarTrace.from_events(trace)
    assert col.num_events == 0
    assert col.num_threads == 2
    back = Trace.from_columnar(col)
    assert [t.thread_id for t in back.threads] == [0, 3]
    assert all(not t.event_tuples() for t in back.threads)
    assert trace_digest(col) == trace_digest(trace)


def test_roundtrip_barrier_only():
    threads = []
    for tid in range(2):
        t = ThreadTrace(tid)
        t.barrier(0)
        t.work(7)
        t.barrier(1)
        threads.append(t)
    trace = Trace(threads, name="barriers")
    back = Trace.from_columnar(ColumnarTrace.from_events(trace))
    for original, restored in zip(trace.threads, back.threads):
        assert restored.event_tuples() == original.event_tuples()


# ---------------------------------------------------------------------------
# The freeze hands each thread's freed pages back as it goes
# ---------------------------------------------------------------------------

def _loads(tid, count):
    """A thread of ``count`` loads, 13 B each in narrow columns."""
    rows = np.zeros((count, 6), dtype=np.int64)
    rows[:, 0] = EV_LOAD
    rows[:, 1] = PMR + 8 * np.arange(count)
    rows[:, 2] = 8
    rows[:, 4] = -1
    thread = ThreadTrace(tid)
    thread.append_block(rows)
    return thread


def test_freeze_releases_pages_after_each_large_thread(monkeypatch, tmp_path):
    big = columnar.TRIM_FLOOR // 13 + 1
    trace = Trace(
        [_loads(0, big), _loads(1, big), _loads(2, 100), _loads(3, big)],
        name="trim",
    )
    calls = []
    monkeypatch.setattr(
        columnar,
        "_malloc_trim",
        lambda pad: calls.append([t.frozen for t in trace.threads]),
    )
    trace.columnar()
    # One call per thread above the floor, in thread order, each after
    # that thread froze and before the next one was copied.
    assert calls == [
        [True, False, False, False],
        [True, True, False, False],
        [True, True, True, True],
    ]
    # An .npz load stacks through the same loop.
    save_trace(trace, tmp_path / "trim.npz")
    calls.clear()
    load_trace(tmp_path / "trim.npz")
    assert len(calls) == 3
    # No thread of a tiny BFS trace reaches the floor.
    calls.clear()
    run = get_workload("BFS").run(workload_graph("BFS", "tiny"), num_threads=16)
    run.trace.columnar()
    assert calls == []


def test_structural_validation():
    with pytest.raises(TraceError):
        ColumnarTrace(
            name="x",
            thread_ids=np.array([], dtype=np.int64),
            starts=np.array([0], dtype=np.int64),
            kind=np.array([], dtype=np.int64),
            addr=np.array([], dtype=np.int64),
            size=np.array([], dtype=np.int64),
            gap=np.array([], dtype=np.int64),
            op=np.array([], dtype=np.int64),
            ret=np.array([], dtype=np.int64),
        )
    with pytest.raises(TraceError, match="duplicate"):
        ColumnarTrace.from_thread_matrices(
            "x", [1, 1], [np.empty((0, 6)), np.empty((0, 6))]
        )


# ---------------------------------------------------------------------------
# What the analysis sweeps derive per event, thread by thread
# ---------------------------------------------------------------------------

def _race_walk(col):
    """The race sweeps' C walk over ``col`` with every store's cells
    written: its scan, and each access it keeps as ``(row, epoch,
    first bucket, bucket count)``."""
    from repro.sim._cbuild import load_kernel

    lib = load_kernel()[0]
    if lib is None:
        pytest.skip("no C library")
    columns = (col.kind, col.addr, col.size)
    widths = np.array([c.itemsize for c in columns], dtype=np.int64)
    walk = (
        col.num_threads,
        *(c.ctypes.data for c in columns),
        widths.ctypes.data,
        col.starts.ctypes.data,
        3,
    )
    scan = np.zeros(4, dtype=np.int64)
    lib.graphpim_race_scan(*walk, scan.ctypes.data)
    bbits = max(int(scan[2]).bit_length(), 1)  # as detect_races_columnar
    cells = np.empty(int(scan[3]), dtype=np.int64)
    lib.graphpim_race_cells(*walk, bbits, cells.ctypes.data)
    written = np.append(np.unique(cells), np.iinfo(np.int64).max)
    mask = np.zeros((col.num_events + 7) // 8, dtype=np.uint8)
    filtered = (*walk, bbits, written.ctypes.data, written.size - 1)
    count = lib.graphpim_race_keep(*filtered, mask.ctypes.data, *[None] * 4)
    kept = np.empty((4, count), dtype=np.int64)
    lib.graphpim_race_keep(
        *filtered, mask.ctypes.data, *(part.ctypes.data for part in kept)
    )
    return scan.tolist(), [tuple(row) for row in kept.T.tolist()]


def test_epoch_ids_match_barrier_structure():
    t0 = ThreadTrace(0)
    t0.store(META, 8)
    t0.barrier(0)
    t0.store(META + 8, 16)
    t0.barrier(1)
    t1 = ThreadTrace(1)
    t1.barrier(0)
    t1.load(META + 8, 8)
    t1.barrier(1)
    t1.store(META, 8)
    col = ColumnarTrace.from_events(Trace([t0, t1], name="e"))
    # A row's epoch is its thread's barrier count before it, restarted
    # at each thread; barrier rows are not accesses.
    scan, kept = _race_walk(col)
    first = META >> 3
    assert scan == [3, 2, first + 2, 4]  # stores, epoch, bucket, cells
    assert kept == [
        (0, 0, first, 1),
        (2, 1, first + 1, 2),
        (5, 1, first + 1, 1),
        (7, 2, first, 1),
    ]
    tpos, index = passes_base.locate_rows(col, np.arange(col.num_events))
    assert tpos.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    assert index.tolist() == [0, 1, 2, 3, 0, 1, 2, 3]
    Trace.from_columnar(col).validate_barriers()


def test_row_lookup_skips_empty_threads():
    threads = [ThreadTrace(tid) for tid in range(4)]
    threads[1].load(META, 8)
    threads[1].load(META + 8, 8)
    threads[3].store(META, 8)
    col = ColumnarTrace.from_events(Trace(threads, name="gaps"))
    # The walk skips the empty threads: the store and the load of its
    # bucket are kept, by global row.
    first = META >> 3
    assert _race_walk(col) == (
        [1, 0, first + 1, 1],
        [(0, 0, first, 1), (2, 0, first, 1)],
    )
    tpos, index = passes_base.locate_rows(col, np.arange(col.num_events))
    assert tpos.tolist() == [1, 1, 3]
    assert index.tolist() == [0, 1, 0]


def test_validate_barriers_mismatch():
    t0 = ThreadTrace(0)
    t0.barrier(0)
    t1 = ThreadTrace(1)
    t1.barrier(1)
    col = ColumnarTrace.from_events(Trace([t0, t1], name="m"))
    with pytest.raises(TraceError, match="barrier sequence mismatch"):
        Trace.from_columnar(col).validate_barriers()


# ---------------------------------------------------------------------------
# npz interop and cache-key stability
# ---------------------------------------------------------------------------

def _sample_trace():
    threads = []
    for tid in range(3):
        t = ThreadTrace(tid)
        t.load(META + 64 * tid, 8)
        t.atomic(AtomicOp.ADD, PMR + 64 * tid, 8, with_return=False)
        t.barrier(0)
        t.store(META + 4096 + 64 * tid, 4)
        threads.append(t)
    return Trace(threads, name="sample")


def test_save_load_interop(tmp_path):
    trace = _sample_trace()
    col = ColumnarTrace.from_events(trace)

    tuple_path = tmp_path / "tuple.npz"
    col_path = tmp_path / "columnar.npz"
    save_trace(trace, tuple_path)
    save_trace(col, col_path)
    # Both forms serialize to byte-identical content.
    assert tuple_path.read_bytes() == col_path.read_bytes()

    loaded_tuple = load_trace(col_path)
    loaded_col = load_trace(tuple_path).columnar()
    assert trace_digest(loaded_tuple) == trace_digest(trace)
    assert trace_digest(loaded_col) == trace_digest(trace)
    for original, restored in zip(trace.threads, loaded_tuple.threads):
        assert restored.event_tuples() == original.event_tuples()


def test_result_cache_key_survives_representation_change(tmp_path):
    """The digest feeding result_key is identical for both forms, so
    cache entries written before the columnar IR stay hot after it."""
    trace = _sample_trace()
    col = ColumnarTrace.from_events(trace)
    config = SystemConfig.graphpim()
    fingerprint = config_fingerprint(config)
    key_tuple = result_key(trace_digest(trace), fingerprint, "salt")
    key_col = result_key(trace_digest(col), fingerprint, "salt")
    assert key_tuple == key_col

    # And through a save/load cycle of the columnar form.
    path = tmp_path / "t.npz"
    save_trace(col, path)
    assert (
        result_key(
            trace_digest(load_trace(path).columnar()), fingerprint, "salt"
        )
        == key_tuple
    )


# ---------------------------------------------------------------------------
# Narrow storage: columns at and around the integer type limits
# ---------------------------------------------------------------------------

_NARROW = (np.int8, np.int16, np.int32, np.int64)
_I64 = np.iinfo(np.int64)
#: Upper and lower column bounds at and one past each narrow type's limit.
_HIGHS = sorted(
    {0, 2**40, 2**62, int(_I64.max)}
    | {v for t in _NARROW[:-1] for v in (np.iinfo(t).max, np.iinfo(t).max + 1)}
)
_LOWS = sorted(
    {0, int(_I64.min)}
    | {v for t in _NARROW[:-1] for v in (np.iinfo(t).min, np.iinfo(t).min - 1)}
)
_OP_VALUES = [int(op) for op in AtomicOp]


@st.composite
def narrow_trace_matrices(draw):
    """``(thread_ids, matrices)``: per-thread int64 rows whose columns
    run up to (or down to) drawn type limits.

    Every thread passes the same barrier ids, addresses and gaps are
    non-negative (gaps stay below 2^40, so instruction counts cannot
    overflow), and atomic rows carry a valid op, so the batch kernel
    runs the trace; barrier ids, and the op and ret fields the kernel
    and the tuple view ignore, take any value.  Addresses stay below
    2^62 and sizes below 2^40, so an access's last byte is an int64.
    """

    def values(signed, top=int(_I64.max)):
        high = draw(st.sampled_from([h for h in _HIGHS if h <= top]))
        low = draw(st.sampled_from(_LOWS)) if signed else 0
        return st.one_of(st.sampled_from([low, high]), st.integers(low, high))

    addr, size, gap = values(False, 2**62), values(True, 2**40), values(False, 2**40)
    op, ret = values(True), values(True)
    barriers = draw(st.lists(values(True), max_size=2))
    matrices = []
    for _ in range(draw(st.integers(1, 3))):
        rows = []
        for segment in range(len(barriers) + 1):
            for _ in range(draw(st.integers(0, 4))):
                kind = draw(st.sampled_from([EV_LOAD, EV_STORE, EV_ATOMIC]))
                rows.append([
                    kind, draw(addr), draw(size), draw(gap),
                    draw(st.sampled_from(_OP_VALUES))
                    if kind == EV_ATOMIC else draw(op),
                    draw(ret),
                ])
            if segment < len(barriers):
                rows.append([
                    EV_BARRIER, draw(addr), barriers[segment], draw(gap),
                    draw(op), draw(ret),
                ])
        matrices.append(np.asarray(rows, dtype=np.int64).reshape(-1, 6))
    return list(range(len(matrices))), matrices


def _widened(col):
    """``col`` with every column cast to int64 (the constructor keeps
    the types it is given)."""
    return ColumnarTrace(
        name=col.name,
        thread_ids=col.thread_ids,
        starts=col.starts,
        **{c: getattr(col, c).astype(np.int64) for c in _COLUMN_NAMES},
    )


_COLUMN_NAMES = ("kind", "addr", "size", "gap", "op", "ret")


def _report_rows(report):
    if report is None:
        return None
    return [
        (f.rule_id, f.severity, f.message, f.thread_id, f.event_index)
        for f in report.findings
    ]


@given(narrow_trace_matrices())
@settings(max_examples=60, deadline=None)
def test_narrow_columns_hold_the_int64_rows(tmp_path_factory, drawn):
    thread_ids, matrices = drawn
    col = ColumnarTrace.from_thread_matrices("narrow", thread_ids, matrices)
    flat = np.concatenate(matrices)
    for index, name in enumerate(_COLUMN_NAMES):
        values = flat[:, index]
        low, high = (int(values.min()), int(values.max())) if values.size else (0, 0)
        fits = [
            t for t in _NARROW
            if np.iinfo(t).min <= low and high <= np.iinfo(t).max
        ]
        assert getattr(col, name).dtype == np.dtype(fits[0]), name

    wide = _widened(col)
    trace = Trace.from_columnar(col)
    for pos, matrix in enumerate(matrices):
        assert col.thread_matrix(pos).tobytes() == matrix.tobytes()
        assert trace.threads[pos].rows().tobytes() == matrix.tobytes()
    digest = trace_digest(wide)
    assert trace_digest(col) == trace_digest(trace) == digest

    path = tmp_path_factory.mktemp("narrow") / "t.npz"
    save_trace(trace, path)
    loaded = load_trace(path, validate=False)
    assert trace_digest(loaded) == digest
    assert loaded.columnar().nbytes == col.nbytes
    # How a pool worker sends a trace: pickled once frozen, as its
    # narrow columns.
    unpickled = pickle.loads(pickle.dumps(trace))
    assert all(t.frozen for t in unpickled.threads)
    assert trace_digest(unpickled) == digest
    assert unpickled.columnar().nbytes == col.nbytes
    assert [t.rows().tobytes() for t in unpickled.threads] == [
        m.tobytes() for m in matrices
    ]

    for config in (
        SystemConfig.graphpim(),
        SystemConfig.graphpim(pmr_bypass=False, fp_extension=False),
    ):
        assert _report_rows(lint_columnar(col, config)) == _report_rows(
            lint_columnar(wide, config)
        )
        assert profile_columnar(col, config) == profile_columnar(wide, config)
        assert offload_summary_columnar(col, config) == (
            offload_summary_columnar(wide, config)
        )
    configs = SystemConfig().evaluation_trio()
    assert screen_configs(col, configs) == screen_configs(wide, configs)
    assert _report_rows(detect_races_columnar(col)) == _report_rows(
        detect_races_columnar(wide)
    )
