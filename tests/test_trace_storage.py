"""Two-state storage of traces: narrow capture columns, then frozen
columns.

A :class:`ThreadTrace` captures its events into six narrow columns
(rows staged as canonical int64 rows on the way), and
:meth:`Trace.columnar` freezes it once into a view of the trace's
narrow columns.  A recorder call that no row can hold, or that reaches
a frozen thread, raises and leaves the events as they were.  Every
observable of a trace must be the same in either state.
"""

import json
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import clear_preflight_cache
from repro.common.errors import TraceError
from repro.memlayout.regions import REGION_SHIFT, Region
from repro.runner import RunnerConfig, execute_spec
from repro.runner.engine import evaluation_grid_specs
from repro.sim.system import simulate
from repro.trace.columnar import ColumnarTrace, narrowed
from repro.trace.events import EV_ATOMIC, EV_BARRIER, EV_LOAD, EV_STORE, AtomicOp
from repro.trace.io import load_trace, save_trace, trace_digest
from repro.trace.stream import ThreadTrace, Trace

PMR = int(Region.PROPERTY) << REGION_SHIFT

_COLUMNS = ("kind", "addr", "size", "gap", "op", "ret")

_int64 = st.integers(0, 1 << 44)
_addr = st.one_of(
    _int64,
    _int64.map(np.int64),
    st.just(2**63),  # one past int64: no row can hold it
)
_size = st.one_of(st.integers(-64, 64), st.integers(1, 64).map(np.int64))
_op = st.one_of(
    st.sampled_from(list(AtomicOp)),
    st.sampled_from(list(AtomicOp)).map(lambda op: np.int64(int(op))),
    st.integers(11, 300),  # an op no AtomicOp names
)
_with_return = st.one_of(st.booleans(), st.none(), st.sampled_from([0, 1, 2]))
_work = st.one_of(st.integers(0, 50), st.sampled_from([0.0, 1.5, 2.0]))

_actions = st.lists(
    st.one_of(
        st.tuples(st.just("load"), _addr, _size),
        st.tuples(st.just("store"), _addr, _size),
        st.tuples(st.just("atomic"), _op, _addr, _size, _with_return),
        st.tuples(st.just("work"), _work),
        st.tuples(st.just("barrier"), st.integers(0, 5)),
    ),
    max_size=25,
)


def _record(thread, method, args):
    """Drive one builder call."""
    if method == "atomic":
        op, addr, size, ret = args
        thread.atomic(op, addr, size, with_return=ret)
    else:
        getattr(thread, method)(*args)


def _expected_row(method, args, pending):
    """The row a recorder call appends, or None when no row holds it."""
    if method == "atomic":
        op, addr, size, ret = args
        if ret is not True and ret is not False:
            return None
        row = (EV_ATOMIC, addr, size, pending, op, ret)
    elif method == "barrier":
        row = (EV_BARRIER, 0, args[0], pending, -1, 0)
    else:
        kind = EV_LOAD if method == "load" else EV_STORE
        row = (kind, args[0], args[1], pending, -1, 0)
    if not all(
        isinstance(v, (int, np.integer)) and -(2**63) <= v < 2**63
        for v in row
    ):
        return None
    return [int(v) for v in row]


def _columns(trace):
    col = trace.columnar()
    return (
        col.thread_ids.tolist(),
        col.starts.tolist(),
        [
            getattr(col, c).tolist()
            for c in ("kind", "addr", "size", "gap", "op", "ret")
        ],
    )


def _observed(trace, tmp_path):
    """Digest, rows, tuples and barrier ids, and the same read back from
    a saved file and from a pickle."""
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    seen = []
    for view in (
        trace,
        load_trace(path, validate=False),
        pickle.loads(pickle.dumps(trace)),
    ):
        seen.append((
            trace_digest(view),
            [t.rows().tolist() for t in view.threads],
            [t.event_tuples() for t in view.threads],
            view.barrier_sequences(),
        ))
    return seen


@given(st.lists(_actions, min_size=1, max_size=3))
# A float count, even zero, is refused at the call, and the barrier after
# it still records.
@example([[("work", 0.0), ("barrier", 0)]])
@settings(max_examples=120, deadline=None)
def test_recorders_append_a_row_or_raise(tmp_path_factory, per_thread):
    threads = []
    for tid, actions in enumerate(per_thread):
        thread = ThreadTrace(tid)
        expected, pending = [], 0
        for method, *args in actions:
            if method == "work":
                if isinstance(args[0], int):
                    thread.work(args[0])
                    pending += args[0]
                else:
                    with pytest.raises(
                        TraceError,
                        match=f"^thread {tid} event {len(expected)}: ",
                    ):
                        thread.work(args[0])
                assert thread.rows().tolist() == expected
                continue
            row = _expected_row(method, args, pending)
            if row is None:
                with pytest.raises(
                    TraceError, match=f"^thread {tid} event {len(expected)}: "
                ):
                    _record(thread, method, args)
            else:
                _record(thread, method, args)
                expected.append(row)
                pending = 0
            assert thread.rows().tolist() == expected
        threads.append(thread)
    trace = Trace(threads, name="rows")
    tmp_path = tmp_path_factory.mktemp("storage")
    captured = _observed(trace, tmp_path)
    col = trace.columnar()
    assert all(thread.frozen for thread in trace.threads)
    assert _observed(trace, tmp_path) == captured
    assert trace_digest(col) == captured[0][0]


def test_builder_keeps_rows_until_events_are_read():
    """Reading the tuples decodes a new list and leaves the rows."""
    thread = ThreadTrace(0)
    thread.work(3)
    thread.load(PMR, 8)
    thread.atomic(AtomicOp.ADD, PMR + 64, 8, with_return=False)
    thread.barrier(0)
    rows = [
        [EV_LOAD, PMR, 8, 3, -1, 0],
        [EV_ATOMIC, PMR + 64, 8, 0, int(AtomicOp.ADD), 0],
        [EV_BARRIER, 0, 0, 0, -1, 0],
    ]
    assert thread.rows().tolist() == rows
    events = thread.event_tuples()
    assert events == [
        (EV_LOAD, PMR, 8, 3),
        (EV_ATOMIC, PMR + 64, 8, 0, AtomicOp.ADD, False),
        (EV_BARRIER, 0, 0),
    ]
    events.append((EV_LOAD, PMR, 8, 0))  # records nothing
    thread.store(PMR, 8)
    assert thread.num_events == 4
    assert thread.rows().tolist() == rows + [[EV_STORE, PMR, 8, 0, -1, 0]]
    assert thread.event_tuples()[-1] == (EV_STORE, PMR, 8, 0)


def _sample_trace():
    threads = []
    for tid in range(3):
        thread = ThreadTrace(tid)
        thread.load(PMR + 64 * tid, 8)
        thread.atomic(AtomicOp(tid), PMR + 64 * tid, 8, with_return=True)
        thread.barrier(0)
        threads.append(thread)
    return Trace(threads, name="sample")


@pytest.mark.parametrize(
    "record",
    [
        lambda t: t.work(1.5),
        lambda t: t.load(2**63, 8),
        lambda t: t.atomic(AtomicOp.CAS, PMR, 8, with_return=None),
        lambda t: t.atomic(AtomicOp.CAS, PMR, 8, with_return=2),
    ],
)
def test_unrepresentable_event_raises(record):
    trace = _sample_trace()
    thread = trace.threads[1]
    before = (thread.rows().tobytes(), trace_digest(trace))
    with pytest.raises(TraceError, match="^thread 1 event 3: "):
        record(thread)
    assert (thread.rows().tobytes(), trace_digest(trace)) == before
    # Nothing of the refused call stays pending: a later event records
    # with no gap, as if the call had not been made.
    thread.load(PMR, 8)
    expected = _sample_trace()
    expected.threads[1].load(PMR, 8)
    assert _columns(trace) == _columns(expected)


def test_loaded_attached_and_converted_traces_keep_rows(tmp_path):
    trace = _sample_trace()
    digest = trace_digest(trace)
    rows = [t.rows().tolist() for t in trace.threads]
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    converted = Trace.from_columnar(trace.columnar())
    # A pool worker pickles its trace after this freeze; before it, the
    # pickle would carry the int64 capture rows.
    unpickled = pickle.loads(pickle.dumps(trace))
    for rebuilt in (load_trace(path), unpickled, converted):
        assert all(t.frozen for t in rebuilt.threads)
        assert trace_digest(rebuilt) == digest
        assert [t.rows().tolist() for t in rebuilt.threads] == rows


def test_unknown_kind_in_a_file_raises_with_its_path(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez_compressed(
        path,
        version=np.asarray([1]),
        name=np.asarray(["bad"]),
        thread_ids=np.asarray([0], dtype=np.int64),
        thread_0=np.asarray([[7, 0, 8, 0, -1, 0]], dtype=np.int64),
    )
    with pytest.raises(TraceError, match=f"{path}: unknown event kind 7"):
        load_trace(path, validate=False)
    with pytest.raises(TraceError, match="unknown event kind 7"):
        ColumnarTrace.from_thread_matrices(
            "bad", [0], [np.asarray([[7, 0, 8, 0, -1, 0]])]
        )


def test_strict_job_derives_columns_once(monkeypatch):
    """A strict three-mode job stacks its trace's columns once, for the
    pre-flight and every simulated mode."""
    calls = {"from_events": 0}
    from_events = ColumnarTrace.from_events.__func__

    def counting_from_events(cls, trace):
        calls["from_events"] += 1
        return from_events(cls, trace)

    monkeypatch.setattr(
        ColumnarTrace, "from_events", classmethod(counting_from_events)
    )
    spec = next(
        s for s in evaluation_grid_specs("tiny") if s.workload == "BFS"
    )
    assert len(spec.modes) == 3
    clear_preflight_cache()
    payload = execute_spec(
        spec, RunnerConfig(parallel=False, cache_dir=None, strict=True)
    )
    assert len(payload["modes"]) == 3
    assert calls == {"from_events": 1}


def test_finished_job_holds_its_trace_once():
    """After a strict job the trace's narrow columns are its only copy:
    no thread keeps a capture buffer, ``columnar()`` keeps returning the
    same object, the columns take at most 16 B per event, and simulating
    the trace again gives the job's bytes."""
    spec = next(
        s for s in evaluation_grid_specs("tiny") if s.workload == "BFS"
    )
    payload = execute_spec(
        spec, RunnerConfig(parallel=False, cache_dir=None, strict=True)
    )
    trace = payload["run"].trace
    assert all(thread.frozen for thread in trace.threads)
    col = trace.columnar()
    assert all(thread._rows is None for thread in trace.threads)
    assert col.nbytes <= 16 * col.num_events
    for mode in spec.modes:
        again = json.dumps(simulate(trace, mode).to_dict(), sort_keys=True)
        done = payload["modes"][mode.display_name]["payload"]
        assert again == json.dumps(done, sort_keys=True)
        assert trace.columnar() is col


@pytest.mark.parametrize(
    "record",
    [
        lambda t: t.load(PMR + 8, 8),
        lambda t: t.store(PMR + 8, 8),
        lambda t: t.atomic(AtomicOp.CAS, PMR + 8, 8, with_return=False),
        lambda t: (t.work(3), t.barrier(1)),
        lambda t: t.append_block(
            np.asarray([[EV_LOAD, 1 << 50, 4, 70000, -1, 0]])
        ),
        lambda t: t.append_columns(
            [np.asarray([v]) for v in (EV_STORE, 1 << 50, 4, 7, -1, 0)]
        ),
    ],
)
def test_recording_on_a_frozen_thread_raises(record):
    trace = _sample_trace()
    col = trace.columnar()
    before = (_columns(trace), trace_digest(trace))
    thread = trace.threads[1]
    with pytest.raises(TraceError, match="^thread 1 event 3: .*frozen"):
        record(thread)
    assert thread.frozen
    assert trace.columnar() is col
    assert (_columns(trace), trace_digest(trace)) == before


def test_pickle_keeps_the_frozen_columns():
    trace = _sample_trace()
    col = trace.columnar()
    back = pickle.loads(pickle.dumps(trace))
    assert all(thread.frozen for thread in back.threads)
    back_col = back.columnar()
    assert back_col.nbytes == col.nbytes
    assert trace_digest(back) == trace_digest(trace)


def _types(thread):
    return [values.dtype.name for values in thread._column_views()]


def _segment(*rows):
    """Rows as six narrow columns, the way a layout hands them over."""
    table = np.asarray(rows, dtype=np.int64).reshape(-1, 6)
    return [narrowed(table[:, c].copy()) for c in range(6)]


def test_capture_columns_widen_in_place():
    """A capture column takes the narrowest type of the values recorded
    so far, whichever way they arrive, and keeps them as it widens."""
    thread = ThreadTrace(0)
    thread.barrier(100)  # staged, then moved on the next read
    assert _types(thread)[2] == "int8"
    thread.append_columns(_segment((EV_LOAD, 64, 300, 1, -1, 0)))
    assert _types(thread)[:4] == ["int8", "int8", "int16", "int8"]
    thread.work(70000)
    thread.barrier(200)
    assert _types(thread)[2:4] == ["int16", "int32"]
    thread.append_block(np.asarray([[EV_STORE, 1 << 40, 8, 0, -1, 0]]))
    assert _types(thread)[1] == "int64"
    thread.append_columns(_segment((EV_LOAD, 8, 2**40, -1, -1, 0)))
    assert _types(thread) == [
        "int8", "int64", "int64", "int32", "int8", "int8"
    ]
    expected = [
        [EV_BARRIER, 0, 100, 0, -1, 0],
        [EV_LOAD, 64, 300, 1, -1, 0],
        [EV_BARRIER, 0, 200, 70000, -1, 0],
        [EV_STORE, 1 << 40, 8, 0, -1, 0],
        [EV_LOAD, 8, 2**40, -1, -1, 0],
    ]
    assert thread.rows().tolist() == expected
    col = Trace([thread]).columnar()
    assert [getattr(col, c).dtype.name for c in _COLUMNS] == _types(thread)
    assert thread.rows().tolist() == expected


def _random_script(rng, count):
    """``count`` events as ``(method, args)`` recorder calls, each load,
    store or atomic after a random work count, with barriers between."""
    script = []
    for index in range(count):
        script.append(("work", (int(rng.integers(0, 300)),)))
        kind = int(rng.integers(0, 4))
        addr = PMR + 8 * int(rng.integers(0, 1 << 20))
        if kind == EV_LOAD:
            script.append(("load", (addr, 8)))
        elif kind == EV_STORE:
            script.append(("store", (addr, int(rng.integers(1, 64)))))
        elif kind == EV_ATOMIC:
            op = AtomicOp(int(rng.integers(0, len(AtomicOp))))
            script.append(("atomic", (op, addr, 8, bool(index % 2))))
        else:
            script.append(("barrier", (index,)))
    return script


def _row_of(method, args, gap):
    if method == "barrier":
        return [EV_BARRIER, 0, args[0], gap, -1, 0]
    if method == "atomic":
        op, addr, size, ret = args
        return [EV_ATOMIC, addr, size, gap, int(op), int(ret)]
    kind = EV_LOAD if method == "load" else EV_STORE
    return [kind, args[0], args[1], gap, -1, 0]


def test_mixed_appends_equal_the_per_event_capture():
    """Per-event calls, staged and oversized ``append_block`` calls and
    column appends, with work pending across them, capture the rows,
    digest and frozen columns of the same events recorded one by one."""
    rng = np.random.default_rng(5)
    script = _random_script(rng, 6000)
    reference = ThreadTrace(0)
    for method, args in script:
        getattr(reference, method)(*args)

    mixed = ThreadTrace(0)
    # Cut the script into runs of calls; each run goes in as one call of
    # a randomly chosen kind.  A run's work before its first event folds
    # into that event's gap on top of the work pending on the thread,
    # and its work after its last event stays pending.
    at = 0
    while at < len(script):
        run = script[at : at + int(rng.choice([1, 2, 7, 80, 3001]))]
        at += len(run)
        how = int(rng.integers(0, 3))
        if how == 0:
            for method, args in run:
                getattr(mixed, method)(*args)
            continue
        rows, gap = [], 0
        for method, args in run:
            if method == "work":
                gap += args[0]
            else:
                rows.append(_row_of(method, args, gap))
                gap = 0
        if how == 1:
            mixed.append_block(np.asarray(rows, dtype=np.int64), gap)
        else:
            mixed.append_columns(_segment(*rows), gap)

    assert mixed.num_events == reference.num_events
    assert mixed.rows().tobytes() == reference.rows().tobytes()
    assert mixed.barrier_ids() == reference.barrier_ids()
    mixed_trace, reference_trace = Trace([mixed]), Trace([reference])
    assert trace_digest(mixed_trace) == trace_digest(reference_trace)
    assert _columns(mixed_trace) == _columns(reference_trace)
    assert mixed.frozen
    assert trace_digest(mixed_trace) == trace_digest(reference_trace)


def test_pickling_a_capturing_trace_keeps_capturing():
    """A trace pickled mid-capture, with rows still staged, unpickles
    with the same rows and records on as the original does."""
    trace = _sample_trace()
    thread = trace.threads[0]
    thread.append_columns(_segment((EV_STORE, PMR, 8, 2, -1, 0)))
    thread.work(4)
    thread.load(PMR + 8, 8)  # staged
    back = pickle.loads(pickle.dumps(trace))
    assert not any(t.frozen for t in back.threads)
    assert [t.rows().tolist() for t in back.threads] == [
        t.rows().tolist() for t in trace.threads
    ]
    for each in (trace, back):
        each.threads[0].work(1)
        each.threads[0].barrier(1)
        for other in each.threads[1:]:
            other.barrier(1)
    assert trace_digest(back) == trace_digest(trace)
    assert _columns(back) == _columns(trace)


def test_barrier_ids_read_during_capture():
    """Barrier ids come from the capture columns and the staged rows,
    whichever way the barriers were recorded, before any freeze."""
    threads = [ThreadTrace(tid) for tid in range(2)]
    threads[0].barrier(0)
    threads[0].append_block(
        np.asarray([[EV_LOAD, PMR, 8, 0, -1, 0], [EV_BARRIER, 0, 1, 0, -1, 0]])
    )
    threads[0].append_columns(_segment((EV_BARRIER, 0, 2, 3, -1, 0)))
    for barrier_id in range(3):
        threads[1].barrier(barrier_id)
    trace = Trace(threads)
    assert [t.barrier_ids() for t in threads] == [[0, 1, 2], [0, 1, 2]]
    trace.validate_barriers()
    threads[1].barrier(7)
    with pytest.raises(TraceError, match="barrier sequence mismatch"):
        trace.validate_barriers()
    assert not any(t.frozen for t in threads)
