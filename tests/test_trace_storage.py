"""Row storage of captured traces against tuple storage.

A :class:`ThreadTrace` packs each event into its canonical int64 row as
it is captured and keeps tuples only once ``.events`` is read or an
event cannot be held as a row exactly.  Every observable of a trace must
be the same whichever storage holds it.
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
from repro.runner.shm import attach_trace, publish_trace, unlink_segment
from repro.sim.system import simulate
from repro.trace import columnar as columnar_mod
from repro.trace.columnar import ColumnarTrace
from repro.trace.events import EV_ATOMIC, EV_BARRIER, EV_LOAD, EV_STORE, AtomicOp
from repro.trace.io import load_trace, save_trace, trace_digest
from repro.trace.stream import ThreadTrace, Trace

PMR = int(Region.PROPERTY) << REGION_SHIFT

_int64 = st.integers(0, 1 << 44)
_addr = st.one_of(
    _int64,
    _int64.map(np.int64),
    st.just(2**63),  # one past int64: no row can hold it
)
_size = st.one_of(st.integers(1, 64), st.integers(1, 64).map(np.int64))
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


def _replay(thread, actions):
    """Drive the builder API with one thread's action list."""
    for method, *args in actions:
        if method == "atomic":
            op, addr, size, ret = args
            thread.atomic(op, addr, size, with_return=ret)
        else:
            getattr(thread, method)(*args)
    return thread


def _tuples(actions):
    """The tuples a builder recording only tuples produces."""
    events, pending = [], 0
    for method, *args in actions:
        if method == "work":
            pending += args[0]
        elif method == "barrier":
            # A zero pending count stays pending, as the builder keeps it.
            gap, pending = (pending, 0) if pending else (0, pending)
            events.append((EV_BARRIER, args[0], gap))
        elif method == "atomic":
            op, addr, size, ret = args
            events.append((EV_ATOMIC, addr, size, pending, op, ret))
            pending = 0
        else:
            kind = EV_LOAD if method == "load" else EV_STORE
            events.append((kind, args[0], args[1], pending))
            pending = 0
    return events


def _row_trace(per_thread):
    return Trace(
        [_replay(ThreadTrace(tid), a) for tid, a in enumerate(per_thread)],
        name="rows",
    )


def _tuple_trace(per_thread):
    threads = []
    for tid, actions in enumerate(per_thread):
        thread = ThreadTrace(tid)
        thread.events.extend(_tuples(actions))
        threads.append(thread)
    return Trace(threads, name="rows")


def _outcome(fn, trace):
    """``fn(trace)``'s value, or its exception's type and message."""
    try:
        return "ok", fn(trace)
    except Exception as error:  # the same failure is part of the contract
        return "error", type(error), str(error)


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


def _saved(tmp_path):
    def run(trace):
        path = tmp_path / "t.npz"
        save_trace(trace, path)
        loaded = load_trace(path, validate=False)
        return trace_digest(loaded), [t.events for t in loaded.threads]

    return run


def _pickled(trace):
    back = pickle.loads(pickle.dumps(trace))
    return (
        back.name,
        [t.thread_id for t in back.threads],
        _outcome(trace_digest, back),
        [t.events for t in back.threads],
    )


@given(st.lists(_actions, min_size=1, max_size=3))
@example([[("work", 0.0), ("barrier", 0)]])  # a zero pending count
@example([[("work", 0.0), ("barrier", 0), ("load", 8, 8)]])
@settings(max_examples=120, deadline=None)
def test_row_storage_matches_tuple_storage(tmp_path_factory, per_thread):
    saved = _saved(tmp_path_factory.mktemp("storage"))
    tuples = _tuple_trace(per_thread)
    # A fresh row trace per observable: reading .events switches a
    # thread to tuples, and each check must see the storage as captured.
    for observe in (trace_digest, _columns, saved, _pickled):
        assert _outcome(observe, _row_trace(per_thread)) == _outcome(
            observe, tuples
        ), observe
    rows = _row_trace(per_thread)
    assert [t.num_events for t in rows.threads] == [
        len(_tuples(actions)) for actions in per_thread
    ]
    assert rows.barrier_sequences() == tuples.barrier_sequences()
    assert [t.events for t in rows.threads] == [t.events for t in tuples.threads]


def test_builder_keeps_rows_until_events_are_read():
    thread = ThreadTrace(0)
    thread.work(3)
    thread.load(PMR, 8)
    thread.atomic(AtomicOp.ADD, PMR + 64, 8, with_return=False)
    thread.barrier(0)
    assert thread.rows().tolist() == [
        [EV_LOAD, PMR, 8, 3, -1, 0],
        [EV_ATOMIC, PMR + 64, 8, 0, int(AtomicOp.ADD), 0],
        [EV_BARRIER, 0, 0, 0, -1, 0],
    ]
    events = thread.events
    assert thread.rows() is None
    # The decoded list is the storage now: appending to it records.
    events.append((EV_LOAD, PMR, 8, 0))
    thread.store(PMR, 8)
    assert thread.num_events == 5
    assert thread.events[-1] == (EV_STORE, PMR, 8, 0)


@pytest.mark.parametrize(
    "record",
    [
        lambda t: (t.work(1.5), t.load(PMR, 8)),
        lambda t: t.load(2**63, 8),
        lambda t: t.atomic(AtomicOp.CAS, PMR, 8, with_return=None),
        lambda t: t.atomic(AtomicOp.CAS, PMR, 8, with_return=2),
    ],
)
def test_unrepresentable_event_switches_to_tuples(record):
    thread = ThreadTrace(0)
    thread.load(PMR, 8)
    record(thread)
    assert thread.rows() is None
    assert thread.events[0] == (EV_LOAD, PMR, 8, 0)


def _sample_trace():
    threads = []
    for tid in range(3):
        thread = ThreadTrace(tid)
        thread.load(PMR + 64 * tid, 8)
        thread.atomic(AtomicOp(tid), PMR + 64 * tid, 8, with_return=True)
        thread.barrier(0)
        threads.append(thread)
    return Trace(threads, name="sample")


def test_loaded_attached_and_converted_traces_keep_rows(tmp_path):
    trace = _sample_trace()
    digest = trace_digest(trace)
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    ref = publish_trace(trace)
    try:
        attached = attach_trace(ref)
    finally:
        unlink_segment(ref.name)
    converted = trace.columnar().to_events()
    for rebuilt in (load_trace(path), attached, converted):
        assert all(t.rows() is not None for t in rebuilt.threads)
        assert trace_digest(rebuilt) == digest
        assert [t.events for t in rebuilt.threads] == [
            t.events for t in trace.threads
        ]


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
    pre-flight and every simulated mode, and never encodes a tuple."""
    calls = {"from_events": 0, "encode_events": 0}
    from_events = ColumnarTrace.from_events.__func__
    encode_events = columnar_mod.encode_events

    def counting_from_events(cls, trace):
        calls["from_events"] += 1
        return from_events(cls, trace)

    def counting_encode_events(*args, **kwargs):
        calls["encode_events"] += 1
        return encode_events(*args, **kwargs)

    monkeypatch.setattr(
        ColumnarTrace, "from_events", classmethod(counting_from_events)
    )
    monkeypatch.setattr(columnar_mod, "encode_events", counting_encode_events)
    spec = next(
        s for s in evaluation_grid_specs("tiny") if s.workload == "BFS"
    )
    assert len(spec.modes) == 3
    clear_preflight_cache()
    payload = execute_spec(
        spec, RunnerConfig(parallel=False, cache_dir=None, strict=True)
    )
    assert len(payload["modes"]) == 3
    assert calls == {"from_events": 1, "encode_events": 0}


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
        lambda t: t.events.append((EV_LOAD, PMR + 8, 8, 0)),
    ],
)
def test_recording_on_a_frozen_thread_shows_in_the_next_columns(record):
    trace = _sample_trace()
    first = trace.columnar()
    thread = trace.threads[1]
    assert thread.frozen
    record(thread)
    expected = _sample_trace()
    record(expected.threads[1])
    col = trace.columnar()
    assert col is not first
    assert all(t.frozen or t._events is not None for t in trace.threads)
    assert trace_digest(trace) == trace_digest(expected)
    assert _columns(trace) == _columns(expected)
    assert trace.columnar() is col


def test_pickle_keeps_the_frozen_columns():
    trace = _sample_trace()
    col = trace.columnar()
    back = pickle.loads(pickle.dumps(trace))
    assert all(thread.frozen for thread in back.threads)
    back_col = back.columnar()
    assert back_col.nbytes == col.nbytes
    assert trace_digest(back) == trace_digest(trace)
