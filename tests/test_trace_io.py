"""Tests for trace serialization."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.common.errors import TraceError
from repro.core.presets import workload_graph, workload_params
from repro.sim.config import SystemConfig
from repro.sim.system import simulate
from repro.trace.events import AtomicOp
from repro.trace.io import load_trace, save_trace
from repro.trace.stream import ThreadTrace, Trace
from repro.workloads import get_workload


def build_trace():
    a, b = ThreadTrace(0), ThreadTrace(1)
    a.work(3)
    a.load(0x100, 8)
    a.atomic(AtomicOp.CAS, 0x200, 8, True)
    a.store(0x300, 8)
    b.atomic(AtomicOp.FP_ADD, 0x400, 8, False)
    for t in (a, b):
        t.barrier(0)
    return Trace([a, b], name="demo")


class TestTraceIO:
    def test_roundtrip_events(self, tmp_path):
        trace = build_trace()
        path = tmp_path / "t.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.name == "demo"
        assert loaded.num_threads == 2
        for original, restored in zip(trace.threads, loaded.threads):
            assert original.event_tuples() == restored.event_tuples()

    def test_atomic_ops_preserved(self, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(build_trace(), path)
        loaded = load_trace(path)
        atomic = loaded.threads[0].event_tuples()[1]
        assert atomic[4] is AtomicOp.CAS
        assert atomic[5] is True
        fp = loaded.threads[1].event_tuples()[0]
        assert fp[4] is AtomicOp.FP_ADD
        assert fp[5] is False

    def test_roundtrip_workload_trace(self, tmp_path, tiny_csr):
        run = get_workload("BFS").run(tiny_csr, num_threads=2, root=0)
        path = tmp_path / "bfs.npz"
        save_trace(run.trace, path)
        loaded = load_trace(path)
        assert loaded.num_events == run.trace.num_events

    def test_simulation_identical_after_roundtrip(self, tmp_path, sparse_graph):
        run = get_workload("DC").run(sparse_graph, num_threads=4)
        path = tmp_path / "dc.npz"
        save_trace(run.trace, path)
        loaded = load_trace(path)
        original = simulate(run.trace, SystemConfig.graphpim())
        restored = simulate(loaded, SystemConfig.graphpim())
        assert original.cycles == restored.cycles
        assert original.hmc_stats.total_flits == restored.hmc_stats.total_flits

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(
            path,
            version=np.asarray([99]),
            name=np.asarray(["x"]),
            thread_ids=np.asarray([0]),
            thread_0=np.zeros((0, 6), dtype=np.int64),
        )
        with pytest.raises(TraceError):
            load_trace(path)

    def test_unknown_event_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        rows = np.asarray([[9, 0, 0, 0, -1, 0]], dtype=np.int64)
        np.savez_compressed(
            path,
            version=np.asarray([1]),
            name=np.asarray(["x"]),
            thread_ids=np.asarray([0]),
            thread_0=rows,
        )
        with pytest.raises(TraceError):
            load_trace(path)


#: Most traced memory a load may peak at, per byte of its frozen
#: columns.  Narrowing one thread's int64 rows at a time, a load holds
#: the narrowed threads, the columns they stack into and one thread's
#: rows (about 2x); reading every thread's rows first peaked at 5.7x.
MAX_LOAD_PEAK_PER_FROZEN_BYTE = 3.0


@pytest.mark.parametrize("code", ["BC", "PRank"])
def test_load_reads_one_thread_at_a_time(tmp_path, code):
    run = get_workload(code).run(
        workload_graph(code, "small"), num_threads=16, **workload_params(code)
    )
    frozen = run.trace.columnar().nbytes
    path = tmp_path / f"{code}.npz"
    save_trace(run.trace, path)
    del run
    gc.collect()
    tracemalloc.start()
    try:
        loaded = load_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.columnar().nbytes == frozen
    assert peak <= MAX_LOAD_PEAK_PER_FROZEN_BYTE * frozen, (
        f"{code}: a load peaked at {peak / frozen:.2f}x its frozen bytes"
    )
