"""The process's trace memo: a job whose workload an earlier job traced
skips graph build, capture and digest, and gets the same bytes.

``trace_spec`` keeps frozen runs by trace identity (workload, scale,
thread count, ``plain_atomics``, parameters), least recently used
first, within ``TRACE_MEMO_BYTES`` of columns.  The autouse fixture in
``conftest.py`` empties the memo around every test.
"""

import json
import threading

import pytest

from repro.analysis import clear_preflight_cache
from repro.common.errors import AnalysisError
from repro.core.presets import workload_graph
from repro.runner import engine
from repro.runner.engine import clear_trace_memo, execute_spec
from repro.runner.spec import ExperimentSpec, RunnerConfig
from repro.sim.config import SystemConfig
from repro.workloads.base import Workload

_CONFIG = RunnerConfig(parallel=False, cache_dir=None, strict=True)


def _spec(workload="BFS", modes=None, **fields):
    return ExperimentSpec.for_workload(
        workload,
        fields.pop("scale", "tiny"),
        modes or [SystemConfig.baseline(), SystemConfig.graphpim()],
        **fields,
    )


@pytest.fixture
def calls(monkeypatch):
    """Counts of the three calls a miss makes."""
    counts = {"graph": 0, "run": 0, "digest": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        engine, "workload_graph", counting("graph", engine.workload_graph)
    )
    monkeypatch.setattr(
        engine, "trace_digest", counting("digest", engine.trace_digest)
    )
    monkeypatch.setattr(Workload, "run", counting("run", Workload.run))
    return counts


def _results(payload):
    return {
        label: json.dumps(entry["payload"], sort_keys=True)
        for label, entry in payload["modes"].items()
    }


def test_a_second_spec_of_one_workload_reuses_its_trace(calls):
    first = execute_spec(_spec(), _CONFIG)
    assert calls == {"graph": 1, "run": 1, "digest": 1}
    assert first["trace_reused"] is False
    other = _spec(modes=[SystemConfig.upei(), SystemConfig.graphpim()])
    again = execute_spec(other, _CONFIG)
    assert calls == {"graph": 1, "run": 1, "digest": 1}
    assert again["trace_reused"] is True
    assert again["run"] is first["run"]
    assert again["run"].trace.columnar() is first["run"].trace.columnar()
    # The same bytes as a capture of its own.
    clear_trace_memo()
    fresh = execute_spec(other, _CONFIG)
    assert fresh["trace_reused"] is False
    assert again["trace_hash"] == fresh["trace_hash"] == first["trace_hash"]
    assert _results(again) == _results(fresh)


@pytest.mark.parametrize(
    "change",
    [
        {"workload": "SSSP"},
        {"scale": "small"},
        {"num_threads": 8},
        {"plain_atomics": True},
        {"params": {"root": 3}},
    ],
    ids=lambda change: next(iter(change)),
)
def test_each_identity_field_misses(calls, change):
    base = _spec(params={"root": 2})
    execute_spec(base, RunnerConfig(parallel=False, cache_dir=None))
    fields = {
        "workload": "BFS",
        "scale": "tiny",
        "num_threads": 16,
        "plain_atomics": False,
        "params": {"root": 2},
    }
    fields.update(change)
    other = _spec(fields.pop("workload"), **fields)
    assert engine.trace_identity(other) != engine.trace_identity(base)
    payload = execute_spec(other, RunnerConfig(parallel=False, cache_dir=None))
    assert payload["trace_reused"] is False
    assert calls == {"graph": 2, "run": 2, "digest": 2}


def test_a_parameter_of_another_type_misses():
    assert engine.trace_identity(
        _spec(params={"root": 2})
    ) != engine.trace_identity(_spec(params={"root": 2.0}))


def test_the_byte_bound_evicts_the_least_recently_used(monkeypatch, calls):
    config = RunnerConfig(parallel=False, cache_dir=None)
    nbytes = {}
    for workload in ("BFS", "DC"):
        payload = execute_spec(_spec(workload), config)
        nbytes[workload] = payload["run"].trace.columnar().nbytes
    clear_trace_memo()
    # Room for BFS and DC, not for a third trace as well.
    monkeypatch.setattr(
        engine, "TRACE_MEMO_BYTES", nbytes["BFS"] + nbytes["DC"]
    )
    for workload in ("BFS", "DC", "BFS", "kCore", "BFS", "DC"):
        execute_spec(_spec(workload, modes=[SystemConfig.upei()]), config)
    # BFS, DC, a BFS hit, kCore (evicts DC, the least recently used),
    # a BFS hit, DC again.
    assert calls["run"] == 2 + 4
    # A trace over the bound is not kept.
    monkeypatch.setattr(engine, "TRACE_MEMO_BYTES", nbytes["BFS"] - 1)
    clear_trace_memo()
    for _ in range(2):
        payload = execute_spec(_spec(), config)
        assert payload["trace_reused"] is False


def test_a_hit_runs_the_preflight_under_its_own_config():
    """PRank records FP_ADD atomics: a GraphPIM without the FP
    extension fails the strict pre-flight even when the trace came
    from the memo."""
    clear_preflight_cache()
    execute_spec(_spec("PRank"), _CONFIG)
    no_fp = _spec(
        "PRank",
        modes=[SystemConfig.baseline(), SystemConfig.graphpim(fp_extension=False)],
    )
    with pytest.raises(AnalysisError):
        execute_spec(no_fp, _CONFIG)
    # The trace itself was kept: a relaxed run of the spec reuses it.
    relaxed = execute_spec(no_fp, RunnerConfig(parallel=False, cache_dir=None))
    assert relaxed["trace_reused"] is True


def test_two_threads_asking_for_one_identity_both_succeed():
    start = threading.Barrier(2)
    payloads = [None, None]

    def job(index):
        start.wait()
        payloads[index] = execute_spec(
            _spec(modes=[SystemConfig.graphpim()]),
            RunnerConfig(parallel=False, cache_dir=None),
        )

    workers = [threading.Thread(target=job, args=(i,)) for i in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert all(payload is not None for payload in payloads)
    assert payloads[0]["trace_hash"] == payloads[1]["trace_hash"]
    assert _results(payloads[0]) == _results(payloads[1])
    third = execute_spec(
        _spec(modes=[SystemConfig.upei()]),
        RunnerConfig(parallel=False, cache_dir=None),
    )
    assert third["trace_reused"] is True


def test_the_graph_of_a_kept_trace_is_the_one_a_miss_builds():
    """The memo keys on the scale because ``workload_graph`` is seeded:
    two builds of one (workload, scale) are the same graph."""
    a, b = workload_graph("BFS", "tiny"), workload_graph("BFS", "tiny")
    assert a.row_offsets.tobytes() == b.row_offsets.tobytes()
    assert a.columns.tobytes() == b.columns.tobytes()
