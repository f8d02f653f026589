"""Trace-capture throughput: decide-then-emit blocks vs per-event calls.

Captures each Figure 7 workload on its scale-default input (16
threads, bench parameters) twice: through the per-event reference
(:mod:`repro.workloads.reference`, one framework call per event) and
through the registered workload (one call per group of threads and
step, one row block per thread).  Asserts the block path clears its
speedup floor over the eight and records the numbers in
``BENCH_capture.json`` at the repo root, one record per scale: ``small``
and ``tiny``, the scale the served and faultsweep benchmarks capture
at.

Every measurement is best-of-N (the box's timing noise is ~3x); the
committed guard is on the *ratio* between the two captures, so absolute
machine speed cancels.

Regenerate a scale's committed record with::

    REPRO_WRITE_BENCH=1 REPRO_SCALE=small python -m pytest benchmarks/test_capture_bench.py

The digest assertion (equal ``trace_digest`` and bit-equal functional
outputs from both captures, every workload) runs unconditionally: a
fast wrong trace must fail here too, not just in the unit suite.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.presets import resolve_scale, workload_graph, workload_params
from repro.trace.io import trace_digest
from repro.workloads.reference import reference_workload
from repro.workloads.registry import FIGURE7_CODES, get_workload

#: Required speedup of block capture over per-event capture, summed
#: over the eight workloads.
MIN_SPEEDUP = 4.5

#: Best-of-N rounds per capture path and workload.
ROUNDS = 3

_BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_capture.json"


def _best_of(fn, rounds=ROUNDS):
    best = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _assert_same_capture(code, reference, block):
    assert trace_digest(block.trace) == trace_digest(reference.trace), (
        f"{code}: block capture recorded a different trace"
    )
    assert block.outputs.keys() == reference.outputs.keys()
    for key, value in reference.outputs.items():
        other = block.outputs[key]
        if isinstance(value, np.ndarray):
            assert value.dtype == other.dtype and value.tobytes() == (
                other.tobytes()
            ), f"{code}: output {key!r} differs"
        else:
            assert value == other, f"{code}: output {key!r} differs"


def test_capture_throughput(benchmark):
    scale = resolve_scale()

    def measure():
        per_workload = {}
        for code in FIGURE7_CODES:
            graph = workload_graph(code, scale)
            params = workload_params(code)
            reference_s, reference = _best_of(
                lambda: reference_workload(code).run(
                    graph, num_threads=16, **params
                )
            )
            block_s, block = _best_of(
                lambda: get_workload(code).run(graph, num_threads=16, **params)
            )
            _assert_same_capture(code, reference, block)
            per_workload[code] = {
                "events": block.trace.num_events,
                "reference_s": reference_s,
                "block_s": block_s,
            }
        return per_workload

    per_workload = benchmark.pedantic(measure, rounds=1, iterations=1)

    record = {"num_threads": 16, "rounds": ROUNDS}
    reference_total = 0.0
    block_total = 0.0
    events_total = 0
    for code, t in per_workload.items():
        reference_total += t["reference_s"]
        block_total += t["block_s"]
        events_total += t["events"]
        record[code] = {
            "events": t["events"],
            "reference_s": round(t["reference_s"], 4),
            "block_s": round(t["block_s"], 4),
            "speedup": round(t["reference_s"] / t["block_s"], 1),
        }
    speedup = reference_total / block_total
    record["combined"] = {
        "events": events_total,
        "reference_s": round(reference_total, 4),
        "block_s": round(block_total, 4),
        "reference_events_per_s": round(events_total / reference_total),
        "block_events_per_s": round(events_total / block_total),
        "speedup": round(speedup, 1),
    }

    print()
    for code in FIGURE7_CODES:
        rec = record[code]
        print(
            f"  {code:6s}: per-event {rec['reference_s']:6.3f}s  "
            f"block {rec['block_s']:6.3f}s  ({rec['speedup']:.1f}x)"
        )
    print(
        f"  {'all':6s}: {record['combined']['reference_events_per_s']:,} -> "
        f"{record['combined']['block_events_per_s']:,} events/s "
        f"({speedup:.1f}x)"
    )

    if os.environ.get("REPRO_WRITE_BENCH"):
        records = _read_bench() if _BENCH_FILE.exists() else {}
        records[scale] = record
        _BENCH_FILE.write_text(json.dumps(records, indent=2) + "\n")
        print(f"  wrote the {scale} record of {_BENCH_FILE.name}")

    # Speedup guard, only at small+ scale: tiny captures are a few
    # thousand events and measure per-step overhead.
    if scale != "tiny":
        assert speedup >= MIN_SPEEDUP, (
            f"block capture only {speedup:.1f}x over per-event capture "
            f"(floor {MIN_SPEEDUP}x)"
        )

    # Regression guard against the committed record of this scale: the
    # measured ratio must not collapse below half of what was recorded.
    if _BENCH_FILE.exists() and scale in _read_bench():
        committed = _read_bench()[scale]["combined"]["speedup"]
        assert speedup >= committed / 2, (
            f"speedup regressed: {speedup:.1f}x vs committed "
            f"{committed}x (allowed floor {committed / 2:.1f}x)"
        )


def _read_bench() -> dict:
    return json.loads(_BENCH_FILE.read_text())
