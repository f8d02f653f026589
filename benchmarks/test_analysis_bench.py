"""Analysis-engine throughput: vectorized passes vs legacy oracles.

Measures lint and race-detection events/sec for both engines on two
standard traces (scale-default graph, 16 threads): BC, the biggest
event stream the evaluation grid produces, and CComp, the most
CAS-heavy one, which loads the race pass's lock-word step.  Asserts
the vectorized engine clears its speedup floor on each and records the
numbers in ``BENCH_analysis.json`` at the repo root, one entry per
workload.

The box this runs on is noisy and memory-bandwidth-poor, so every
measurement is best-of-N; the committed guard is on the *ratio* between
the two engines (noise cancels — both engines slow down together), not
on absolute events/sec.

Regenerate the committed record with::

    REPRO_WRITE_BENCH=1 python -m pytest benchmarks/test_analysis_bench.py

The equivalence assertion (identical findings from both engines) runs
unconditionally: a fast wrong answer must fail here too, not just in
the unit suite.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.presets import resolve_scale, workload_graph, workload_params
from repro.sim.config import SystemConfig
from repro.trace.columnar import ColumnarTrace
from repro.workloads.registry import get_workload
from repro.analysis.race import detect_races
from repro.analysis.trace_lint import lint_trace
from repro.analysis.passes import detect_races_columnar, lint_columnar

#: Required combined (lint+race) speedup of vectorized over legacy on
#: each benchmarked trace (see BENCH_analysis.json for the headroom).
MIN_SPEEDUP = 10.0

#: The largest trace, and the most CAS-heavy one.
WORKLOADS = ("BC", "CComp")

#: Best-of-N rounds per engine (the box's timing noise is ~3x).
ROUNDS = 3

_BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_analysis.json"


def _best_of(fn, rounds=ROUNDS):
    best = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _findings(report):
    return [
        (f.rule_id, f.severity, f.message, f.thread_id, f.event_index)
        for f in report.findings
    ]


@pytest.mark.parametrize("code", WORKLOADS)
def test_analysis_engine_throughput(benchmark, code):
    scale = resolve_scale()
    graph = workload_graph(code, scale)
    run = get_workload(code).run(
        graph, num_threads=16, **workload_params(code)
    )
    config = SystemConfig.graphpim()
    events = run.trace.num_events

    def measure():
        col = ColumnarTrace.from_events(run.trace)
        lint_legacy_s, lint_legacy = _best_of(
            lambda: lint_trace(
                run.trace, config, address_space=run.address_space
            )
        )
        lint_vec_s, lint_vec = _best_of(
            lambda: lint_columnar(col, config, run.address_space)
        )
        race_legacy_s, race_legacy = _best_of(
            lambda: detect_races(run.trace)
        )
        race_vec_s, race_vec = _best_of(
            lambda: detect_races_columnar(col)
        )
        assert race_vec is not None, f"race guard tripped on {code}"
        assert _findings(lint_legacy) == _findings(lint_vec)
        assert _findings(race_legacy) == _findings(race_vec)
        return {
            "lint": {"legacy_s": lint_legacy_s, "vectorized_s": lint_vec_s},
            "race": {"legacy_s": race_legacy_s, "vectorized_s": race_vec_s},
        }

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)

    record: dict = {"num_events": events}
    legacy_total = 0.0
    vec_total = 0.0
    for pass_name, t in timings.items():
        legacy_s, vec_s = t["legacy_s"], t["vectorized_s"]
        legacy_total += legacy_s
        vec_total += vec_s
        record[pass_name] = {
            "legacy_s": round(legacy_s, 4),
            "vectorized_s": round(vec_s, 4),
            "legacy_events_per_s": round(events / legacy_s),
            "vectorized_events_per_s": round(events / vec_s),
            "speedup": round(legacy_s / vec_s, 1),
        }
    speedup = legacy_total / vec_total
    record["combined"] = {
        "legacy_events_per_s": round(events / legacy_total),
        "vectorized_events_per_s": round(events / vec_total),
        "speedup": round(speedup, 1),
    }

    print(f"\n  {code}:")
    for pass_name in ("lint", "race"):
        entry = record[pass_name]
        print(
            f"  {pass_name}: legacy {entry['legacy_s'] * 1e3:7.1f}ms  "
            f"vectorized {entry['vectorized_s'] * 1e3:6.1f}ms  "
            f"({entry['speedup']:.1f}x)"
        )
    print(
        f"  combined: {record['combined']['legacy_events_per_s']:,} -> "
        f"{record['combined']['vectorized_events_per_s']:,} events/s "
        f"({speedup:.1f}x, {events:,} events)"
    )

    committed = _read_bench()
    if committed.get("scale") != scale:
        committed = {}

    if os.environ.get("REPRO_WRITE_BENCH"):
        # Each workload rewrites its own entry; the others carry over
        # when they were recorded at the same scale.
        written = {
            "scale": scale,
            "num_threads": 16,
            "rounds": ROUNDS,
            **{c: committed[c] for c in WORKLOADS if c in committed},
            code: record,
        }
        _BENCH_FILE.write_text(json.dumps(written, indent=2) + "\n")
        print(f"  wrote {code} to {_BENCH_FILE.name}")

    # Speedup guard — the tentpole's reason to exist.  Only enforced at
    # small+ scale: tiny traces amortize nothing and measure overhead.
    if scale != "tiny":
        assert speedup >= MIN_SPEEDUP, (
            f"{code}: vectorized engine only {speedup:.1f}x over legacy "
            f"(floor {MIN_SPEEDUP}x)"
        )

    # Regression guard against the committed record: the measured ratio
    # must not collapse below half of what was recorded (ratio-based,
    # so machine-to-machine absolute throughput differences cancel).
    if code in committed:
        recorded = committed[code]["combined"]["speedup"]
        assert speedup >= recorded / 2, (
            f"{code}: speedup regressed: {speedup:.1f}x vs committed "
            f"{recorded}x (allowed floor {recorded / 2:.1f}x)"
        )


def _read_bench() -> dict:
    if not _BENCH_FILE.exists():
        return {}
    return json.loads(_BENCH_FILE.read_text())
