"""Trace memory: bytes each Figure 7 trace holds per event once frozen,
the memory its capture peaks at, the memory its strict pre-flight
adds, and the resident memory the freeze adds.

Runs each Figure 7 spec of the scale's evaluation grid as a strict job
(pre-flight plus the three modes, no result cache) and records, per
trace, the bytes its narrow columns hold per event
(:attr:`ColumnarTrace.nbytes` over the event count).  After the job the
columns are the trace's only copy: no thread keeps a capture buffer.
It then records two peaks of :mod:`tracemalloc` traced memory, each
taken after a ``gc.collect()``:

- ``capture_peak_per_row_byte``: one more capture of the spec's
  workload, per byte of the int64 rows it captured (48 per event): the
  capture buffers with their growth slack plus the largest step's
  temporaries, so a change that grows those temporaries shows here.
- ``preflight_peak_per_frozen_byte``: the pre-flight's lint and race
  passes (``analyze_run`` under the spec's GraphPIM config) over the
  frozen trace, per byte of its columns.  The passes sweep the columns
  in place in C, so this is one bit per event plus the events the race
  pass's writer filter keeps; a pass that builds a per-event temporary
  over the whole trace shows here.

``bytes_per_event`` is a count and repeats exactly: at most
:data:`MAX_BYTES_PER_EVENT` for every trace, and no more than the
committed record at the recorded scale.  The two peaks are counts too
but do not repeat exactly across fresh processes (see
:data:`PEAK_SLACK`), so each is guarded against its record plus that
relative slack.

The ``tracemalloc`` figures cannot see pages the C allocator keeps
after a free, so the freeze is guarded on resident memory as well
(:func:`test_freeze_resident_rise`): one fresh child process captures
BC on :data:`FREEZE_VERTICES` vertices with 16 threads and reads its
``VmHWM`` after the capture and after ``Trace.columnar()``.  The
freeze hands each thread's freed pages back as it copies the thread,
so it may raise the high-water mark by at most
:data:`FREEZE_RISE_THREADS` threads' shares of the frozen bytes; with
the pages kept, it rose by all of them.  That case does not depend on
``REPRO_SCALE``, and is skipped where ``/proc/self/status`` has no
``VmHWM``.

Regenerate the committed record with::

    REPRO_WRITE_BENCH=1 python -m pytest benchmarks/test_trace_memory_bench.py
"""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.analysis import analyze_run, clear_preflight_cache
from repro.core.presets import resolve_scale, workload_graph
from repro.runner import RunnerConfig, evaluation_grid_specs, execute_spec
from repro.sim.config import Mode, SystemConfig
from repro.workloads.registry import get_workload

#: Ceiling on the bytes a frozen trace holds per event (the int64 row
#: it replaces is 48 B).
MAX_BYTES_PER_EVENT = 16.0

_COLUMNS = ("kind", "addr", "size", "gap", "op", "ret")

_ROOT = Path(__file__).resolve().parent.parent
_BENCH_FILE = _ROOT / "BENCH_memory.json"

#: Vertices of the LDBC-like graph the freeze's resident-memory case
#: captures BC on: about 3M events and 39 MB of frozen columns.
FREEZE_VERTICES = 8000

#: Threads' shares of the frozen bytes the freeze may add to the
#: process's high-water mark: the thread being copied, plus slack for
#: the allocator.
FREEZE_RISE_THREADS = 2

#: The child of the freeze case, given the vertex count: prints its
#: VmHWM after capture and after the freeze, and the frozen bytes, as
#: one JSON object.
_FREEZE_CHILD = """
import json, sys
from repro.core.presets import workload_params
from repro.graph.generators import ldbc_like_graph
from repro.workloads.registry import get_workload

def vmhwm():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024

run = get_workload("BC").run(
    ldbc_like_graph(int(sys.argv[1])), num_threads=16,
    **workload_params("BC"),
)
captured = vmhwm()
col = run.trace.columnar()
print(json.dumps({
    "vmhwm_after_capture": captured,
    "vmhwm_after_freeze": vmhwm(),
    "frozen_bytes": col.nbytes,
}))
"""

#: Relative slack of the two tracemalloc peaks over their record.  In
#: fresh processes at ``small`` the peaks spread by up to 0.52%: kCore's
#: capture peak read 666,942-670,423 B over ten processes (three with a
#: fixed ``PYTHONHASHSEED`` still spread 668,063-669,479 B), its figure
#: 0.444 or 0.445 against one record, and its pre-flight peak
#: 396,891-397,894 B over five (0.25%).
PEAK_SLACK = 0.01

#: Per-trace figures the committed record bounds from above, with each
#: one's relative slack.
_GUARDED = {
    "bytes_per_event": 0.0,
    "capture_peak_per_row_byte": PEAK_SLACK,
    "preflight_peak_per_frozen_byte": PEAK_SLACK,
}


def _capture_peak_per_row_byte(spec) -> float:
    """Peak traced memory of one capture of ``spec``'s workload over
    the bytes of the int64 rows it recorded."""
    graph = workload_graph(spec.workload, spec.scale)
    # Collect first, so no earlier garbage is freed inside the window.
    gc.collect()
    tracemalloc.start()
    try:
        run = get_workload(spec.workload).run(
            graph,
            num_threads=spec.num_threads,
            plain_atomics=spec.plain_atomics,
            **spec.params_dict(),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (48 * run.trace.num_events)


def _preflight_peak_per_frozen_byte(spec, run) -> float:
    """Peak traced memory of the pre-flight's passes over ``run``'s
    frozen trace, under the spec's GraphPIM config, over the bytes of
    its columns."""
    config = next(
        (c for c in spec.modes if c.mode is Mode.GRAPHPIM),
        SystemConfig.graphpim(),
    )
    gc.collect()
    tracemalloc.start()
    try:
        analyze_run(run, config=config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / run.trace.columnar().nbytes


def _has_vmhwm() -> bool:
    try:
        with open("/proc/self/status") as status:
            return any(line.startswith("VmHWM:") for line in status)
    except OSError:
        return False


def _write_record(update: dict) -> None:
    """Merge ``update`` into the committed record, when asked to."""
    if not os.environ.get("REPRO_WRITE_BENCH"):
        return
    record = (
        json.loads(_BENCH_FILE.read_text()) if _BENCH_FILE.exists() else {}
    )
    record.update(update)
    _BENCH_FILE.write_text(json.dumps(record, indent=2) + "\n")
    print(f"  wrote {_BENCH_FILE.name}")


def test_trace_memory_per_event():
    scale = resolve_scale()
    clear_preflight_cache()
    config = RunnerConfig(parallel=False, cache_dir=None, strict=True)
    record = {"scale": scale, "num_threads": 16}
    events_total = 0
    bytes_total = 0
    for spec in evaluation_grid_specs(scale):
        run = execute_spec(spec, config)["run"]
        trace = run.trace
        assert all(thread.frozen for thread in trace.threads), (
            f"{spec.workload}: a thread kept its capture buffer"
        )
        col = trace.columnar()
        events_total += col.num_events
        bytes_total += col.nbytes
        record[spec.workload] = {
            "events": col.num_events,
            "bytes": col.nbytes,
            "bytes_per_event": round(col.nbytes / col.num_events, 3),
            "types": {c: getattr(col, c).dtype.name for c in _COLUMNS},
            "capture_peak_per_row_byte": round(
                _capture_peak_per_row_byte(spec), 3
            ),
            "preflight_peak_per_frozen_byte": round(
                _preflight_peak_per_frozen_byte(spec, run), 3
            ),
        }
    record["combined"] = {
        "events": events_total,
        "bytes": bytes_total,
        "bytes_per_event": round(bytes_total / events_total, 3),
    }

    print()
    for code, rec in record.items():
        if isinstance(rec, dict) and "bytes_per_event" in rec:
            print(
                f"  {code:8s}: {rec['events']:>9,} events  "
                f"{rec['bytes_per_event']:6.3f} B/event  capture peak "
                f"{rec.get('capture_peak_per_row_byte', '-')}x rows  "
                f"pre-flight peak "
                f"{rec.get('preflight_peak_per_frozen_byte', '-')}x frozen"
            )
    _write_record(record)

    for code, rec in record.items():
        if isinstance(rec, dict) and "bytes_per_event" in rec:
            assert rec["bytes_per_event"] <= MAX_BYTES_PER_EVENT, (
                f"{code}: {rec['bytes_per_event']} B per event "
                f"(ceiling {MAX_BYTES_PER_EVENT})"
            )
    if _BENCH_FILE.exists():
        committed = json.loads(_BENCH_FILE.read_text())
        if committed.get("scale") == scale:
            for code, rec in record.items():
                if not (isinstance(rec, dict) and code in committed):
                    continue
                for figure, slack in _GUARDED.items():
                    if figure in rec and figure in committed[code]:
                        bound = committed[code][figure] * (1 + slack)
                        assert rec[figure] <= bound, (
                            f"{code}: {figure} {rec[figure]} over the "
                            f"recorded {committed[code][figure]} "
                            f"(slack {slack:.0%})"
                        )


@pytest.mark.skipif(not _has_vmhwm(), reason="no VmHWM in /proc/self/status")
def test_freeze_resident_rise():
    env = dict(os.environ)
    src = str(_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.run(
        [sys.executable, "-c", _FREEZE_CHILD, str(FREEZE_VERTICES)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    rec = json.loads(child.stdout.splitlines()[-1])
    frozen = rec["frozen_bytes"]
    rise = rec["vmhwm_after_freeze"] - rec["vmhwm_after_capture"]
    bound = FREEZE_RISE_THREADS * frozen / 16
    rec["rise_per_frozen_byte"] = round(rise / frozen, 3)

    print()
    print(
        f"  BC on {FREEZE_VERTICES:,} vertices: {frozen / 1e6:.1f} MB frozen, "
        f"VmHWM {rec['vmhwm_after_capture'] / 1e6:.1f} -> "
        f"{rec['vmhwm_after_freeze'] / 1e6:.1f} MB across the freeze"
    )
    _write_record(
        {
            "freeze_vmhwm": {
                "workload": "BC",
                "vertices": FREEZE_VERTICES,
                "num_threads": 16,
                **rec,
            }
        }
    )
    assert rise <= bound, (
        f"the freeze raised VmHWM by {rise / 1e6:.1f} MB, over "
        f"{FREEZE_RISE_THREADS} threads' shares of the "
        f"{frozen / 1e6:.1f} MB frozen ({bound / 1e6:.1f} MB)"
    )
