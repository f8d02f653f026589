"""The benchmark's own tests, on the quick (tiny) inputs of each workload.

    python3 -m pytest perfbench -q

Each end-to-end test runs ``perfbench/run.py`` through its command line
and reads the JSON object on its last line.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402


def _bench(workload: str, trace: int, root: Path = HERE.parent) -> dict:
    """Run ``perfbench/run.py`` of the checkout at ``root``, quick inputs."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "2", "--trace", str(trace), "--quick"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@contextlib.contextmanager
def _scratch():
    """A temporary directory inside the checkout's work dir."""
    run.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path)
        try:
            run.WORK.rmdir()
        except OSError:
            pass  # a benchmark run still uses it


def _copy_benchmark(root: Path) -> Path:
    """A copy of the benchmark's files at ``root/perfbench``."""
    copy = root / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_is_printed(workload):
    result = _bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


#: Layer readings each workload was chosen for.
LAYER_EXPECTATIONS = {
    "fig7-cold": {"trace.encodes_per_trace": 2.0, "sim.engine_fallbacks": 0},
    "sweep": {"trace.encodes_per_trace": 1.0, "analysis.preflight_s": 0,
              "sim.engine_fallbacks": 0},
    "faultsweep": {"trace.encodes_per_trace": 0, "analysis.preflight_s": 0},
    "served": {"service.outcomes.rejected": 0},
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run(workload):
    result = _bench(workload, 1)
    assert result["correct"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == run.PER_LAYER
    wall = metrics["tracing.wall_s"]
    percent = metrics["tracing.overhead_pct"]
    overhead = wall * percent / (100.0 + percent)
    if workload == "served":
        # Client spans leave only the loop between requests uncovered.
        assert metrics["tracing.uncovered_s"] <= 0.05 * wall
    else:
        # The layers' self times sum to the traced wall time within the
        # tracing overhead, plus a millisecond for the calls into the
        # outermost span.  A stage outside the wrapped calls lands in
        # runner.self_s, which stays a small share.
        self_total = sum(
            value for name, value in metrics.items()
            if name.endswith("_s") and not name.startswith("tracing.")
        )
        assert wall - self_total <= overhead + 1e-3
        assert metrics["runner.self_s"] <= 0.05 * wall
    for name, value in LAYER_EXPECTATIONS[workload].items():
        assert metrics[name] == value, name
    if workload == "served":
        outcomes = sum(
            value for name, value in metrics.items()
            if name.startswith("service.outcomes.")
        )
        assert outcomes == result["attempted"]
    else:
        assert metrics["sim.modes"] == result["attempted"]
    if workload == "faultsweep":
        assert metrics["sim.engine_fallbacks"] == result["attempted"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_a_corrupted_digest_counts_as_a_failure(workload):
    reference = json.loads(run.DIGESTS.read_text())
    digests = reference["quick"]["digests"][workload]
    key = sorted(digests)[0]
    digests[key] = "0" * 64
    with _scratch() as checkout:
        copy = _copy_benchmark(checkout)
        (copy / "digests.json").write_text(json.dumps(reference))
        (checkout / "src").symlink_to(run.SRC)
        result = _bench(workload, 0, root=checkout)
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]


def test_a_missing_entry_point_fails_the_traced_run_by_name():
    targets = spans.BATCH_TARGETS + (
        ("repro.runner.engine", "ExperimentRunner.gone", "runner.gone"),
    )
    with pytest.raises(spans.TracingError, match="ExperimentRunner.gone"):
        spans.install(spans.Tracer(), targets)


def test_self_time_subtracts_children():
    tracer = spans.Tracer(clock=iter([0, 0, 1, 1, 3, 3, 4, 4]).__next__)
    outer = tracer.open("outer", job="job-1")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    self_s, covered = spans.self_times(tracer.spans)
    assert tracer.spans[inner][4] == "job-1"
    assert self_s == {"outer": 2, "inner": 2}
    assert covered == 4


def test_a_time_measured_at_half_speed_is_halved():
    import speed

    half_speed = [2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S, 1.0]
    assert speed.factor(half_speed) == 0.5
    value, scale = speed.bracketed(lambda: "measured")
    assert value == "measured" and scale > 0


def test_the_sampler_cuts_the_block_at_every_sample():
    import time

    import speed

    started = time.perf_counter()
    with speed.Sampler() as sampler:
        while time.perf_counter() < started + 5 * speed.INTERVAL_S:
            pass
    elapsed = time.perf_counter() - started
    assert len(sampler.pieces) == len(sampler.times) >= 4
    assert sampler.wall_s < elapsed - sum(sampler.times)


def test_each_piece_is_scaled_by_the_samples_around_it():
    import speed

    sampler = speed.Sampler()
    sampler.pieces = [1.0] * 6
    # The host runs at the reference speed, then at half of it.
    sampler.times = [speed.REFERENCE_S] * 3 + [2 * speed.REFERENCE_S] * 3
    assert sampler.reference_s() == 3 * 1.0 + 3 * 0.5


def test_a_process_competing_for_the_cpu_does_not_lengthen_a_sample():
    import os
    import time

    import speed

    allowed = os.sched_getaffinity(0)
    cpu = {max(allowed)}
    os.sched_setaffinity(0, cpu)
    rival = subprocess.Popen([
        sys.executable, "-c",
        f"import os\nos.sched_setaffinity(0, {cpu})\nwhile True: pass",
    ])
    try:
        time.sleep(0.2)
        samples, walls = [], []
        for _ in range(200):
            start = time.perf_counter()
            samples.append(speed.sample())
            walls.append(time.perf_counter() - start)
    finally:
        rival.kill()
        rival.wait()
        os.sched_setaffinity(0, allowed)
    # Sharing the CPU about doubles a sample's wall time, not its own.
    assert sum(samples) < 0.75 * sum(walls)


def test_without_sources_it_fails_and_prints_no_result():
    with _scratch() as bare:
        _copy_benchmark(bare)
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "served",
             "--seed", "1", "--seconds", "2", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0
    assert proc.stdout == ""
