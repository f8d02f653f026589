"""Benchmark of the GraphPIM reproduction: one workload, one run.

    python3 perfbench/run.py --workload fig7-cold --seed 1 --seconds 25 --trace 0

Runs one workload through repro's public runner and service APIs from
the root of a source checkout and prints, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
separate traced run gives the per-layer ones.  See perfbench/README.md.

Maintenance options: ``--quick`` runs the tiny inputs the benchmark's
own tests use, and ``--record`` rewrites this workload's committed
digests from one pass instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from worker import READY

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
WORKLOADS = ("fig7-cold", "sweep", "faultsweep", "served")

#: Seconds one full-size batch pass takes on the 2-vCPU reference
#: machine.  A run makes ``round(seconds / PASS_SECONDS)`` whole passes
#: (at least one): the same count on every run, whatever the speed.
PASS_SECONDS = {"fig7-cold": 25.0, "sweep": 11.0, "faultsweep": 15.0}
#: A served run sends ``round(seconds * SERVED_RATE)`` requests, which
#: took about ``seconds`` on the reference machine: the same count on
#: every run, whatever the speed.
SERVED_RATE = 200
#: Fresh-process set-ups (server boots for served) per end-to-end run,
#: at least.  They are spread over the run, before, between and after
#: the passes or the stream: the machine has slow spells of a few
#: seconds, and five samples taken in a row often all fell in one.
SETUP_SAMPLES = 8
#: Wall-clock budget of one run after the untimed build step.
RUN_LIMIT_S = 170

END_TO_END = {
    "events_per_s": "1/s",
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "miss_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graph.build_s": "s",
    "workloads.run_s": "s",
    "workloads.events": "count",
    "trace.digest_s": "s",
    "trace.encode_s": "s",
    "trace.encodes_per_trace": "ratio",
    "analysis.preflight_s": "s",
    "sim.simulate_s": "s",
    "sim.ns_per_event": "ns",
    "sim.modes": "count",
    "sim.engine_fallbacks": "count",
    "sim.cycles": "cycles",
    "hmc.flits": "count",
    "hmc.retransmitted_flits": "count",
    "hmc.reissued_requests": "count",
    "runner.self_s": "s",
    "runner.cache_get_s": "s",
    "runner.cache_put_s": "s",
    "runner.simulations": "count",
    "service.submit_s": "s",
    "service.wait_s": "s",
    "service.fetch_s": "s",
    "service.client_s": "s",
    "service.submit_ms": "ms",
    "service.execute_ms": "ms",
    "service.miss_overhead_ms": "ms",
    "service.outcomes.accepted": "count",
    "service.outcomes.duplicate": "count",
    "service.outcomes.cache_hit": "count",
    "service.outcomes.coalesced": "count",
    "service.outcomes.rejected": "count",
    "service.hit_ratio": "ratio",
    "tracing.wall_s": "s",
    "tracing.uncovered_s": "s",
    "tracing.overhead_pct": "%",
}


class RunAborted(Exception):
    """The run outlived its budget or was told to stop."""


def _abort(signum, _frame):
    raise RunAborted(f"stopped by {signal.Signals(signum).name}")


def pin_to_one_cpu() -> None:
    """Run this process and every child on the last allowed CPU.

    The served client and server then hand each request over on one
    CPU.  Unpinned on a 2-vCPU machine, a request's latency depends on
    whether the other vCPU had to be woken, which doubled p90 in some
    runs and not in others.  Batch passes are single-threaded, so the
    pin costs them nothing.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env(work: Path) -> dict:
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # A fixed string hash gives every run the same set iteration order.
    env.update(PYTHONPATH=str(SRC), TMPDIR=str(tmp), PYTHONHASHSEED="0")
    return env


def worker(step: str, *args: str) -> "list[str]":
    return [sys.executable, str(HERE / "worker.py"), step, *args]


def run_child(cmd, env, out: "Path | None" = None) -> "dict | None":
    """Run one child to completion; its JSON result when ``out`` is set."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"{' '.join(cmd[1:4])} exited with {code}")
    return json.loads(out.read_text()) if out is not None else None


def setup_sample(cmd, env) -> float:
    """Seconds from process start to the child's ready line."""
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or line.strip() != READY:
        raise RuntimeError(f"set-up child exited with {code}")
    return elapsed


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method); the median for q=50."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def batch_pass(args, env, work: Path, index: int, trace: bool) -> dict:
    cache = work / f"cache-{index}"
    out = work / f"pass-{index}.json"
    cmd = worker(
        "pass", args.workload, "--cache-dir", str(cache), "--out", str(out),
        *(["--quick"] if args.quick else []),
        *(["--trace"] if trace else []),
    )
    try:
        return run_child(cmd, env, out)
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def check_modes(passes, digests) -> "tuple[int, int]":
    """(attempted, failed) over every mode of every pass."""
    attempted = failed = 0
    for result in passes:
        for mode in result["modes"]:
            attempted += 1
            if mode["cached"] or mode["digest"] != digests.get(mode["key"]):
                failed += 1
    return attempted, failed


def layer_metrics(trace: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass or stream.

    Every ``*_s`` layer metric is a self time, so together with
    ``tracing.uncovered_s`` they add up to ``tracing.wall_s``.
    """
    import spans

    self_s, covered = spans.self_times(trace["spans"])
    counters = trace["counters"]
    sim_events = counters.get("sim.events", 0)
    simulate_s = self_s.get("sim.simulate", 0.0)
    runs = counters.get("workloads.runs", 0)
    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics.update({
        "graph.build_s": self_s.get("graph.build", 0.0),
        "workloads.run_s": self_s.get("workloads.run", 0.0),
        "workloads.events": counters.get("workloads.events", 0),
        "trace.digest_s": self_s.get("trace.digest", 0.0),
        "trace.encode_s": self_s.get("trace.encode", 0.0),
        "trace.encodes_per_trace": (
            counters.get("trace.encodes", 0) / runs if runs else 0.0
        ),
        "analysis.preflight_s": self_s.get("analysis.preflight", 0.0),
        "sim.simulate_s": simulate_s,
        "sim.ns_per_event": (
            simulate_s * 1e9 / sim_events if sim_events else 0.0
        ),
        "runner.self_s": self_s.get("runner.run", 0.0)
        + self_s.get("runner.execute_spec", 0.0),
        "runner.cache_get_s": self_s.get("runner.cache_get", 0.0),
        "runner.cache_put_s": self_s.get("runner.cache_put", 0.0),
        "service.submit_s": self_s.get("service.submit", 0.0),
        "service.wait_s": self_s.get("service.wait", 0.0),
        "service.fetch_s": self_s.get("service.fetch", 0.0),
        "service.client_s": self_s.get("served.request", 0.0),
    })
    for name in ("sim.modes", "sim.engine_fallbacks", "sim.cycles",
                 "hmc.flits", "hmc.retransmitted_flits",
                 "hmc.reissued_requests", "runner.simulations"):
        metrics[name] = counters.get(name, 0)
    overhead = trace["overhead_s"]
    metrics["tracing.wall_s"] = wall_s
    metrics["tracing.uncovered_s"] = wall_s - covered
    metrics["tracing.overhead_pct"] = 100.0 * overhead / (wall_s - overhead)
    return metrics


def run_batch(args, env, work: Path, digests: dict) -> dict:
    if args.trace:
        result = batch_pass(args, env, work, 0, trace=True)
        attempted, failed = check_modes([result], digests)
        metrics = layer_metrics(result["trace"], result["wall_s"])
        return _report(attempted, failed, metrics, PER_LAYER)
    setup = worker("setup", args.workload, *(["--quick"] if args.quick else []))
    total = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    per_gap = -(-SETUP_SAMPLES // (total + 1))

    def setups_in_gap():
        return [speed.bracketed(lambda: setup_sample(setup, env))
                for _ in range(per_gap)]

    setups = setups_in_gap()
    passes = []
    for index in range(total):
        passes.append(batch_pass(args, env, work, index, trace=False))
        setups += setups_in_gap()
    attempted, failed = check_modes(passes, digests)
    log_measured(
        passes=[(r["wall_s"], r["reference_s"] / r["wall_s"]) for r in passes],
        setups=setups,
    )
    # A batch request is one pass: one ExperimentRunner.run call over the
    # whole job list.  A median over the jobs of a pass hangs on its two
    # middle jobs, and spread by 0.36 over ten fig7-cold runs.
    passes_s = [r["reference_s"] for r in passes]
    passes_ms = [1000.0 * seconds for seconds in passes_s]
    wall = sum(passes_s)
    metrics = {
        "events_per_s": sum(r["simulated_events"] for r in passes) / wall,
        "requests_per_s": len(passes) / wall,
        "request_p50_ms": percentile(passes_ms, 50),
        "request_p90_ms": percentile(passes_ms, 90),
        # A cold cache: every pass simulates, so every one misses.
        "miss_p50_ms": percentile(passes_ms, 50),
        "setup_s": statistics.median(
            seconds * scale for seconds, scale in setups
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }
    return _report(attempted, failed, metrics, END_TO_END)


def run_served(args, env, work: Path, digests: dict, events: dict) -> dict:
    sys.path.insert(0, str(SRC))
    import grids
    import served
    import spans

    catalog = grids.served_catalog(args.quick)
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    out = served.Stream()
    # The stream boots two servers; the other boots come before and after.
    boots = (SETUP_SAMPLES - 2) // 2
    if not args.trace:
        served.boot_samples(boots, work, env, ROOT, out)
    count = max(2 * len(catalog), round(args.seconds * SERVED_RATE))
    served.stream(
        catalog, digests, events, tracer, seed=args.seed, count=count,
        work=work, env=env, cwd=ROOT, out=out,
    )
    if not args.trace:
        served.boot_samples(boots, work, env, ROOT, out)
    if not out.miss_s:
        raise RuntimeError("no served request executed a simulation")
    for line in out.errors[:10]:
        print(f"perfbench: {line}", file=sys.stderr)
    failed = len(out.errors)
    requests_ms = [1000.0 * s for s in out.hit_s + out.miss_s]
    miss_ms = [1000.0 * s for s in out.miss_s]
    if args.trace:
        trace = tracer.dump()
        metrics = layer_metrics(trace, out.wall_s)
        submits = [1000.0 * (end - start) for name, start, end, *_ in
                   trace["spans"] if name == "service.submit"]
        execute_ms = (
            1000.0 * out.execute_sum_s / out.execute_count
            if out.execute_count else 0.0
        )
        metrics.update({
            "service.submit_ms": statistics.median(submits),
            "service.execute_ms": execute_ms,
            "service.miss_overhead_ms": (
                statistics.fmean(miss_ms) - execute_ms if miss_ms else 0.0
            ),
            "service.hit_ratio": len(out.hit_s) / max(1, len(requests_ms)),
        })
        for outcome, count in out.outcomes.items():
            metrics[f"service.outcomes.{outcome}"] = count
        return _report(out.attempted, failed, metrics, PER_LAYER)
    # Each request is scaled by the samples taken just before it (see
    # served.Client.run), each boot by the samples right before it.
    log_measured(stream=[(out.wall_s, out.wall_reference_s / out.wall_s)],
                 boots=out.boots)
    requests_ms = [
        ms * scale for ms, scale in
        zip(requests_ms, out.hit_factor + out.miss_factor)
    ]
    miss_ms = [ms * scale for ms, scale in zip(miss_ms, out.miss_factor)]
    metrics = {
        "events_per_s": out.miss_events / (sum(miss_ms) / 1000.0),
        "requests_per_s": len(requests_ms) / out.wall_reference_s,
        "request_p50_ms": percentile(requests_ms, 50),
        "request_p90_ms": percentile(requests_ms, 90),
        "miss_p50_ms": percentile(miss_ms, 50),
        "setup_s": statistics.median(
            seconds * factor for seconds, factor in out.boots
        ),
        "peak_rss_mb": out.peak_rss_mb,
    }
    return _report(out.attempted, failed, metrics, END_TO_END)


def log_measured(**timed) -> None:
    """Timings as measured, each with its host-speed factor, to stderr."""
    for name, pairs in timed.items():
        shown = [[round(seconds, 6), round(scale, 4)]
                 for seconds, scale in pairs]
        print(f"perfbench: {name} as measured [seconds, host-speed factor]: "
              f"{json.dumps(shown)}", file=sys.stderr)


def _report(attempted: int, failed: int, metrics: dict, units: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def record(args, env, work: Path) -> None:
    """Rewrite this workload's committed digests from one pass."""
    result = batch_pass(args, env, work, 0, trace=False)
    if result["failures"] or any(m["digest"] is None for m in result["modes"]):
        raise RuntimeError(f"not recording a failed pass: {result['failures']}")
    size = "quick" if args.quick else "full"
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    section = data.setdefault(size, {})
    section.setdefault("digests", {})[args.workload] = {
        mode["key"]: mode["digest"] for mode in result["modes"]
    }
    if args.workload == "served":
        section["events"] = result["events"]
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--record", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        env = child_env(work)
        signal.signal(signal.SIGTERM, _abort)
        run_child(worker("prepare"), env)
        signal.signal(signal.SIGALRM, _abort)
        signal.alarm(RUN_LIMIT_S)
        if args.record:
            record(args, env, work)
            return 0
        reference = json.loads(DIGESTS.read_text())[
            "quick" if args.quick else "full"
        ]
        digests = reference["digests"][args.workload]
        if args.workload == "served":
            result = run_served(args, env, work, digests, reference["events"])
        else:
            result = run_batch(args, env, work, digests)
        signal.alarm(0)
    except (RuntimeError, RunAborted, OSError, KeyError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
