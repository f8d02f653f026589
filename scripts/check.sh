#!/usr/bin/env bash
# CI gate: style lint, type check, a warnings-as-errors build of the C
# kernel, tier-1 tests, trace-lint (text + SARIF + baseline gating),
# analysis-engine, simulation-kernel, trace-capture, trace-memory and
# service-client benchmark smokes, the paper's result shapes at small
# scale (the figure, table, ablation and extension benchmarks),
# examples/reproduce_all.py at tiny (pool against in-process),
# simulation-kernel equivalence (kernel grid and FU ladders against the
# reference, diffed JSON),
# fault-injection smoke runs, chaos smokes (kill a worker on its first
# job, kill one after it sent a traced run, freeze one into a hang;
# assert bit-identical recovery and no shared memory segments),
# observability smoke, an end-to-end smoke of the simulation service
# (boot, submit, SIGTERM drain), a fleet smoke (two pull-workers,
# one SIGKILLed mid-lease, bit-identical redispatch), and the
# benchmark's own tests (quick-input SimResult digests, served restart).
#
# ruff and mypy run as hard failures when installed.  The offline test
# image ships without them, so by default their absence only prints a
# notice; set REPRO_REQUIRE_LINT=1 (full CI) to make a missing linter
# fail the gate instead of silently skipping it.
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"
export PYTHONPATH="$repo_root/src${PYTHONPATH:+:$PYTHONPATH}"

failures=0

step() {
    echo
    echo "==> $1"
}

run_or_fail() {
    if ! "$@"; then
        failures=$((failures + 1))
    fi
}

require_lint="${REPRO_REQUIRE_LINT:-}"

step "ruff (style lint)"
if python -m ruff --version >/dev/null 2>&1; then
    run_or_fail python -m ruff check src tests benchmarks examples
elif [ -n "$require_lint" ]; then
    echo "ruff not installed and REPRO_REQUIRE_LINT is set: FAILED"
    failures=$((failures + 1))
else
    echo "ruff not installed; skipping (pip install ruff)"
fi

step "mypy (type check)"
if python -m mypy --version >/dev/null 2>&1; then
    run_or_fail python -m mypy
elif [ -n "$require_lint" ]; then
    echo "mypy not installed and REPRO_REQUIRE_LINT is set: FAILED"
    failures=$((failures + 1))
else
    echo "mypy not installed; skipping (pip install mypy)"
fi

step "C kernel (compile with warnings as errors)"
# The runtime build (repro.sim._cbuild) uses the same flags minus the
# warnings; a helper the time loop stops calling fails here.
kernel_dir="$(mktemp -d)"
run_or_fail "${CC:-cc}" -O2 -ffp-contract=off -fPIC -shared \
    -Wall -Wextra -Werror -o "$kernel_dir/kernel.so" \
    src/repro/sim/_kernel.c -lm
rm -rf "$kernel_dir"

step "pytest (tier-1 tests)"
# A hung test (e.g. a wedged worker pool) should fail CI, not stall it:
# cap the whole suite well above its normal couple-of-minutes runtime.
if command -v timeout >/dev/null 2>&1; then
    run_or_fail timeout --signal=TERM 1800 python -m pytest -q tests
else
    run_or_fail python -m pytest -q tests
fi

step "repro lint (config presets)"
for preset in baseline upei graphpim; do
    run_or_fail python -m repro lint "$preset"
done

step "repro lint (generated trace)"
trace_file="$(mktemp -d)/bfs.npz"
run_or_fail python -m repro trace BFS --vertices 400 -o "$trace_file"
run_or_fail python -m repro lint "$trace_file"
rm -f "$trace_file"

step "repro lint (SARIF export + baseline gating smoke)"
lint_dir="$(mktemp -d)"
# PageRank's FP_ADD atomics fail PIM001 under --no-fp-ext: a trace
# with real ERROR findings to exercise the CI surface end to end.
run_or_fail python -m repro trace PRank --vertices 400 \
    -o "$lint_dir/prank.npz"
if python -m repro lint "$lint_dir/prank.npz" --no-fp-ext \
    --format sarif > "$lint_dir/findings.sarif"; then
    echo "sarif smoke FAILED: expected exit 1 on ERROR findings"
    failures=$((failures + 1))
elif python -c '
import json, sys
log = json.load(open(sys.argv[1]))
assert log["version"] == "2.1.0", log["version"]
run = log["runs"][0]
assert run["tool"]["driver"]["name"] == "repro-lint"
assert run["tool"]["driver"]["rules"], "no rule metadata"
results = run["results"]
assert results, "no results despite exit 1"
for result in results:
    assert result["partialFingerprints"], "missing fingerprints"
print(f"sarif smoke: {len(results)} result(s), schema-shaped")
' "$lint_dir/findings.sarif"; then
    echo "sarif smoke passed"
else
    echo "sarif smoke FAILED: output not SARIF 2.1.0 shaped"
    failures=$((failures + 1))
fi
# Freezing the findings must flip the gate green; the baseline file
# must round-trip through the strict runner pre-flight path too.
run_or_fail python -m repro lint "$lint_dir/prank.npz" --no-fp-ext \
    --write-baseline "$lint_dir/baseline.json"
if python -m repro lint "$lint_dir/prank.npz" --no-fp-ext \
    --baseline "$lint_dir/baseline.json" >/dev/null; then
    echo "baseline smoke passed (frozen findings no longer gate)"
else
    echo "baseline smoke FAILED: baselined lint still exits non-zero"
    failures=$((failures + 1))
fi
rm -rf "$lint_dir"

step "analysis engine benchmark (tiny-scale equivalence smoke)"
# Full-throughput numbers live in BENCH_analysis.json (small scale);
# here the benchmark runs at tiny scale as a fast both-engines
# equivalence check wired into every CI pass.
run_or_fail env REPRO_SCALE=tiny python -m pytest -q \
    benchmarks/test_analysis_bench.py

step "simulation kernel benchmark (tiny-scale equivalence smoke)"
# Full-throughput numbers and the >=5x floor guard live in
# BENCH_kernel.json (small scale); here the benchmark runs at tiny
# scale as a fast both-engines bit-identity check on every CI pass.
run_or_fail env REPRO_SCALE=tiny python -m pytest -q \
    benchmarks/test_kernel_bench.py

step "trace capture benchmark (tiny-scale equivalence smoke)"
# BENCH_capture.json holds a small and a tiny record; the >=4.5x floor
# guard applies at small.  Here the benchmark runs at tiny scale as a
# fast digest-identity check of block against per-event capture on
# every CI pass, and must keep half the tiny record's speedup.
run_or_fail env REPRO_SCALE=tiny python -m pytest -q \
    benchmarks/test_capture_bench.py

step "trace memory benchmark (small-scale record guards)"
# The record lives in BENCH_memory.json (small scale): per Fig. 7 trace
# of a strict grid, the bytes each frozen event holds (at most 16 B at
# any scale, and no more than the record), and the tracemalloc peaks of
# its capture and of its strict pre-flight, each within 1% of the
# record.  Those are byte counts; tracemalloc cannot see pages the C
# allocator keeps, so one more case reads a child process's VmHWM
# across the freeze of BC on 8,000 vertices (skipped without VmHWM).
run_or_fail env REPRO_SCALE=small python -m pytest -q \
    benchmarks/test_trace_memory_bench.py

step "service client benchmark (hit round trip against http.client)"
# The record lives in BENCH_client.json; here a warm served hit (submit
# then status) through ServiceClient must cost the client less CPU than
# the same bytes through a kept-alive http.client connection, and both
# transports must send identical bytes.
run_or_fail python -m pytest -q benchmarks/test_client_bench.py

step "paper result shapes (figure, table, ablation, extension at small)"
# The paper's claims as assertions: Fig. 7 ordering with the BC
# exception, Tables III/V exact, Fig. 4 ordering and the rest.  They run
# at small: tiny graphs fit the scaled LLC, the paper's own Fig. 14
# effect, so Fig. 7 fails at tiny by design.
run_or_fail env REPRO_SCALE=small python -m pytest -q --benchmark-disable \
    benchmarks/test_{fig,tab,abl,ext}*.py

step "examples/reproduce_all.py (tiny, pool against in-process)"
# Every artifact end to end, through one strict run_specs call and the
# harness memo: on the worker pool and in-process, without a result
# cache.  Both must exit 0 and render identical artifacts once the
# per-job status table and the timings are dropped.
repro_dir="$(mktemp -d)"
for jobs in 2 1; do
    run_or_fail python examples/reproduce_all.py tiny --no-cache \
        --jobs "$jobs" > "$repro_dir/jobs$jobs.txt"
done
artifacts() {
    grep -Ev '^runner: |sim=[0-9]+ hit=[0-9]+|^  \([0-9]+\.[0-9]s\)$|^Done in ' "$1"
}
if cmp -s <(artifacts "$repro_dir/jobs2.txt") \
    <(artifacts "$repro_dir/jobs1.txt"); then
    echo "reproduce_all smoke passed (pool and in-process artifacts identical)"
else
    echo "reproduce_all smoke FAILED: pool and in-process artifacts differ"
    diff <(artifacts "$repro_dir/jobs2.txt") \
        <(artifacts "$repro_dir/jobs1.txt") | head -20
    failures=$((failures + 1))
fi
rm -rf "$repro_dir"

step "simulation engines (kernel grid against the reference, diff the JSON)"
# The batch kernel must produce byte-identical reports to the per-event
# reference (simulate_reference) through the whole grid path, not just
# in unit-test harnesses, fault-free and on a lossy link (bit errors,
# dropped responses, vault stalls), where the grid run must also stay
# on the kernel.  No cache: every run must actually simulate.
engine_dir="$(mktemp -d)"
for variant in clean faults; do
    faults=""
    fault_args=()
    if [ "$variant" = faults ]; then
        faults="ber=1e-5,drop=1e-3,stall=2000:200,seed=7"
        fault_args=(--faults "$faults")
    fi
    run_or_fail python -m repro run --scale tiny --jobs 2 --no-cache \
        "${fault_args[@]}" --json > "$engine_dir/$variant.json"
    if python -c '
import json, sys
from repro.core.api import EvaluationReport
from repro.faults import FaultPlan
from repro.runner import RunnerConfig
from repro.runner.engine import evaluation_grid_specs, trace_spec
from repro.sim.system import simulate_reference

kernel = json.load(open(sys.argv[1]))
fallbacks = kernel["runner"]["engine_fallbacks"]
workloads = kernel["workloads"]
plan = FaultPlan.from_spec(sys.argv[2]) if sys.argv[2] else None
specs = evaluation_grid_specs("tiny", faults=plan)
assert workloads.keys() == {s.workload for s in specs}, "workload sets differ"
config = RunnerConfig(scale="tiny", cache_dir=None)
for spec in specs:
    run, _ = trace_spec(spec, config)
    reference = EvaluationReport(workload_code=spec.workload, run=run)
    for mode in spec.modes:
        reference.results[mode.display_name] = simulate_reference(
            run.trace, mode
        )
    blob = json.dumps(json.loads(json.dumps(reference.to_dict())), sort_keys=True)
    if blob != json.dumps(workloads[spec.workload], sort_keys=True):
        raise SystemExit(f"engine results differ for {spec.workload}")
if fallbacks:
    raise SystemExit(f"kernel run fell back {fallbacks} time(s)")
print(f"engine diff ({sys.argv[3]}): {len(specs)} workload(s) "
      "byte-identical, 0 engine fallbacks")
' "$engine_dir/$variant.json" "$faults" "$variant"; then
        echo "engine equivalence smoke passed ($variant)"
    else
        echo "engine equivalence smoke FAILED ($variant)"
        failures=$((failures + 1))
    fi
done
rm -rf "$engine_dir"

step "simulation engines (FU ladders against the reference)"
# A U-PEI or GraphPIM config that only adds integer FUs to a run in
# which no atomic waited for one is answered without the loop
# (DESIGN section 14).  Each ladder climbs 1, 2, 4, 8 and 16 FUs per
# vault through simulate in one process, fault-free and on the lossy
# link above; every rung must equal the reference byte for byte, and at
# least one rung must have been answered.
if python -c '
import json
from dataclasses import replace
from repro.core.presets import workload_params
from repro.faults import FaultPlan
from repro.runner import ExperimentSpec, RunnerConfig
from repro.runner.engine import trace_spec
from repro.sim import vectorized
from repro.sim.config import SystemConfig
from repro.sim.system import simulate, simulate_reference

loop = vectorized._simulate_columnar
runs = []
def counting(col, config):
    runs.append(config)
    return loop(col, config)
vectorized._simulate_columnar = counting

plans = (None, FaultPlan.from_spec("ber=1e-5,drop=1e-3,stall=2000:200,seed=7"))
rungs = answered = 0
for code in ("BFS", "DC", "kCore", "PRank"):
    spec = ExperimentSpec.for_workload(
        code, "tiny", modes=[SystemConfig.graphpim()],
        params=workload_params(code),
    )
    run, _ = trace_spec(spec, RunnerConfig(scale="tiny", cache_dir=None))
    for plan, link in zip(plans, ("clean", "lossy")):
        for ctor in (SystemConfig.upei, SystemConfig.graphpim):
            runs.clear()
            for fus in (1, 2, 4, 8, 16):
                config = replace(
                    ctor(faults=plan), hmc=SystemConfig().hmc.with_fus(fus)
                )
                ran = len(runs)
                blob = json.dumps(simulate(run.trace, config).to_dict())
                reference = simulate_reference(run.trace, config)
                if blob != json.dumps(reference.to_dict()):
                    raise SystemExit(
                        f"{code} {config.label} {link} {fus} FUs: "
                        "results differ"
                    )
                rungs += 1
                answered += len(runs) == ran
            print(f"{code} {config.label} {link}: "
                  f"loop ran for {len(runs)} of 5 FU counts")
if not answered:
    raise SystemExit("no FU count was answered without the loop")
print(f"FU ladders: {rungs} rungs byte-identical, {answered} answered "
      "without the loop")
'; then
    echo "FU-ladder engine diff passed"
else
    echo "FU-ladder engine diff FAILED"
    failures=$((failures + 1))
fi

step "repro run (parallel grid + result cache smoke)"
cache_dir="$(mktemp -d)/repro_cache"
run_or_fail python -m repro run --scale tiny --jobs 2 --cache-dir "$cache_dir"
# The second invocation must be served entirely from the cache.
if python -m repro run --scale tiny --jobs 2 --cache-dir "$cache_dir" --json \
    | python -c '
import json, sys
report = json.load(sys.stdin)["runner"]
sims, hits = report["simulations"], report["cache_hits"]
print(f"second run: {sims} simulation(s), {hits} cache hit(s)")
sys.exit(0 if report["all_cached"] else 1)
'; then
    echo "cache smoke passed (100% cache hits on second run)"
else
    echo "cache smoke FAILED: second run re-simulated"
    failures=$((failures + 1))
fi
rm -rf "$cache_dir"

step "repro run (fault-injection smoke)"
fault_cache="$(mktemp -d)/repro_cache"
# A lossy-link grid must still produce a complete report whose shape
# carries the resilience fields (failures list, per-job records) and
# per-workload results.
if python -m repro run --scale tiny --jobs 2 --cache-dir "$fault_cache" \
    --faults "ber=1e-6,seed=7" --allow-partial --json \
    | python -c '
import json, sys
report = json.load(sys.stdin)
runner, workloads = report["runner"], report["workloads"]
assert isinstance(runner["failures"], list), "missing failures list"
assert runner["jobs"], "missing job records"
assert workloads, "no workload reports"
for code, wl in workloads.items():
    assert wl["results"]["GraphPIM"]["cycles"] > 0, code
failed = len(runner["failures"])
print(f"fault smoke: {len(workloads)} workload(s), {failed} failure(s)")
'; then
    echo "fault-injection smoke passed"
else
    echo "fault-injection smoke FAILED"
    failures=$((failures + 1))
fi
run_or_fail python -m repro cache --cache-dir "$fault_cache" --verify
rm -rf "$fault_cache"

step "repro run (chaos smoke: kill or stall one worker, bit-identical recovery)"
# A chaos plan that kills a worker on its first job, kills one right
# after it sent a traced run (at least one worker crash: the
# re-dispatch carries that run, so the replacement skips tracing), or
# freezes one mid-job until the supervisor reads the silence as a hang
# (at least one worker crash), must still complete with zero failures
# and produce workload results byte-identical to a serial chaos-free
# run.  The pool hands traces over its pipes, so /dev/shm must hold no
# repro_* segment afterwards.
chaos_dir="$(mktemp -d)"
run_or_fail python -m repro run --scale tiny --no-parallel --no-cache \
    --json > "$chaos_dir/serial.json"
run_or_fail python -m repro run --scale tiny --jobs 2 --no-cache \
    --chaos "kill=0:0,seed=7" --json > "$chaos_dir/chaos.json"
run_or_fail python -m repro run --scale tiny --jobs 2 --no-cache \
    --chaos "kill=0:0:trace,seed=7" --json > "$chaos_dir/trace.json"
run_or_fail python -m repro run --scale tiny --jobs 2 --no-cache \
    --heartbeat-timeout 2 --chaos "stall=0:0:60,seed=7" --json \
    > "$chaos_dir/stall.json"
# "<result file> <minimum worker crashes>"
for check in "chaos 0" "trace 1" "stall 1"; do
    plan="${check% *}"
    if python -c '
import json, sys
serial = json.load(open(sys.argv[1]))
chaos = json.load(open(sys.argv[2]))
assert chaos["runner"]["failures"] == [], chaos["runner"]["failures"]
crashes = chaos["runner"]["worker_crashes"]
assert crashes >= int(sys.argv[4]), f"{crashes} worker crash(es)"
a, b = serial["workloads"], chaos["workloads"]
assert a.keys() == b.keys() and a, "workload sets differ"
for code in a:
    if a[code] != b[code]:
        raise SystemExit(f"chaos results differ for {code}")
print(f"{sys.argv[3]} diff: {len(a)} workload(s) byte-identical, "
      f"{crashes} worker crash(es) survived")
' "$chaos_dir/serial.json" "$chaos_dir/$plan.json" "$plan" "${check#* }"; then
        echo "$plan recovery smoke passed"
    else
        echo "$plan recovery smoke FAILED"
        failures=$((failures + 1))
    fi
done
if [ -d /dev/shm ]; then
    leftover="$(find /dev/shm -maxdepth 1 -name 'repro_*' | wc -l)"
    if [ "$leftover" -ne 0 ]; then
        echo "chaos smoke FAILED: $leftover leaked /dev/shm segment(s)"
        find /dev/shm -maxdepth 1 -name 'repro_*'
        failures=$((failures + 1))
    else
        echo "shared memory check passed (no repro_* segments)"
    fi
fi
rm -rf "$chaos_dir"

step "repro obs (timeline export + structured-log smoke)"
obs_dir="$(mktemp -d)"
run_or_fail python -m repro obs timeline BFS --vertices 400 \
    -o "$obs_dir/trace.json"
# The export must be structurally valid Chrome trace-event JSON.
if python -c '
import json, sys
from repro.obs import validate_trace_dict
data = json.load(open(sys.argv[1]))
validate_trace_dict(data)
count = len(data["traceEvents"])
assert count, "empty timeline"
print(f"timeline smoke: {count} event(s)")
' "$obs_dir/trace.json"; then
    echo "timeline smoke passed"
else
    echo "timeline smoke FAILED"
    failures=$((failures + 1))
fi
# Under --log-json every stderr log line must parse as a JSON object
# carrying an "event" field.
if python -m repro run --scale tiny --jobs 2 \
    --cache-dir "$obs_dir/cache" --log-json \
    >/dev/null 2>"$obs_dir/run.log" \
    && python -c '
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, "no log lines on stderr"
events = {json.loads(l)["event"] for l in lines}
assert {"grid_start", "grid_finish"} <= events, events
print(f"log smoke: {len(lines)} JSON line(s), events={sorted(events)}")
' "$obs_dir/run.log"; then
    echo "structured-log smoke passed"
else
    echo "structured-log smoke FAILED"
    failures=$((failures + 1))
fi
rm -rf "$obs_dir"

step "repro serve (service smoke: boot, submit, drain)"
# Boots the real service on an ephemeral port, submits a tiny job,
# polls it to completion, scrapes /metrics, SIGTERMs the process, and
# asserts a zero exit code with an empty queue journal.
if command -v timeout >/dev/null 2>&1; then
    run_or_fail timeout --signal=KILL 420 \
        python scripts/service_smoke.py
else
    run_or_fail python scripts/service_smoke.py
fi

step "repro serve (streaming smoke: SSE watch to terminal)"
# Boots the service again, submits a job, and consumes the SSE event
# stream end-to-end: at least one live progress frame must arrive
# before the terminal done event, and the stream health metric
# families must appear on /metrics before SIGTERM.
if command -v timeout >/dev/null 2>&1; then
    run_or_fail timeout --signal=KILL 420 \
        python scripts/stream_smoke.py
else
    run_or_fail python scripts/stream_smoke.py
fi

step "repro serve --workers 0 (fleet smoke: SIGKILL a worker mid-lease)"
# Dispatch-only broker plus two real pull-workers: SIGKILL one while
# it holds leases, assert the lease-expiry path redispatches every job
# to the survivor, the final bytes are bit-identical to a serial
# server, and no shm segments or leases leak.
if command -v timeout >/dev/null 2>&1; then
    run_or_fail timeout --signal=KILL 420 \
        python scripts/fleet_smoke.py
else
    run_or_fail python scripts/fleet_smoke.py
fi

step "perfbench (benchmark self-tests: result digests, served drain)"
# Every quick-input SimResult of the benchmark grids must hash to its
# committed perfbench/digests.json entry (the "no behaviour change"
# gate for refactors), and the served workload's SIGTERM restart must
# drain cleanly.
if command -v timeout >/dev/null 2>&1; then
    run_or_fail timeout --signal=KILL 900 python -m pytest -q perfbench
else
    run_or_fail python -m pytest -q perfbench
fi

echo
if [ "$failures" -ne 0 ]; then
    echo "check.sh: $failures step(s) FAILED"
    exit 1
fi
echo "check.sh: all steps passed"
