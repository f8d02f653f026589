"""Command-line interface.

::

    python -m repro workloads
    python -m repro run                  # full Figure-7 grid, cached
    python -m repro run --jobs 4 --json  # parallel grid, JSON metrics
    python -m repro run BFS --vertices 2000 --threads 16
    python -m repro run --faults ber=1e-6,seed=7   # fault injection
    python -m repro run --resume         # skip checkpointed jobs
    python -m repro cache                # result-cache statistics
    python -m repro cache --clear
    python -m repro cache --verify       # quarantine corrupt entries
    python -m repro cache --prune --max-mb 256   # LRU size bound
    python -m repro serve --port 8477    # simulation-as-a-service
    python -m repro submit BFS --scale tiny      # query a service
    python -m repro status <job-id>
    python -m repro trace DC --vertices 2000 -o dc.npz
    python -m repro simulate dc.npz --mode graphpim
    python -m repro experiment fig07 --scale small
    python -m repro faults sweep --scale tiny
    python -m repro faults show ber=1e-6,drop=1e-4
    python -m repro lint dc.npz
    python -m repro lint graphpim
    python -m repro obs timeline BFS -o trace.json   # Perfetto export
    python -m repro obs metrics BFS --diff baseline graphpim
    python -m repro run --log-level info --log-json  # structured logs

``repro run`` without a workload executes the evaluation grid through
the experiment runner: jobs fan out over a process pool (``--jobs``,
``--no-parallel``) and results persist in a content-addressed cache
(``.repro_cache/``), so a repeated invocation performs zero
simulations.

Exit codes: 0 on success, 1 when ``lint`` reports ERROR findings, 2 on
invalid invocations (unknown subcommand/workload, bad input file) — so
CI can gate on any of them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.common.errors import ReproError
from repro.core.api import GraphPimSystem
from repro.core.presets import workload_params
from repro.graph.generators import ldbc_like_graph
from repro.sim.config import SystemConfig
from repro.sim.system import simulate
from repro.trace.io import load_trace, save_trace
from repro.workloads.registry import all_workloads, get_workload

_MODE_CTORS = {
    "baseline": SystemConfig.baseline,
    "upei": SystemConfig.upei,
    "graphpim": SystemConfig.graphpim,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GraphPIM (HPCA 2017) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the GraphBIG workloads")

    run = sub.add_parser(
        "run",
        help="run one workload, or (with no workload) the cached "
        "parallel evaluation grid",
    )
    run.add_argument(
        "workload",
        nargs="?",
        help="workload code, e.g. BFS; omit to run the Figure-7 grid "
        "through the experiment runner",
    )
    run.add_argument("--vertices", type=int, default=2_000)
    run.add_argument("--threads", type=int, default=16)
    run.add_argument("--seed", type=int, default=7)
    run.add_argument(
        "--scale",
        choices=("tiny", "small", "paper"),
        default=None,
        help="grid mode: experiment scale (default: REPRO_SCALE or small)",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="grid mode: worker processes (default: all CPUs)",
    )
    run.add_argument(
        "--no-parallel",
        action="store_true",
        help="grid mode: run every job in-process",
    )
    run.add_argument(
        "--strict",
        action="store_true",
        help="grid mode: static-analysis pre-flight on every trace",
    )
    run.add_argument(
        "--lint-baseline",
        metavar="FILE",
        default=None,
        help="grid mode: baseline file for the strict pre-flight; "
        "findings frozen there do not abort the grid",
    )
    run.add_argument(
        "--cache-dir",
        default=None,
        help="grid mode: result-cache root (default: .repro_cache)",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="grid mode: disable the persistent result cache",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="grid mode: machine-readable runner report + metrics",
    )
    run.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="fault-injection plan, e.g. ber=1e-6,drop=1e-4,seed=7 "
        "(see `repro faults show`)",
    )
    run.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="grid mode: per-job wall-clock budget (pool workers only)",
    )
    run.add_argument(
        "--retries",
        type=int,
        default=0,
        help="grid mode: resubmissions of a timed-out job (with "
        "exponential backoff) before recording a failure",
    )
    run.add_argument(
        "--allow-partial",
        action="store_true",
        help="grid mode: report failed jobs instead of aborting the grid",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="grid mode: skip jobs checkpointed as completed in the "
        "cache root's journal (after a killed run)",
    )
    run.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="grid mode: emit structured run logs on stderr at this "
        "level (default: silent)",
    )
    run.add_argument(
        "--log-json",
        action="store_true",
        help="grid mode: format run logs as JSON lines (implies "
        "--log-level info unless set)",
    )
    run.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="grid mode: kill and replace a supervised worker whose "
        "heartbeat goes silent for this long (default: 30)",
    )
    run.add_argument(
        "--max-pool-restarts",
        type=int,
        default=None,
        metavar="N",
        help="grid mode: replacement workers the supervisor may spawn "
        "before degrading to in-process execution (default: 3)",
    )
    run.add_argument(
        "--chaos",
        metavar="SPEC",
        default=None,
        help="grid mode: chaos-injection plan for resilience testing, "
        "e.g. kill=0:1,seed=7 (kill/stall/cache/journal/poison)",
    )
    run.add_argument(
        "--progress",
        action="store_true",
        help="grid mode: live one-line progress on stderr fed by "
        "in-flight simulation snapshots (observability only; never "
        "part of cache identity)",
    )
    run.add_argument(
        "--progress-interval",
        type=int,
        default=20_000,
        metavar="EVENTS",
        help="with --progress: snapshot cadence in retired simulation "
        "events (default: 20000)",
    )

    cache = sub.add_parser(
        "cache", help="inspect or clear the persistent result cache"
    )
    cache.add_argument(
        "--cache-dir",
        default=None,
        help="cache root (default: .repro_cache)",
    )
    cache.add_argument(
        "--clear", action="store_true", help="delete every cached result"
    )
    cache.add_argument(
        "--verify",
        action="store_true",
        help="scan all entries; quarantine corrupt or stale ones",
    )
    cache.add_argument(
        "--prune",
        action="store_true",
        help="evict least-recently-used entries until the cache fits "
        "--max-mb",
    )
    cache.add_argument(
        "--max-mb",
        type=float,
        default=512.0,
        metavar="MB",
        help="size budget for --prune (default: 512)",
    )
    cache.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    serve = sub.add_parser(
        "serve",
        help="run the simulation service (HTTP/JSON API over the "
        "experiment runner)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port (default: 8477; 0 binds an ephemeral port)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="concurrent local simulation slots (default: 2); 0 is "
        "dispatch-only mode, where every job waits for a `repro "
        "worker` to lease it",
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=64,
        help="admitted-job bound; submissions beyond it get 429 "
        "(default: 64)",
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=0.0,
        metavar="RPS",
        help="per-client sustained submissions/second (0 = unlimited)",
    )
    serve.add_argument(
        "--rate-burst",
        type=int,
        default=16,
        help="per-client burst size for --rate-limit (default: 16)",
    )
    serve.add_argument(
        "--prune-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="prune the result cache to --max-cache-mb on this cadence "
        "(0 = never)",
    )
    serve.add_argument(
        "--max-cache-mb",
        type=float,
        default=512.0,
        help="cache size budget for the pruning timer (default: 512)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache root (default: .repro_cache)",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="serve without a persistent cache (no short-circuit, no "
        "drain checkpoint)",
    )
    serve.add_argument(
        "--strict",
        action="store_true",
        help="static-analysis pre-flight on every traced workload",
    )
    serve.add_argument(
        "--lint-baseline",
        metavar="FILE",
        default=None,
        help="baseline file for the strict pre-flight; findings "
        "frozen there do not fail admitted jobs",
    )
    serve.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="emit structured service logs on stderr at this level",
    )
    serve.add_argument(
        "--log-json",
        action="store_true",
        help="format service logs as JSON lines (implies --log-level "
        "info unless set)",
    )
    serve.add_argument(
        "--lease-ttl",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="fleet lease validity window; an unrenewed lease requeues "
        "its job (default: 15)",
    )
    serve.add_argument(
        "--worker-timeout",
        type=float,
        default=45.0,
        metavar="SECONDS",
        help="expire fleet workers silent for longer than this "
        "(default: 45)",
    )
    serve.add_argument(
        "--stream-spans",
        type=int,
        default=0,
        metavar="N",
        help="stream up to N timeline spans per `span` SSE event "
        "(0 = off; routes simulated modes through the reference "
        "interpreter, results stay bit-identical)",
    )

    worker = sub.add_parser(
        "worker",
        help="run a fleet pull-worker against a `repro serve` broker "
        "(dispatch-only with --workers 0)",
    )
    worker.add_argument(
        "--url",
        default=None,
        help="broker base URL (default: $REPRO_SERVICE_URL or "
        "http://127.0.0.1:8477)",
    )
    worker.add_argument(
        "--id",
        dest="worker_id",
        default=None,
        help="stable worker identity (default: generated "
        "hostname-tagged id); reusing an id after a restart keeps its "
        "shard, and the warm cache with it",
    )
    worker.add_argument(
        "--capacity",
        type=int,
        default=1,
        help="jobs requested per lease (server-capped; default: 1)",
    )
    worker.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="sleep between empty leases (default: 0.2)",
    )
    worker.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache root (default: .repro_cache)",
    )
    worker.add_argument(
        "--no-cache",
        action="store_true",
        help="execute without a persistent result cache",
    )
    worker.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="run lease batches through a supervised worker pool of N "
        "processes (default: in-process sequential execution)",
    )
    worker.add_argument(
        "--chaos",
        metavar="SPEC",
        default=None,
        help="chaos plan, e.g. lease=2,seed=7 (abandon the batch after "
        "2 leased jobs — tests the broker's expiry/redispatch path)",
    )
    worker.add_argument(
        "--max-batches",
        type=int,
        default=None,
        metavar="N",
        help="exit after serving N non-empty lease batches (default: "
        "run until SIGTERM)",
    )
    worker.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="emit structured worker logs on stderr at this level",
    )
    worker.add_argument(
        "--log-json",
        action="store_true",
        help="format worker logs as JSON lines (implies --log-level "
        "info unless set)",
    )

    submit = sub.add_parser(
        "submit", help="submit one experiment to a running service"
    )
    submit.add_argument("workload", help="workload code, e.g. BFS")
    submit.add_argument(
        "--url",
        default=None,
        help="service base URL (default: $REPRO_SERVICE_URL or "
        "http://127.0.0.1:8477)",
    )
    submit.add_argument(
        "--scale", choices=("tiny", "small", "paper"), default=None
    )
    submit.add_argument(
        "--modes",
        default="baseline,graphpim",
        metavar="CSV",
        help="mode presets to simulate (default: baseline,graphpim)",
    )
    submit.add_argument("--threads", type=int, default=16)
    submit.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="fault-injection plan, e.g. ber=1e-6,seed=7",
    )
    submit.add_argument(
        "--priority",
        choices=("interactive", "batch"),
        default="interactive",
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id and return without polling",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="polling budget with --wait (default: 600)",
    )
    submit.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    status = sub.add_parser(
        "status", help="query a job (or the health) of a running service"
    )
    status.add_argument(
        "job_id",
        nargs="?",
        help="job id from `repro submit`; omit for service health",
    )
    status.add_argument(
        "--url",
        default=None,
        help="service base URL (default: $REPRO_SERVICE_URL or "
        "http://127.0.0.1:8477)",
    )
    status.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    watch = sub.add_parser(
        "watch",
        help="stream a job's live events (SSE) from a running service",
    )
    watch.add_argument("job_id", help="job id from `repro submit`")
    watch.add_argument(
        "--url",
        default=None,
        help="service base URL (default: $REPRO_SERVICE_URL or "
        "http://127.0.0.1:8477)",
    )
    watch.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="overall watch budget, reconnects included (default: 600)",
    )
    watch.add_argument(
        "--json",
        action="store_true",
        help="print one JSON line per event instead of the human form",
    )

    trace = sub.add_parser("trace", help="trace a workload to a .npz file")
    trace.add_argument("workload")
    trace.add_argument("--vertices", type=int, default=2_000)
    trace.add_argument("--threads", type=int, default=16)
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("-o", "--output", required=True)

    sim = sub.add_parser("simulate", help="replay a saved trace")
    sim.add_argument("trace_file")
    sim.add_argument(
        "--mode", choices=sorted(_MODE_CTORS), default="graphpim"
    )

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument("experiment_id", help="e.g. fig07 or tab03")
    experiment.add_argument(
        "--scale", choices=("tiny", "small", "paper"), default="small"
    )

    faults = sub.add_parser(
        "faults", help="fault-injection tools (sweep, spec inspection)"
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    sweep = faults_sub.add_parser(
        "sweep",
        help="speedup vs link bit-error rate (GraphPIM vs baseline)",
    )
    sweep.add_argument(
        "--scale", choices=("tiny", "small", "paper"), default=None
    )
    sweep.add_argument(
        "--bers",
        default=None,
        metavar="CSV",
        help="comma-separated bit-error rates (default 0,1e-7,1e-6,1e-5)",
    )
    sweep.add_argument(
        "--workloads",
        default=None,
        metavar="CSV",
        help="workload codes to sweep (default BFS,DC,PRank)",
    )
    sweep.add_argument("--seed", type=int, default=7)
    show = faults_sub.add_parser(
        "show", help="parse and describe a fault plan spec"
    )
    show.add_argument("spec", help="e.g. ber=1e-6,drop=1e-4,seed=7")
    show.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    obs = sub.add_parser(
        "obs",
        help="observability tools (timeline export, metrics snapshots)",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    timeline = obs_sub.add_parser(
        "timeline",
        help="simulate and export a Chrome-trace/Perfetto timeline "
        "in simulated nanoseconds",
    )
    timeline.add_argument(
        "spec",
        help="workload code (e.g. BFS) or a saved .npz trace file",
    )
    timeline.add_argument(
        "--mode", choices=sorted(_MODE_CTORS), default="graphpim"
    )
    timeline.add_argument("--vertices", type=int, default=2_000)
    timeline.add_argument("--threads", type=int, default=16)
    timeline.add_argument("--seed", type=int, default=7)
    timeline.add_argument(
        "--sample",
        type=int,
        default=1,
        metavar="N",
        help="keep every N-th event per (track, name) stream",
    )
    timeline.add_argument(
        "--max-events",
        type=int,
        default=1_000_000,
        help="hard cap on recorded events (excess is counted, not kept)",
    )
    timeline.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="fault-injection plan, e.g. ber=1e-6,drop=1e-4,seed=7",
    )
    timeline.add_argument("-o", "--output", required=True)
    metrics = obs_sub.add_parser(
        "metrics",
        help="simulate and print the run's metrics snapshot",
    )
    metrics.add_argument(
        "spec",
        help="workload code (e.g. BFS) or a saved .npz trace file",
    )
    metrics.add_argument(
        "--mode", choices=sorted(_MODE_CTORS), default="graphpim"
    )
    metrics.add_argument("--vertices", type=int, default=2_000)
    metrics.add_argument("--threads", type=int, default=16)
    metrics.add_argument("--seed", type=int, default=7)
    metrics.add_argument(
        "--diff",
        nargs=2,
        metavar=("A", "B"),
        default=None,
        help="print per-series deltas between two metric sources: a "
        "mode preset (simulated), a saved snapshot JSON file, or - "
        "for a snapshot piped on stdin",
    )
    metrics.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="fault-injection plan applied to every simulated mode",
    )
    metrics.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    lint = sub.add_parser(
        "lint",
        help="static analysis of a saved trace or a system config",
    )
    lint.add_argument(
        "target",
        nargs="?",
        help="a .npz trace file, or a config preset name "
        "(baseline/upei/graphpim)",
    )
    lint.add_argument(
        "--mode",
        choices=sorted(_MODE_CTORS),
        default="graphpim",
        help="config the trace is checked against (default: graphpim)",
    )
    lint.add_argument(
        "--no-races",
        action="store_true",
        help="skip the barrier-epoch race detector",
    )
    lint.add_argument(
        "--no-fp-ext",
        action="store_true",
        help="lint against the plain HMC 2.0 command set (no FP "
        "add/sub extension)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (same as --format json)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format; sarif emits a SARIF 2.1.0 log for CI "
        "upload (default: text)",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="suppress findings whose fingerprints are frozen in FILE; "
        "only new findings gate",
    )
    lint.add_argument(
        "--write-baseline",
        metavar="FILE",
        default=None,
        help="snapshot the current findings' fingerprints to FILE "
        "and exit 0",
    )
    lint.add_argument(
        "--profile",
        action="store_true",
        help="include the vault-contention and per-op offload "
        "profiles (vectorized whole-trace aggregations)",
    )
    lint.add_argument(
        "--screen",
        action="store_true",
        help="screen the trace across the config presets (predicted "
        "offload/exposure counts per config)",
    )
    lint.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="include fix hints in the output",
    )
    lint.add_argument(
        "--rules",
        action="store_true",
        help="list the registered rule ids and exit",
    )
    return parser


def _cmd_workloads(_args) -> int:
    print(f"{'code':8s} {'category':8s} {'applicable':10s} name")
    for workload in all_workloads():
        applicable = "yes" if workload.applicable else "no"
        if workload.needs_fp_extension:
            applicable = "fp-ext"
        print(
            f"{workload.code:8s} {workload.category.value:8s} "
            f"{applicable:10s} {workload.name}"
        )
    return 0


def _make_graph(args):
    weighted = args.workload == "SSSP"
    return ldbc_like_graph(args.vertices, seed=args.seed, weighted=weighted)


def _parse_faults(args):
    """FaultPlan from ``--faults SPEC``, or None when absent."""
    if getattr(args, "faults", None) is None:
        return None
    from repro.faults import FaultPlan

    return FaultPlan.from_spec(args.faults)


def _cmd_run(args) -> int:
    if args.workload is None:
        return _cmd_run_grid(args)
    get_workload(args.workload)  # fail fast on unknown codes
    graph = _make_graph(args)
    plan = _parse_faults(args)
    system = GraphPimSystem(
        config=SystemConfig(faults=plan), num_threads=args.threads
    )
    report = system.evaluate(
        args.workload, graph, **workload_params(args.workload)
    )
    print(report.summary())
    reasons = sorted(
        {i.reason for i in report.engine_infos.values() if i.fallback}
    )
    print(
        f"  fallback : {report.engine_fallbacks} mode(s)"
        + (f" ({'; '.join(reasons)})" if reasons else "")
    )
    if plan is not None:
        stats = report.results["GraphPIM"].hmc_stats
        print(
            f"  faults   : {plan.describe()} — "
            f"{stats.retransmitted_flits} retransmitted FLIT(s), "
            f"{stats.reissued_requests} reissued request(s), "
            f"{stats.fault_stall_cycles:.0f} stall cycle(s)"
        )
    return 0


def _resolve_cache_dir(args) -> str | None:
    from repro.runner import DEFAULT_CACHE_DIR

    if getattr(args, "no_cache", False):
        return None
    if args.cache_dir is not None:
        return args.cache_dir
    return os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


def _cmd_run_grid(args) -> int:
    """Evaluation grid through the parallel, cached experiment runner."""
    from repro.runner import RunnerConfig, run_evaluation_grid

    log_level = args.log_level
    if log_level is None and args.log_json:
        log_level = "info"
    extra: dict = {}
    if args.heartbeat_timeout is not None:
        extra["heartbeat_timeout_s"] = args.heartbeat_timeout
    if args.max_pool_restarts is not None:
        extra["max_pool_restarts"] = args.max_pool_restarts
    if args.chaos is not None:
        from repro.chaos import ChaosPlan

        extra["chaos"] = ChaosPlan.from_spec(args.chaos)
    live = args.progress and not args.json
    if live:
        extra["progress_interval_events"] = args.progress_interval
    config = RunnerConfig(
        scale=args.scale,
        strict=args.strict,
        lint_baseline=args.lint_baseline,
        jobs=args.jobs,
        parallel=not args.no_parallel,
        cache_dir=_resolve_cache_dir(args),
        job_timeout_s=args.timeout,
        job_retries=args.retries,
        allow_partial=args.allow_partial,
        resume=args.resume,
        log_level=log_level,
        log_json=args.log_json,
        **extra,
    )

    def progress(record) -> None:
        if live:
            _clear_live_line()
        print(
            f"  {record.job_id:16s} {record.status:6s} "
            f"sim={record.modes_simulated} hit={record.modes_cached} "
            f"{record.wall_seconds:6.2f}s"
            + (f"  {record.error}" if record.error else ""),
            flush=True,
        )

    def _clear_live_line() -> None:
        sys.stderr.write("\r" + " " * 78 + "\r")
        sys.stderr.flush()

    on_frame = None
    if live:

        def on_frame(index: int, snap) -> None:
            # One carriage-return-overwritten status line on stderr:
            # the most recent snapshot any in-flight job published.
            name = snap.label or snap.phase
            line = (
                f"  job {index}: {name} {snap.fraction * 100.0:5.1f}% "
                f"({snap.events_done}/{snap.events_total} events)"
            )
            if snap.eta_s is not None:
                line += f" eta {snap.eta_s:.0f}s"
            sys.stderr.write("\r" + line[:77].ljust(78))
            sys.stderr.flush()

    reports, runner_report = run_evaluation_grid(
        config,
        progress=None if args.json else progress,
        faults=_parse_faults(args),
        on_frame=on_frame,
    )
    if live:
        _clear_live_line()
    if args.json:
        print(
            json.dumps(
                {
                    "runner": runner_report.to_dict(),
                    "workloads": {
                        code: report.to_dict()
                        for code, report in reports.items()
                    },
                },
                indent=2,
            )
        )
        return 0
    print()
    print(runner_report.summary().splitlines()[0])
    print()
    print(f"{'workload':10s} {'baseline':>14s} {'graphpim':>14s} {'speedup':>8s}")
    for code, report in reports.items():
        graphpim = report.results["GraphPIM"]
        print(
            f"{code:10s} {report.baseline.cycles:14.0f} "
            f"{graphpim.cycles:14.0f} {report.speedup():7.2f}x"
        )
    if runner_report.failures:
        print()
        print(f"{len(runner_report.failures)} job(s) FAILED:")
        for failure in runner_report.failures:
            print(
                f"  {failure.job_id:16s} [{failure.kind}] "
                f"after {failure.attempts} attempt(s): {failure.message}"
            )
        print()
        print(runner_report.summary_line())
        return 1
    print()
    print(runner_report.summary_line())
    return 0


def _cmd_cache(args) -> int:
    from repro.runner import ResultCache

    cache_dir = args.cache_dir or os.environ.get(
        "REPRO_CACHE_DIR", ".repro_cache"
    )
    cache = ResultCache(cache_dir)
    if args.clear:
        removed = cache.clear()
        if args.json:
            print(json.dumps({"cleared": removed, **cache.info()}))
        else:
            print(f"cleared {removed} cached result(s) from {cache_dir}")
        return 0
    if args.prune:
        outcome = cache.prune(int(args.max_mb * 1024 * 1024))
        if args.json:
            print(json.dumps({**outcome, **cache.info()}, indent=2))
        else:
            print(
                f"pruned {outcome['removed']} entr(ies) "
                f"({outcome['freed_bytes'] / 1024:.1f} KiB); "
                f"{outcome['kept']} kept, "
                f"{outcome['size_bytes'] / 1024:.1f} KiB in cache"
            )
        return 0
    if args.verify:
        outcome = cache.verify()
        if args.json:
            print(json.dumps({**outcome, **cache.info()}, indent=2))
        else:
            print(
                f"verified {outcome['checked']} entr(ies): "
                f"{outcome['ok']} ok, "
                f"{outcome['quarantined']} quarantined"
            )
            if outcome["quarantined"]:
                print(f"quarantine : {outcome['quarantine_dir']}")
        # Quarantined entries mean the cache held corrupt data; exit
        # nonzero so CI health checks catch it without parsing output.
        return 1 if outcome["quarantined"] else 0
    info = cache.info()
    if args.json:
        print(json.dumps(info, indent=2))
    else:
        print(f"cache root : {info['root']}")
        print(f"entries    : {info['entries']}")
        print(f"size       : {info['size_bytes'] / 1024:.1f} KiB")
    return 0


def _service_url(args) -> str:
    return (
        args.url
        or os.environ.get("REPRO_SERVICE_URL")
        or "http://127.0.0.1:8477"
    )


def _cmd_serve(args) -> int:
    import asyncio

    from repro.obs.logs import configure_logging
    from repro.runner import RunnerConfig
    from repro.service import DEFAULT_PORT, ServiceConfig, serve_async

    log_level = args.log_level
    if log_level is None and args.log_json:
        log_level = "info"
    if log_level is not None:
        configure_logging(log_level, json_lines=args.log_json)
    config = ServiceConfig(
        host=args.host,
        port=DEFAULT_PORT if args.port is None else args.port,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        rate_limit_rps=args.rate_limit,
        rate_limit_burst=args.rate_burst,
        prune_interval_s=args.prune_interval,
        max_cache_mb=args.max_cache_mb,
        stream_spans=args.stream_spans,
        fleet_lease_ttl_s=args.lease_ttl,
        fleet_worker_timeout_s=args.worker_timeout,
        runner=RunnerConfig(
            strict=args.strict,
            lint_baseline=args.lint_baseline,
            cache_dir=_resolve_cache_dir(args),
        ),
    )

    def announce(line: str) -> None:
        print(line, flush=True)

    try:
        return asyncio.run(serve_async(config, announce=announce))
    except KeyboardInterrupt:
        # Ctrl-C before the loop's signal handler was installed.
        return 0


def _cmd_worker(args) -> int:
    import signal as _signal

    from repro.fleet.worker import FleetWorker, make_worker_id
    from repro.obs.logs import configure_logging
    from repro.runner import RunnerConfig
    from repro.service.client import ServiceClient

    log_level = args.log_level
    if log_level is None and args.log_json:
        log_level = "info"
    if log_level is not None:
        configure_logging(log_level, json_lines=args.log_json)
    chaos = None
    if args.chaos:
        from repro.chaos import ChaosPlan

        chaos = ChaosPlan.from_spec(args.chaos)
    runner = RunnerConfig(
        parallel=args.jobs is not None and args.jobs > 1,
        jobs=args.jobs,
        cache_dir=_resolve_cache_dir(args),
        chaos=chaos,
    )
    worker = FleetWorker(
        ServiceClient(_service_url(args)),
        runner,
        worker_id=args.worker_id or make_worker_id(),
        capacity=args.capacity,
        poll_interval_s=args.poll_interval,
    )
    for sig in (_signal.SIGTERM, _signal.SIGINT):
        try:
            _signal.signal(sig, lambda *_: worker.stop())
        except (ValueError, OSError):
            pass  # non-main thread: rely on --max-batches
    print(
        f"repro worker {worker.worker_id} pulling from "
        f"{_service_url(args)}",
        flush=True,
    )
    summary = worker.run(max_batches=args.max_batches)
    print(
        f"repro worker {worker.worker_id} stopped: "
        f"{summary['executed']} executed, {summary['failed']} failed"
        + (" (batch abandoned by chaos)" if summary["abandoned"] else ""),
        flush=True,
    )
    return 0


def _cmd_submit(args) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(_service_url(args))
    try:
        modes = [part.strip() for part in args.modes.split(",") if part.strip()]
        ticket = client.submit(
            workload=args.workload,
            scale=args.scale,
            modes=modes,
            threads=args.threads,
            faults=args.faults,
            priority=args.priority,
        )
        if args.no_wait:
            if args.json:
                print(
                    json.dumps(
                        {
                            "job_id": ticket.job_id,
                            "status": ticket.status,
                            "outcome": ticket.outcome,
                        }
                    )
                )
            else:
                print(f"job    : {ticket.job_id}")
                print(f"status : {ticket.status} ({ticket.outcome})")
                print(f"poll   : repro status {ticket.job_id}")
            return 0
        status = client.wait(ticket.job_id, timeout_s=args.timeout)
        if args.json:
            sys.stdout.buffer.write(status.raw)
            if not status.raw.endswith(b"\n"):
                sys.stdout.buffer.write(b"\n")
            return 0
        print(f"job      : {ticket.job_id} ({ticket.outcome})")
        for label, payload in sorted(status.results.items()):
            print(f"{label:10s} {payload['cycles']:14.0f} cycles")
        baseline = status.results.get("Baseline")
        graphpim = status.results.get("GraphPIM")
        if baseline and graphpim and graphpim["cycles"]:
            print(
                f"speedup  : "
                f"{baseline['cycles'] / graphpim['cycles']:.2f}x"
            )
        return 0
    finally:
        client.close()


def _cmd_status(args) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(_service_url(args))
    try:
        if args.job_id is None:
            health = client.health()
            if args.json:
                print(json.dumps(health, indent=2))
                return 0
            print(f"status   : {health.get('status')}")
            print(f"draining : {health.get('draining')}")
            print(f"queued   : {health.get('queued')}")
            print(f"inflight : {health.get('inflight')}")
            return 0
        status = client.status(args.job_id)
        if args.json:
            sys.stdout.buffer.write(status.raw)
            if not status.raw.endswith(b"\n"):
                sys.stdout.buffer.write(b"\n")
            return 0
        print(f"job    : {status.job_id}")
        print(f"status : {status.status}")
        if status.error:
            print(f"error  : {status.error}")
        for label, payload in sorted(status.results.items()):
            print(f"{label:10s} {payload['cycles']:14.0f} cycles")
        return 0
    finally:
        client.close()


def _cmd_watch(args) -> int:
    import time as _time

    from repro.common.errors import ServiceError
    from repro.service.client import ServiceClient

    client = ServiceClient(_service_url(args))
    try:
        deadline = _time.monotonic() + args.timeout
        last_id: int | None = None
        while True:
            try:
                for event in client.events(
                    args.job_id, last_event_id=last_id
                ):
                    last_id = event.event_id
                    if args.json:
                        print(
                            json.dumps(
                                {
                                    "id": event.event_id,
                                    "event": event.event,
                                    "data": event.data,
                                }
                            ),
                            flush=True,
                        )
                    elif event.event == "progress":
                        data = event.data
                        done = data.get("events_done", 0)
                        total = data.get("events_total", 0)
                        pct = 100.0 * done / total if total else 0.0
                        line = (
                            f"progress     {pct:5.1f}%  "
                            f"{done}/{total} events"
                        )
                        name = data.get("label") or data.get("phase", "")
                        if name:
                            line += f"  {name}"
                        eta = data.get("eta_s")
                        if eta is not None:
                            line += f"  eta {eta:.0f}s"
                        print(line, flush=True)
                    elif event.event == "span":
                        spans = event.data.get("spans") or []
                        names = [
                            span.get("name", "?") for span in spans[:4]
                        ]
                        more = len(spans) - len(names)
                        line = (
                            f"span         {len(spans)} span(s): "
                            + ", ".join(names)
                        )
                        if more > 0:
                            line += f", +{more} more"
                        print(line, flush=True)
                    else:
                        detail = event.data.get("status", "")
                        if event.event == "failed":
                            detail = event.data.get("error", "") or detail
                        print(f"{event.event:12s} {detail}", flush=True)
                    if event.terminal:
                        return 1 if event.event == "failed" else 0
            except ServiceError as error:
                # Unknown job ids are final; a torn stream is retried with
                # Last-Event-ID resume below.
                if "unknown job" in str(error):
                    raise
            if _time.monotonic() >= deadline:
                print(
                    f"repro watch: no terminal event after "
                    f"{args.timeout:g}s",
                    file=sys.stderr,
                )
                return 2
            _time.sleep(0.5)
    finally:
        client.close()


def _cmd_trace(args) -> int:
    workload = get_workload(args.workload)
    graph = _make_graph(args)
    run = workload.run(
        graph, num_threads=args.threads, **workload_params(args.workload)
    )
    save_trace(run.trace, args.output)
    print(
        f"wrote {run.trace.num_events} events "
        f"({run.trace.num_threads} threads) to {args.output}"
    )
    return 0


def _cmd_simulate(args) -> int:
    trace = load_trace(args.trace_file)
    config = _MODE_CTORS[args.mode]()
    result = simulate(trace, config)
    print(f"mode        : {config.display_name}")
    print(f"cycles      : {result.cycles:.0f}")
    print(f"instructions: {result.instructions}")
    print(f"ipc/core    : {result.ipc / trace.num_threads:.4f}")
    print(f"offloaded   : {result.core_stats.offloaded_atomics}")
    print(f"host atomics: {result.core_stats.host_atomics}")
    return 0


def _cmd_experiment(args) -> int:
    from repro.harness import run_experiment

    result = run_experiment(args.experiment_id, scale=args.scale)
    print(result.render())
    return 0


def _cmd_faults(args) -> int:
    if args.faults_command == "show":
        from repro.faults import FaultPlan

        plan = FaultPlan.from_spec(args.spec)
        if args.json:
            print(json.dumps(plan.to_dict(), indent=2))
        else:
            print(plan.describe())
        return 0
    # sweep
    from repro.harness import run_experiment

    kwargs: dict = {"scale": args.scale, "seed": args.seed}
    if args.bers is not None:
        kwargs["bers"] = tuple(
            float(part) for part in args.bers.split(",") if part.strip()
        )
    if args.workloads is not None:
        kwargs["workloads"] = tuple(
            part.strip() for part in args.workloads.split(",") if part.strip()
        )
    result = run_experiment("faultsweep", **kwargs)
    print(result.render())
    return 0


def _trace_for_spec(args):
    """Trace from ``args.spec``: a workload code or a saved .npz file."""
    spec = args.spec
    if spec.endswith(".npz") or os.path.exists(spec):
        return load_trace(spec)
    workload = get_workload(spec)
    weighted = spec == "SSSP"
    graph = ldbc_like_graph(
        args.vertices, seed=args.seed, weighted=weighted
    )
    run = workload.run(
        graph, num_threads=args.threads, **workload_params(spec)
    )
    return run.trace


def _obs_config(args, mode: str):
    """SystemConfig for one obs simulation (mode + optional faults)."""
    return _MODE_CTORS[mode](faults=_parse_faults(args))


def _cmd_obs(args) -> int:
    if args.obs_command == "timeline":
        return _cmd_obs_timeline(args)
    return _cmd_obs_metrics(args)


def _cmd_obs_timeline(args) -> int:
    from repro.obs import TimelineRecorder

    trace = _trace_for_spec(args)
    config = _obs_config(args, args.mode)
    recorder = TimelineRecorder(
        sample_every=args.sample, max_events=args.max_events
    )
    result = simulate(trace, config, recorder=recorder)
    recorder.write(args.output)
    print(f"mode    : {config.display_name}")
    print(f"cycles  : {result.cycles:.0f}")
    print(
        f"events  : {recorder.event_count} recorded, "
        f"{recorder.dropped_events} dropped"
    )
    print(f"trace   : {args.output}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _metrics_operand(args, operand: str, trace):
    """Resolve one ``--diff`` operand to ``(snapshot, name, trace)``.

    A mode preset simulates the spec's trace under that mode; anything
    else is read as a serialized snapshot — a JSON file path, or ``-``
    for stdin — and schema-validated before use.
    """
    from repro.common.errors import ConfigError
    from repro.obs import MetricsRegistry

    if operand in _MODE_CTORS:
        if trace is None:
            trace = _trace_for_spec(args)
        snapshot = simulate(
            trace, _obs_config(args, operand)
        ).metrics_snapshot()
        return snapshot, operand, trace
    source = "stdin" if operand == "-" else operand
    try:
        raw = (
            sys.stdin.read()
            if operand == "-"
            else open(operand, encoding="utf-8").read()
        )
        snapshot = json.loads(raw)
    except json.JSONDecodeError as error:
        raise ConfigError(
            f"{source} is not valid JSON: {error}"
        ) from error
    if not isinstance(snapshot, dict):
        raise ConfigError(f"{source}: snapshot must be a JSON object")
    MetricsRegistry.from_snapshot(snapshot)  # schema gate
    name = "stdin" if operand == "-" else os.path.basename(operand)
    return snapshot, name, trace


def _cmd_obs_metrics(args) -> int:
    from repro.obs import diff_snapshots, flatten_snapshot

    if args.diff is not None:
        # Operands may be mode presets, snapshot files, or "-"; the
        # trace is only built when a mode actually needs simulating.
        trace = None
        snap_a, mode_a, trace = _metrics_operand(
            args, args.diff[0], trace
        )
        snap_b, mode_b, trace = _metrics_operand(
            args, args.diff[1], trace
        )
        rows = diff_snapshots(snap_a, snap_b)
        if args.json:
            print(
                json.dumps(
                    [
                        {
                            "series": series,
                            mode_a: value_a,
                            mode_b: value_b,
                            "delta": delta,
                        }
                        for series, value_a, value_b, delta in rows
                    ],
                    indent=2,
                )
            )
            return 0
        width = max((len(row[0]) for row in rows), default=6)
        print(
            f"{'series':{width}s} {mode_a:>16s} {mode_b:>16s} "
            f"{'delta':>16s}"
        )
        for series, value_a, value_b, delta in rows:
            print(
                f"{series:{width}s} {value_a:16.6g} {value_b:16.6g} "
                f"{delta:+16.6g}"
            )
        return 0
    result = simulate(_trace_for_spec(args), _obs_config(args, args.mode))
    snapshot = result.metrics_snapshot()
    if args.json:
        print(json.dumps(snapshot, indent=2))
        return 0
    flat = flatten_snapshot(snapshot)
    width = max((len(series) for series in flat), default=6)
    for series in sorted(flat):
        print(f"{series:{width}s} {flat[series]:16.6g}")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import (
        apply_baseline,
        describe_rules,
        lint_config,
        load_baseline,
        render_json,
        render_report,
        render_sarif,
        write_baseline,
    )

    if args.rules:
        print(describe_rules())
        return 0
    if args.target is None:
        print("lint: a trace file or config preset name is required",
              file=sys.stderr)
        return 2

    data_sections: dict = {}
    if args.target in _MODE_CTORS:
        report = lint_config(_MODE_CTORS[args.target]())
    else:
        from repro.analysis.passes import PassManager

        # Raw load: the linter reports malformed traces as findings
        # instead of dying on the loader's own fail-fast checks.
        trace = load_trace(args.target, validate=False)
        config = _MODE_CTORS[args.mode]()
        if args.no_fp_ext:
            import dataclasses

            config = dataclasses.replace(config, fp_extension=False)
        passes = ["lint"] + ([] if args.no_races else ["race"])
        if args.profile:
            passes += ["profile", "offload"]
        screen: list = []
        if args.screen:
            passes.append("screening")
            screen = [ctor() for _, ctor in sorted(_MODE_CTORS.items())]
        manager = PassManager(passes)
        results = manager.run(trace, config=config, screen_configs=screen)
        report = manager.merged_report(
            results, getattr(trace, "name", None) or "trace"
        )
        for name in ("profile", "offload", "screening"):
            if name in results and results[name].data:
                data_sections[name] = results[name].data

    if args.write_baseline:
        count = write_baseline(report, args.write_baseline)
        print(f"wrote {count} fingerprint(s) to {args.write_baseline}")
        return 0
    if args.baseline:
        report = apply_baseline(report, load_baseline(args.baseline))

    fmt = "json" if args.json else args.format
    if fmt == "sarif":
        print(render_sarif(report))
    elif fmt == "json":
        payload = json.loads(render_json(report))
        payload.update(data_sections)
        print(json.dumps(payload, indent=2))
    else:
        print(render_report(report, verbose=args.verbose))
        for name, data in data_sections.items():
            print(f"\n[{name}]")
            print(json.dumps(data, indent=2))
    return report.exit_code()


_COMMANDS = {
    "workloads": _cmd_workloads,
    "run": _cmd_run,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "watch": _cmd_watch,
    "trace": _cmd_trace,
    "simulate": _cmd_simulate,
    "experiment": _cmd_experiment,
    "faults": _cmd_faults,
    "obs": _cmd_obs,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Invalid invocations — unknown workloads, malformed trace files,
    inconsistent configurations — exit 2 with the error on stderr
    instead of a traceback, so scripts and CI can gate on the code.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe; redirect
        # stdout at the descriptor level so the interpreter's shutdown
        # flush does not raise again, and exit like a SIGPIPE'd process.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 128 + 13


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
