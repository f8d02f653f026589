"""One child process of the benchmark, in a fresh interpreter each time.

    python3 perfbench/worker.py prepare
    python3 perfbench/worker.py setup WORKLOAD [--quick]
    python3 perfbench/worker.py pass WORKLOAD --cache-dir DIR --out FILE \\
        [--quick] [--trace]

``prepare`` compiles the sources to bytecode and builds the C kernel, so
that no measured process pays for either.  ``setup`` imports repro,
loads the compiled kernel, builds the job list, prints ``ready`` and
exits; the parent times it as one set-up sample.  ``pass`` does the same
set-up, then runs one pass of a batch workload in-process through
``ExperimentRunner`` on an empty result cache and writes what it measured
to ``--out`` as JSON.  A fresh process per pass means no process-level
memo (pre-flight clean set, columnar memo, loaded graphs) carries from
one timed pass into the next.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

READY = "perfbench-ready"


def _load_kernel() -> None:
    from repro.sim._cbuild import load_kernel

    lib, reason = load_kernel()
    if lib is None:
        raise SystemExit(f"perfbench: C kernel unavailable: {reason}")


def prepare() -> None:
    import compileall

    here = Path(__file__).resolve().parent
    for directory in (here.parent / "src" / "repro", here):
        compileall.compile_dir(str(directory), quiet=1)
    _load_kernel()


def setup(workload: str, quick: bool):
    """Imports, kernel load and inputs: what every measured process does
    before its timed phase."""
    import grids
    import repro.runner  # noqa: F401  (its import time is set-up time)

    _load_kernel()
    return grids.batch_specs(workload, quick)


def run_pass(args) -> None:
    specs = setup(args.workload, args.quick)
    print(READY, flush=True)
    import grids
    import speed
    from repro.runner import ExperimentRunner, RunnerConfig

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        try:
            spans.install(tracer)
        except spans.TracingError as error:
            raise SystemExit(f"perfbench: {error}") from None
    config = RunnerConfig(
        strict=grids.strict(args.workload),
        parallel=False,
        cache_dir=args.cache_dir,
        allow_partial=True,
    )
    runner = ExperimentRunner(config)
    if tracer is None:
        # The end-to-end pass samples the host's speed as it runs.
        with speed.Sampler() as sampler:
            outcomes, report = runner.run(specs)
        wall = sampler.wall_s
    else:
        started = time.perf_counter()
        outcomes, report = runner.run(specs)
        wall = time.perf_counter() - started

    import hashlib
    import resource

    from repro.service.broker import canonical_json

    # Job ids repeat when two specs differ only in modes; specs do not.
    by_spec = {outcome.spec: outcome for outcome in outcomes}
    modes = []
    events = 0
    for spec in specs:
        outcome = by_spec.get(spec)
        for mode in spec.modes:
            label = mode.display_name
            entry = {"key": grids.digest_key(spec, label), "digest": None,
                     "cached": False}
            if outcome is not None and label in outcome.results:
                payload = canonical_json(outcome.results[label].to_dict())
                entry["digest"] = hashlib.sha256(payload).hexdigest()
                entry["cached"] = outcome.cached[label]
                if not entry["cached"]:
                    events += outcome.run.trace.num_events
            modes.append(entry)
    result = {
        "wall_s": wall,
        "modes": modes,
        "simulated_events": events,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "failures": [failure.to_dict() for failure in report.failures],
        "events": {
            f"{outcome.spec.workload}@{outcome.spec.scale}":
            outcome.run.trace.num_events
            for outcome in outcomes
        },
    }
    if tracer is None:
        result["reference_s"] = sampler.reference_s()
    else:
        result["trace"] = tracer.dump()
    Path(args.out).write_text(json.dumps(result))


def main(argv) -> None:
    parser = argparse.ArgumentParser(prog="perfbench/worker.py")
    parser.add_argument("step", choices=("prepare", "setup", "pass"))
    parser.add_argument("workload", nargs="?")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cache-dir")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.step == "prepare":
        prepare()
    elif args.step == "setup":
        setup(args.workload, args.quick)
        print(READY, flush=True)
    else:
        run_pass(args)


if __name__ == "__main__":
    main(sys.argv[1:])
