"""In-memory spans around calls into repro's layers, taken from outside.

The traced run replaces each entry point in :data:`BATCH_TARGETS` with a
wrapper that records a span.  The program's code is not changed.  The
end-to-end runs never install the wrappers.

A span is ``(name, start, end, parent, job, request)``: ``parent`` is
the index of the enclosing span (-1 at the top), ``job`` the runner or
service job id, and ``request`` the ``X-Request-Id`` of a served request.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

#: (module, attribute path, span name) of every wrapped entry point.
BATCH_TARGETS = (
    ("repro.runner.engine", "ExperimentRunner.run", "runner.run"),
    ("repro.runner.engine", "execute_spec", "runner.execute_spec"),
    ("repro.runner.engine", "workload_graph", "graph.build"),
    ("repro.workloads.base", "Workload.run", "workloads.run"),
    ("repro.runner.engine", "trace_digest", "trace.digest"),
    ("repro.trace.columnar", "ColumnarTrace.from_events", "trace.encode"),
    ("repro.analysis", "preflight_run", "analysis.preflight"),
    ("repro.sim.system", "simulate_with_engine", "sim.simulate"),
    ("repro.runner.cache", "ResultCache.get", "runner.cache_get"),
    ("repro.runner.cache", "ResultCache.put", "runner.cache_put"),
)


class TracingError(RuntimeError):
    """An entry point the traced run wraps no longer exists."""


class Tracer:
    """Records nested spans and counters in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: "list[list]" = []
        self.counters: Counter = Counter()
        #: Seconds spent in this class's own bookkeeping.
        self.overhead_s = 0.0
        self._stack: "list[int]" = []

    def open(self, name: str, job: str = "", request: str = "") -> int:
        entered = self.clock()
        parent = self._stack[-1] if self._stack else -1
        if not job and parent >= 0:
            job = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, job, request])
        self._stack.append(index)
        start = self.clock()
        self.spans[index][1] = start
        self.overhead_s += start - entered
        return index

    def close(self, index: int) -> None:
        end = self.clock()
        span = self.spans[index]
        span[2] = end
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[0]} closed out of order")
        self.overhead_s += self.clock() - end

    def set_job(self, index: int, job: str) -> None:
        self.spans[index][4] = job

    def wrap(self, name: str, fn, count=None, job_of=None):
        """``fn`` recording a span per call; ``count(tracer, args, result)``
        adds counters at the same boundary."""

        def traced(*args, **kwargs):
            index = self.open(name, job_of(args) if job_of else "")
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                entered = self.clock()
                count(self, args, result)
                self.overhead_s += self.clock() - entered
            return result

        traced.__wrapped__ = fn  # inspect.signature() sees fn's parameters
        return traced

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "overhead_s": self.overhead_s,
        }


class NullTracer:
    """Tracing off: the same calls, recording nothing."""

    def open(self, name: str, job: str = "", request: str = "") -> int:
        return -1

    def close(self, index: int) -> None:
        pass

    def set_job(self, index: int, job: str) -> None:
        pass


def _count_run(tracer, _args, run) -> None:
    tracer.counters["workloads.runs"] += 1
    tracer.counters["workloads.events"] += run.trace.num_events


def _count_encode(tracer, _args, _col) -> None:
    tracer.counters["trace.encodes"] += 1


def _count_simulation(tracer, args, outcome) -> None:
    trace = args[0]
    result, info = outcome
    stats = result.hmc_stats
    counters = tracer.counters
    counters["sim.modes"] += 1
    counters["sim.events"] += trace.num_events
    counters["sim.engine_fallbacks"] += int(bool(info.fallback))
    counters["sim.cycles"] += result.cycles
    counters["hmc.flits"] += stats.total_flits
    counters["hmc.retransmitted_flits"] += stats.retransmitted_flits
    counters["hmc.reissued_requests"] += stats.reissued_requests


def _count_grid(tracer, _args, outcome) -> None:
    _outcomes, report = outcome
    tracer.counters["runner.simulations"] += report.simulations


_COUNTERS = {
    "workloads.run": _count_run,
    "trace.encode": _count_encode,
    "sim.simulate": _count_simulation,
    "runner.run": _count_grid,
}


def _spec_job(args) -> str:
    return args[0].job_id


def install(tracer: Tracer, targets=BATCH_TARGETS) -> None:
    """Wrap every target, or raise :class:`TracingError` naming the
    first one that is missing.  Targets are resolved before any is
    replaced, so a failure leaves the program untouched."""
    resolved = []
    for module_name, path, span_name in targets:
        where = f"{module_name}.{path}"
        try:
            owner = importlib.import_module(module_name)
        except ImportError as error:
            raise TracingError(f"cannot trace {where}: {error}") from None
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
            if owner is None:
                raise TracingError(f"cannot trace {where}: {part} is gone")
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        current = getattr(owner, attr, None)
        if current is None or not callable(current):
            raise TracingError(f"cannot trace {where}: {attr} is gone")
        resolved.append((owner, attr, raw, current, span_name))
    for owner, attr, raw, current, span_name in resolved:
        job_of = _spec_job if span_name == "runner.execute_spec" else None
        count = _COUNTERS.get(span_name)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(
                tracer.wrap(span_name, raw.__func__, count, job_of)
            )
        else:
            wrapped = tracer.wrap(span_name, current, count, job_of)
        setattr(owner, attr, wrapped)


def self_times(spans) -> "tuple[dict[str, float], float]":
    """Self seconds per span name, and the seconds top-level spans cover.

    A span's self time is its duration minus the durations of its
    children.  Spans come from one thread, so children never overlap.
    """
    children = [0.0] * len(spans)
    for _name, start, end, parent, _job, _request in spans:
        if parent >= 0:
            children[parent] += end - start
    totals: "dict[str, float]" = defaultdict(float)
    covered = 0.0
    for index, (name, start, end, parent, _job, _request) in enumerate(spans):
        totals[name] += (end - start) - children[index]
        if parent < 0:
            covered += end - start
    return dict(totals), covered
