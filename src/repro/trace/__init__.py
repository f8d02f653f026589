"""Instruction/memory trace model.

Phase 1 of the simulation runs a workload functionally on the graph
framework; every memory access it performs is recorded here as a
compact event on a per-thread stream, together with the number of
non-memory instructions executed since the previous access.  Phase 2
(:mod:`repro.sim`) replays these streams through the timing model.
"""

from repro.trace.events import (
    EV_ATOMIC,
    EV_BARRIER,
    EV_LOAD,
    EV_STORE,
    AtomicOp,
    is_fp_op,
)
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import load_trace, save_trace, trace_digest
from repro.trace.stream import ThreadTrace, Trace
from repro.trace.stats import TraceStats, summarize_trace

__all__ = [
    "EV_ATOMIC",
    "EV_BARRIER",
    "EV_LOAD",
    "EV_STORE",
    "AtomicOp",
    "ColumnarTrace",
    "ThreadTrace",
    "Trace",
    "TraceStats",
    "is_fp_op",
    "load_trace",
    "save_trace",
    "summarize_trace",
    "trace_digest",
]
