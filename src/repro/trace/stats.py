"""Static trace statistics.

These are the quantities the paper derives from instrumentation before
any timing simulation: atomic-instruction density, per-region access
mix, and PIM-offload candidate counts (used by Table III and the
analytical model's ``r_atomic`` input).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.memlayout.regions import Region, region_of
from repro.trace.events import EV_ATOMIC, EV_BARRIER, EV_LOAD, EV_STORE, AtomicOp
from repro.trace.stream import Trace


@dataclass
class TraceStats:
    """Aggregate statistics of one trace."""

    total_instructions: int = 0
    loads: int = 0
    stores: int = 0
    atomics: int = 0
    barriers: int = 0
    region_accesses: dict[Region, int] = field(default_factory=dict)
    property_atomics: int = 0
    atomic_ops: Counter = field(default_factory=Counter)

    @property
    def atomic_fraction(self) -> float:
        """Atomics as a fraction of all instructions (model's r_atomic)."""
        if self.total_instructions == 0:
            return 0.0
        return self.atomics / self.total_instructions

    @property
    def pim_candidate_fraction(self) -> float:
        """Property-region atomics as a fraction of all instructions."""
        if self.total_instructions == 0:
            return 0.0
        return self.property_atomics / self.total_instructions


def summarize_trace(trace: Trace) -> TraceStats:
    """Walk ``trace`` once and compute :class:`TraceStats`."""
    stats = TraceStats(region_accesses={region: 0 for region in Region})
    for thread in trace.threads:
        for event in thread.event_tuples():
            kind = event[0]
            if kind == EV_BARRIER:
                stats.barriers += 1
                stats.total_instructions += event[2]
                continue
            addr, gap = event[1], event[3]
            region = region_of(addr)
            stats.region_accesses[region] += 1
            stats.total_instructions += gap + 1
            if kind == EV_LOAD:
                stats.loads += 1
            elif kind == EV_STORE:
                stats.stores += 1
            elif kind == EV_ATOMIC:
                stats.atomics += 1
                op: AtomicOp = event[4]
                stats.atomic_ops[op] += 1
                if region is Region.PROPERTY:
                    stats.property_atomics += 1
    return stats
