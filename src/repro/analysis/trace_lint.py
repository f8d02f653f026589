"""Trace linter: replay-free invariant checking of event streams.

The linter walks a :class:`~repro.trace.stream.Trace` once — without the
timing model — and reports violations of the invariants the simulator
otherwise silently assumes:

- ``PIM001`` — an atomic whose address falls inside the PMR but whose
  op has no HMC command under the active command set (Table I/II via
  the shared :data:`repro.hmc.commands.HOST_TO_HMC` table; FP ops drop
  out of the set when the lint config disables the extension).
- ``PIM002`` — a *cached* load/store aliasing a PMR line that also
  receives offloaded atomics.  PMR accesses are only cached when the
  configuration both offloads (GraphPIM mode) and disables the UC
  bypass — the coherence-hazard ablation — so this rule is inert under
  the default configurations.
- ``TRC001`` — an address outside every memlayout region (bad region
  bits), or — when the run's :class:`AddressSpace` is supplied —
  inside a region but outside every allocation (downgraded to
  WARNING: a wild-but-region-tagged address skews stats, it does not
  crash the replay).
- ``TRC002`` — unbalanced/mismatched barrier sequences across threads.
- ``TRC003`` — malformed events (negative sizes, gaps or barrier
  fields, atomic ops no :class:`~repro.trace.events.AtomicOp` names).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter

from repro.hmc.commands import offloadable_ops
from repro.memlayout.allocator import AddressSpace
from repro.memlayout.regions import REGION_SHIFT, Region
from repro.sim.config import Mode, SystemConfig
from repro.trace.events import (
    EV_ATOMIC,
    EV_BARRIER,
    EV_LOAD,
    AtomicOp,
)
from repro.trace.stream import Trace
from repro.analysis.findings import AnalysisReport, Severity
from repro.analysis.rules import make_finding

_VALID_REGIONS = frozenset(int(r) for r in Region)
_PROPERTY_REGION = int(Region.PROPERTY)

#: Per-rule cap on recorded findings; a systematically corrupt trace
#: would otherwise produce one finding per event.
MAX_FINDINGS_PER_RULE = 100


class _Reporter:
    """Caps per-rule findings and records how many were suppressed."""

    def __init__(self, report: AnalysisReport, cap: int):
        self.report = report
        self.cap = cap
        self.counts: Counter = Counter()

    def emit(self, rule_id: str, *args, **kwargs) -> None:
        self.counts[rule_id] += 1
        if self.counts[rule_id] <= self.cap:
            self.report.add(make_finding(rule_id, *args, **kwargs))

    def finalize(self) -> None:
        for rule_id, count in sorted(self.counts.items()):
            if count > self.cap:
                self.report.add(
                    make_finding(
                        rule_id,
                        f"{count - self.cap} further {rule_id} findings "
                        f"suppressed (cap {self.cap} per rule)",
                        severity=Severity.INFO,
                    )
                )


def _allocation_spans(space: AddressSpace) -> tuple[list[int], list[int]]:
    """Sorted (bases, ends) arrays for bisect-based containment checks."""
    spans = sorted(
        (a.base, a.end) for a in space.allocations if a.size_bytes > 0
    )
    return [s[0] for s in spans], [s[1] for s in spans]


def _in_any_allocation(addr: int, bases: list[int], ends: list[int]) -> bool:
    i = bisect_right(bases, addr) - 1
    return i >= 0 and addr < ends[i]


def lint_trace(
    trace: Trace,
    config: SystemConfig | None = None,
    address_space: AddressSpace | None = None,
    max_per_rule: int = MAX_FINDINGS_PER_RULE,
) -> AnalysisReport:
    """Lint ``trace`` against the invariants of ``config``.

    ``config`` defaults to the GraphPIM preset (UC bypass on, FP
    extension on).  Supplying the run's ``address_space`` additionally
    checks every address against the actual allocation map.
    """
    config = config or SystemConfig.graphpim()
    report = AnalysisReport(subject=trace.name or "trace")
    out = _Reporter(report, max_per_rule)
    supported = offloadable_ops(config.fp_extension)

    # The UC rule needs the set of PMR lines that receive offloaded
    # atomics; it only applies when PMR data is cached while atomics
    # still offload (GraphPIM mode with the bypass ablated).
    check_uc = config.mode is Mode.GRAPHPIM and not config.pmr_bypass
    offloaded_lines: set[int] = set()
    if check_uc:
        for thread in trace.threads:
            for event in thread.event_tuples():
                if (
                    event[0] == EV_ATOMIC
                    and event[1] >> REGION_SHIFT == _PROPERTY_REGION
                ):
                    offloaded_lines.add(event[1] >> 6)

    spans = _allocation_spans(address_space) if address_space else None

    for thread in trace.threads:
        tid = thread.thread_id
        for index, event in enumerate(thread.event_tuples()):
            kind = event[0]
            if kind == EV_BARRIER:
                barrier_id, gap = event[1], event[2]
                if barrier_id < 0 or gap < 0:
                    out.emit(
                        "TRC003",
                        f"barrier event has negative field "
                        f"(id={barrier_id}, gap={gap})",
                        thread_id=tid,
                        event_index=index,
                    )
                continue

            addr, size, gap = event[1], event[2], event[3]
            if size <= 0 or gap < 0:
                out.emit(
                    "TRC003",
                    f"access event has bad size/gap "
                    f"(size={size}, gap={gap})",
                    thread_id=tid,
                    event_index=index,
                )
            in_pmr = False
            if addr < 0 or (addr >> REGION_SHIFT) not in _VALID_REGIONS:
                out.emit(
                    "TRC001",
                    f"address {addr:#x} is outside every memlayout region",
                    thread_id=tid,
                    event_index=index,
                    fix_hint="allocate through AddressSpace / "
                    "FrameworkContext instead of raw addresses",
                )
            else:
                in_pmr = addr >> REGION_SHIFT == _PROPERTY_REGION
                if spans is not None and not _in_any_allocation(
                    addr, *spans
                ):
                    out.emit(
                        "TRC001",
                        f"address {addr:#x} is region-tagged but outside "
                        f"every allocation",
                        thread_id=tid,
                        event_index=index,
                        severity=Severity.WARNING,
                    )

            if kind == EV_ATOMIC:
                op = event[4]
                if not isinstance(op, AtomicOp):
                    # The decoded tuple keeps an op no AtomicOp names
                    # as its raw integer.
                    out.emit(
                        "TRC003",
                        f"atomic op {op!r} is not an AtomicOp",
                        thread_id=tid,
                        event_index=index,
                    )
                    op = None
                if in_pmr and (op is None or op not in supported):
                    what = (
                        f"op {event[4]!r}" if op is None else f"{op.name}"
                    )
                    out.emit(
                        "PIM001",
                        f"PMR atomic {what} has no HMC command under the "
                        f"active command set "
                        f"(fp_extension={config.fp_extension})",
                        thread_id=tid,
                        event_index=index,
                        fix_hint="keep the update host-side (allocate the "
                        "array with malloc, not pmr_malloc) or enable the "
                        "FP extension",
                    )
            elif check_uc and in_pmr and (addr >> 6) in offloaded_lines:
                out.emit(
                    "PIM002",
                    f"cached {'load' if kind == EV_LOAD else 'store'} at "
                    f"{addr:#x} aliases a PMR line with offloaded atomics "
                    f"(UC violation)",
                    thread_id=tid,
                    event_index=index,
                    fix_hint="re-enable pmr_bypass or stop offloading "
                    "atomics to cached lines",
                )

    # Barrier balance (TRC002): every thread must see the same sequence.
    sequences = trace.barrier_sequences()
    reference = sequences[0]
    for thread, sequence in zip(trace.threads[1:], sequences[1:]):
        if sequence != reference:
            out.emit(
                "TRC002",
                f"thread {thread.thread_id} barrier sequence "
                f"({len(sequence)} barriers) differs from thread "
                f"{trace.threads[0].thread_id} ({len(reference)})",
                thread_id=thread.thread_id,
                fix_hint="bulk-synchronous workloads must run every "
                "thread through every FrameworkContext.barrier()",
            )
    for thread, sequence in zip(trace.threads, sequences):
        if sequence != sorted(sequence):
            out.emit(
                "TRC002",
                f"thread {thread.thread_id} barrier ids are not "
                f"monotonically increasing",
                thread_id=thread.thread_id,
            )

    out.finalize()
    return report
