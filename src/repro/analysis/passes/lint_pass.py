"""Vectorized trace lint over the columnar IR.

Reimplements :func:`repro.analysis.trace_lint.lint_trace` as numpy mask
algebra over :class:`~repro.trace.columnar.ColumnarTrace` columns.  The
output is **finding-for-finding identical** to the per-event linter on
every trace — same rules, same messages, same emission order, same
per-rule caps and suppression notes — which the equivalence tests in
``tests/test_passes.py`` enforce across the full workload grid and
under property-based fuzzing.

Emission order: the legacy linter walks threads in order and events in
order, emitting intra-event checks in a fixed code order.  The columnar
layout is thread-major, so the global row index reproduces the event
walk, and a per-row *variant* index (the constants below) reproduces the
intra-event code order.  Findings are materialized from mask candidates
sorted by ``(row, variant)`` and pushed through the same per-rule
cap/suppression bookkeeping as the legacy ``_Reporter``.

Memory: the masks are built over fixed chunks of events
(:func:`~repro.analysis.passes.base.event_chunks`), never over the
whole trace.  When PIM002 is checked, a first sweep gathers the sorted
set of PMR lines with offloaded atomics, merging per-chunk sets.  A
second sweep builds each chunk's six variant masks, adds every rule's
exact count (for the suppression notes), keeps each variant's first
``cap`` rows as global row numbers, and collects each thread's barrier
ids (TRC002).  A finding's thread and in-thread index come from one
``searchsorted`` of its row into ``starts``.  The pass's extra memory
is therefore one chunk's temporaries plus at most ``cap`` rows per
variant and the offloaded-line set, whatever the trace length.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hmc.commands import offloadable_ops
from repro.memlayout.regions import REGION_SHIFT, Region
from repro.sim.config import Mode
from repro.trace.columnar import ColumnarTrace
from repro.trace.events import EV_ATOMIC, EV_BARRIER, EV_LOAD, AtomicOp
from repro.analysis.findings import AnalysisReport, Finding, Severity
from repro.analysis.rules import make_finding
from repro.analysis.trace_lint import (
    MAX_FINDINGS_PER_RULE,
    _allocation_spans,
    lint_trace,
)
from repro.analysis.passes.base import (
    AnalysisPass,
    PassContext,
    PassResult,
    event_chunks,
    in_sorted_set,
    locate_rows,
    register_pass,
    unique_sorted,
)

_PROPERTY_REGION = int(Region.PROPERTY)
#: Region tags are 0..2 (META, STRUCTURE, PROPERTY), so an address has
#: a valid region exactly when it lies in [0, _REGION_END).
_REGION_END = (max(Region) + 1) << REGION_SHIFT
_VALID_OP_VALUES = np.asarray(sorted(int(op) for op in AtomicOp), dtype=np.int64)

# Intra-event check order of the legacy linter, as variant indices.
_V_BARRIER_NEG = 0  # TRC003: barrier negative id/gap
_V_SIZEGAP = 1      # TRC003: access bad size/gap
_V_REGION = 2       # TRC001: outside region (ERROR) / allocation (WARNING)
_V_OP = 3           # TRC003: atomic op not an AtomicOp
_V_PIM001 = 4       # PIM001: PMR atomic with no HMC command
_V_PIM002 = 5       # PIM002: cached access aliases an offloaded PMR line
_V_STRIDE = 8       # rows-per-variant stride for the global order key

_RULE_OF_VARIANT = {
    _V_BARRIER_NEG: "TRC003",
    _V_SIZEGAP: "TRC003",
    _V_REGION: "TRC001",
    _V_OP: "TRC003",
    _V_PIM001: "PIM001",
    _V_PIM002: "PIM002",
}


def _vector_in_allocation(
    addrs: np.ndarray, bases: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Vectorized twin of the legacy bisect containment check."""
    if not bases.size:
        return np.zeros(addrs.shape, dtype=bool)
    idx = np.searchsorted(bases, addrs, side="right") - 1
    clamped = np.maximum(idx, 0)
    return (idx >= 0) & (addrs < ends[clamped])


def _offloaded_lines(col: ColumnarTrace) -> np.ndarray:
    """Sorted line addresses (``addr >> 6``) of every PMR atomic.

    One chunked sweep: each chunk's lines are reduced to a sorted set,
    and the pending sets are folded into the result once they hold more
    entries than it, so the sets held stay within about twice the
    result plus one chunk's.
    """
    merged = np.empty(0, dtype=np.int64)
    pending: list[np.ndarray] = []
    held = 0
    for _pos, lo, hi in event_chunks(col):
        addr = col.addr[lo:hi]
        offloaded = (col.kind[lo:hi] == EV_ATOMIC) & (
            (addr >> REGION_SHIFT) == _PROPERTY_REGION
        )
        lines = unique_sorted(addr[offloaded] >> 6)
        pending.append(lines)
        held += lines.size
        if held > merged.size:
            merged = unique_sorted(np.concatenate([merged, *pending]))
            pending, held = [], 0
    return unique_sorted(np.concatenate([merged, *pending]))


def _chunk_masks(
    col: ColumnarTrace,
    lo: int,
    hi: int,
    supported_values: np.ndarray,
    spans: Optional[tuple[np.ndarray, np.ndarray]],
    offloaded_lines: Optional[np.ndarray],
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Barrier mask and per-variant finding masks of rows ``[lo, hi)``.

    ``spans`` holds the allocation bounds when TRC001 checks
    allocations, and ``offloaded_lines`` the PMR lines with offloaded
    atomics when PIM002 is checked (its mask is absent otherwise).
    """
    kind, addr = col.kind[lo:hi], col.addr[lo:hi]
    size, gap = col.size[lo:hi], col.gap[lo:hi]
    is_barrier = kind == EV_BARRIER
    access = ~is_barrier
    is_atomic = kind == EV_ATOMIC
    region_ok = (addr >= 0) & (addr < _REGION_END)
    in_pmr = access & ((addr >> REGION_SHIFT) == _PROPERTY_REGION)

    masks: dict[int, np.ndarray] = {}
    masks[_V_BARRIER_NEG] = is_barrier & ((size < 0) | (gap < 0))
    masks[_V_SIZEGAP] = access & ((size <= 0) | (gap < 0))
    outside = access & ~region_ok
    if spans is not None:
        alloc_ok = _vector_in_allocation(addr, *spans)
        outside |= access & region_ok & ~alloc_ok
    masks[_V_REGION] = outside
    # The op column means nothing off atomic rows: test those alone.
    atomic_rows = np.flatnonzero(is_atomic)
    atomic_op = col.op[lo:hi][atomic_rows]
    masks[_V_OP] = np.zeros(hi - lo, dtype=bool)
    masks[_V_OP][atomic_rows] = ~in_sorted_set(atomic_op, _VALID_OP_VALUES)
    masks[_V_PIM001] = np.zeros(hi - lo, dtype=bool)
    masks[_V_PIM001][atomic_rows] = in_pmr[atomic_rows] & ~in_sorted_set(
        atomic_op, supported_values
    )
    if offloaded_lines is not None:
        masks[_V_PIM002] = (
            ~is_atomic & in_pmr & in_sorted_set(addr >> 6, offloaded_lines)
        )
    return is_barrier, masks


def lint_columnar(
    col: ColumnarTrace,
    config=None,
    address_space=None,
    max_per_rule: int = MAX_FINDINGS_PER_RULE,
) -> AnalysisReport:
    """Vectorized lint of a columnar trace (see module docstring)."""
    from repro.sim.config import SystemConfig

    config = config or SystemConfig.graphpim()
    report = AnalysisReport(subject=col.name or "trace")
    supported = offloadable_ops(config.fp_extension)
    supported_values = np.asarray(
        sorted(int(op) for op in supported), dtype=np.int64
    )
    spans = None
    if address_space is not None:
        bases, ends = _allocation_spans(address_space)
        spans = (
            np.asarray(bases, dtype=np.int64),
            np.asarray(ends, dtype=np.int64),
        )
    offloaded_lines = None
    if config.mode is Mode.GRAPHPIM and not config.pmr_bypass:
        offloaded_lines = _offloaded_lines(col)

    # One sweep: exact candidate counts per rule (for suppression
    # notes), the first `cap` rows of each variant, and each thread's
    # barrier ids.  Taking the first `cap` rows of each *variant* is
    # sufficient: the per-rule first-cap in (row, variant) order is a
    # subset of the union of per-variant first-caps.
    counts: dict[str, int] = {}
    kept: dict[int, list[np.ndarray]] = {v: [] for v in _RULE_OF_VARIANT}
    taken = dict.fromkeys(_RULE_OF_VARIANT, 0)
    barrier_ids: list[list[np.ndarray]] = [[] for _ in range(col.num_threads)]
    for pos, lo, hi in event_chunks(col):
        is_barrier, masks = _chunk_masks(
            col, lo, hi, supported_values, spans, offloaded_lines
        )
        barrier_ids[pos].append(col.size[lo:hi][is_barrier])
        for variant, mask in masks.items():
            rule_id = _RULE_OF_VARIANT[variant]
            counts[rule_id] = counts.get(rule_id, 0) + int(
                np.count_nonzero(mask)
            )
            wanted = max_per_rule - taken[variant]
            if wanted > 0:
                rows = np.flatnonzero(mask)[:wanted]
                if rows.size:
                    kept[variant].append(rows + lo)
                    taken[variant] += rows.size

    # Materialize at most `cap` candidates per rule, in emission order.
    order_keys = [
        np.concatenate(parts) * _V_STRIDE + variant
        for variant, parts in kept.items()
        if parts
    ]
    if order_keys:
        merged = np.sort(np.concatenate(order_keys))
    else:
        merged = np.empty(0, dtype=np.int64)
    tpos, idx_in_thread = locate_rows(col, merged // _V_STRIDE)

    emitted: dict[str, int] = {}
    for key, pos, index in zip(
        merged.tolist(), tpos.tolist(), idx_in_thread.tolist()
    ):
        row, variant = divmod(key, _V_STRIDE)
        rule_id = _RULE_OF_VARIANT[variant]
        seen = emitted.get(rule_id, 0)
        if seen >= max_per_rule:
            continue
        emitted[rule_id] = seen + 1
        report.add(
            _build_finding(
                col, config, variant, row, int(col.thread_ids[pos]), index
            )
        )

    sequences = [
        np.concatenate(parts) if parts else col.size[:0]
        for parts in barrier_ids
    ]
    _emit_barrier_balance(col, sequences, report, counts, max_per_rule)

    # Suppression notes, sorted by rule id (legacy _Reporter.finalize).
    for rule_id in sorted(counts):
        total = counts[rule_id]
        if total > max_per_rule:
            report.add(
                make_finding(
                    rule_id,
                    f"{total - max_per_rule} further {rule_id} findings "
                    f"suppressed (cap {max_per_rule} per rule)",
                    severity=Severity.INFO,
                )
            )
    return report


def _build_finding(col, config, variant, row, tid, index) -> Finding:
    addr = int(col.addr[row])
    size = int(col.size[row])
    gap = int(col.gap[row])
    op_val = int(col.op[row])
    if variant == _V_BARRIER_NEG:
        # The barrier id rides in the size column.
        return make_finding(
            "TRC003",
            f"barrier event has negative field (id={size}, gap={gap})",
            thread_id=tid,
            event_index=index,
        )
    if variant == _V_SIZEGAP:
        return make_finding(
            "TRC003",
            f"access event has bad size/gap (size={size}, gap={gap})",
            thread_id=tid,
            event_index=index,
        )
    if variant == _V_REGION:
        # The mask merges the two mutually exclusive TRC001 variants;
        # region validity tells them apart (valid region => WARNING).
        if 0 <= addr < _REGION_END:
            return make_finding(
                "TRC001",
                f"address {addr:#x} is region-tagged but outside "
                f"every allocation",
                thread_id=tid,
                event_index=index,
                severity=Severity.WARNING,
            )
        return make_finding(
            "TRC001",
            f"address {addr:#x} is outside every memlayout region",
            thread_id=tid,
            event_index=index,
            fix_hint="allocate through AddressSpace / "
            "FrameworkContext instead of raw addresses",
        )
    if variant == _V_OP:
        return make_finding(
            "TRC003",
            f"atomic op {op_val!r} is not an AtomicOp",
            thread_id=tid,
            event_index=index,
        )
    if variant == _V_PIM001:
        try:
            what = f"{AtomicOp(op_val).name}"
        except ValueError:
            what = f"op {op_val!r}"
        return make_finding(
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
    assert variant == _V_PIM002
    return make_finding(
        "PIM002",
        f"cached {'load' if col.kind[row] == EV_LOAD else 'store'} at "
        f"{addr:#x} aliases a PMR line with offloaded atomics "
        f"(UC violation)",
        thread_id=tid,
        event_index=index,
        fix_hint="re-enable pmr_bypass or stop offloading "
        "atomics to cached lines",
    )


def _emit_barrier_balance(
    col: ColumnarTrace,
    sequences: list[np.ndarray],
    report: AnalysisReport,
    counts: dict[str, int],
    max_per_rule: int,
) -> None:
    """TRC002: barrier-sequence balance of the per-thread barrier id
    arrays ``sequences``, mirroring the legacy order."""
    reference = sequences[0]
    first_tid = int(col.thread_ids[0])
    pending: list[Finding] = []
    for pos in range(1, col.num_threads):
        seq = sequences[pos]
        if seq.size != reference.size or not np.array_equal(seq, reference):
            pending.append(
                make_finding(
                    "TRC002",
                    f"thread {int(col.thread_ids[pos])} barrier sequence "
                    f"({seq.size} barriers) differs from thread "
                    f"{first_tid} ({reference.size})",
                    thread_id=int(col.thread_ids[pos]),
                    fix_hint="bulk-synchronous workloads must run every "
                    "thread through every FrameworkContext.barrier()",
                )
            )
    for pos in range(col.num_threads):
        seq = sequences[pos]
        if seq.size > 1 and bool(np.any(seq[1:] < seq[:-1])):
            pending.append(
                make_finding(
                    "TRC002",
                    f"thread {int(col.thread_ids[pos])} barrier ids are "
                    f"not monotonically increasing",
                    thread_id=int(col.thread_ids[pos]),
                )
            )
    counts["TRC002"] = counts.get("TRC002", 0) + len(pending)
    for finding in pending[:max_per_rule]:
        report.add(finding)


class LintPass(AnalysisPass):
    """PIM/TRC invariant lint (vectorized with a per-event oracle)."""

    name = "lint"

    def run_columnar(self, ctx: PassContext) -> PassResult:
        report = lint_columnar(
            ctx.columnar,
            config=ctx.config,
            address_space=ctx.address_space,
        )
        return PassResult(name=self.name, report=report, engine="vectorized")

    def run_legacy(self, ctx: PassContext) -> PassResult:
        report = lint_trace(
            ctx.require_trace(),
            config=ctx.config,
            address_space=ctx.address_space,
        )
        return PassResult(name=self.name, report=report, engine="legacy")


LINT_PASS = register_pass(LintPass())
