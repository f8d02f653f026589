"""Vectorized trace lint over the columnar IR.

Reimplements :func:`repro.analysis.trace_lint.lint_trace` over the
:class:`~repro.trace.columnar.ColumnarTrace` columns.  The output is
**finding-for-finding identical** to the per-event linter on every
trace — same rules, same messages, same emission order, same per-rule
caps and suppression notes — which the equivalence tests in
``tests/test_passes.py`` enforce across the full workload grid and
under property-based fuzzing.

Emission order: the legacy linter walks threads in order and events in
order, emitting intra-event checks in a fixed code order.  The columnar
layout is thread-major, so the global row index reproduces the event
walk, and a per-row *variant* index (the constants below) reproduces the
intra-event code order.  Findings are materialized from candidate rows
sorted by ``(row, variant)`` and pushed through the same per-rule
cap/suppression bookkeeping as the legacy ``_Reporter``.

The row sweep runs in C (``graphpim_lint`` in ``repro/sim/_rows.c``,
built by :mod:`repro.sim._cbuild`): one walk of the frozen columns in
place, thread by thread, that evaluates the six variant checks per row,
counts every variant exactly (for the suppression notes), keeps each
variant's first ``cap`` rows as global row numbers, and compares each
thread's barrier ids with thread 0's (TRC002).  When PIM002 is checked,
a first walk gathers the lines of PMR atomics into a hash set.  A
finding's thread and in-thread index come from one ``searchsorted`` of
its row into ``starts``.  The pass's extra memory is at most ``cap``
rows per variant and the offloaded-line set, whatever the trace length.
Without the C library :func:`lint_columnar` returns None, and the
PassManager runs the per-event linter.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hmc.commands import offloadable_ops
from repro.memlayout.regions import REGION_SHIFT, Region
from repro.sim.config import Mode
from repro.trace.columnar import ColumnarTrace
from repro.trace.events import EV_LOAD, AtomicOp
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
    locate_rows,
    register_pass,
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


def lint_columnar(
    col: ColumnarTrace,
    config=None,
    address_space=None,
    max_per_rule: int = MAX_FINDINGS_PER_RULE,
) -> Optional[AnalysisReport]:
    """Vectorized lint of a columnar trace (see module docstring), or
    None without the C library."""
    from repro.sim._cbuild import load_kernel
    from repro.sim.config import SystemConfig

    lib = load_kernel()[0]
    if lib is None:
        return None
    config = config or SystemConfig.graphpim()
    report = AnalysisReport(subject=col.name or "trace")
    supported = np.asarray(
        sorted(int(op) for op in offloadable_ops(config.fp_extension)),
        dtype=np.int64,
    )
    spans, span_bases, span_ends = -1, [], []  # -1: no allocation check
    if address_space is not None:
        span_bases, span_ends = _allocation_spans(address_space)
        spans = len(span_bases)
    bases = np.asarray(span_bases, dtype=np.int64)
    ends = np.asarray(span_ends, dtype=np.int64)
    check_pim002 = config.mode is Mode.GRAPHPIM and not config.pmr_bypass

    # One sweep: exact candidate counts per variant (for suppression
    # notes), the first `cap` rows of each variant, and each thread's
    # barrier count and TRC002 flags.  Taking the first `cap` rows of
    # each *variant* is sufficient: the per-rule first-cap in (row,
    # variant) order is a subset of the union of per-variant first-caps.
    threads = col.num_threads
    cap = max(0, min(max_per_rule, col.num_events))
    params = np.array(
        [
            REGION_SHIFT,
            _PROPERTY_REGION,
            _REGION_END,
            _VALID_OP_VALUES.size,
            supported.size,
            spans,
            check_pim002,
            cap,
        ],
        dtype=np.int64,
    )
    counts = np.zeros(len(_RULE_OF_VARIANT), dtype=np.int64)
    kept = np.empty(len(_RULE_OF_VARIANT) * cap, dtype=np.int64)
    barriers = np.empty(threads, dtype=np.int64)
    flags = np.empty(threads, dtype=np.int64)
    columns = (col.kind, col.addr, col.size, col.gap, col.op)
    widths = np.array([c.itemsize for c in columns], dtype=np.int64)
    if lib.graphpim_lint(
        threads,
        *(c.ctypes.data for c in columns),
        widths.ctypes.data,
        col.starts.ctypes.data,
        params.ctypes.data,
        _VALID_OP_VALUES.ctypes.data,
        supported.ctypes.data,
        bases.ctypes.data,
        ends.ctypes.data,
        counts.ctypes.data,
        kept.ctypes.data,
        barriers.ctypes.data,
        flags.ctypes.data,
    ):
        raise MemoryError("lint sweep: out of memory")

    # Materialize at most `cap` candidates per rule, in emission order.
    rule_counts: dict[str, int] = {}
    order_keys = []
    for variant, count in enumerate(counts.tolist()):
        rule_id = _RULE_OF_VARIANT[variant]
        rule_counts[rule_id] = rule_counts.get(rule_id, 0) + count
        rows = kept[variant * cap : variant * cap + min(count, cap)]
        order_keys.append(rows * _V_STRIDE + variant)
    merged = np.sort(np.concatenate(order_keys))
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

    _emit_barrier_balance(
        col, barriers.tolist(), flags.tolist(), report, rule_counts, max_per_rule
    )

    # Suppression notes, sorted by rule id (legacy _Reporter.finalize).
    for rule_id in sorted(rule_counts):
        total = rule_counts[rule_id]
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


#: Bits of the sweep's per-thread TRC002 flags.
_DIFFERS_FROM_FIRST, _DECREASES = 1, 2


def _emit_barrier_balance(
    col: ColumnarTrace,
    barriers: "list[int]",
    flags: "list[int]",
    report: AnalysisReport,
    counts: dict[str, int],
    max_per_rule: int,
) -> None:
    """TRC002: barrier-sequence balance from each thread's barrier count
    and flags, in the legacy order."""
    first_tid = int(col.thread_ids[0])
    pending: list[Finding] = []
    for pos in range(1, col.num_threads):
        if flags[pos] & _DIFFERS_FROM_FIRST:
            pending.append(
                make_finding(
                    "TRC002",
                    f"thread {int(col.thread_ids[pos])} barrier sequence "
                    f"({barriers[pos]} barriers) differs from thread "
                    f"{first_tid} ({barriers[0]})",
                    thread_id=int(col.thread_ids[pos]),
                    fix_hint="bulk-synchronous workloads must run every "
                    "thread through every FrameworkContext.barrier()",
                )
            )
    for pos in range(col.num_threads):
        if flags[pos] & _DECREASES:
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

    def run_columnar(self, ctx: PassContext) -> Optional[PassResult]:
        report = lint_columnar(
            ctx.columnar,
            config=ctx.config,
            address_space=ctx.address_space,
        )
        if report is None:
            return None
        return PassResult(name=self.name, report=report, engine="vectorized")

    def run_legacy(self, ctx: PassContext) -> PassResult:
        report = lint_trace(
            ctx.require_trace(),
            config=ctx.config,
            address_space=ctx.address_space,
        )
        return PassResult(name=self.name, report=report, engine="legacy")


LINT_PASS = register_pass(LintPass())
