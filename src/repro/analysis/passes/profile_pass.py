"""Vectorized-only profile passes over the columnar IR.

These passes answer questions the per-event linter could never afford
to: whole-trace aggregations over every access.  They are *non-gating*
(``gating=False``): their product is the structured ``PassResult.data``
payload (surfaced by ``repro lint --profile`` / ``--screen``), not
findings.

- :class:`ProfilePass` — address-conflict / vault-contention profile:
  per-vault atomic counts for the PMR (the vault hash is the same
  ``(addr >> 6) % num_vaults`` the HMC timing model uses), hot-vault
  ranking, a contention ratio (max/mean), and per-region cache hit-rate
  *upper bounds* from distinct-line counts (a cache of any size misses
  at least once per distinct 64B line, so
  ``1 - distinct_lines/accesses`` bounds any LRU hit rate from above).
- :class:`OffloadSummaryPass` — per-:class:`AtomicOp` applicability:
  how many atomics exist, how many land in the PMR, and how many are
  offloadable under the active HMC command set with and without the
  FP extension.
- :class:`ScreeningPass` — cross-config screening: cheap predicted
  metrics (offloaded vs host atomic counts, UC-violation exposure) for
  each candidate :class:`SystemConfig`, letting a sweep prune
  configurations before paying for full timing simulation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hmc.commands import offloadable_ops
from repro.memlayout.regions import REGION_SHIFT, Region
from repro.sim.config import Mode, SystemConfig
from repro.trace.columnar import ColumnarTrace
from repro.trace.events import EV_ATOMIC, EV_BARRIER, AtomicOp
from repro.analysis.findings import AnalysisReport
from repro.analysis.passes.base import (
    AnalysisPass,
    PassContext,
    PassResult,
    register_pass,
    unique_sorted,
)

#: 64-byte line/vault interleave granularity (matches the HMC model).
_LINE_SHIFT = 6

#: How many vaults to list in the hot-vault ranking.
_TOP_VAULTS = 8


def _region_names() -> dict[int, str]:
    return {int(r): r.name.lower() for r in Region}


def profile_columnar(
    col: ColumnarTrace, config: SystemConfig
) -> dict:
    """Vault-contention and hit-rate-bound profile of one trace."""
    kind = col.kind
    access = kind != EV_BARRIER
    addr = col.addr[access]
    is_atomic = (kind == EV_ATOMIC)[access]
    region = addr >> REGION_SHIFT
    num_vaults = config.hmc.num_vaults

    profile: dict = {
        "num_threads": col.num_threads,
        "num_events": col.num_events,
        "accesses": int(access.sum()),
        "atomics": int(is_atomic.sum()),
        "num_vaults": num_vaults,
    }

    # --- vault contention over PMR atomics (the offload targets) ------
    pmr_atomic_addrs = addr[is_atomic & (region == int(Region.PROPERTY))]
    vault_counts = np.bincount(
        (pmr_atomic_addrs >> _LINE_SHIFT) % num_vaults,
        minlength=num_vaults,
    )
    total = int(vault_counts.sum())
    profile["pmr_atomics"] = total
    if total:
        mean = total / num_vaults
        order = np.argsort(vault_counts, kind="stable")[::-1]
        profile["hot_vaults"] = [
            {
                "vault": int(v),
                "atomics": int(vault_counts[v]),
                "share": round(float(vault_counts[v]) / total, 4),
            }
            for v in order[:_TOP_VAULTS]
            if vault_counts[v] > 0
        ]
        profile["vault_contention_ratio"] = round(
            float(vault_counts.max()) / mean, 3
        )
        profile["vaults_touched"] = int((vault_counts > 0).sum())
    else:
        profile["hot_vaults"] = []
        profile["vault_contention_ratio"] = 0.0
        profile["vaults_touched"] = 0

    # --- per-region hit-rate upper bounds -----------------------------
    names = _region_names()
    regions: dict = {}
    for value, name in names.items():
        in_region = region == value
        count = int(in_region.sum())
        if not count:
            continue
        lines = int(unique_sorted(addr[in_region] >> _LINE_SHIFT).size)
        regions[name] = {
            "accesses": count,
            "distinct_lines": lines,
            # Compulsory misses alone bound any cache's hit rate.
            "hit_rate_upper_bound": round(1.0 - lines / count, 4),
        }
    profile["regions"] = regions
    return profile


def offload_summary_columnar(
    col: ColumnarTrace, config: SystemConfig
) -> dict:
    """Per-AtomicOp offload applicability summary."""
    kind = col.kind
    is_atomic = kind == EV_ATOMIC
    ops = col.op[is_atomic]
    addrs = col.addr[is_atomic]
    rets = col.ret[is_atomic]
    in_pmr = (addrs >> REGION_SHIFT) == int(Region.PROPERTY)
    with_fp = {int(o) for o in offloadable_ops(fp_extension=True)}
    without_fp = {int(o) for o in offloadable_ops(fp_extension=False)}

    per_op: dict = {}
    total_off_fp = 0
    total_off_nofp = 0
    for value in sorted({int(v) for v in unique_sorted(ops)}):
        mask = ops == value
        count = int(mask.sum())
        pmr = int((mask & in_pmr).sum())
        try:
            name = AtomicOp(value).name
        except ValueError:
            name = f"op_{value}"
        entry = {
            "count": count,
            "pmr": pmr,
            "with_return": int((mask & (rets != 0)).sum()),
            "offloadable": value in with_fp,
            "offloadable_without_fp_ext": value in without_fp,
        }
        per_op[name] = entry
        if value in with_fp:
            total_off_fp += pmr
        if value in without_fp:
            total_off_nofp += pmr

    return {
        "atomics": int(is_atomic.sum()),
        "pmr_atomics": int(in_pmr.sum()),
        "offloadable_pmr_atomics": total_off_fp,
        "offloadable_pmr_atomics_without_fp_ext": total_off_nofp,
        "fp_extension": config.fp_extension,
        "ops": per_op,
    }


def screen_configs(
    col: ColumnarTrace, configs: "list[SystemConfig] | tuple"
) -> dict:
    """Cheap per-config predictions for sweep pruning.

    For each candidate config, predict from the trace alone: how many
    atomics would offload to the HMC, how many stay host-side, and how
    many cached accesses alias offloaded PMR lines (UC-violation
    exposure when ``pmr_bypass`` is off).  All counts come from masks
    already computed once per trace.
    """
    kind = col.kind
    addr = col.addr
    access = kind != EV_BARRIER
    is_atomic = kind == EV_ATOMIC
    region = addr >> REGION_SHIFT
    in_pmr = region == int(Region.PROPERTY)
    pmr_atomics = is_atomic & in_pmr
    atomics_total = int(is_atomic.sum())
    pmr_total = int(pmr_atomics.sum())

    # Lines holding PMR atomics, and how many cached (non-atomic)
    # accesses alias them — computed once, reused per config.
    offloaded_lines = unique_sorted(addr[pmr_atomics] >> _LINE_SHIFT)
    cached = access & ~is_atomic & in_pmr
    aliasing = (
        int(np.isin(addr[cached] >> _LINE_SHIFT, offloaded_lines).sum())
        if offloaded_lines.size
        else 0
    )

    ops = col.op[pmr_atomics]
    rows: list = []
    for config in configs:
        entry: dict = {
            "label": config.label or config.mode.name.lower(),
            "mode": config.mode.name.lower(),
            "fp_extension": config.fp_extension,
            "pmr_bypass": config.pmr_bypass,
            "atomics": atomics_total,
        }
        if config.mode is Mode.GRAPHPIM:
            allowed = np.asarray(
                sorted(
                    int(o)
                    for o in offloadable_ops(config.fp_extension)
                ),
                dtype=np.int64,
            )
            offloaded = (
                int(np.isin(ops, allowed).sum()) if ops.size else 0
            )
            entry["offloaded_atomics"] = offloaded
            entry["host_atomics"] = atomics_total - offloaded
            entry["pim001_exposed"] = pmr_total - offloaded
            entry["uc_violation_exposure"] = (
                0 if config.pmr_bypass else aliasing
            )
        else:
            entry["offloaded_atomics"] = 0
            entry["host_atomics"] = atomics_total
            entry["pim001_exposed"] = 0
            entry["uc_violation_exposure"] = 0
        rows.append(entry)
    return {"pmr_atomics": pmr_total, "configs": rows}


class ProfilePass(AnalysisPass):
    """Vault-contention / hit-rate-bound profile (vectorized only)."""

    name = "profile"
    gating = False

    def run_columnar(self, ctx: PassContext) -> Optional[PassResult]:
        data = profile_columnar(ctx.columnar, ctx.config)
        return PassResult(
            name=self.name,
            report=AnalysisReport(subject=ctx.subject),
            engine="vectorized",
            data=data,
        )


class OffloadSummaryPass(AnalysisPass):
    """Per-AtomicOp offload applicability (vectorized only)."""

    name = "offload"
    gating = False

    def run_columnar(self, ctx: PassContext) -> Optional[PassResult]:
        data = offload_summary_columnar(ctx.columnar, ctx.config)
        return PassResult(
            name=self.name,
            report=AnalysisReport(subject=ctx.subject),
            engine="vectorized",
            data=data,
        )


class ScreeningPass(AnalysisPass):
    """Cross-config screening predictions (vectorized only)."""

    name = "screening"
    gating = False

    def run_columnar(self, ctx: PassContext) -> Optional[PassResult]:
        configs = list(ctx.screen_configs) or [ctx.config]
        data = screen_configs(ctx.columnar, configs)
        return PassResult(
            name=self.name,
            report=AnalysisReport(subject=ctx.subject),
            engine="vectorized",
            data=data,
        )


PROFILE_PASS = register_pass(ProfilePass())
OFFLOAD_PASS = register_pass(OffloadSummaryPass())
SCREENING_PASS = register_pass(ScreeningPass())
