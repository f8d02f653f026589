"""Static analysis of traces, memory layouts, and system configs.

This package checks — without running the timing model — the
invariants GraphPIM's correctness rests on: property data lives in the
uncacheable PMR, every offloaded atomic maps onto one of the 18
fixed-function HMC 2.0 commands (plus the proposed FP extension), and
bulk-synchronous workloads neither race within a barrier epoch nor
mismatch their barrier sequences.  Misplaced data and non-offloadable
ops are the classic source of silently wrong PIM speedups; the linter
turns them into hard failures.

Entry points:

- :func:`lint_trace` — event-stream invariants (PIM/TRC rules).
- :func:`detect_races` — barrier-epoch data races (RACE rules).
- :func:`lint_config` — ``SystemConfig`` validation (CFG rules).
- :func:`analyze_run` — all of the above for one ``WorkloadRun``.
- :func:`check_strict` — raise :class:`AnalysisError` on ERROR
  findings (the ``strict=True`` pre-flight hook of
  ``GraphPimSystem.evaluate`` and the harness suites).
- :func:`render_sarif` / :func:`to_sarif` — SARIF 2.1.0 export for CI
  platforms (``repro lint --format sarif``).
- :func:`write_baseline` / :func:`load_baseline` /
  :func:`apply_baseline` — freeze known findings so only regressions
  gate (``repro lint --baseline``).

CLI: ``python -m repro lint <trace.npz | baseline | upei | graphpim>``
exits non-zero when any ERROR-severity finding is present, so CI can
gate on it.
"""

from __future__ import annotations

from repro.common.errors import AnalysisError
from repro.sim.config import SystemConfig
from repro.analysis.baseline import (
    apply_baseline,
    baseline_identity,
    load_baseline,
    write_baseline,
)
from repro.analysis.config_lint import lint_config
from repro.analysis.findings import AnalysisReport, Finding, Severity
from repro.analysis.race import detect_races
from repro.analysis.report import describe_rules, render_json, render_report
from repro.analysis.rules import RULES, Rule, get_rule, make_finding
from repro.analysis.sarif import render_sarif, to_sarif
from repro.analysis.trace_lint import lint_trace

#: PassManager for the gating pipeline, built on first use (the passes
#: package pulls in numpy-heavy modules; keep ``import repro.analysis``
#: light for config-only callers).
_GATING_MANAGER = None


def _gating_manager():
    global _GATING_MANAGER
    if _GATING_MANAGER is None:
        from repro.analysis.passes import PassManager

        _GATING_MANAGER = PassManager(["lint", "race"])
    return _GATING_MANAGER


def analyze_run(
    run, config: SystemConfig | None = None
) -> AnalysisReport:
    """Full static analysis of one ``WorkloadRun``.

    Lints the trace against ``config`` (GraphPIM preset by default)
    using the run's own allocation map, then layers the race detector's
    findings on top.  Runs through the :mod:`repro.analysis.passes`
    pipeline: vectorized over the columnar IR, falling back per pass
    to the reference implementations (:func:`lint_trace`,
    :func:`detect_races`) when a guard trips or the trace cannot be
    encoded; both produce finding-for-finding identical reports.
    """
    manager = _gating_manager()
    results = manager.run(
        run.trace, config=config, address_space=run.address_space
    )
    subject = getattr(run.trace, "name", None) or "trace"
    return manager.merged_report(results, subject)


def check_strict(report: AnalysisReport) -> None:
    """Raise :class:`AnalysisError` if ``report`` contains ERRORs."""
    if report.has_errors:
        raise AnalysisError(
            f"static analysis of {report.subject} found "
            f"{len(report.errors)} ERROR finding(s):\n"
            + render_report(report)
        )


#: (trace digest, config fingerprint, baseline identity) triples that
#: already passed the strict pre-flight in this process.  Keyed on
#: content, not identity, so a trace linted by the suite is not
#: re-linted by ``GraphPimSystem.evaluate_trace`` (or by a second
#: evaluation of the same run) — the lint + race pass costs a full
#: trace walk.
_PREFLIGHT_CLEAN: set[tuple[str, str, str]] = set()


def preflight_run(
    run,
    config: SystemConfig | None = None,
    trace_hash: str | None = None,
    baseline: str | None = None,
) -> str:
    """Strict pre-flight with content-addressed deduplication.

    Runs :func:`analyze_run` + :func:`check_strict` unless this exact
    (trace content, lint config, baseline content) triple already
    passed in this process.  When ``baseline`` names a baseline file
    (see :mod:`repro.analysis.baseline`), findings frozen there are
    subtracted before gating — only regressions fail.  Returns the
    trace digest so callers can reuse it (e.g. as a result cache key).
    Failures are *not* memoized: a failing trace raises every time.
    """
    from repro.trace.io import trace_digest

    if trace_hash is None:
        trace_hash = trace_digest(run.trace)
    lint_config_obj = config if config is not None else SystemConfig.graphpim()
    from repro.runner.fingerprint import config_fingerprint

    suppressed = (
        load_baseline(baseline) if baseline is not None else frozenset()
    )
    key = (
        trace_hash,
        config_fingerprint(lint_config_obj),
        baseline_identity(suppressed) if suppressed else "",
    )
    if key not in _PREFLIGHT_CLEAN:
        report = analyze_run(run, config=lint_config_obj)
        if suppressed:
            report = apply_baseline(report, suppressed)
        check_strict(report)
        _PREFLIGHT_CLEAN.add(key)
    return trace_hash


def clear_preflight_cache() -> None:
    """Drop the memoized clean set (tests)."""
    _PREFLIGHT_CLEAN.clear()


__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "Finding",
    "RULES",
    "Rule",
    "Severity",
    "analyze_run",
    "apply_baseline",
    "baseline_identity",
    "check_strict",
    "clear_preflight_cache",
    "describe_rules",
    "preflight_run",
    "detect_races",
    "get_rule",
    "lint_config",
    "lint_trace",
    "load_baseline",
    "make_finding",
    "render_json",
    "render_sarif",
    "render_report",
    "to_sarif",
    "write_baseline",
]
