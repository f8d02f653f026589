"""Extensible analysis passes over the columnar trace IR.

Importing this package registers the standard passes:

- ``lint``   — vectorized trace-lint (PIM001/2, TRC001-3) with the
  PR 1 per-event linter as oracle/fallback.
- ``race``   — vectorized barrier-epoch race detection (RACE001) with
  the per-event detector as oracle/fallback.
- ``profile`` / ``offload`` / ``screening`` — vectorized-only
  whole-trace aggregations (vault contention, offload applicability,
  cross-config screening).

Use :class:`PassManager` to run a pipeline with per-pass legacy
fallback.
"""

from repro.analysis.passes.base import (
    AnalysisPass,
    PassContext,
    PassManager,
    PassResult,
    all_passes,
    get_pass,
    register_pass,
)
from repro.analysis.passes.lint_pass import LINT_PASS, LintPass, lint_columnar
from repro.analysis.passes.race_pass import (
    RACE_PASS,
    RacePass,
    detect_races_columnar,
)
from repro.analysis.passes.profile_pass import (
    OFFLOAD_PASS,
    PROFILE_PASS,
    SCREENING_PASS,
    OffloadSummaryPass,
    ProfilePass,
    ScreeningPass,
    offload_summary_columnar,
    profile_columnar,
    screen_configs,
)

__all__ = [
    "AnalysisPass",
    "LINT_PASS",
    "LintPass",
    "OFFLOAD_PASS",
    "OffloadSummaryPass",
    "PROFILE_PASS",
    "PassContext",
    "PassManager",
    "PassResult",
    "ProfilePass",
    "RACE_PASS",
    "RacePass",
    "SCREENING_PASS",
    "ScreeningPass",
    "all_passes",
    "detect_races_columnar",
    "get_pass",
    "lint_columnar",
    "offload_summary_columnar",
    "profile_columnar",
    "register_pass",
    "screen_configs",
]
