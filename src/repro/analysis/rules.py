"""Rule registry: ids, default severities, and one-line descriptions.

Rule ids are stable strings (``PIM``/``TRC``/``RACE``/``CFG`` families)
so CI configurations and tests can match on them.  Analyzers create
findings through :func:`make_finding`, which fills in the registered
default severity and keeps unknown rule ids from slipping in.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.analysis.findings import Finding, Severity


@dataclass(frozen=True)
class Rule:
    """A registered analysis rule."""

    rule_id: str
    severity: Severity
    summary: str


#: All rules, keyed by id.  Severities here are the defaults; a few
#: rules downgrade case-by-case (documented at the emitting site).
RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule(
            "PIM001",
            Severity.ERROR,
            "atomic in the PMR has no HMC command under the active "
            "command set (Table I/II)",
        ),
        Rule(
            "PIM002",
            Severity.ERROR,
            "cached load/store aliases a PMR line that receives "
            "offloaded atomics (UC violation)",
        ),
        Rule(
            "TRC001",
            Severity.ERROR,
            "address falls outside every memlayout region/allocation",
        ),
        Rule(
            "TRC002",
            Severity.ERROR,
            "barrier sequences are unbalanced or mismatched across "
            "threads",
        ),
        Rule(
            "TRC003",
            Severity.ERROR,
            "malformed event (atomic op or field domain)",
        ),
        Rule(
            "RACE001",
            Severity.ERROR,
            "non-atomic store conflicts with another thread's access "
            "to the same location in the same barrier epoch",
        ),
        Rule(
            "CFG001",
            Severity.WARNING,
            "cache geometry is not power-of-two (sets or line size)",
        ),
        Rule(
            "CFG002",
            Severity.WARNING,
            "cache capacities do not grow monotonically L1 <= L2 <= L3",
        ),
        Rule(
            "CFG003",
            Severity.ERROR,
            "HMC geometry exceeds the HMC 2.0 envelope "
            "(vaults/banks/links)",
        ),
        Rule(
            "CFG004",
            Severity.WARNING,
            "mode-inconsistent flags (e.g. GraphPIM with PMR caching "
            "enabled)",
        ),
        Rule(
            "CFG005",
            Severity.ERROR,
            "hybrid-memory settings are inconsistent "
            "(property_hmc_fraction vs. dram)",
        ),
    )
}


def get_rule(rule_id: str) -> Rule:
    """Look up a rule by id."""
    try:
        return RULES[rule_id]
    except KeyError:
        raise ConfigError(f"unknown analysis rule {rule_id!r}") from None


def make_finding(
    rule_id: str,
    message: str,
    thread_id: int | None = None,
    event_index: int | None = None,
    fix_hint: str = "",
    severity: Severity | None = None,
) -> Finding:
    """Create a finding with the rule's registered default severity."""
    rule = get_rule(rule_id)
    return Finding(
        rule_id=rule_id,
        severity=rule.severity if severity is None else severity,
        message=message,
        thread_id=thread_id,
        event_index=event_index,
        fix_hint=fix_hint,
    )
