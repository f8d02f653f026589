"""Chaos-injection harness for the runner's worker fleet.

Public surface:

- :class:`~repro.chaos.plan.ChaosPlan` — frozen, seeded,
  JSON-round-trippable description of the faults to inject (worker
  kills, heartbeat stalls, cache corruption, journal tears).
- :func:`~repro.chaos.hooks.corrupt_cache_entries` /
  :func:`~repro.chaos.hooks.truncate_journal` — the parent-side
  injection points (worker-side hooks live in
  :mod:`repro.runner.pool`).

Chaos plans ride :class:`~repro.runner.spec.RunnerConfig` (CLI:
``repro run --chaos "kill=0:1,seed=7"``) and are excluded from cache
identity: the invariant under every plan is that the grid completes
with results bit-identical to a chaos-free serial run.
"""

from repro.chaos.hooks import corrupt_cache_entries, truncate_journal
from repro.chaos.plan import ChaosPlan

__all__ = ["ChaosPlan", "corrupt_cache_entries", "truncate_journal"]
