"""Serializable chaos-injection plans for the experiment runner.

The PR 3 :class:`~repro.faults.plan.FaultPlan` idiom pointed at our own
infrastructure instead of the simulated HMC links: a :class:`ChaosPlan`
describes *what goes wrong in the worker fleet* — a worker killed after
K jobs, a worker frozen mid-job, cache entries corrupted, the
checkpoint journal torn mid-record — so the supervision machinery can
be exercised deterministically from tests and ``scripts/check.sh``.

Plans are frozen, hashable, and JSON-round-trippable, and every random
choice (which bytes to flip) derives from ``seed`` through
:func:`~repro.common.rng.derive_seed`, so a chaos run is reproducible
bit-for-bit.  Plans ride on :class:`~repro.runner.spec.RunnerConfig`
(execution strategy, like ``jobs`` or ``parallel``) and therefore never
touch cache keys or spec keys: the whole point is that a chaos-ridden
grid must produce results byte-identical to the serial reference.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.common.rng import derive_seed


@dataclass(frozen=True)
class ChaosPlan:
    """Seeded description of injected infrastructure faults."""

    #: Root seed for every byte-flip decision the plan makes.
    seed: int = 0
    #: Pool worker index to kill (-1 disables the kill fault).  Worker
    #: ids are assigned in spawn order and never reused, so a
    #: replacement worker does not inherit the curse.
    kill_worker: int = -1
    #: The doomed worker exits after completing this many jobs (0 =
    #: dies on its first job).
    kill_after_jobs: int = 0
    #: When True the kill fires *after* the worker sent its traced
    #: run, exercising the resume path (the supervisor re-dispatches
    #: the job with that run, and the replacement skips tracing).
    kill_after_trace: bool = False
    #: Pool worker index that freezes mid-job, job loop and heartbeat
    #: thread alike (-1 disables the stall fault).
    stall_worker: int = -1
    #: The stall starts once the worker has completed this many jobs.
    stall_after_jobs: int = 0
    #: How long the worker stays frozen; anything beyond
    #: ``heartbeat_timeout_s`` reads as a hang to the supervisor.
    stall_seconds: float = 0.0
    #: Flip bytes in up to this many result-cache object files before
    #: the grid starts (corrupt entries must read as misses).
    corrupt_cache_entries: int = 0
    #: Truncate this many bytes off the checkpoint journal's tail after
    #: the grid finishes, simulating a torn final write; ``--resume``
    #: must still complete.
    truncate_journal_bytes: int = 0
    #: Workload code whose jobs crash any worker that executes them
    #: (the poisoned-spec scenario: two dead workers → quarantine).
    poison_workload: str = ""
    #: Fleet fault (PR 10): a ``repro worker`` abandons its current
    #: lease batch — stops heartbeating and executing without
    #: deregistering, as a SIGKILLed worker would — once it has leased
    #: more than this many jobs in total (-1 disables the fault).  The
    #: broker's lease expiry must redispatch the abandoned jobs.
    lease_abandon_after: int = -1

    def __post_init__(self) -> None:
        if self.kill_worker < -1:
            raise ConfigError("kill_worker must be >= 0 or -1 (off)")
        if self.kill_after_jobs < 0:
            raise ConfigError("kill_after_jobs must be >= 0")
        if self.stall_worker < -1:
            raise ConfigError("stall_worker must be >= 0 or -1 (off)")
        if self.stall_after_jobs < 0:
            raise ConfigError("stall_after_jobs must be >= 0")
        if self.stall_seconds < 0:
            raise ConfigError("stall_seconds must be >= 0")
        if self.stall_worker >= 0 and self.stall_seconds <= 0:
            raise ConfigError(
                "stall_worker needs stall_seconds > 0 to have any effect"
            )
        if self.corrupt_cache_entries < 0:
            raise ConfigError("corrupt_cache_entries must be >= 0")
        if self.truncate_journal_bytes < 0:
            raise ConfigError("truncate_journal_bytes must be >= 0")
        if self.lease_abandon_after < -1:
            raise ConfigError(
                "lease_abandon_after must be >= 0 or -1 (off)"
            )

    @property
    def enabled(self) -> bool:
        """True when the plan can actually perturb a grid."""
        return (
            self.kill_worker >= 0
            or self.stall_worker >= 0
            or self.corrupt_cache_entries > 0
            or self.truncate_journal_bytes > 0
            or bool(self.poison_workload)
            or self.lease_abandon_after >= 0
        )

    def rng(self, *labels: object) -> random.Random:
        """Deterministic child stream for one chaos decision site."""
        return random.Random(derive_seed(self.seed, "chaos", *labels))

    # ------------------------------------------------------------------
    # Serialization (CLI spec, JSON round trip)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Flat scalar mapping; round-trips via :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosPlan":
        return cls(**data)

    @classmethod
    def from_spec(cls, spec: str) -> "ChaosPlan":
        """Parse a CLI chaos spec like ``kill=0:1:trace,seed=7``.

        Keys: ``kill`` (``worker[:after_jobs[:trace]]`` — a trailing
        ``:trace`` delays the kill until the traced run is sent),
        ``stall`` (``worker:after_jobs:seconds``), ``cache`` (entry
        count), ``journal`` (bytes), ``poison`` (workload code),
        ``lease`` (jobs leased before a fleet worker abandons its
        batch), ``seed``.
        """
        kwargs: dict = {}
        for part in filter(None, (p.strip() for p in spec.split(","))):
            if "=" not in part:
                raise ConfigError(
                    f"chaos spec entry {part!r} is not key=value"
                )
            key, _, raw = part.partition("=")
            key = key.strip()
            raw = raw.strip()
            try:
                if key == "kill":
                    fields = raw.split(":")
                    kwargs["kill_worker"] = int(fields[0])
                    if len(fields) > 1 and fields[1]:
                        kwargs["kill_after_jobs"] = int(fields[1])
                    if len(fields) > 2:
                        if fields[2] != "trace":
                            raise ConfigError(
                                f"kill modifier {fields[2]!r} unknown "
                                "(only 'trace')"
                            )
                        kwargs["kill_after_trace"] = True
                elif key == "stall":
                    worker, _, rest = raw.partition(":")
                    after, _, seconds = rest.partition(":")
                    kwargs["stall_worker"] = int(worker)
                    kwargs["stall_after_jobs"] = int(after or 0)
                    kwargs["stall_seconds"] = float(seconds or 0.0)
                elif key == "cache":
                    kwargs["corrupt_cache_entries"] = int(raw)
                elif key == "journal":
                    kwargs["truncate_journal_bytes"] = int(raw)
                elif key == "poison":
                    kwargs["poison_workload"] = raw
                elif key == "lease":
                    kwargs["lease_abandon_after"] = int(raw)
                elif key == "seed":
                    kwargs["seed"] = int(raw)
                else:
                    raise ConfigError(
                        f"unknown chaos spec key {key!r}; known: kill, "
                        "stall, cache, journal, poison, lease, seed"
                    )
            except ValueError as error:
                raise ConfigError(
                    f"bad value for chaos spec key {key!r}: {raw!r}"
                ) from error
        return cls(**kwargs)

    def describe(self) -> str:
        """Human-readable one-line summary."""
        if not self.enabled:
            return "chaos-free"
        parts = [f"seed={self.seed}"]
        if self.kill_worker >= 0:
            when = f"after {self.kill_after_jobs} job(s)"
            if self.kill_after_trace:
                when += " post-trace"
            parts.append(f"kill worker {self.kill_worker} {when}")
        if self.stall_worker >= 0:
            parts.append(
                f"stall worker {self.stall_worker} "
                f"{self.stall_seconds:g}s after "
                f"{self.stall_after_jobs} job(s)"
            )
        if self.corrupt_cache_entries:
            parts.append(
                f"corrupt {self.corrupt_cache_entries} cache entry(ies)"
            )
        if self.truncate_journal_bytes:
            parts.append(
                f"truncate journal by {self.truncate_journal_bytes}B"
            )
        if self.poison_workload:
            parts.append(f"poison workload {self.poison_workload}")
        if self.lease_abandon_after >= 0:
            parts.append(
                f"abandon lease after {self.lease_abandon_after} "
                f"leased job(s)"
            )
        return "; ".join(parts)
