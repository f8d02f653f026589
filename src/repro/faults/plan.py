"""Serializable fault-injection plans for the HMC device model.

A :class:`FaultPlan` describes *what can go wrong* inside the memory
system, independently of any particular trace or run:

- **Link bit errors** — each 128-bit FLIT of a request/response packet
  may be corrupted in flight.  HMC 2.0 links carry per-packet CRC with
  a link-level retry protocol, so a corrupted packet is NAK'd and
  retransmitted: the packet's FLITs are re-reserved on the lane and a
  fixed retry latency is paid (``HmcConfig.link_retry_latency_ns``).
- **Dropped / poisoned responses** — a response that never makes it
  back (or arrives poisoned) triggers a POU-side timeout followed by a
  full reissue of the transaction, bounded by ``retry_budget``.
- **Vault stall windows** — periodic per-vault windows during which no
  bank can start a new row cycle, modeling refresh bursts or thermal
  throttling of the logic layer.

Plans are frozen, hashable, and JSON-round-trippable; they ride on
:class:`~repro.sim.config.SystemConfig` so the runner's config
fingerprint covers them (a cached fault-free result can never be served
for a faulty configuration).  All randomness derives from ``seed``
through a counter-based deterministic stream, so identical plans yield
bit-identical simulations regardless of host, process, or worker count.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of injected memory-system faults."""

    #: Root seed of the deterministic fault stream.
    seed: int = 0
    #: Bit-error rate per link bit on request packets (host -> cube).
    request_ber: float = 0.0
    #: Bit-error rate per link bit on response packets (cube -> host).
    response_ber: float = 0.0
    #: Cap on link-level retransmissions of one packet (the link retry
    #: protocol gives up and escalates long before this in hardware;
    #: here it simply bounds the geometric retry tail).
    max_retransmits: int = 8
    #: Probability that a transaction's response is dropped or arrives
    #: poisoned, forcing a POU timeout + full reissue.
    drop_rate: float = 0.0
    #: Reissues the POU attempts before declaring the transaction dead.
    retry_budget: int = 4
    #: POU timeout before a reissue, ns (charged on top of the failed
    #: attempt's round trip).
    reissue_timeout_ns: float = 200.0
    #: Period of the per-vault stall window, ns (0 disables stalls).
    vault_stall_period_ns: float = 0.0
    #: Duration of the stall window within each period, ns.
    vault_stall_duration_ns: float = 0.0

    def __post_init__(self) -> None:
        for name in ("request_ber", "response_ber", "drop_rate"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {value}")
        if self.max_retransmits < 0:
            raise ConfigError("max_retransmits must be >= 0")
        if self.retry_budget < 0:
            raise ConfigError("retry_budget must be >= 0")
        if self.reissue_timeout_ns <= 0:
            raise ConfigError("reissue_timeout_ns must be > 0")
        if self.vault_stall_period_ns < 0 or self.vault_stall_duration_ns < 0:
            raise ConfigError("vault stall window values must be >= 0")
        if self.vault_stall_duration_ns > self.vault_stall_period_ns:
            raise ConfigError(
                "vault_stall_duration_ns cannot exceed the period "
                f"({self.vault_stall_duration_ns} > "
                f"{self.vault_stall_period_ns})"
            )

    @property
    def enabled(self) -> bool:
        """True when the plan can actually perturb a simulation."""
        return (
            self.request_ber > 0.0
            or self.response_ber > 0.0
            or self.drop_rate > 0.0
            or (
                self.vault_stall_period_ns > 0.0
                and self.vault_stall_duration_ns > 0.0
            )
        )

    # ------------------------------------------------------------------
    # Serialization (config fingerprint, cache, CLI)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Flat scalar mapping; round-trips via :meth:`from_dict`."""
        return {name: getattr(self, name) for name in _PLAN_FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(**data)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a CLI fault spec like ``ber=1e-6,drop=1e-4,seed=7``.

        Keys: ``ber`` (sets both link directions), ``req_ber``,
        ``resp_ber``, ``drop``, ``budget``, ``timeout`` (ns),
        ``stall`` (``period:duration`` in ns), ``seed``.
        """
        kwargs: dict = {}
        for part in filter(None, (p.strip() for p in spec.split(","))):
            if "=" not in part:
                raise ConfigError(
                    f"fault spec entry {part!r} is not key=value"
                )
            key, _, raw = part.partition("=")
            key = key.strip()
            raw = raw.strip()
            try:
                if key == "ber":
                    kwargs["request_ber"] = kwargs["response_ber"] = float(raw)
                elif key == "req_ber":
                    kwargs["request_ber"] = float(raw)
                elif key == "resp_ber":
                    kwargs["response_ber"] = float(raw)
                elif key == "drop":
                    kwargs["drop_rate"] = float(raw)
                elif key == "budget":
                    kwargs["retry_budget"] = int(raw)
                elif key == "timeout":
                    kwargs["reissue_timeout_ns"] = float(raw)
                elif key == "stall":
                    period, _, duration = raw.partition(":")
                    kwargs["vault_stall_period_ns"] = float(period)
                    kwargs["vault_stall_duration_ns"] = float(
                        duration or 0.0
                    )
                elif key == "seed":
                    kwargs["seed"] = int(raw)
                else:
                    raise ConfigError(
                        f"unknown fault spec key {key!r}; known: ber, "
                        "req_ber, resp_ber, drop, budget, timeout, "
                        "stall, seed"
                    )
            except ValueError as error:
                raise ConfigError(
                    f"bad value for fault spec key {key!r}: {raw!r}"
                ) from error
        return cls(**kwargs)

    def describe(self) -> str:
        """Human-readable one-line summary."""
        if not self.enabled:
            return "fault-free"
        parts = [f"seed={self.seed}"]
        if self.request_ber:
            parts.append(f"req_ber={self.request_ber:g}")
        if self.response_ber:
            parts.append(f"resp_ber={self.response_ber:g}")
        if self.drop_rate:
            parts.append(
                f"drop={self.drop_rate:g} (budget={self.retry_budget}, "
                f"timeout={self.reissue_timeout_ns:g}ns)"
            )
        if self.vault_stall_period_ns and self.vault_stall_duration_ns:
            parts.append(
                f"stall={self.vault_stall_duration_ns:g}ns per "
                f"{self.vault_stall_period_ns:g}ns"
            )
        return " ".join(parts)


#: Field names in declaration order, the keys of :meth:`FaultPlan.to_dict`.
_PLAN_FIELDS = tuple(field.name for field in dataclasses.fields(FaultPlan))
