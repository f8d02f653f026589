"""HMC device configuration (Table IV + HMC 2.0 spec values)."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class HmcConfig:
    """Structural and timing parameters of one HMC 2.0 cube.

    Timing values are nanoseconds from Table IV (tCL = tRCD = tRP =
    13.75 ns, tRAS = 27.5 ns, per Kim et al. [31]); they are converted
    to host-core cycles at the configured clock.
    """

    num_vaults: int = 32
    banks_per_vault: int = 16
    #: SerDes links per package.
    num_links: int = 4
    #: Peak bandwidth per link per direction, bytes/second.
    link_bandwidth_bytes: float = 120e9
    #: One-way link + SerDes + switch latency, ns.
    link_latency_ns: float = 8.0
    #: Extra latency of one link-level packet retransmission, ns: the
    #: NAK round trip plus retry-buffer replay (HMC 2.0 CRC/retry
    #: protocol).  Only exercised when a fault plan injects bit errors.
    link_retry_latency_ns: float = 12.0
    #: Vault-controller processing overhead per request, ns.
    vault_overhead_ns: float = 4.0
    tCL_ns: float = 13.75
    tRCD_ns: float = 13.75
    tRP_ns: float = 13.75
    tRAS_ns: float = 27.5
    #: Write recovery time, ns.
    tWR_ns: float = 15.0
    #: Data burst time for a 64-byte access within the vault, ns.
    burst_ns: float = 2.0
    #: Integer/boolean PIM functional units per vault (Figure 11 default).
    fus_per_vault: int = 16
    #: Floating-point PIM units per vault (Section IV-B4 recommends 1).
    fp_fus_per_vault: int = 1
    #: Integer PIM operation compute time, ns.
    fu_op_ns: float = 1.0
    #: Floating-point PIM operation compute time, ns.
    fp_fu_op_ns: float = 4.0
    #: Whether a PIM RMW locks its DRAM bank for the whole operation
    #: (HMC 2.0 behavior, Section II-A).  False is the ablation where
    #: the bank is released after the read and the FU pipeline handles
    #: the write independently.
    atomic_locks_bank: bool = True
    #: Host core clock used for ns->cycle conversion.
    core_ghz: float = 2.0

    def __post_init__(self) -> None:
        if self.num_vaults < 1 or self.banks_per_vault < 1:
            raise ConfigError("HMC must have at least one vault and bank")
        if self.num_links < 1:
            raise ConfigError("HMC must have at least one link")
        if self.fus_per_vault < 1:
            raise ConfigError("each vault needs at least one FU")
        if self.fp_fus_per_vault < 0:
            raise ConfigError("fp_fus_per_vault must be >= 0")

    def to_dict(self) -> dict:
        """Flat scalar mapping (all fields are numbers/bools).

        ``dataclasses.asdict`` gives the same mapping at several times
        the cost; this runs in every config fingerprint.
        """
        return {name: getattr(self, name) for name in _HMC_FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "HmcConfig":
        return cls(**data)

    # ------------------------------------------------------------------
    # Derived cycle quantities
    # ------------------------------------------------------------------

    def cycles(self, ns: float) -> float:
        """Convert nanoseconds to (fractional) core cycles."""
        return ns * self.core_ghz

    @property
    def link_latency(self) -> float:
        return self.cycles(self.link_latency_ns)

    @property
    def vault_overhead(self) -> float:
        return self.cycles(self.vault_overhead_ns)

    @property
    def link_retry_latency(self) -> float:
        return self.cycles(self.link_retry_latency_ns)

    @property
    def tCL(self) -> float:
        return self.cycles(self.tCL_ns)

    @property
    def tRCD(self) -> float:
        return self.cycles(self.tRCD_ns)

    @property
    def tRP(self) -> float:
        return self.cycles(self.tRP_ns)

    @property
    def tRAS(self) -> float:
        return self.cycles(self.tRAS_ns)

    @property
    def tWR(self) -> float:
        return self.cycles(self.tWR_ns)

    @property
    def burst(self) -> float:
        return self.cycles(self.burst_ns)

    @property
    def fu_op(self) -> float:
        return self.cycles(self.fu_op_ns)

    @property
    def fp_fu_op(self) -> float:
        return self.cycles(self.fp_fu_op_ns)

    @property
    def flits_per_cycle_per_direction(self) -> float:
        """Aggregate link throughput in FLITs per core cycle.

        120 GB/s/link at 2 GHz = 60 bytes/cycle/link = 3.75 FLITs.
        """
        bytes_per_cycle = (
            self.num_links * self.link_bandwidth_bytes / (self.core_ghz * 1e9)
        )
        return bytes_per_cycle / 16.0

    def scaled_link_bandwidth(self, factor: float) -> "HmcConfig":
        """A copy with link bandwidth scaled (Figure 13 sweep)."""
        from dataclasses import replace

        return replace(
            self, link_bandwidth_bytes=self.link_bandwidth_bytes * factor
        )

    def with_fus(self, fus_per_vault: int) -> "HmcConfig":
        """A copy with a different FU count (Figure 11 sweep)."""
        from dataclasses import replace

        return replace(self, fus_per_vault=fus_per_vault)


#: Field names in declaration order, the keys of :meth:`HmcConfig.to_dict`.
_HMC_FIELDS = tuple(field.name for field in dataclasses.fields(HmcConfig))
