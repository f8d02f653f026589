"""System configuration: the three evaluated machines of Section IV.

- ``Mode.BASELINE`` — conventional host: every access goes through the
  cache hierarchy; atomics execute in-core with pipeline freeze,
  write-buffer drain, cache checking, and coherence traffic.
- ``Mode.UPEI`` — idealized PEI: property atomics execute host-side at
  the cache level when the line is resident (zero-overhead coherence),
  otherwise offload to the HMC after the cache check.
- ``Mode.GRAPHPIM`` — the paper's design: PMR accesses bypass the cache
  hierarchy; PMR atomics offload to HMC as PIM-Atomic commands.

Cache geometry defaults are the paper's Table IV scaled down ~500x in
capacity to match the laptop-scale graphs (the paper simulates 1M-vertex
graphs against a 16 MB L3; we simulate 1k-64k-vertex graphs, so the
footprint:L3 ratio — the quantity that determines miss behavior — is
preserved).  Latencies are unscaled.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

from repro.common.errors import ConfigError
from repro.common.units import KB
from repro.dram.device import DdrConfig
from repro.faults.plan import FaultPlan
from repro.hmc.config import HmcConfig
from repro.sim.cache import CacheConfig


class Mode(Enum):
    """Evaluated system configurations (Section IV-B)."""

    BASELINE = "baseline"
    UPEI = "upei"
    GRAPHPIM = "graphpim"


#: Table IV cache latencies (cycles at 2 GHz), capacity scaled so that
#: the property-footprint:LLC ratio of the default bench graphs matches
#: the paper's >80% candidate miss regime.
DEFAULT_L1 = CacheConfig(size_bytes=2 * KB, ways=4, latency=4.0)
DEFAULT_L2 = CacheConfig(size_bytes=8 * KB, ways=8, latency=12.0)
DEFAULT_L3 = CacheConfig(size_bytes=32 * KB, ways=16, latency=36.0)


@dataclass(frozen=True)
class SystemConfig:
    """Everything the timing simulation needs to know."""

    mode: Mode = Mode.BASELINE
    num_cores: int = 16
    issue_width: int = 4
    #: Maximum overlappable outstanding memory operations per core.
    #: Irregular pointer-dependent graph loops achieve far less memory
    #: level parallelism than the line-fill-buffer count; this is the
    #: *effective* MLP and the main IPC calibration knob (Figure 1).
    mlp: int = 4
    #: Whether the proposed FP-add/sub PIM extension is available.
    fp_extension: bool = True
    #: GraphPIM's cache policy (Section III-B): PMR accesses bypass the
    #: cache hierarchy.  Setting this False is the ablation where plain
    #: PMR loads/stores are cached (atomics still offload; coherence is
    #: idealized as free, which only flatters the ablated design).
    pmr_bypass: bool = True
    l1: CacheConfig = DEFAULT_L1
    l2: CacheConfig = DEFAULT_L2
    l3: CacheConfig = DEFAULT_L3
    hmc: HmcConfig = field(default_factory=HmcConfig)
    #: Hybrid-memory extension (Section III-B): when set, metadata and
    #: structure live in conventional DDR and only
    #: ``property_hmc_fraction`` of the property lines are HMC-resident
    #: (and thus offloadable/bypassable).  None = pure-HMC main memory.
    dram: DdrConfig | None = None
    property_hmc_fraction: float = 1.0
    #: Optional next-line prefetcher at the LLC (Section II-C argues it
    #: cannot help irregular property access — the ablation verifies).
    prefetch_next_line: bool = False
    #: Optional deterministic fault-injection plan for the HMC device
    #: (link bit errors, dropped responses, vault stall windows).  None
    #: means a fault-free memory system.  Part of the config
    #: fingerprint, so cached results are segregated per plan.
    faults: FaultPlan | None = None
    #: Fixed in-core cost of a host atomic: pipeline freeze and
    #: write-buffer drain beyond the dynamic drain wait (Section II-D).
    atomic_freeze_cycles: float = 40.0
    #: Extra host cycles for a floating-point CAS-loop atomic (load,
    #: FP convert/add, cmpxchg, retry on contention).
    fp_atomic_extra_cycles: float = 56.0
    #: Host-side PEI computation cost when a U-PEI candidate hits.
    upei_host_op_cycles: float = 2.0
    #: Issue cost of a *posted* (no-return) offloaded request.  PMR
    #: accesses are uncacheable, and x86 UC requests are strongly
    #: ordered: the core waits until the request is accepted by the
    #: memory system before issuing the next one.
    uc_posted_issue_cycles: float = 24.0
    #: Core-side cost of dispatching any offloaded atomic (POU routing,
    #: request-packet formation, strongly-ordered issue, and response
    #: handling), charged on top of the HMC round trip in both the
    #: GraphPIM and U-PEI offload paths.
    offload_issue_cycles: float = 48.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigError("num_cores must be >= 1")
        if self.issue_width < 1:
            raise ConfigError("issue_width must be >= 1")
        if self.mlp < 1:
            raise ConfigError("mlp must be >= 1")
        if not 0.0 <= self.property_hmc_fraction <= 1.0:
            raise ConfigError("property_hmc_fraction must be in [0, 1]")

    @property
    def display_name(self) -> str:
        return self.label or self.mode.value

    # ------------------------------------------------------------------
    # Serialization (result cache, worker IPC, `repro run --json`)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe mapping that round-trips via :meth:`from_dict`."""
        return {
            "mode": self.mode.value,
            "num_cores": self.num_cores,
            "issue_width": self.issue_width,
            "mlp": self.mlp,
            "fp_extension": self.fp_extension,
            "pmr_bypass": self.pmr_bypass,
            "l1": self.l1.to_dict(),
            "l2": self.l2.to_dict(),
            "l3": self.l3.to_dict(),
            "hmc": self.hmc.to_dict(),
            "dram": self.dram.to_dict() if self.dram is not None else None,
            "property_hmc_fraction": self.property_hmc_fraction,
            "prefetch_next_line": self.prefetch_next_line,
            "faults": (
                self.faults.to_dict() if self.faults is not None else None
            ),
            "atomic_freeze_cycles": self.atomic_freeze_cycles,
            "fp_atomic_extra_cycles": self.fp_atomic_extra_cycles,
            "upei_host_op_cycles": self.upei_host_op_cycles,
            "uc_posted_issue_cycles": self.uc_posted_issue_cycles,
            "offload_issue_cycles": self.offload_issue_cycles,
            "label": self.label,
        }

    @cached_property
    def fingerprint(self) -> str:
        """sha256 hex digest of the canonical JSON of :meth:`to_dict`.

        The config's cache identity
        (:func:`repro.runner.fingerprint.config_fingerprint`), computed
        once per object: the runner asks for it twice per simulated
        mode.  Not shared between equal objects, since equal values can
        serialize differently (``1 == 1.0``).
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        from repro.dram.device import DdrConfig

        kwargs = dict(data)
        kwargs["mode"] = Mode(kwargs["mode"])
        kwargs["l1"] = CacheConfig.from_dict(kwargs["l1"])
        kwargs["l2"] = CacheConfig.from_dict(kwargs["l2"])
        kwargs["l3"] = CacheConfig.from_dict(kwargs["l3"])
        kwargs["hmc"] = HmcConfig.from_dict(kwargs["hmc"])
        if kwargs["dram"] is not None:
            kwargs["dram"] = DdrConfig.from_dict(kwargs["dram"])
        if kwargs.get("faults") is not None:
            kwargs["faults"] = FaultPlan.from_dict(kwargs["faults"])
        return cls(**kwargs)

    # ------------------------------------------------------------------
    # Preset constructors
    # ------------------------------------------------------------------

    @classmethod
    def baseline(cls, **overrides) -> "SystemConfig":
        """Conventional architecture with HMC as plain main memory."""
        return cls(mode=Mode.BASELINE, label="Baseline", **overrides)

    @classmethod
    def upei(cls, **overrides) -> "SystemConfig":
        """Idealized PEI (performance upper bound of [14])."""
        return cls(mode=Mode.UPEI, label="U-PEI", **overrides)

    @classmethod
    def graphpim(cls, fp_extension: bool = True, **overrides) -> "SystemConfig":
        """The paper's proposal."""
        return cls(
            mode=Mode.GRAPHPIM,
            fp_extension=fp_extension,
            label="GraphPIM",
            **overrides,
        )

    def with_hmc(self, hmc: HmcConfig) -> "SystemConfig":
        """Copy with a different HMC configuration (sweeps)."""
        return replace(self, hmc=hmc)

    def with_faults(self, faults: FaultPlan | None) -> "SystemConfig":
        """Copy with a fault-injection plan (None = fault-free)."""
        return replace(self, faults=faults)

    def evaluation_trio(self) -> "list[SystemConfig]":
        """Baseline / U-PEI / GraphPIM sharing this config's parameters."""
        return [
            replace(self, mode=Mode.BASELINE, label="Baseline"),
            replace(self, mode=Mode.UPEI, label="U-PEI"),
            replace(self, mode=Mode.GRAPHPIM, label="GraphPIM"),
        ]
