"""HMC timing model: vaults, banks, PIM functional units, SerDes links.

The device hands out completion times using next-free-time reservations
on three resource classes:

- the aggregate SerDes link bandwidth, one reservation lane per
  direction (requests toward the cube, responses toward the host);
- per-bank row-cycle occupancy (closed-page policy; a PIM RMW locks the
  bank for the whole read-modify-write, Section II-A);
- per-vault functional units (integer pool + FP pool for the proposed
  extension), so a reduced FU count creates queueing (Figure 11).

All times are host-core cycles as floats.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import SimulationError
from repro.hmc.commands import FP_COMMANDS, HmcCommand, command_returns
from repro.hmc.config import HmcConfig
from repro.hmc.packets import (
    TransactionKind,
    atomic_transaction_kind,
    flits_for,
)


@dataclass
class HmcStats:
    """Event counters for bandwidth (Figure 12) and energy (Figure 15)."""

    requests: Counter = field(default_factory=Counter)
    request_flits: Counter = field(default_factory=Counter)
    response_flits: Counter = field(default_factory=Counter)
    dram_activates: int = 0
    dram_reads: int = 0
    dram_writes: int = 0
    fu_int_ops: int = 0
    fu_fp_ops: int = 0
    bank_wait_cycles: float = 0.0
    link_wait_cycles: float = 0.0
    #: Fault-injection counters (zero in fault-free runs).
    retransmitted_flits: int = 0
    reissued_requests: int = 0
    fault_stall_cycles: float = 0.0

    @property
    def total_request_flits(self) -> int:
        return sum(self.request_flits.values())

    @property
    def total_response_flits(self) -> int:
        return sum(self.response_flits.values())

    @property
    def total_flits(self) -> int:
        return self.total_request_flits + self.total_response_flits

    def to_dict(self) -> dict:
        """JSON-safe mapping; Counter keys become TransactionKind names."""
        return {
            "requests": {k.name: v for k, v in self.requests.items()},
            "request_flits": {
                k.name: v for k, v in self.request_flits.items()
            },
            "response_flits": {
                k.name: v for k, v in self.response_flits.items()
            },
            "dram_activates": self.dram_activates,
            "dram_reads": self.dram_reads,
            "dram_writes": self.dram_writes,
            "fu_int_ops": self.fu_int_ops,
            "fu_fp_ops": self.fu_fp_ops,
            "bank_wait_cycles": self.bank_wait_cycles,
            "link_wait_cycles": self.link_wait_cycles,
            "retransmitted_flits": self.retransmitted_flits,
            "reissued_requests": self.reissued_requests,
            "fault_stall_cycles": self.fault_stall_cycles,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HmcStats":
        def counter(mapping: dict) -> Counter:
            return Counter(
                {TransactionKind[name]: count for name, count in mapping.items()}
            )

        return cls(
            requests=counter(data["requests"]),
            request_flits=counter(data["request_flits"]),
            response_flits=counter(data["response_flits"]),
            dram_activates=data["dram_activates"],
            dram_reads=data["dram_reads"],
            dram_writes=data["dram_writes"],
            fu_int_ops=data["fu_int_ops"],
            fu_fp_ops=data["fu_fp_ops"],
            bank_wait_cycles=data["bank_wait_cycles"],
            link_wait_cycles=data["link_wait_cycles"],
            retransmitted_flits=data["retransmitted_flits"],
            reissued_requests=data["reissued_requests"],
            fault_stall_cycles=data["fault_stall_cycles"],
        )

    def publish(self, registry) -> None:
        """Register this run's HMC counters on a metrics registry."""
        requests = registry.counter(
            "hmc_requests_total", help="transactions by kind"
        )
        flits = registry.counter(
            "hmc_flits_total", help="link FLITs by kind and direction"
        )
        for kind, count in sorted(self.requests.items(), key=lambda kv: kv[0].name):
            requests.inc(count, kind=kind.name)
        for kind, count in sorted(self.request_flits.items(), key=lambda kv: kv[0].name):
            flits.inc(count, kind=kind.name, direction="request")
        for kind, count in sorted(self.response_flits.items(), key=lambda kv: kv[0].name):
            flits.inc(count, kind=kind.name, direction="response")
        dram = registry.counter(
            "hmc_dram_ops_total", help="DRAM operations by type"
        )
        dram.inc(self.dram_activates, op="activate")
        dram.inc(self.dram_reads, op="read")
        dram.inc(self.dram_writes, op="write")
        fu = registry.counter(
            "hmc_fu_ops_total", help="PIM functional-unit ops by pool"
        )
        fu.inc(self.fu_int_ops, pool="int")
        fu.inc(self.fu_fp_ops, pool="fp")
        waits = registry.counter(
            "hmc_wait_cycles_total", help="queueing by resource class"
        )
        waits.inc(self.bank_wait_cycles, resource="bank")
        waits.inc(self.link_wait_cycles, resource="link")
        faults = registry.counter(
            "hmc_fault_events_total", help="injected-fault recovery events"
        )
        faults.inc(self.retransmitted_flits, event="retransmitted_flits")
        faults.inc(self.reissued_requests, event="reissued_requests")
        registry.counter(
            "hmc_fault_stall_cycles_total",
            help="cycles lost to injected vault stall windows",
        ).inc(self.fault_stall_cycles)


def retry_exhausted_error(
    what: str, addr: int, attempts: int, retry_budget: int
) -> SimulationError:
    """The error of a transaction whose response was lost too often.

    ``what`` names the transaction: ``READ`` or the PIM command's value.
    Both simulation engines raise it, so their messages match.
    """
    return SimulationError(
        f"{what} at {addr:#x}: response lost {attempts} time(s); "
        f"retry budget ({retry_budget}) exhausted"
    )


class _LinkLane:
    """Token-bucket model of one link direction's aggregate bandwidth.

    A strict next-free-time reservation would serialize requests in
    *reservation* order, but the multi-core replay issues requests
    slightly out of time order (different cores reserve at different
    clock offsets within an event).  Tracking the outstanding FLIT
    backlog instead gives order-insensitive FIFO-approximate queueing.
    """

    __slots__ = ("rate", "backlog", "anchor", "wait_cycles")

    def __init__(self, flits_per_cycle: float):
        self.rate = flits_per_cycle
        self.backlog = 0.0
        self.anchor = 0.0
        self.wait_cycles = 0.0

    def reserve(self, t: float, flits: int) -> float:
        """Send ``flits`` at time ``t``; returns last-FLIT departure."""
        if t > self.anchor:
            self.backlog = max(
                0.0, self.backlog - (t - self.anchor) * self.rate
            )
            self.anchor = t
        wait = self.backlog / self.rate
        self.wait_cycles += wait
        self.backlog += flits
        return t + wait + flits / self.rate


class HmcDevice:
    """One HMC 2.0 cube serving reads, writes, and PIM atomics.

    ``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan`) enables
    deterministic fault injection: link bit errors trigger HMC-style
    packet retransmission (FLITs re-reserved on the lane plus a retry
    latency), dropped/poisoned responses trigger a POU timeout and a
    full reissue bounded by the plan's retry budget, and periodic vault
    stall windows delay row-cycle starts.  All injected faults derive
    from the plan's seed, so results are bit-identical across runs.
    """

    def __init__(
        self,
        config: HmcConfig | None = None,
        fault_plan=None,
        recorder=None,
    ):
        self.config = config or HmcConfig()
        cfg = self.config
        # Timeline recording (repro.obs): one lane per vault.  Hoisted
        # to None when disabled so the hot paths pay one check, no calls.
        self._rec = (
            recorder if recorder is not None and recorder.enabled else None
        )
        if self._rec is not None:
            for vault in range(cfg.num_vaults):
                self._rec.label("hmc", vault, f"vault {vault}")
            self._rec.label("hmc-link", 0, "request lane")
            self._rec.label("hmc-link", 1, "response lane")
        if fault_plan is not None and fault_plan.enabled:
            from repro.faults.injector import FaultInjector

            self._faults = FaultInjector(fault_plan, cfg.num_vaults)
            self._reissue_timeout = cfg.cycles(
                fault_plan.reissue_timeout_ns
            )
        else:
            self._faults = None
            self._reissue_timeout = 0.0
        self._bank_free = np.zeros(
            (cfg.num_vaults, cfg.banks_per_vault), dtype=np.float64
        )
        self._fu_free = [
            [0.0] * cfg.fus_per_vault for _ in range(cfg.num_vaults)
        ]
        self._fp_fu_free = [
            [0.0] * max(cfg.fp_fus_per_vault, 1)
            for _ in range(cfg.num_vaults)
        ]
        flits_per_cycle = cfg.flits_per_cycle_per_direction
        self._req_lane = _LinkLane(flits_per_cycle)
        self._resp_lane = _LinkLane(flits_per_cycle)
        self.stats = HmcStats()

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------

    def vault_of(self, addr: int) -> int:
        """Vault index: 64-byte blocks interleave across vaults."""
        return (addr >> 6) % self.config.num_vaults

    def bank_of(self, addr: int) -> int:
        """Bank index within the vault."""
        return (addr >> 11) % self.config.banks_per_vault

    # ------------------------------------------------------------------
    # Resource reservation helpers
    # ------------------------------------------------------------------

    def _reserve_req_link(self, t: float, flits: int) -> float:
        end = self._req_lane.reserve(t, flits)
        if self._faults is not None:
            end = self._retransmit(
                self._req_lane,
                end,
                flits,
                self._faults.request_retransmissions(flits),
                lane_id=0,
            )
        self.stats.link_wait_cycles = (
            self._req_lane.wait_cycles + self._resp_lane.wait_cycles
        )
        return end

    def _reserve_resp_link(self, t: float, flits: int) -> float:
        end = self._resp_lane.reserve(t, flits)
        if self._faults is not None:
            end = self._retransmit(
                self._resp_lane,
                end,
                flits,
                self._faults.response_retransmissions(flits),
                lane_id=1,
            )
        self.stats.link_wait_cycles = (
            self._req_lane.wait_cycles + self._resp_lane.wait_cycles
        )
        return end

    def _retransmit(
        self,
        lane: _LinkLane,
        end: float,
        flits: int,
        retries: int,
        lane_id: int = 0,
    ) -> float:
        """Replay a CRC-failed packet ``retries`` times on ``lane``.

        Each replay waits out the NAK round trip + retry-buffer turn
        (``link_retry_latency``) and re-reserves the packet's FLITs.
        """
        for _ in range(retries):
            end = lane.reserve(
                end + self.config.link_retry_latency, flits
            )
            self.stats.retransmitted_flits += flits
            if self._rec is not None:
                self._rec.instant(
                    "hmc-link", lane_id, "fault:retransmit", end,
                    args={"flits": flits},
                )
        return end

    def _reserve_bank(
        self, vault: int, bank: int, t: float, occupancy: float
    ) -> float:
        if self._faults is not None:
            # Refresh/thermal stall window: the vault accepts no new
            # row cycle until the window ends.
            delay = self._faults.vault_stall_delay(
                vault, t, self.config.core_ghz
            )
            if delay > 0.0:
                self.stats.fault_stall_cycles += delay
                t += delay
        start = max(t, float(self._bank_free[vault, bank]))
        self.stats.bank_wait_cycles += start - t
        self._bank_free[vault, bank] = start + occupancy
        return start

    def _reserve_fu(self, pool: list[float], t: float, duration: float) -> float:
        idx = min(range(len(pool)), key=pool.__getitem__)
        start = max(t, pool[idx])
        pool[idx] = start + duration
        return start

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def read(self, addr: int, t: float) -> float:
        """64-byte READ (cache-line fill or uncacheable load).

        Returns the cycle at which data arrives back at the host.
        Under a fault plan, a dropped response costs a POU timeout and
        a full reissue (the failed attempt's resource occupancy stays
        charged), bounded by the plan's retry budget.
        """
        attempts = 0
        while True:
            completion = self._read_once(addr, t)
            if self._faults is None or not self._faults.response_dropped():
                return completion
            attempts += 1
            self.stats.reissued_requests += 1
            if self._rec is not None:
                self._rec.instant(
                    "hmc-link", 1, "fault:reissue", completion,
                    args={"kind": "READ", "attempt": attempts},
                )
            if attempts > self._faults.plan.retry_budget:
                raise retry_exhausted_error(
                    "READ", addr, attempts, self._faults.plan.retry_budget
                )
            t = completion + self._reissue_timeout

    def _read_once(self, addr: int, t: float) -> float:
        cfg = self.config
        kind = TransactionKind.READ_64
        req_flits, resp_flits = flits_for(kind)
        self._count(kind, req_flits, resp_flits)

        t_req = self._reserve_req_link(t, req_flits)
        t_vault = t_req + cfg.link_latency + cfg.vault_overhead
        vault, bank = self.vault_of(addr), self.bank_of(addr)
        occupancy = cfg.tRAS + cfg.tRP
        t_bank = self._reserve_bank(vault, bank, t_vault, occupancy)
        if self._rec is not None:
            self._rec.span(
                "hmc", vault, "bank:read", t_bank, occupancy,
                args={"bank": bank},
            )
        data_ready = t_bank + cfg.tRCD + cfg.tCL + cfg.burst
        self.stats.dram_activates += 1
        self.stats.dram_reads += 1
        t_resp = self._reserve_resp_link(
            data_ready + cfg.vault_overhead, resp_flits
        )
        return t_resp + cfg.link_latency

    def write(self, addr: int, t: float) -> float:
        """64-byte WRITE (writeback or uncacheable store).

        Returns the cycle at which the write completes in DRAM; the host
        does not wait for this (posted write), but resource occupancy is
        charged.
        """
        cfg = self.config
        kind = TransactionKind.WRITE_64
        req_flits, resp_flits = flits_for(kind)
        self._count(kind, req_flits, resp_flits)

        t_req = self._reserve_req_link(t, req_flits)
        t_vault = t_req + cfg.link_latency + cfg.vault_overhead
        vault, bank = self.vault_of(addr), self.bank_of(addr)
        occupancy = cfg.tRCD + cfg.burst + cfg.tWR + cfg.tRP
        t_bank = self._reserve_bank(vault, bank, t_vault, occupancy)
        if self._rec is not None:
            self._rec.span(
                "hmc", vault, "bank:write", t_bank, occupancy,
                args={"bank": bank},
            )
        done = t_bank + occupancy
        self.stats.dram_activates += 1
        self.stats.dram_writes += 1
        self._reserve_resp_link(done + cfg.vault_overhead, resp_flits)
        return done

    def pim_atomic(
        self, command: HmcCommand, addr: int, t: float, host_consumes: bool
    ) -> tuple[float, bool]:
        """Execute a PIM-Atomic in the logic layer.

        The bank is locked for the full read-modify-write.  Returns
        ``(completion_time, has_response_data)``; when no data returns,
        ``completion_time`` is still when the (1-FLIT) acknowledgement
        would arrive, which posted requests do not wait for.

        Under a fault plan, a dropped/poisoned response triggers a POU
        timeout and a full reissue of the atomic, bounded by the plan's
        retry budget; every attempt's bank/FU/link occupancy stays
        charged, since the cube really executed it.
        """
        attempts = 0
        while True:
            completion, has_data = self._pim_atomic_once(
                command, addr, t, host_consumes
            )
            if self._faults is None or not self._faults.response_dropped():
                return completion, has_data
            attempts += 1
            self.stats.reissued_requests += 1
            if self._rec is not None:
                self._rec.instant(
                    "hmc-link", 1, "fault:reissue", completion,
                    args={"kind": command.value, "attempt": attempts},
                )
            if attempts > self._faults.plan.retry_budget:
                raise retry_exhausted_error(
                    command.value, addr, attempts,
                    self._faults.plan.retry_budget,
                )
            t = completion + self._reissue_timeout

    def _pim_atomic_once(
        self, command: HmcCommand, addr: int, t: float, host_consumes: bool
    ) -> tuple[float, bool]:
        cfg = self.config
        is_fp = command in FP_COMMANDS
        if is_fp and cfg.fp_fus_per_vault == 0:
            raise SimulationError(
                f"{command.value}: no FP functional units configured"
            )
        kind = atomic_transaction_kind(command, host_consumes)
        req_flits, resp_flits = flits_for(kind)
        self._count(kind, req_flits, resp_flits)

        t_req = self._reserve_req_link(t, req_flits)
        t_vault = t_req + cfg.link_latency + cfg.vault_overhead
        vault, bank = self.vault_of(addr), self.bank_of(addr)

        fu_time = cfg.fp_fu_op if is_fp else cfg.fu_op
        if cfg.atomic_locks_bank:
            # Bank locked for the whole RMW: activate + read + compute +
            # write back + precharge (Section II-A).
            occupancy = cfg.tRCD + cfg.tCL + fu_time + cfg.tWR + cfg.tRP
        else:
            # Ablation: release the bank after the read phase.
            occupancy = cfg.tRAS + cfg.tRP
        t_bank = self._reserve_bank(vault, bank, t_vault, occupancy)
        if self._rec is not None:
            self._rec.span(
                "hmc", vault, "bank:pim_atomic", t_bank, occupancy,
                args={
                    "bank": bank,
                    "cmd": command.value,
                    "locks_bank": cfg.atomic_locks_bank,
                },
            )
        data_at_fu = t_bank + cfg.tRCD + cfg.tCL
        pool = self._fp_fu_free[vault] if is_fp else self._fu_free[vault]
        fu_start = self._reserve_fu(pool, data_at_fu, fu_time)
        result_ready = fu_start + fu_time

        self.stats.dram_activates += 1
        self.stats.dram_reads += 1
        self.stats.dram_writes += 1
        if is_fp:
            self.stats.fu_fp_ops += 1
        else:
            self.stats.fu_int_ops += 1

        t_resp = self._reserve_resp_link(
            result_ready + cfg.vault_overhead, resp_flits
        )
        completion = t_resp + cfg.link_latency
        return completion, command_returns(command, host_consumes)

    def _count(self, kind: TransactionKind, req: int, resp: int) -> None:
        self.stats.requests[kind] += 1
        self.stats.request_flits[kind] += req
        self.stats.response_flits[kind] += resp
