"""Deterministic realization of a :class:`~repro.faults.plan.FaultPlan`.

The injector owns every random decision the fault model makes, drawn
from one :class:`numpy.random.Generator` seeded via
:func:`repro.common.rng.derive_seed`.  The simulation scheduler visits
events in a deterministic order, so the draw sequence — and therefore
every injected fault — is bit-identical for a given (trace, config,
plan) triple, across processes and across serial vs. pool execution.

Time-dependent faults (vault stall windows) use no randomness at all
beyond a per-vault phase offset fixed at construction, so they too are
pure functions of the plan.

Both simulation engines realize a plan through this class: the
reference :class:`~repro.hmc.device.HmcDevice` calls the decision
methods one draw at a time, and the batch kernel
(:mod:`repro.sim.vectorized`) takes the packet-error tables, the stall
phases and blocks of the same draw stream from it.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import derive_seed
from repro.faults.plan import FaultPlan
from repro.hmc.packets import packet_bits


class FaultInjector:
    """Per-device fault stream realizing one plan against one config."""

    def __init__(self, plan: FaultPlan, num_vaults: int):
        self.plan = plan
        self._gen = np.random.Generator(
            np.random.PCG64(derive_seed(plan.seed, "hmc-faults"))
        )
        # Per-vault phase offsets de-synchronize the stall windows so
        # all vaults never throttle in lockstep (refresh staggering).
        if plan.vault_stall_period_ns > 0:
            phase = np.random.Generator(
                np.random.PCG64(derive_seed(plan.seed, "vault-phase"))
            )
            self._stall_phase = phase.random(num_vaults)
        else:
            self._stall_phase = np.zeros(num_vaults)

    # ------------------------------------------------------------------
    # Link bit errors -> retransmissions
    # ------------------------------------------------------------------

    def _packet_error_probability(self, flits: int, ber: float) -> float:
        """P(packet CRC fails) for a packet of ``flits`` FLITs."""
        if ber <= 0.0 or flits <= 0:
            return 0.0
        return 1.0 - (1.0 - ber) ** packet_bits(flits)

    def _retransmissions(self, flits: int, ber: float) -> int:
        """Geometric retransmission count, capped by the plan."""
        p_err = self._packet_error_probability(flits, ber)
        if p_err <= 0.0:
            return 0
        count = 0
        while count < self.plan.max_retransmits:
            if float(self._gen.random()) >= p_err:
                break
            count += 1
        return count

    def packet_error_table(self, ber: float, max_flits: int) -> list[float]:
        """P(packet CRC fails) for every packet size 0..``max_flits``."""
        return [
            self._packet_error_probability(flits, ber)
            for flits in range(max_flits + 1)
        ]

    def request_retransmissions(self, flits: int) -> int:
        """Retries for one request packet (host -> cube direction)."""
        return self._retransmissions(flits, self.plan.request_ber)

    def response_retransmissions(self, flits: int) -> int:
        """Retries for one response packet (cube -> host direction)."""
        return self._retransmissions(flits, self.plan.response_ber)

    # ------------------------------------------------------------------
    # Dropped / poisoned responses -> POU reissue
    # ------------------------------------------------------------------

    def response_dropped(self) -> bool:
        """Whether this transaction's response is lost or poisoned."""
        if self.plan.drop_rate <= 0.0:
            return False
        return float(self._gen.random()) < self.plan.drop_rate

    def fill_draws(self, block: np.ndarray) -> None:
        """Overwrite ``block`` with the stream's next ``len(block)`` draws.

        The same doubles, in the same order, as that many scalar draws,
        so a consumer reading the block in order makes the decisions of
        :meth:`request_retransmissions`, :meth:`response_retransmissions`
        and :meth:`response_dropped` with the same values.
        """
        self._gen.random(out=block)

    # ------------------------------------------------------------------
    # Vault stall windows (refresh / thermal throttling)
    # ------------------------------------------------------------------

    def vault_stall_delay(
        self, vault: int, t_cycles: float, cycles_per_ns: float
    ) -> float:
        """Extra cycles until ``vault`` can start a row cycle at ``t``.

        The window repeats every ``vault_stall_period_ns`` with a
        per-vault phase; a request landing inside the window waits for
        its end.  Pure function of (vault, t) — no stream draws.
        """
        period, duration = self.stall_window(cycles_per_ns)
        if period <= 0.0 or duration <= 0.0:
            return 0.0
        phase = float(self._stall_phase[vault]) * period
        offset = (t_cycles - phase) % period
        if offset < duration:
            return duration - offset
        return 0.0

    def stall_window(self, cycles_per_ns: float) -> tuple[float, float]:
        """(period, duration) of the vault stall window, in cycles."""
        return (
            self.plan.vault_stall_period_ns * cycles_per_ns,
            self.plan.vault_stall_duration_ns * cycles_per_ns,
        )

    def stall_phases(self, period: float) -> list[float]:
        """Each vault's window phase in cycles (``phase * period``)."""
        return [float(phase) * period for phase in self._stall_phase]
