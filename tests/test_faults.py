"""Tests for deterministic fault injection (repro.faults).

Covers the ISSUE 3 acceptance surface: plan validation and CLI-spec
parsing, seed-for-seed bit-identical simulations, cache-fingerprint
sensitivity to every plan field, the device-level fault mechanics
(retransmission accounting, reissue budget exhaustion, vault stall
windows), and the fault-sweep experiment.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.common.errors import ConfigError, SimulationError
from repro.faults import FaultInjector, FaultPlan
from repro.graph.generators import ldbc_like_graph
from repro.hmc.config import HmcConfig
from repro.hmc.device import HmcDevice, HmcStats
from repro.runner import config_fingerprint
from repro.sim.config import SystemConfig
from repro.sim.system import SimResult, simulate
from repro.workloads.registry import get_workload

LOSSY = FaultPlan(seed=11, request_ber=1e-5, response_ber=1e-5)


@pytest.fixture(scope="module")
def bfs_trace():
    graph = ldbc_like_graph(200, seed=7)
    return get_workload("BFS").run(graph, num_threads=8).trace


# ----------------------------------------------------------------------
# FaultPlan: validation, parsing, serialization
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_defaults_are_fault_free(self):
        plan = FaultPlan()
        assert not plan.enabled
        assert plan.describe() == "fault-free"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"request_ber": -0.1},
            {"response_ber": 1.0},
            {"drop_rate": 2.0},
            {"max_retransmits": -1},
            {"retry_budget": -1},
            {"reissue_timeout_ns": 0.0},
            {"vault_stall_period_ns": -5.0},
            {"vault_stall_period_ns": 10.0, "vault_stall_duration_ns": 20.0},
        ],
    )
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FaultPlan(**kwargs)

    def test_json_roundtrip(self):
        plan = FaultPlan(
            seed=3,
            request_ber=1e-6,
            drop_rate=1e-4,
            vault_stall_period_ns=2000.0,
            vault_stall_duration_ns=100.0,
        )
        assert FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan

    def test_from_spec_full(self):
        plan = FaultPlan.from_spec(
            "ber=1e-6,drop=1e-4,stall=2000:100,seed=5,budget=3,timeout=150"
        )
        assert plan == FaultPlan(
            seed=5,
            request_ber=1e-6,
            response_ber=1e-6,
            drop_rate=1e-4,
            retry_budget=3,
            reissue_timeout_ns=150.0,
            vault_stall_period_ns=2000.0,
            vault_stall_duration_ns=100.0,
        )

    def test_from_spec_directional_ber(self):
        plan = FaultPlan.from_spec("req_ber=1e-7,resp_ber=1e-6")
        assert plan.request_ber == 1e-7
        assert plan.response_ber == 1e-6

    @pytest.mark.parametrize(
        "spec, match",
        [
            ("ber", "key=value"),
            ("warp=0.5", "unknown fault spec key"),
            ("ber=lots", "bad value"),
            ("ber=2.0", "must be in"),
        ],
    )
    def test_from_spec_errors(self, spec, match):
        with pytest.raises(ConfigError, match=match):
            FaultPlan.from_spec(spec)


# ----------------------------------------------------------------------
# Cache fingerprint coverage
# ----------------------------------------------------------------------


class TestFingerprint:
    def test_plan_presence_changes_fingerprint(self):
        clean = SystemConfig.graphpim()
        faulty = clean.with_faults(LOSSY)
        assert config_fingerprint(clean) != config_fingerprint(faulty)

    def test_every_plan_field_changes_fingerprint(self):
        base = FaultPlan(
            seed=1,
            request_ber=1e-7,
            response_ber=1e-7,
            drop_rate=1e-5,
            vault_stall_period_ns=1000.0,
            vault_stall_duration_ns=50.0,
        )
        tweaks = {
            "seed": 2,
            "request_ber": 2e-7,
            "response_ber": 2e-7,
            "max_retransmits": 4,
            "drop_rate": 2e-5,
            "retry_budget": 9,
            "reissue_timeout_ns": 321.0,
            "vault_stall_period_ns": 1500.0,
            "vault_stall_duration_ns": 75.0,
        }
        reference = config_fingerprint(SystemConfig.graphpim().with_faults(base))
        for name, value in tweaks.items():
            tweaked = dataclasses.replace(base, **{name: value})
            assert config_fingerprint(
                SystemConfig.graphpim().with_faults(tweaked)
            ) != reference, name

    def test_system_config_roundtrip_with_faults(self):
        config = SystemConfig.graphpim().with_faults(LOSSY)
        data = json.loads(json.dumps(config.to_dict()))
        rebuilt = SystemConfig.from_dict(data)
        assert rebuilt.faults == LOSSY
        assert config_fingerprint(rebuilt) == config_fingerprint(config)
        clean = SystemConfig.from_dict(SystemConfig.graphpim().to_dict())
        assert clean.faults is None


# ----------------------------------------------------------------------
# Determinism and fault effects, end to end
# ----------------------------------------------------------------------


class TestFaultDeterminism:
    def test_same_seed_bit_identical(self, bfs_trace):
        config = SystemConfig.graphpim().with_faults(LOSSY)
        a = simulate(bfs_trace, config)
        b = simulate(bfs_trace, config)
        assert a.to_dict() == b.to_dict()

    def test_different_seed_diverges(self, bfs_trace):
        config = SystemConfig.graphpim()
        a = simulate(bfs_trace, config.with_faults(LOSSY))
        b = simulate(
            bfs_trace,
            config.with_faults(dataclasses.replace(LOSSY, seed=99)),
        )
        assert a.cycles != b.cycles

    def test_link_errors_cost_cycles_and_are_counted(self, bfs_trace):
        config = SystemConfig.graphpim()
        clean = simulate(bfs_trace, config)
        faulty = simulate(bfs_trace, config.with_faults(LOSSY))
        assert faulty.hmc_stats.retransmitted_flits > 0
        assert faulty.cycles > clean.cycles
        assert clean.hmc_stats.retransmitted_flits == 0

    def test_drops_reissue_requests(self, bfs_trace):
        plan = FaultPlan(seed=11, drop_rate=0.01)
        faulty = simulate(
            bfs_trace, SystemConfig.graphpim().with_faults(plan)
        )
        assert faulty.hmc_stats.reissued_requests > 0

    def test_vault_stalls_accumulate(self, bfs_trace):
        plan = FaultPlan(
            seed=11,
            vault_stall_period_ns=500.0,
            vault_stall_duration_ns=100.0,
        )
        config = SystemConfig.graphpim()
        clean = simulate(bfs_trace, config)
        stalled = simulate(bfs_trace, config.with_faults(plan))
        assert stalled.hmc_stats.fault_stall_cycles > 0
        assert stalled.cycles > clean.cycles

    def test_stats_roundtrip_with_fault_counters(self, bfs_trace):
        result = simulate(
            bfs_trace, SystemConfig.graphpim().with_faults(LOSSY)
        )
        payload = json.loads(json.dumps(result.to_dict()))
        rebuilt = SimResult.from_dict(payload)
        assert (
            rebuilt.hmc_stats.retransmitted_flits
            == result.hmc_stats.retransmitted_flits
        )
        assert "retransmitted_flits" in payload["hmc_stats"]
        assert "reissued_requests" in payload["hmc_stats"]
        assert "fault_stall_cycles" in payload["hmc_stats"]
        assert HmcStats().retransmitted_flits == 0


# ----------------------------------------------------------------------
# Device-level mechanics
# ----------------------------------------------------------------------


class TestDeviceFaults:
    def test_retry_budget_exhaustion_raises(self):
        plan = FaultPlan(seed=1, drop_rate=0.999, retry_budget=0)
        device = HmcDevice(fault_plan=plan)
        with pytest.raises(SimulationError, match="retry budget"):
            # drop_rate=0.999 makes each read overwhelmingly likely to
            # lose its response; a handful of attempts is deterministic
            # certainty for any seed.
            for i in range(16):
                device.read(i * 256, t=0.0)

    def test_disabled_plan_is_free(self):
        device = HmcDevice(fault_plan=FaultPlan(seed=5))
        clean = HmcDevice()
        assert device.read(0, t=0.0) == clean.read(0, t=0.0)
        assert device.stats.retransmitted_flits == 0

    def test_stall_window_is_periodic_and_bounded(self):
        plan = FaultPlan(
            seed=2,
            vault_stall_period_ns=100.0,
            vault_stall_duration_ns=40.0,
        )
        injector = FaultInjector(plan, num_vaults=4)
        period = 100.0  # cycles_per_ns=1 keeps the math transparent
        for vault in range(4):
            for t in (0.0, 13.0, 77.0, 99.0):
                delay = injector.vault_stall_delay(vault, t, 1.0)
                assert 0.0 <= delay <= 40.0
                assert delay == pytest.approx(
                    injector.vault_stall_delay(vault, t + period, 1.0)
                )

    def test_retransmissions_capped(self):
        plan = FaultPlan(seed=3, request_ber=0.5, max_retransmits=2)
        injector = FaultInjector(plan, num_vaults=1)
        assert all(
            injector.request_retransmissions(4) <= 2 for _ in range(64)
        )

    def test_block_draws_equal_scalar_draws(self):
        """The batch kernel reads the injector's stream in blocks; they
        must hold the doubles the reference draws one at a time, across
        block boundaries, under the injector's own seeding."""
        from repro.sim.vectorized import _DRAW_BLOCK

        for seed in (0, 7, 11, 2**31 - 1):
            plan = FaultPlan(seed=seed, request_ber=1e-5, drop_rate=0.1)
            scalar = FaultInjector(plan, num_vaults=4)
            blocked = FaultInjector(plan, num_vaults=4)
            expected = [
                float(scalar._gen.random())
                for _ in range(2 * _DRAW_BLOCK + 5)
            ]
            block = np.empty(_DRAW_BLOCK)
            drawn: list[float] = []
            while len(drawn) < len(expected):
                blocked.fill_draws(block)
                drawn.extend(block.tolist())
            assert drawn[: len(expected)] == expected

    def test_packet_error_probability_scales_with_flits(self):
        injector = FaultInjector(
            FaultPlan(seed=0, request_ber=1e-6), num_vaults=1
        )
        small = injector._packet_error_probability(1, 1e-6)
        large = injector._packet_error_probability(9, 1e-6)
        assert 0.0 < small < large < 1.0
        assert injector._packet_error_probability(4, 0.0) == 0.0


# ----------------------------------------------------------------------
# Fault-sweep experiment
# ----------------------------------------------------------------------


class TestFaultSweep:
    def test_sweep_shape_and_metrics(self):
        from repro.harness import run_experiment

        result = run_experiment(
            "faultsweep",
            scale="tiny",
            bers=(0.0, 1e-5),
            workloads=("BFS",),
        )
        assert [row[1] for row in result.rows] == ["0", "1e-05"]
        retx = result.column("gpim_retx_flits")
        assert retx[0] == 0 and retx[1] > 0
        assert result.metrics["speedup_retention"] == pytest.approx(
            result.metrics["mean_speedup_max_ber"]
            / result.metrics["mean_speedup_clean"]
        )

    def test_hmc_config_carries_retry_latency(self):
        assert HmcConfig().link_retry_latency > 0
