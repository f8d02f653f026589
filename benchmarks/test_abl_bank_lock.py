"""Ablation: HMC bank locking during PIM read-modify-write.

HMC 2.0 locks the target bank for the whole RMW (Section II-A).  The
ablation releases the bank after the read phase.  The paper's Figure 11
implies PIM-Atomic throughput is not the bottleneck, so removing the
lock should barely matter — this bench verifies our model agrees.
"""

from dataclasses import replace

from repro.harness.suite import evaluation_suite, sweep
from repro.sim.config import SystemConfig


def test_abl_bank_lock(benchmark, scale):
    suite = evaluation_suite(scale)

    def run():
        codes = ("BFS", "DC")
        unlocked_cfg = replace(
            SystemConfig.graphpim(),
            hmc=replace(SystemConfig().hmc, atomic_locks_bank=False),
            label="GraphPIM/unlocked",
        )
        unlocked = sweep(codes, [unlocked_cfg], scale)
        return [
            (
                code,
                suite[code].results["GraphPIM"].cycles,
                unlocked[code][0].cycles,
            )
            for code in codes
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for code, locked, unlocked in rows:
        delta = abs(locked - unlocked) / locked
        print(
            f"  {code:5s} locked={locked:12.0f} unlocked={unlocked:12.0f} "
            f"delta={delta:.3%}"
        )
        # Bank locking is not a first-order bottleneck (<10% effect).
        assert delta < 0.10, code
