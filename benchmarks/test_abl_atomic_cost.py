"""Ablation: sensitivity to the host atomic freeze/drain penalty.

The in-core cost of host atomics (pipeline freeze + write-buffer drain)
is the model's main calibration constant.  This bench sweeps it and
checks GraphPIM's reported speedup responds monotonically — i.e. the
headline result degrades gracefully rather than hinging on one value.
"""

from dataclasses import replace

from repro.harness.suite import evaluation_suite, sweep
from repro.sim.config import SystemConfig


def test_abl_atomic_cost(benchmark, scale):
    suite = evaluation_suite(scale)
    freeze_values = (0.0, 20.0, 40.0, 80.0)

    def run():
        graphpim_cycles = suite["DC"].results["GraphPIM"].cycles
        modes = [
            replace(
                SystemConfig.baseline(),
                atomic_freeze_cycles=freeze,
                label=f"Baseline/freeze{freeze:g}",
            )
            for freeze in freeze_values
        ]
        baselines = sweep(["DC"], modes, scale)["DC"]
        return [baseline.cycles / graphpim_cycles for baseline in baselines]

    speedups = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for freeze, speedup in zip(freeze_values, speedups):
        print(f"  freeze={freeze:5.0f} cycles  GraphPIM speedup={speedup:.2f}")
    # More expensive host atomics -> larger GraphPIM benefit, strictly.
    assert all(a < b for a, b in zip(speedups, speedups[1:]))
    # Even with zero freeze cost the serialization + cache walk keep a
    # real benefit for the atomic-dense workload.
    assert speedups[0] > 1.0
