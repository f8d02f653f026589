"""Extension: hybrid HMC+DRAM systems (Section III-B discussion).

"GraphPIM can be applied on systems equipped with both HMCs and DRAMs.
In this case, the graph property data allocated in DRAMs will be
processed in the conventional way, while the graph data in HMCs can
still receive the same benefit from PIM-Atomic."

This bench sweeps the HMC-resident fraction of the property region and
checks the benefit interpolates smoothly between the two endpoints.
"""

from dataclasses import replace

from repro.dram.device import DdrConfig
from repro.harness.suite import sweep
from repro.sim.config import SystemConfig

FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


def test_ext_hybrid_memory(benchmark, scale):
    def run():
        modes = [
            replace(
                SystemConfig.graphpim(
                    dram=DdrConfig(), property_hmc_fraction=fraction
                ),
                label=f"GraphPIM/hmc{fraction:g}",
            )
            for fraction in FRACTIONS
        ]
        results = sweep(["DC"], modes, scale)["DC"]
        return [
            (
                fraction,
                result.cycles,
                result.core_stats.offloaded_atomics,
                result.core_stats.host_atomics,
            )
            for fraction, result in zip(FRACTIONS, results)
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for fraction, cycles, offloaded, host in rows:
        print(
            f"  HMC fraction={fraction:4.2f}  cycles={cycles:12.0f}  "
            f"offloaded={offloaded:8d}  host={host:8d}"
        )
    cycles = [row[1] for row in rows]
    # More HMC-resident property -> strictly more offloading and a
    # monotonically faster system.
    offloads = [row[2] for row in rows]
    assert offloads == sorted(offloads)
    assert all(a >= b for a, b in zip(cycles, cycles[1:]))
    # The fully-HMC endpoint beats the fully-DDR one clearly.
    assert cycles[0] / cycles[-1] > 1.3
