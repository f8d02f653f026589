"""Ablation: GraphPIM's cache-bypass policy for PMR accesses.

DESIGN.md design-choice ablation: the paper argues bypassing the cache
for PMR data beats caching it (avoided checking time, no pollution, no
coherence).  We compare GraphPIM against an ablated variant that caches
plain PMR loads/stores (with idealized free coherence, which only
flatters the ablation).
"""

from dataclasses import replace

from repro.harness.suite import evaluation_suite, sweep
from repro.sim.config import SystemConfig


def test_abl_cache_bypass(benchmark, scale):
    suite = evaluation_suite(scale)

    def run():
        codes = ("BFS", "DC", "BC")
        cached_cfg = replace(
            SystemConfig.graphpim(), pmr_bypass=False, label="NoBypass"
        )
        cached = sweep(codes, [cached_cfg], scale)
        rows = []
        for code in codes:
            bypass_cycles = suite[code].results["GraphPIM"].cycles
            cached_cycles = cached[code][0].cycles
            rows.append(
                (code, bypass_cycles, cached_cycles,
                 cached_cycles / bypass_cycles)
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for code, bypass_cycles, cached_cycles, ratio in rows:
        print(
            f"  {code:5s} bypass={bypass_cycles:12.0f} "
            f"cached={cached_cycles:12.0f} cached/bypass={ratio:.3f}"
        )
    results = {code: ratio for code, _b, _c, ratio in rows}
    # On cache-overflowing graphs, bypass wins (>1 means cached slower)
    # for the miss-dominated kernels; BC's locality makes caching
    # competitive (the paper's Figure 14 story).
    assert results["BC"] < results["BFS"] * 1.2
