"""Ablation: next-line prefetching cannot rescue the baseline.

Section II-C: "due to the uncertain nature of graph connectivity, it is
challenging to improve cache performance via conventional prefetching".
We give the baseline an idealized (zero-cost) next-line LLC prefetcher
and check that the offload candidates' miss rate barely moves, so the
GraphPIM speedup survives.
"""

from dataclasses import replace

from repro.harness.suite import evaluation_suite, sweep
from repro.sim.config import SystemConfig


def test_abl_prefetcher(benchmark, scale):
    suite = evaluation_suite(scale)

    def run():
        codes = ("BFS", "DC")
        prefetch_cfg = replace(
            SystemConfig.baseline(),
            prefetch_next_line=True,
            label="Baseline/prefetch",
        )
        prefetching = sweep(codes, [prefetch_cfg], scale)
        rows = []
        for code in codes:
            report = suite[code]
            prefetch = prefetching[code][0]
            rows.append(
                (
                    code,
                    report.baseline.candidate_miss_rate(),
                    prefetch.candidate_miss_rate(),
                    prefetch.cycles / report.results["GraphPIM"].cycles,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for code, base_miss, prefetch_miss, speedup_vs_prefetch in rows:
        print(
            f"  {code:5s} candidate miss: plain={base_miss:.2f} "
            f"prefetch={prefetch_miss:.2f}  "
            f"GraphPIM speedup vs prefetching baseline="
            f"{speedup_vs_prefetch:.2f}"
        )
        # Prefetching barely moves candidate misses (irregular access).
        assert abs(base_miss - prefetch_miss) < 0.15, code
        # GraphPIM still wins against the prefetching baseline.
        assert speedup_vs_prefetch > 1.2, code
