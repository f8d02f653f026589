"""Inputs of the benchmark workloads, built through repro's public API.

Simulation inputs never depend on the seed, so one committed digest set
holds for every seed.  The seed draws the served request stream
(:class:`RequestStream`).  Batch passes run their jobs in grid order
whatever the seed: the order decides which traces are still alive when
a later job runs, and a shuffled order moved a pass's peak RSS by 15%
(207.6 MB against 241.0 MB on ``sweep``).

Each workload has a full size, which the benchmark measures, and a quick
size, which the benchmark's own tests run.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import replace

from repro.core.presets import workload_params
from repro.faults import FaultPlan
from repro.runner import ExperimentSpec, evaluation_grid_specs
from repro.sim.config import SystemConfig
from repro.workloads.registry import FIGURE7_CODES

#: Fig. 11 x Fig. 13 grid: the atomic-dense workloads of the sweeps.
SWEEP_CODES = ("BFS", "DC", "kCore", "PRank")
SWEEP_FUS = (1, 2, 4, 8, 16)
SWEEP_LINK_FACTORS = (0.5, 1.0, 2.0)

#: Link-fault sweep; the plan seed is fixed so results never vary.
FAULT_CODES = ("BFS", "DC", "PRank")
FAULT_BERS = (1e-7, 1e-6, 1e-5)
FAULT_SEED = 7

#: Zipf exponent of the served popularity distribution.
ZIPF_EXPONENT = 1.1


def sweep_modes() -> "list[SystemConfig]":
    """21 configs, each with a unique label (results key on labels)."""
    hmc = SystemConfig().hmc
    modes = []
    for ctor in (SystemConfig.baseline, SystemConfig.upei):
        for factor in SWEEP_LINK_FACTORS:
            base = ctor()
            modes.append(
                replace(
                    base,
                    hmc=hmc.scaled_link_bandwidth(factor),
                    label=f"{base.label}/bw{factor:g}",
                )
            )
    for fus in SWEEP_FUS:
        for factor in SWEEP_LINK_FACTORS:
            modes.append(
                replace(
                    SystemConfig.graphpim(),
                    hmc=hmc.with_fus(fus).scaled_link_bandwidth(factor),
                    label=f"GraphPIM/fu{fus}/bw{factor:g}",
                )
            )
    return modes


def fault_modes(bers) -> "list[SystemConfig]":
    modes = []
    for ber in bers:
        plan = FaultPlan(seed=FAULT_SEED, request_ber=ber, response_ber=ber)
        for ctor in (SystemConfig.baseline, SystemConfig.graphpim):
            base = ctor().with_faults(plan)
            modes.append(replace(base, label=f"{base.label}/ber{ber:g}"))
    return modes


def _specs(codes, scale, modes) -> "list[ExperimentSpec]":
    return [
        ExperimentSpec.for_workload(
            code, scale, modes=modes, params=workload_params(code)
        )
        for code in codes
    ]


def batch_specs(workload: str, quick: bool) -> "list[ExperimentSpec]":
    """The job list of one pass of a batch workload, in grid order."""
    if workload == "fig7-cold":
        return evaluation_grid_specs("tiny" if quick else "small")
    if workload == "sweep":
        return _specs(SWEEP_CODES, "tiny" if quick else "small", sweep_modes())
    if workload == "faultsweep":
        if quick:
            return _specs(("BFS",), "tiny", fault_modes((1e-5,)))
        return _specs(FAULT_CODES, "tiny", fault_modes(FAULT_BERS))
    if workload == "served":
        # Only to record the catalog's digests through the runner.
        return served_catalog(quick)
    raise ValueError(f"unknown workload: {workload!r}")


def strict(workload: str) -> bool:
    """fig7-cold runs the strict pre-flight, as reproduce_all does."""
    return workload == "fig7-cold"


def _at_link(config: SystemConfig, factor: float) -> SystemConfig:
    """``config`` with ``factor`` times its link bandwidth, labelled so."""
    if factor == 1:
        return config
    return replace(
        config,
        hmc=config.hmc.scaled_link_bandwidth(factor),
        label=f"{config.label}/bw{factor:g}",
    )


#: Mode pairs of the served catalog: (constructor, link factor) twice.
SERVED_PAIRS = (
    ((SystemConfig.baseline, 1), (SystemConfig.graphpim, 1)),
    ((SystemConfig.upei, 1), (SystemConfig.graphpim, 0.5)),
    ((SystemConfig.baseline, 2), (SystemConfig.graphpim, 2)),
    ((SystemConfig.upei, 0.5), (SystemConfig.graphpim, 0.25)),
)


def served_catalog(quick: bool) -> "list[ExperimentSpec]":
    """Distinct tiny specs the served stream requests.

    Each of the eight Figure 7 workloads comes with each of the four
    ``SERVED_PAIRS``, so the stream has 32 misses, enough for a steady
    median.  Every spec has two modes, so requests and answers have
    about the same size whichever specs the seed makes popular.  No two
    specs of a workload share a mode: the server's result cache would
    answer a shared mode of the second spec without simulating it, and
    which spec of the two ran both modes would depend on the seed.
    """
    pairs = [
        [_at_link(ctor(), factor) for ctor, factor in pair]
        for pair in SERVED_PAIRS
    ]
    if quick:
        return _specs(("BFS", "DC", "kCore", "PRank"), "tiny", pairs[0])
    return [
        spec for pair in pairs for spec in _specs(FIGURE7_CODES, "tiny", pair)
    ]


class RequestStream:
    """Catalog indexes for the served stream, one per request.

    The seed fixes the order in which specs are released and the Zipf
    popularity rank of each.  Spec ``k`` of the release order is request
    number ``k * count / size`` of the ``count`` the stream sends, so the
    misses are spread over the whole stream instead of bunched at its
    start.  Every other request draws a released spec by popularity, and
    is a hit.
    """

    def __init__(self, seed: int, size: int, count: int):
        rng = random.Random(f"stream:{seed}")
        self._release = list(range(size))
        rng.shuffle(self._release)
        by_rank = list(range(size))
        rng.shuffle(by_rank)
        self._by_rank = by_rank
        self._cumulative = list(
            itertools.accumulate(
                1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(size)
            )
        )
        self._rng = rng
        self._interval = count / size
        self._released: "set[int]" = set()

    def next(self, position: int) -> int:
        """The catalog index of request number ``position``."""
        count = len(self._released)
        if count < len(self._release) and position >= count * self._interval:
            index = self._release[count]
            self._released.add(index)
            return index
        while True:
            point = self._rng.random() * self._cumulative[-1]
            index = self._by_rank[bisect.bisect_right(self._cumulative, point)]
            if index in self._released:
                return index


def digest_key(spec: ExperimentSpec, label: str) -> str:
    """Results depend only on (trace, config): key on workload and mode."""
    return f"{spec.workload}@{spec.scale}/{label}"
