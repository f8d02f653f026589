"""Evaluation presets: bench graphs, per-workload parameters, scales.

The paper evaluates on LDBC-1M against Table IV's cache hierarchy; this
reproduction scales both down together so the footprint:capacity ratios
(the quantities that determine miss behavior) are preserved.  A
``scale`` knob selects how much work the experiments do:

- ``"tiny"``    — unit-test speed (hundreds of vertices).
- ``"small"``   — seconds per simulation; default for benches.
- ``"paper"``   — the calibration scale used in EXPERIMENTS.md.
"""

from __future__ import annotations

import os

from repro.common.errors import ConfigError
from repro.graph.csr import CsrGraph
from repro.graph.generators import ldbc_like_graph
from repro.sim.config import SystemConfig

#: Default vertex counts per scale.
SCALE_VERTICES = {"tiny": 400, "small": 2_000, "paper": 4_000}

#: Per-workload execution parameters at bench scale.  TC's intersection
#: cost is quadratic in degree, so it runs degree-capped and sampled
#: (documented in DESIGN.md); BC uses a source sample as GraphBIG does.
WORKLOAD_PARAMS: dict[str, dict] = {
    "BC": {"num_sources": 2},
    "TC": {"max_degree": 48, "sample_fraction": 0.2},
    "GInfer": {"sweeps": 1},
    "GUp": {"churn_fraction": 0.1},
    "TMorph": {"merge_fraction": 0.03},
}


def resolve_scale(scale: str | None = None) -> str:
    """Resolve the experiment scale (env ``REPRO_SCALE`` overrides)."""
    value = scale or os.environ.get("REPRO_SCALE", "small")
    if value not in SCALE_VERTICES:
        raise ConfigError(
            f"unknown scale {value!r}; choose from {sorted(SCALE_VERTICES)}"
        )
    return value


#: The most recent evaluation graph for each ``weighted`` flag, with the
#: ``(vertices, seed)`` it was built for.  The eight Figure 7 workloads
#: of one scale read two graphs: SSSP's weighted one and one shared by
#: the other seven.
_GRAPHS: "dict[bool, tuple[tuple[int, int], CsrGraph]]" = {}


def bench_graph(
    scale: str | None = None, seed: int = 7, weighted: bool = False
) -> CsrGraph:
    """The default LDBC-like evaluation graph at the given scale.

    Built once per process for each ``weighted`` flag and kept until a
    call asks for another size or seed.  Callers share the graph, so
    its arrays are read-only: a caller that writes to one fails loudly.
    """
    key = (SCALE_VERTICES[resolve_scale(scale)], seed)
    held = _GRAPHS.get(weighted)
    if held is not None and held[0] == key:
        return held[1]
    graph = ldbc_like_graph(key[0], seed=seed, weighted=weighted)
    for array in (graph.row_offsets, graph.columns, graph.weights):
        if array is not None:
            array.flags.writeable = False
    _GRAPHS[weighted] = (key, graph)
    return graph


def workload_graph(
    code: str, scale: str | None = None, seed: int = 7
) -> CsrGraph:
    """The input graph for one workload (SSSP gets edge weights)."""
    return bench_graph(scale, seed=seed, weighted=(code == "SSSP"))


def workload_params(code: str) -> dict:
    """Bench-scale execution parameters for a workload."""
    return dict(WORKLOAD_PARAMS.get(code, {}))


def sim_scale_config(**overrides) -> SystemConfig:
    """The default simulated system (Table IV, capacity-scaled)."""
    return SystemConfig(**overrides)
