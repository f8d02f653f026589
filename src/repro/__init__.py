"""GraphPIM reproduction: instruction-level PIM offloading for graph frameworks.

This package reproduces *GraphPIM: Enabling Instruction-Level PIM
Offloading in Graph Computing Frameworks* (Nai et al., HPCA 2017) as a
pure-Python system: a GraphBIG-equivalent graph framework whose
workloads emit memory traces, a trace-driven multi-core timing model
with a three-level cache hierarchy, an HMC 2.0 device model with
fixed-function PIM atomics, and the GraphPIM offloading architecture
(PIM memory region + per-core PIM offloading unit) evaluated against a
conventional baseline and an idealized PEI.

Quickstart::

    from repro import GraphPimSystem, ldbc_like_graph

    graph = ldbc_like_graph(2000, seed=7)
    system = GraphPimSystem()
    report = system.evaluate("BFS", graph)
    print(report.summary())
"""

from repro.chaos import ChaosPlan
from repro.core.api import EvaluationReport, GraphPimSystem
from repro.core.presets import bench_graph, sim_scale_config
from repro.faults import FaultPlan
from repro.graph.generators import (
    grid_graph,
    ldbc_like_graph,
    rmat_graph,
    uniform_random_graph,
)
from repro.runner.engine import execute_spec
from repro.runner.spec import ExperimentSpec, RunnerConfig
from repro.sim.config import Mode, SystemConfig
from repro.sim.system import EngineInfo, SimResult, simulate, simulate_with_engine
from repro.workloads import all_workloads, get_workload

__version__ = "1.0.0"

__all__ = [
    "ChaosPlan",
    "EngineInfo",
    "EvaluationReport",
    "ExperimentSpec",
    "FaultPlan",
    "GraphPimSystem",
    "Mode",
    "RunnerConfig",
    "SimResult",
    "SystemConfig",
    "all_workloads",
    "bench_graph",
    "execute_spec",
    "get_workload",
    "grid_graph",
    "ldbc_like_graph",
    "rmat_graph",
    "sim_scale_config",
    "simulate",
    "simulate_with_engine",
    "uniform_random_graph",
]
