"""GraphBIG-equivalent graph workloads (Table III of the paper).

Thirteen workloads across the paper's three categories:

- **Graph Traversal (GT)**: BFS, DFS, Degree Centrality, Betweenness
  Centrality, Shortest Path, k-Core Decomposition, Connected Component,
  PageRank.
- **Dynamic Graph (DG)**: Graph Construction, Graph Update, Topology
  Morphing.
- **Rich Property (RP)**: Triangle Count, Gibbs Inference.

Each workload runs functionally on the framework in
:mod:`repro.framework` and records the memory trace the timing model
replays.  Functional outputs are returned so the test suite can verify
algorithmic correctness against reference implementations.  The eight
Figure 7 workloads record each bulk-synchronous step as one row block
per thread (decide, then emit: :mod:`repro.framework.layout`);
:mod:`repro.workloads.reference` keeps their per-event captures as the
oracle.
"""

from repro.workloads.base import Category, Workload, WorkloadRun
from repro.workloads.registry import (
    all_workloads,
    applicable_workloads,
    figure7_workloads,
    get_workload,
)

# Import workload modules for their registration side effects.
from repro.workloads import traversal as _traversal  # noqa: F401
from repro.workloads import centrality as _centrality  # noqa: F401
from repro.workloads import components as _components  # noqa: F401
from repro.workloads import ranking as _ranking  # noqa: F401
from repro.workloads import rich_property as _rich_property  # noqa: F401
from repro.workloads import dynamic as _dynamic  # noqa: F401

__all__ = [
    "Category",
    "Workload",
    "WorkloadRun",
    "all_workloads",
    "applicable_workloads",
    "figure7_workloads",
    "get_workload",
]
