"""Shared fixtures: small deterministic graphs and configs."""

import pytest

from repro.graph.csr import CsrGraph
from repro.graph.generators import ldbc_like_graph, uniform_random_graph
from repro.runner.engine import clear_trace_memo
from repro.sim.config import SystemConfig


@pytest.fixture(autouse=True)
def _empty_trace_memo():
    """Every test starts and ends with an empty trace memo, so none
    depends on the traces another captured."""
    clear_trace_memo()
    yield
    clear_trace_memo()


@pytest.fixture(scope="session")
def small_graph() -> CsrGraph:
    """A 300-vertex LDBC-like graph shared across tests."""
    return ldbc_like_graph(300, seed=7)


@pytest.fixture(scope="session")
def small_weighted_graph() -> CsrGraph:
    """Weighted variant for SSSP-style tests."""
    return ldbc_like_graph(300, seed=7, weighted=True)


@pytest.fixture(scope="session")
def sparse_graph() -> CsrGraph:
    """A sparse uniform graph (fast traces, low triangle count)."""
    return uniform_random_graph(200, 800, seed=3)


@pytest.fixture
def tiny_csr() -> CsrGraph:
    """A hand-built 6-vertex graph with known structure.

    Edges: 0->1, 0->2, 1->3, 2->3, 3->4; vertex 5 is isolated.
    """
    return CsrGraph.from_edges(
        6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]
    )


@pytest.fixture(scope="session")
def trio():
    """Baseline / U-PEI / GraphPIM configs with default parameters."""
    return SystemConfig().evaluation_trio()
