"""Tests for the CSR graph substrate."""

import numpy as np
import pytest

from repro.common.errors import GraphError
from repro.graph.csr import CsrGraph


class TestConstruction:
    def test_from_edges_basic(self, tiny_csr):
        assert tiny_csr.num_vertices == 6
        assert tiny_csr.num_edges == 5

    def test_empty_graph(self):
        g = CsrGraph.from_edges(3, [])
        assert g.num_vertices == 3
        assert g.num_edges == 0
        assert g.degree(0) == 0

    def test_zero_vertices(self):
        g = CsrGraph.from_edges(0, [])
        assert g.num_vertices == 0

    def test_neighbors_sorted(self):
        g = CsrGraph.from_edges(4, [(0, 3), (0, 1), (0, 2)])
        assert g.neighbors(0).tolist() == [1, 2, 3]

    def test_unsorted_option(self):
        g = CsrGraph.from_edges(
            4, [(0, 3), (0, 1), (0, 2)], sort_neighbors=False
        )
        assert g.neighbors(0).tolist() == [3, 1, 2]

    def test_duplicate_edges_kept_by_default(self):
        g = CsrGraph.from_edges(2, [(0, 1), (0, 1)])
        assert g.num_edges == 2

    def test_deduplicate(self):
        g = CsrGraph.from_edges(2, [(0, 1), (0, 1), (1, 0)], deduplicate=True)
        assert g.num_edges == 2

    def test_weights_follow_sort(self):
        g = CsrGraph.from_edges(
            3, [(0, 2), (0, 1)], weights=[2.5, 1.5]
        )
        assert g.neighbors(0).tolist() == [1, 2]
        assert g.edge_weight_slice(0).tolist() == [1.5, 2.5]

    def test_sort_is_stable_over_duplicate_edges(self):
        rng = np.random.default_rng(7)
        edges = rng.integers(0, 5, size=(200, 2))
        weights = np.arange(200, dtype=np.float64)  # tells duplicates apart
        g = CsrGraph.from_edges(5, edges, weights=weights)
        order = sorted(range(200), key=lambda i: (*edges[i], i))
        assert g.columns.tolist() == edges[order, 1].tolist()
        assert g.weights.tolist() == weights[order].tolist()

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphError):
            CsrGraph.from_edges(2, [(0, 2)])

    def test_negative_vertex_rejected(self):
        with pytest.raises(GraphError):
            CsrGraph.from_edges(2, [(-1, 0)])

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(GraphError):
            CsrGraph.from_edges(2, [(0, 1)], weights=[1.0, 2.0])

    def test_malformed_edges_rejected(self):
        with pytest.raises(GraphError):
            CsrGraph.from_edges(3, np.array([[0, 1, 2]]))

    def test_raw_csr_validation(self):
        with pytest.raises(GraphError):
            CsrGraph(np.array([0, 2, 1]), np.array([0, 1, 0]))
        with pytest.raises(GraphError):
            CsrGraph(np.array([1, 2]), np.array([0]))
        with pytest.raises(GraphError):
            CsrGraph(np.array([0, 2]), np.array([0]))


class TestQueries:
    def test_degree(self, tiny_csr):
        assert tiny_csr.degree(0) == 2
        assert tiny_csr.degree(5) == 0

    def test_degree_out_of_range(self, tiny_csr):
        with pytest.raises(GraphError):
            tiny_csr.degree(6)

    def test_out_degrees(self, tiny_csr):
        assert tiny_csr.out_degrees().tolist() == [2, 1, 1, 1, 0, 0]

    def test_in_degrees(self, tiny_csr):
        assert tiny_csr.in_degrees().tolist() == [0, 1, 1, 2, 1, 0]

    def test_degree_sums_match(self, small_graph):
        assert small_graph.out_degrees().sum() == small_graph.num_edges
        assert small_graph.in_degrees().sum() == small_graph.num_edges

    def test_has_edge(self, tiny_csr):
        assert tiny_csr.has_edge(0, 1)
        assert not tiny_csr.has_edge(1, 0)
        assert not tiny_csr.has_edge(5, 0)

    def test_neighbor_slice(self, tiny_csr):
        start, end = tiny_csr.neighbor_slice(0)
        assert end - start == 2

    def test_iter_edges_complete(self, tiny_csr):
        edges = set(tiny_csr.iter_edges())
        assert edges == {(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)}

    def test_edge_weight_slice_unweighted_rejected(self, tiny_csr):
        with pytest.raises(GraphError):
            tiny_csr.edge_weight_slice(0)


class TestTransforms:
    def test_reversed_swaps_edges(self, tiny_csr):
        rev = tiny_csr.reversed()
        assert set(rev.iter_edges()) == {
            (1, 0), (2, 0), (3, 1), (3, 2), (4, 3)
        }

    def test_reversed_preserves_counts(self, small_graph):
        rev = small_graph.reversed()
        assert rev.num_edges == small_graph.num_edges
        assert np.array_equal(rev.in_degrees(), small_graph.out_degrees())

    def test_undirected_symmetry(self, tiny_csr):
        und = tiny_csr.undirected()
        for u, v in und.iter_edges():
            assert und.has_edge(v, u)

    def test_undirected_deduplicates(self):
        g = CsrGraph.from_edges(2, [(0, 1), (1, 0)])
        assert g.undirected().num_edges == 2

    def test_memory_footprint(self, tiny_csr):
        base = tiny_csr.memory_footprint_bytes()
        with_props = tiny_csr.memory_footprint_bytes(64)
        assert with_props == base + 64 * 6

    def test_repr(self, tiny_csr):
        assert "vertices=6" in repr(tiny_csr)
