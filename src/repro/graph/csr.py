"""Compressed sparse row (CSR) graph representation.

The CSR layout mirrors what GraphBIG and other frameworks use: a row
offset array plus a flat neighbor array.  Edge weights are optional and
stored in a parallel array.  All arrays are numpy so the memory-layout
model in :mod:`repro.memlayout` can assign them contiguous simulated
address ranges, reproducing the paper's "graph structure" data component.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.common.errors import GraphError


class CsrGraph:
    """A directed graph in CSR form.

    Parameters
    ----------
    row_offsets:
        ``int64`` array of length ``num_vertices + 1``; neighbors of
        vertex ``v`` live at ``columns[row_offsets[v]:row_offsets[v+1]]``.
    columns:
        ``int64`` array of destination vertex ids.
    weights:
        Optional ``float64`` array parallel to ``columns``.
    """

    def __init__(
        self,
        row_offsets: np.ndarray,
        columns: np.ndarray,
        weights: np.ndarray | None = None,
    ):
        row_offsets = np.asarray(row_offsets, dtype=np.int64)
        columns = np.asarray(columns, dtype=np.int64)
        if row_offsets.ndim != 1 or columns.ndim != 1:
            raise GraphError("row_offsets and columns must be 1-D arrays")
        if row_offsets.size == 0:
            raise GraphError("row_offsets must have at least one entry")
        if row_offsets[0] != 0:
            raise GraphError("row_offsets must start at 0")
        if row_offsets[-1] != columns.size:
            raise GraphError(
                f"row_offsets[-1]={row_offsets[-1]} does not match "
                f"columns size {columns.size}"
            )
        if np.any(np.diff(row_offsets) < 0):
            raise GraphError("row_offsets must be non-decreasing")
        num_vertices = row_offsets.size - 1
        if columns.size and (columns.min() < 0 or columns.max() >= num_vertices):
            raise GraphError("column indices out of range")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != columns.shape:
                raise GraphError("weights must parallel columns")
        self.row_offsets = row_offsets
        self.columns = columns
        self.weights = weights

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
        deduplicate: bool = False,
        sort_neighbors: bool = True,
    ) -> "CsrGraph":
        """Build a CSR graph from an edge list.

        ``edges`` may be any iterable of (src, dst) pairs or an (E, 2)
        array.  Self-loops are kept; duplicate edges are kept unless
        ``deduplicate`` is set.
        """
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be >= 0, got {num_vertices}")
        edge_array = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges),
            dtype=np.int64,
        )
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise GraphError("edges must be an iterable of (src, dst) pairs")
        if edge_array.size and (
            edge_array.min() < 0 or edge_array.max() >= num_vertices
        ):
            raise GraphError("edge endpoints out of range")

        weight_array = None
        if weights is not None:
            weight_array = np.asarray(weights, dtype=np.float64)
            if weight_array.shape[0] != edge_array.shape[0]:
                raise GraphError("weights length must match edges length")

        if deduplicate and edge_array.shape[0]:
            keys = edge_array[:, 0] * num_vertices + edge_array[:, 1]
            _, unique_idx = np.unique(keys, return_index=True)
            unique_idx.sort()
            edge_array = edge_array[unique_idx]
            if weight_array is not None:
                weight_array = weight_array[unique_idx]

        sort_key = edge_array[:, 0]
        if sort_neighbors:
            # One stable sort on (src, dst) also orders every neighbour
            # list; equal edges keep their input order.
            sort_key = sort_key * num_vertices + edge_array[:, 1]
        order = np.argsort(sort_key, kind="stable")
        edge_array = edge_array[order]
        if weight_array is not None:
            weight_array = weight_array[order]

        counts = np.bincount(edge_array[:, 0], minlength=num_vertices)
        row_offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=row_offsets[1:])
        columns = edge_array[:, 1].copy()

        return cls(row_offsets, columns, weight_array)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return self.row_offsets.size - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return int(self.columns.size)

    def degree(self, vertex: int) -> int:
        """Out-degree of ``vertex``."""
        self._check_vertex(vertex)
        return int(self.row_offsets[vertex + 1] - self.row_offsets[vertex])

    def out_degrees(self) -> np.ndarray:
        """Out-degrees of all vertices as an ``int64`` array."""
        return np.diff(self.row_offsets)

    def in_degrees(self) -> np.ndarray:
        """In-degrees of all vertices as an ``int64`` array."""
        return np.bincount(self.columns, minlength=self.num_vertices).astype(
            np.int64
        )

    def neighbors(self, vertex: int) -> np.ndarray:
        """Neighbor ids of ``vertex`` (a view into the columns array)."""
        self._check_vertex(vertex)
        return self.columns[self.row_offsets[vertex] : self.row_offsets[vertex + 1]]

    def neighbor_slice(self, vertex: int) -> tuple[int, int]:
        """The [start, end) index range of ``vertex`` in ``columns``."""
        self._check_vertex(vertex)
        return int(self.row_offsets[vertex]), int(self.row_offsets[vertex + 1])

    def edge_weight_slice(self, vertex: int) -> np.ndarray:
        """Weights of ``vertex``'s out-edges; raises if unweighted."""
        if self.weights is None:
            raise GraphError("graph is unweighted")
        start, end = self.neighbor_slice(vertex)
        return self.weights[start:end]

    def has_edge(self, src: int, dst: int) -> bool:
        """Whether a directed edge src->dst exists (binary search)."""
        self._check_vertex(dst)
        nbrs = self.neighbors(src)
        idx = np.searchsorted(nbrs, dst)
        return bool(idx < nbrs.size and nbrs[idx] == dst)

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Yield all (src, dst) pairs in CSR order."""
        for v in range(self.num_vertices):
            start, end = self.neighbor_slice(v)
            for j in range(start, end):
                yield v, int(self.columns[j])

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self.num_vertices:
            raise GraphError(
                f"vertex {vertex} out of range [0, {self.num_vertices})"
            )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def reversed(self) -> "CsrGraph":
        """The transpose graph (all edges flipped)."""
        edges = np.empty((self.num_edges, 2), dtype=np.int64)
        src = np.repeat(np.arange(self.num_vertices), self.out_degrees())
        edges[:, 0] = self.columns
        edges[:, 1] = src
        weights = self.weights.copy() if self.weights is not None else None
        return CsrGraph.from_edges(self.num_vertices, edges, weights)

    def undirected(self) -> "CsrGraph":
        """Symmetrized graph: for every edge (u,v) both (u,v) and (v,u)."""
        src = np.repeat(np.arange(self.num_vertices), self.out_degrees())
        fwd = np.column_stack([src, self.columns])
        bwd = np.column_stack([self.columns, src])
        both = np.vstack([fwd, bwd])
        return CsrGraph.from_edges(self.num_vertices, both, deduplicate=True)

    def memory_footprint_bytes(self, property_bytes_per_vertex: int = 0) -> int:
        """Approximate in-simulation memory footprint of this graph."""
        structure = self.row_offsets.nbytes + self.columns.nbytes
        if self.weights is not None:
            structure += self.weights.nbytes
        return structure + property_bytes_per_vertex * self.num_vertices

    def __repr__(self) -> str:
        weighted = "weighted" if self.weights is not None else "unweighted"
        return (
            f"CsrGraph(vertices={self.num_vertices}, "
            f"edges={self.num_edges}, {weighted})"
        )
