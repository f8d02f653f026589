"""Framework execution context: threads, allocations, barriers."""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence, TypeVar

import numpy as np

from repro.common.errors import ConfigError
from repro.framework.layout import Layout
from repro.graph.csr import CsrGraph
from repro.memlayout.allocator import AddressSpace, Allocation
from repro.memlayout.regions import Region
from repro.trace.stream import ThreadTrace, Trace

T = TypeVar("T")

#: Most summed item cost one :meth:`FrameworkContext.parallel_blocks`
#: group takes.  The step weighs its items: out-degree + 1 for a vertex
#: that walks its edges, about deg^2 for a triangle-count merge walk,
#: 1 otherwise.  A group's temporaries grow with its cost, so this
#: bounds them: an edge step of the 400-vertex ``tiny`` inputs (about
#: 9.9K) runs in three groups instead of sixteen thread calls, one of
#: the 2,000-vertex ``small`` inputs (about 49K) in about one group per
#: thread (DESIGN section 18).
GROUP_BUDGET = 4096


class ThreadGroup(NamedTuple):
    """Consecutive virtual threads whose parts of a step run as one.

    ``counts[k]`` items of ``items`` belong to thread ``first + k``, in
    thread order; each thread's are its stride partition, in order.
    """

    first: int
    counts: np.ndarray
    items: np.ndarray


class FrameworkContext:
    """Owns the simulated address space and per-thread trace streams.

    Workloads are written against this context: they allocate property
    tables, register the graph, partition vertex ranges over the virtual
    threads, and insert barriers between bulk-synchronous steps.
    """

    def __init__(self, num_threads: int = 16, name: str = ""):
        if num_threads < 1:
            raise ConfigError("num_threads must be >= 1")
        self.num_threads = num_threads
        self.name = name
        self.address_space = AddressSpace()
        self.threads = [ThreadTrace(tid) for tid in range(num_threads)]
        self._barrier_counter = 0
        #: Figure 4 micro-benchmark mode: property tables created through
        #: :meth:`property_table` record plain load+store pairs instead
        #: of lock-prefixed atomics.
        self.plain_atomics = False

    # ------------------------------------------------------------------
    # Allocation helpers
    # ------------------------------------------------------------------

    def alloc_property(
        self, label: str, num_elements: int, element_size: int = 8
    ) -> Allocation:
        """Allocate a graph-property array inside the PMR.

        This is the paper's ``pmr_malloc`` call site — the only
        framework modification GraphPIM needs.  Whether the PMR flag is
        honored (uncacheable + atomic offloading) is a property of the
        evaluated system configuration, not of the trace.
        """
        return self.address_space.pmr_malloc(label, num_elements, element_size)

    def alloc_meta(
        self, label: str, num_elements: int, element_size: int = 8
    ) -> Allocation:
        """Allocate cache-friendly metadata (queues, locals)."""
        return self.address_space.malloc(
            label, Region.META, num_elements, element_size
        )

    def alloc_structure(
        self, label: str, num_elements: int, element_size: int = 8
    ) -> Allocation:
        """Allocate graph-structure arrays (CSR offsets/columns)."""
        return self.address_space.malloc(
            label, Region.STRUCTURE, num_elements, element_size
        )

    def vertex_object_table(self, num_vertices: int) -> Allocation:
        """The shared vertex-object array (64 bytes per vertex).

        Object-based frameworks locate per-vertex property storage
        through the vertex object; property accessors load it first.
        One table is shared by all property tables of the same vertex
        count.
        """
        if not hasattr(self, "_vertex_objects"):
            self._vertex_objects: dict[int, Allocation] = {}
        table = self._vertex_objects.get(num_vertices)
        if table is None:
            table = self.alloc_structure(
                f"vertex.objects.{num_vertices}", num_vertices, 64
            )
            self._vertex_objects[num_vertices] = table
        return table

    def property_table(
        self,
        label: str,
        num_elements: int,
        fill_value=0,
        dtype=np.int64,
        element_size: int = 64,
        via_vertex_object: bool = True,
    ):
        """Allocate a PMR-backed :class:`PropertyTable`.

        ``element_size`` defaults to one cache line per vertex: GraphBIG
        (and object-based frameworks generally) store each vertex's
        property inside a >=64-byte vertex object, so consecutive vertex
        ids do not share lines — this is what makes property access
        irregular at line granularity (Section II-C).

        Honors the context's ``plain_atomics`` flag so workload code
        stays identical between the with- and without-atomics runs.
        """
        from repro.framework.properties import PropertyTable

        allocation = self.alloc_property(label, num_elements, element_size)
        values = np.full(num_elements, fill_value, dtype=dtype)
        object_index = (
            self.vertex_object_table(num_elements) if via_vertex_object else None
        )
        return PropertyTable(
            allocation, values, self.plain_atomics, object_index
        )

    def register_graph(self, graph: CsrGraph) -> "TracedGraph":
        """Place a CSR graph's arrays in the structure region."""
        from repro.framework.traced_graph import TracedGraph

        offsets = self.alloc_structure(
            "csr.row_offsets", graph.num_vertices + 1, 8
        )
        columns = self.alloc_structure("csr.columns", max(graph.num_edges, 1), 8)
        weights = None
        if graph.weights is not None:
            weights = self.alloc_structure(
                "csr.weights", max(graph.num_edges, 1), 8
            )
        return TracedGraph(graph, offsets, columns, weights)

    # ------------------------------------------------------------------
    # Thread / synchronization helpers
    # ------------------------------------------------------------------

    def barrier(self) -> int:
        """Insert a global barrier across all threads; returns its id."""
        barrier_id = self._barrier_counter
        self._barrier_counter += 1
        for thread in self.threads:
            thread.barrier(barrier_id)
        return barrier_id

    def partition(self, items: Sequence[T]) -> list[Sequence[T]]:
        """Stride-partition ``items`` across the virtual threads.

        Interleaved assignment spreads high-degree hub vertices across
        threads, matching the dynamic scheduling real graph frameworks
        use to avoid pathological load imbalance on power-law inputs.
        """
        return [items[tid :: self.num_threads] for tid in range(self.num_threads)]

    def parallel_for(
        self,
        items: Sequence[T],
        body: Callable[[int, ThreadTrace, T], None],
        sync: bool = True,
    ) -> None:
        """Run ``body(tid, trace, item)`` over a block partition.

        Virtual threads execute sequentially (the functional result is a
        valid linearization of the parallel execution), but each records
        onto its own trace stream, so the timing model replays them
        concurrently.  A barrier follows unless ``sync`` is False.
        """
        for tid, part in enumerate(self.partition(items)):
            trace = self.threads[tid]
            for item in part:
                body(tid, trace, item)
        if sync:
            self.barrier()

    def parallel_blocks(
        self,
        items: np.ndarray,
        body: Callable[[ThreadGroup], Layout],
        cost=None,
    ) -> None:
        """Run ``body(group)`` once per group of consecutive threads.

        The decide-then-emit form of :meth:`parallel_for`, in the same
        thread-major order: the group's threads' stride partitions run
        as one sequence (thread 0's whole partition, then thread 1's),
        so an item sees the writes of every earlier item of the step.
        The body decides the group's effects and returns its rows as a
        :class:`~repro.framework.layout.Layout` with one segment per
        thread (:func:`~repro.framework.layout.lay_out` over
        ``group.counts``); each thread appends its own segment, so
        pending and trailing work fold per thread.  A thread with no
        items records nothing.  A barrier closes the step.

        Consecutive threads join a group while their summed item
        ``cost`` (one entry per item; 1 each when omitted) stays within
        :data:`GROUP_BUDGET`, which bounds a group's temporaries; a
        thread whose part alone exceeds it runs alone.
        """
        threads = self.num_threads
        n = len(items)
        if n:
            owner = np.arange(n) % threads
            counts = np.bincount(owner, minlength=threads)
            weight = counts if cost is None else np.bincount(
                owner, cost, threads
            )
            # Item indices in thread-major order: items[tid::threads]
            # for each thread in turn.
            rows = -(-n // threads)
            order = np.arange(rows * threads).reshape(rows, threads).T.ravel()
            ordered = items[order[order < n]]
            bounds = np.zeros(threads + 1, dtype=np.int64)
            np.cumsum(counts, out=bounds[1:])
            first = 0
            total = 0
            for tid, spent in enumerate(weight.tolist()):
                if tid > first and total + spent > GROUP_BUDGET:
                    self._run_group(first, tid, bounds, ordered, body)
                    first, total = tid, 0
                total += spent
            self._run_group(first, threads, bounds, ordered, body)
        self.barrier()

    def _run_group(self, first, end, bounds, ordered, body) -> None:
        """One :meth:`parallel_blocks` call of ``body``: threads
        ``first`` to ``end - 1``, whose items are
        ``ordered[bounds[first]:bounds[end]]``."""
        lo, hi = int(bounds[first]), int(bounds[end])
        if hi == lo:
            return
        layout = body(
            ThreadGroup(first, np.diff(bounds[first : end + 1]), ordered[lo:hi])
        )
        for segment, thread in enumerate(self.threads[first:end]):
            thread.append_columns(
                layout.segment(segment), layout.trailing[segment]
            )

    def finish(self) -> Trace:
        """Seal the context and return the recorded trace."""
        self.barrier()
        trace = Trace(self.threads, name=self.name)
        trace.validate_barriers()
        return trace
