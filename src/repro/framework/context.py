"""Framework execution context: threads, allocations, barriers."""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.common.errors import ConfigError
from repro.graph.csr import CsrGraph
from repro.memlayout.allocator import AddressSpace, Allocation
from repro.memlayout.regions import Region
from repro.trace.stream import ThreadTrace, Trace

T = TypeVar("T")


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
        items: Sequence[T],
        body: Callable[[int, ThreadTrace, Sequence[T]], None],
    ) -> None:
        """Run ``body(tid, trace, part)`` once per thread on its partition.

        The decide-then-emit form of :meth:`parallel_for`, in the same
        thread-major order: thread 0's whole partition runs before
        thread 1's, so a thread sees the writes of every earlier thread
        of the step.  The body decides the step's effects for its part
        and records them as one row block
        (:func:`repro.framework.layout.lay_out`).  A thread with no
        items records nothing, as under :meth:`parallel_for`.  A
        barrier closes the step.
        """
        for tid, part in enumerate(self.partition(items)):
            if len(part):
                body(tid, self.threads[tid], part)
        self.barrier()

    def finish(self) -> Trace:
        """Seal the context and return the recorded trace."""
        self.barrier()
        trace = Trace(self.threads, name=self.name)
        trace.validate_barriers()
        return trace
