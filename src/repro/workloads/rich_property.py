"""Rich Property workloads: Triangle Count and Gibbs Inference.

Triangle Count is applicable (``lock add`` on triangle counters) but
compute-bound inside neighbor-list intersections; Gibbs Inference
performs heavy numeric work over large per-vertex stochastic tables and
is Table III's "computation intensive" inapplicable case.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import DeterministicRng
from repro.framework.context import FrameworkContext
from repro.framework.layout import Slot, lay_out, work_slot
from repro.graph.csr import CsrGraph
from repro.trace.events import EV_LOAD, AtomicOp
from repro.workloads.base import Category, Workload
from repro.workloads.registry import register


class TriangleCount(Workload):
    """Per-vertex triangle counting on the symmetrized graph.

    For every edge (u, v) with u < v, the sorted neighbor lists of u and
    v are merge-intersected (streaming structure loads plus compare
    work); each triangle found bumps all three vertices' counters with
    ``lock add``.  ``max_degree`` optionally skips hub vertices so the
    quadratic intersection cost stays tractable on power-law inputs.
    """

    code = "TC"
    name = "Triangle count"
    category = Category.RICH_PROPERTY
    host_instruction = "lock add"
    pim_op = AtomicOp.ADD
    applicable = True

    def execute(
        self,
        ctx: FrameworkContext,
        graph: CsrGraph,
        max_degree: int | None = None,
        sample_fraction: float = 1.0,
    ) -> dict:
        undirected = graph.undirected()
        tg = ctx.register_graph(undirected)
        n = undirected.num_vertices
        # Packed counters: TC is intersection-compute bound and its few
        # atomics land on a small array (lower miss rate, Figure 10).
        triangles = ctx.property_table("tc.count", n, 0, element_size=8)
        degrees = undirected.out_degrees()

        ok = (
            [True] * n
            if max_degree is None
            else (degrees <= max_degree).tolist()
        )
        offsets = undirected.row_offsets
        columns = undirected.columns
        columns_alloc = tg.columns_alloc

        def count_for(group):
            # Decide each merge walk: its column loads, in order, and the
            # triangles it finds.  An entry is one neighbour load (a
            # "j" entry) or one merge step's pair of loads.
            part = group.items
            loads: list[int] = []
            pair: list[int] = []
            entries = np.zeros(len(part), dtype=np.int64)
            found = np.zeros(len(part), dtype=np.int64)
            for i, u in enumerate(part.tolist()):
                if not ok[u]:
                    continue
                first_entry = len(loads)
                u_start, u_end = offsets[u : u + 2].tolist()
                # Each walk reads the two neighbour lists it merges,
                # sliced per vertex; ``iu`` and ``iv`` index the CSR.
                u_list = columns[u_start:u_end].tolist()
                local_count = 0
                for j, v in enumerate(u_list, u_start):
                    loads.append(j)
                    pair.append(-1)
                    if v <= u or not ok[v]:
                        continue
                    # Merge-intersect sorted adjacency of u and v,
                    # counting common neighbors w > v (each triangle
                    # counted once, at its minimum vertex).
                    v_start, v_end = offsets[v : v + 2].tolist()
                    v_list = columns[v_start:v_end].tolist()
                    iu, iv = u_start, v_start
                    while iu < u_end and iv < v_end:
                        loads.append(iu)
                        pair.append(iv)
                        a, b = u_list[iu - u_start], v_list[iv - v_start]
                        if a < b:
                            iu += 1
                        elif b < a:
                            iv += 1
                        else:
                            if a > v and ok[a]:
                                local_count += 1
                            iu += 1
                            iv += 1
                entries[i] = len(loads) - first_entry
                found[i] = local_count
            triangles.values[part] += found
            pairs = np.array(pair, dtype=np.int64)
            step_rows = pairs >= 0
            neighbour_rows = ~step_rows
            addr = columns_alloc.addrs_of(loads)
            pair_addr = np.zeros_like(addr)
            pair_addr[step_rows] = columns_alloc.addrs_of(pairs[step_rows])
            return lay_out(
                group.counts,
                head=[work_slot(3)],
                edge=[
                    Slot(EV_LOAD, addr, 8, 2, neighbour_rows),
                    Slot(EV_LOAD, addr, 8, 3, step_rows),
                    Slot(EV_LOAD, pair_addr, 8, 0, step_rows),
                ],
                # One atomic accumulation per vertex (thread-local
                # counting inside the scan): TC's atomic density is
                # low, which is why its PIM benefit is marginal
                # (Section IV-B1).
                tail=triangles.atomic_slots(
                    AtomicOp.ADD, part, False, keep=found != 0
                ),
                degrees=entries,
            )

        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        step = max(1, int(round(1.0 / sample_fraction)))
        sampled = np.arange(0, n, step)
        # A merge walk per neighbour: up to about deg^2 entries a vertex.
        ctx.parallel_blocks(sampled, count_for, degrees[sampled] ** 2 + 1)
        counts = triangles.values.copy()
        return {
            # counts[u] = triangles whose minimum vertex is u.
            "per_vertex": counts,
            "total_triangles": int(counts.sum()),
            "sampled_vertices": len(range(0, n, step)),
        }


class GibbsInference(Workload):
    """Gibbs sampling over a pairwise Markov random field.

    Each vertex carries a rich property: a conditional table of
    ``num_labels**2`` doubles.  Sweeps read neighbor states, accumulate
    log-potentials (heavy FP work), and sample a new state.  Updates are
    owner-written, so there are no shared atomics — Table III marks this
    workload inapplicable ("Computation intensive").
    """

    code = "GInfer"
    name = "Gibbs inference"
    category = Category.RICH_PROPERTY
    host_instruction = None
    pim_op = None
    applicable = False
    missing_operation = "Computation intensive"

    #: Arithmetic charged per (label, neighbor) potential evaluation.
    POTENTIAL_WORK = 12

    def execute(
        self,
        ctx: FrameworkContext,
        graph: CsrGraph,
        num_labels: int = 4,
        sweeps: int = 2,
        seed: int = 7,
    ) -> dict:
        tg = ctx.register_graph(graph)
        n = graph.num_vertices
        rng = DeterministicRng(seed).fork("gibbs", n)

        state = ctx.property_table("gibbs.state", n, 0, element_size=8)
        table_bytes = num_labels * num_labels * 8
        tables_alloc = ctx.alloc_property("gibbs.cpt", n, table_bytes)
        potentials = rng.random(n * num_labels * num_labels).reshape(
            n, num_labels, num_labels
        )

        init_states = rng.integers(0, num_labels, size=n)
        trace0 = ctx.threads[0]
        for v in range(n):
            state.write(trace0, v, int(init_states[v]))
        ctx.barrier()

        for _ in range(sweeps):
            def resample(tid, trace, v):
                trace.work(4)
                # Load this vertex's full conditional table (rich
                # property: several cache lines).
                base = tables_alloc.addr_of(v)
                for offset in range(0, table_bytes, 64):
                    trace.load(base + offset, 64)
                scores = np.zeros(num_labels)
                for u in tg.neighbors(trace, v):
                    su = state.read(trace, u)
                    trace.work(self.POTENTIAL_WORK * num_labels)
                    scores += potentials[v, :, su]
                trace.work(8 * num_labels)  # normalize + sample
                new_state = int(np.argmax(scores)) if scores.any() else 0
                state.write(trace, v, new_state)

            ctx.parallel_for(list(range(n)), resample)

        return {"state": state.values.copy(), "num_labels": num_labels}


TC = register(TriangleCount())
GINFER = register(GibbsInference())
