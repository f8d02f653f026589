"""Connected Components via atomic label propagation."""

from __future__ import annotations

import numpy as np

from repro.framework.context import FrameworkContext
from repro.framework.frontier import Frontier
from repro.framework.layout import lay_out
from repro.graph.csr import CsrGraph
from repro.trace.events import AtomicOp
from repro.workloads.base import Category, Workload
from repro.workloads.registry import register


class ConnectedComponents(Workload):
    """Min-label propagation with ``lock cmpxchg`` claims.

    Components are computed on the symmetrized view of the input graph
    (weak connectivity).  Labels start as vertex ids; improving labels
    propagate along edges until a fixed point.
    """

    code = "CComp"
    name = "Connected component"
    category = Category.GRAPH_TRAVERSAL
    host_instruction = "lock cmpxchg"
    pim_op = AtomicOp.CAS
    applicable = True

    def execute(self, ctx: FrameworkContext, graph: CsrGraph) -> dict:
        undirected = graph.undirected()
        tg = ctx.register_graph(undirected)
        n = undirected.num_vertices
        label = ctx.property_table("cc.label", n, 0)

        def init(tid, trace, part):
            label.values[part] = part
            trace.append_block(*lay_out(
                len(part), head=label.write_slots(part, work=1)
            ))

        vertices = np.arange(n)
        ctx.parallel_blocks(vertices, init)

        next_frontiers = [
            Frontier(ctx, f"cc.frontier.{tid}", n)
            for tid in range(ctx.num_threads)
        ]
        # A vertex reads the label earlier vertices of the same step
        # lowered (thread-major order), so the decide loop runs in order.
        labels = label.values.tolist()
        frontier = vertices
        rounds = 0
        # Every traversed edge attempts an atomic CAS-min on the
        # neighbor label (Section II-D: neighbor properties are accessed
        # via CAS); the old value returned by the cmpxchg tells the
        # thread whether its label won.
        while frontier.size:
            def propagate(tid, trace, part):
                edges, degrees = tg.edge_positions(part)
                targets = undirected.columns[edges]
                bounds = [0, *np.cumsum(degrees).tolist()]
                target_list = targets.tolist()
                lowered = []
                for u, lo, hi in zip(part.tolist(), bounds, bounds[1:]):
                    lu = labels[u]
                    for i in range(lo, hi):
                        if lu < labels[target_list[i]]:
                            labels[target_list[i]] = lu
                            lowered.append(i)
                pushed = np.zeros(edges.size, dtype=bool)
                pushed[lowered] = True
                trace.append_block(*lay_out(
                    len(part),
                    head=[
                        *label.read_slots(part, work=3),
                        *tg.offset_slots(part),
                    ],
                    edge=[
                        *tg.column_slots(edges),
                        *label.atomic_slots(AtomicOp.CAS, targets, True),
                        *next_frontiers[tid].push_slots(targets, pushed),
                    ],
                    degrees=degrees,
                ))

            ctx.parallel_blocks(frontier, propagate)
            merged: list[int] = []
            for tid, nf in enumerate(next_frontiers):
                merged.extend(nf.drain_block(ctx.threads[tid]))
            frontier = np.array(list(dict.fromkeys(merged)), dtype=np.int64)
            rounds += 1

        label.values[:] = labels
        labels = label.values.copy()
        num_components = int(np.unique(labels).size)
        return {
            "label": labels,
            "num_components": num_components,
            "rounds": rounds,
        }


CCOMP = register(ConnectedComponents())
