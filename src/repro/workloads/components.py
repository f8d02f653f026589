"""Connected Components via atomic label propagation."""

from __future__ import annotations

import numpy as np

from repro.framework.context import FrameworkContext
from repro.framework.frontier import ThreadFrontiers
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

        def init(group):
            part = group.items
            label.values[part] = part
            return lay_out(group.counts, head=label.write_slots(part, work=1))

        vertices = np.arange(n)
        ctx.parallel_blocks(vertices, init)

        next_frontier = ThreadFrontiers(ctx, "cc.frontier", n)
        cost = undirected.out_degrees() + 1
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
            def propagate(group):
                part = group.items
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
                return lay_out(
                    group.counts,
                    head=[
                        *label.read_slots(part, work=3),
                        *tg.offset_slots(part),
                    ],
                    edge=[
                        *tg.column_slots(edges),
                        *label.atomic_slots(AtomicOp.CAS, targets, True),
                        *next_frontier.push_slots(
                            group, degrees, targets, pushed
                        ),
                    ],
                    degrees=degrees,
                )

            ctx.parallel_blocks(frontier, propagate, cost[frontier])
            frontier = np.array(
                list(dict.fromkeys(next_frontier.drain())), dtype=np.int64
            )
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
