"""PageRank with atomic floating-point scatter updates.

PageRank is the paper's showcase for the FP-add PIM extension: it gains
the largest speedup (2.4x) once its per-edge ``rank += share`` updates
can offload (Section III-C, Figure 7).
"""

from __future__ import annotations

import numpy as np

from repro.framework.context import FrameworkContext
from repro.framework.layout import lay_out
from repro.graph.csr import CsrGraph
from repro.trace.events import AtomicOp
from repro.workloads.base import Category, Workload
from repro.workloads.registry import register


class PageRank(Workload):
    """Scatter-style PageRank (push model).

    Each iteration pushes ``damping * rank[u] / deg(u)`` to every
    neighbor with an atomic FP add, then swaps in the next-rank table.
    Dangling vertices redistribute uniformly (handled analytically in
    the swap phase so the memory trace matches the scatter kernel).
    """

    code = "PRank"
    name = "Page rank"
    category = Category.GRAPH_TRAVERSAL
    host_instruction = "lock cmpxchg (FP-add loop)"
    pim_op = AtomicOp.FP_ADD
    applicable = True
    needs_fp_extension = True
    missing_operation = "Floating point add"

    def execute(
        self,
        ctx: FrameworkContext,
        graph: CsrGraph,
        iterations: int = 3,
        damping: float = 0.85,
    ) -> dict:
        tg = ctx.register_graph(graph)
        n = graph.num_vertices
        base = (1.0 - damping) / n
        rank = ctx.property_table("pr.rank", n, 1.0 / n, dtype=np.float64)
        next_rank = ctx.property_table("pr.next", n, base, dtype=np.float64)
        out_degrees = graph.out_degrees()
        vertices = np.arange(n)

        dangling_mass = 0.0
        for _ in range(iterations):
            dangling_mass = 0.0

            def scatter(group):
                nonlocal dangling_mass
                part = group.items
                ru = rank.values[part]
                deg = out_degrees[part]
                live = deg != 0
                for mass in (damping * ru[~live]).tolist():
                    dangling_mass += mass
                edges, degrees = tg.edge_positions(part)
                targets = graph.columns[edges]
                # next_rank adds run in edge order (np.add.at is
                # sequential), as the per-edge atomics apply them.
                np.add.at(
                    next_rank.values,
                    targets,
                    np.repeat(damping * ru[live] / deg[live], deg[live]),
                )
                return lay_out(
                    group.counts,
                    head=[
                        *rank.read_slots(part, work=3),
                        # divide + loop setup
                        *tg.offset_slots(part, work=6, keep=live),
                    ],
                    edge=[
                        *tg.column_slots(edges),
                        *next_rank.atomic_slots(
                            AtomicOp.FP_ADD, targets, False
                        ),
                    ],
                    degrees=degrees,
                )

            ctx.parallel_blocks(vertices, scatter, out_degrees + 1)

            dangling_share = dangling_mass / n

            def swap(group):
                part = group.items
                rank.values[part] = next_rank.values[part] + dangling_share
                next_rank.values[part] = base
                return lay_out(
                    group.counts,
                    head=[
                        *next_rank.read_slots(part, work=4),
                        *rank.write_slots(part),
                        *next_rank.write_slots(part),
                    ],
                )

            ctx.parallel_blocks(vertices, swap)

        ranks = rank.values.copy()
        return {
            "rank": ranks,
            "iterations": iterations,
            "total_mass": float(ranks.sum()),
        }


PRANK = register(PageRank())
