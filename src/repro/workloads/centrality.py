"""Centrality workloads: Degree Centrality and Betweenness Centrality.

Degree Centrality is the paper's highest-atomic-density workload (one
``lock add`` per edge, 64% atomic overhead in Figure 4).  Betweenness
Centrality needs the floating-point-add PIM extension and is
compute-heavy on thread-local data, which is why it benefits least
(Figures 7, 9).
"""

from __future__ import annotations

import numpy as np

from repro.framework.context import FrameworkContext
from repro.framework.layout import lay_out, work_slot
from repro.graph.csr import CsrGraph
from repro.trace.events import AtomicOp
from repro.workloads.base import Category, Workload
from repro.workloads.registry import register
from repro.workloads.traversal import UNVISITED


class DegreeCentrality(Workload):
    """In/out-degree centrality via atomic edge counting.

    Every edge (u, v) increments ``in_degree[v]`` with ``lock addw`` —
    an irregular atomic per edge, the densest offloading candidate
    stream of the suite.
    """

    code = "DC"
    name = "Degree centrality"
    category = Category.GRAPH_TRAVERSAL
    host_instruction = "lock addw"
    pim_op = AtomicOp.ADD
    applicable = True

    def execute(self, ctx: FrameworkContext, graph: CsrGraph) -> dict:
        tg = ctx.register_graph(graph)
        n = graph.num_vertices
        in_degree = ctx.property_table("dc.in_degree", n, 0)
        out_degree = ctx.property_table("dc.out_degree", n, 0)

        def count(group):
            part = group.items
            edges, degrees = tg.edge_positions(part)
            targets = graph.columns[edges]
            in_degree.values[:] += np.bincount(targets, minlength=n)
            out_degree.values[part] = degrees
            return lay_out(
                group.counts,
                head=tg.offset_slots(part, work=2),
                edge=[
                    *tg.column_slots(edges),
                    *in_degree.atomic_slots(AtomicOp.ADD, targets, False),
                    work_slot(1),
                ],
                tail=out_degree.write_slots(part),
                degrees=degrees,
            )

        ctx.parallel_blocks(np.arange(n), count, graph.out_degrees() + 1)
        return {
            "in_degree": in_degree.values.copy(),
            "out_degree": out_degree.values.copy(),
        }


class BetweennessCentrality(Workload):
    """Brandes' algorithm over a sample of source vertices.

    The forward sweep counts shortest paths with integer atomics; the
    backward sweep accumulates dependencies with atomic floating-point
    adds (the operation HMC 2.0 lacks, Table III) plus a large amount of
    thread-local arithmetic, reproducing BC's compute-bound profile.
    """

    code = "BC"
    name = "Betweenness centrality"
    category = Category.GRAPH_TRAVERSAL
    host_instruction = "lock cmpxchg (FP-add loop)"
    pim_op = AtomicOp.FP_ADD
    applicable = True
    needs_fp_extension = True
    missing_operation = "Floating point add"

    #: Extra per-accumulation arithmetic (divide, multiply, add chains)
    #: charged to model BC's heavy thread-local centrality computation.
    ACCUMULATION_WORK = 24

    def execute(
        self,
        ctx: FrameworkContext,
        graph: CsrGraph,
        num_sources: int = 4,
    ) -> dict:
        tg = ctx.register_graph(graph)
        n = graph.num_vertices
        # BC's per-traversal arrays are packed and reused heavily within
        # a source traversal — the data locality that makes cache
        # bypassing a loss for BC (Figures 7/10/14).
        centrality = ctx.property_table(
            "bc.centrality", n, 0.0, dtype=np.float64, element_size=8
        )
        sigma = ctx.property_table("bc.sigma", n, 0, element_size=8)
        depth = ctx.property_table("bc.depth", n, UNVISITED, element_size=8)
        delta = ctx.property_table(
            "bc.delta", n, 0.0, dtype=np.float64, element_size=8
        )

        order = np.argsort(-graph.out_degrees(), kind="stable")
        sources = [int(v) for v in order[:num_sources]]

        for s in sources:
            self._accumulate_from_source(ctx, tg, s, centrality, sigma, depth, delta)

        return {"centrality": centrality.values.copy(), "sources": sources}

    def _accumulate_from_source(
        self, ctx, tg, source, centrality, sigma, depth, delta
    ) -> None:
        n = tg.num_vertices
        columns = tg.graph.columns
        cost = tg.graph.out_degrees() + 1
        trace0 = ctx.threads[0]

        def reset(group):
            part = group.items
            sigma.values[part] = 0
            depth.values[part] = UNVISITED
            delta.values[part] = 0.0
            return lay_out(
                group.counts,
                head=[
                    *sigma.write_slots(part, work=2),
                    *depth.write_slots(part),
                    *delta.write_slots(part),
                ],
            )

        ctx.parallel_blocks(np.arange(n), reset)
        sigma.write(trace0, source, 1)
        depth.write(trace0, source, 0)

        levels: list[np.ndarray] = [np.array([source])]
        level = 0
        while levels[-1].size:
            next_level: list[int] = []

            def expand(group, _level=level):
                # A neighbour's depth reads UNVISITED at its first visitor
                # in thread-major order, which claims it with a CAS; that
                # visitor and every later one read _level + 1 and add
                # sigma (earlier threads' claims included).
                part = group.items
                edges, degrees = tg.edge_positions(part)
                targets = columns[edges]
                seen = depth.values[targets]
                unvisited = seen == UNVISITED
                first = np.zeros(targets.size, dtype=bool)
                first[np.unique(targets, return_index=True)[1]] = True
                claimed = unvisited & first
                below = unvisited | (seen == _level + 1)
                depth.values[targets[claimed]] = _level + 1
                next_level.extend(targets[claimed].tolist())
                np.add.at(
                    sigma.values,
                    targets[below],
                    np.repeat(sigma.values[part], degrees)[below],
                )
                return lay_out(
                    group.counts,
                    head=[
                        *sigma.read_slots(part, work=4),
                        *tg.offset_slots(part),
                    ],
                    edge=[
                        *tg.column_slots(edges),
                        *depth.read_slots(targets),
                        *depth.atomic_slots(
                            AtomicOp.CAS, targets, True, keep=claimed
                        ),
                        *sigma.atomic_slots(
                            AtomicOp.ADD, targets, False, keep=below
                        ),
                    ],
                    degrees=degrees,
                )

            ctx.parallel_blocks(levels[-1], expand, cost[levels[-1]])
            levels.append(np.array(next_level, dtype=np.int64))
            level += 1

        # Backward dependency accumulation, deepest level first.
        for back_level in range(len(levels) - 2, -1, -1):
            frontier = levels[back_level]

            def accumulate(group, _level=back_level):
                part = group.items
                edges, degrees = tg.edge_positions(part)
                targets = columns[edges]
                below = depth.values[targets] == _level + 1
                down = targets[below]
                su = np.repeat(sigma.values[part], degrees)[below]
                # Each vertex's sum runs in edge order, as the per-edge
                # loop adds it: np.add.at is sequential.
                acc = np.zeros(len(part))
                np.add.at(
                    acc,
                    np.repeat(np.arange(len(part)), degrees)[below],
                    (su / sigma.values[down]) * (1.0 + delta.values[down]),
                )
                nonzero = acc != 0
                delta.values[part[nonzero]] += acc[nonzero]
                counted = part != source
                centrality.values[part[counted]] += acc[counted]
                return lay_out(
                    group.counts,
                    head=[
                        *sigma.read_slots(part, work=4),
                        *tg.offset_slots(part),
                    ],
                    edge=[
                        *tg.column_slots(edges),
                        *depth.read_slots(targets),
                        *sigma.read_slots(targets, keep=below),
                        *delta.read_slots(targets, keep=below),
                        work_slot(self.ACCUMULATION_WORK, keep=below),
                    ],
                    tail=[
                        *delta.atomic_slots(
                            AtomicOp.FP_ADD, part, False, keep=nonzero
                        ),
                        *centrality.atomic_slots(
                            AtomicOp.FP_ADD, part, False, work=2, keep=counted
                        ),
                    ],
                    degrees=degrees,
                )

            ctx.parallel_blocks(frontier, accumulate, cost[frontier])


DC = register(DegreeCentrality())
BC = register(BetweennessCentrality())
