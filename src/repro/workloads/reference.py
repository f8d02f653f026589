"""Per-event reference captures of the Figure 7 workloads.

Each class here subclasses a registered workload and keeps the
per-event ``execute`` the workload had before capture moved to
decide-then-emit: every memory access goes through the framework's
accessors (:class:`~repro.framework.properties.PropertyTable`,
:class:`~repro.framework.traced_graph.TracedGraph`,
:class:`~repro.framework.frontier.Frontier`), one trace call per event.
The bodies are kept as they were, so they stay the oracle the block
captures are checked against: the same trace bytes (hence the same
``trace_digest``) and bit-equal functional outputs.  Only tests and the
capture benchmark (``benchmarks/test_capture_bench.py``) use them; they
are not registered.
"""

from __future__ import annotations

import numpy as np

from repro.framework.context import FrameworkContext
from repro.framework.frontier import Frontier
from repro.graph.csr import CsrGraph
from repro.workloads import (
    centrality,
    components,
    ranking,
    rich_property,
    traversal,
)
from repro.workloads.base import Workload
from repro.workloads.traversal import INFINITE_DIST, UNVISITED, default_root


class BreadthFirstSearch(traversal.BreadthFirstSearch):
    """Per-event capture of :class:`repro.workloads.traversal.BreadthFirstSearch`."""

    def execute(
        self, ctx: FrameworkContext, graph: CsrGraph, root: int | None = None
    ) -> dict:
        if root is None:
            root = default_root(graph)
        tg = ctx.register_graph(graph)
        depth = ctx.property_table("bfs.depth", graph.num_vertices, UNVISITED)

        next_frontiers = [
            Frontier(ctx, f"bfs.frontier.{tid}", graph.num_vertices)
            for tid in range(ctx.num_threads)
        ]
        depth.write(ctx.threads[0], root, 0)
        frontier = [root]
        level = 0
        while frontier:
            def visit(tid, trace, u, _level=level):
                trace.work(4)  # pop bookkeeping + depth register reuse
                for v in tg.neighbors(trace, u):
                    # Section II-D: "all neighbor vertices' properties are
                    # accessed via CAS atomic operations" — one CAS per
                    # traversed edge; failures mean already visited.
                    if depth.cas(trace, v, UNVISITED, _level + 1):
                        next_frontiers[tid].push(trace, v)

            ctx.parallel_for(frontier, visit)
            frontier = []
            for tid, nf in enumerate(next_frontiers):
                frontier.extend(nf.drain(ctx.threads[tid]))
            level += 1

        depths = depth.values.copy()
        visited = int(np.count_nonzero(depths != UNVISITED))
        return {"depth": depths, "visited": visited, "levels": level, "root": root}


class ConnectedComponents(components.ConnectedComponents):
    """Per-event capture of :class:`repro.workloads.components.ConnectedComponents`."""

    def execute(self, ctx: FrameworkContext, graph: CsrGraph) -> dict:
        undirected = graph.undirected()
        tg = ctx.register_graph(undirected)
        n = undirected.num_vertices
        label = ctx.property_table("cc.label", n, 0)

        def init(tid, trace, v):
            trace.work(1)
            label.write(trace, v, v)

        vertices = list(range(n))
        ctx.parallel_for(vertices, init)

        next_frontiers = [
            Frontier(ctx, f"cc.frontier.{tid}", n)
            for tid in range(ctx.num_threads)
        ]
        frontier = vertices
        rounds = 0
        # Every traversed edge attempts an atomic CAS-min on the
        # neighbor label (Section II-D: neighbor properties are accessed
        # via CAS); the old value returned by the cmpxchg tells the
        # thread whether its label won.
        while frontier:
            def propagate(tid, trace, u):
                trace.work(3)
                lu = label.read(trace, u)
                for v in tg.neighbors(trace, u):
                    if label.cas_improve_min(trace, v, lu):
                        next_frontiers[tid].push(trace, v)

            ctx.parallel_for(frontier, propagate)
            merged: list[int] = []
            for tid, nf in enumerate(next_frontiers):
                merged.extend(nf.drain(ctx.threads[tid]))
            frontier = list(dict.fromkeys(merged))
            rounds += 1

        labels = label.values.copy()
        num_components = int(np.unique(labels).size)
        return {
            "label": labels,
            "num_components": num_components,
            "rounds": rounds,
        }


class DegreeCentrality(centrality.DegreeCentrality):
    """Per-event capture of :class:`repro.workloads.centrality.DegreeCentrality`."""

    def execute(self, ctx: FrameworkContext, graph: CsrGraph) -> dict:
        tg = ctx.register_graph(graph)
        n = graph.num_vertices
        in_degree = ctx.property_table("dc.in_degree", n, 0)
        out_degree = ctx.property_table("dc.out_degree", n, 0)

        def count(tid, trace, u):
            trace.work(2)
            local_out = 0
            for v in tg.neighbors(trace, u):
                in_degree.fetch_add(trace, v, 1)
                local_out += 1
                trace.work(1)
            out_degree.write(trace, u, local_out)

        ctx.parallel_for(list(range(n)), count)
        return {
            "in_degree": in_degree.values.copy(),
            "out_degree": out_degree.values.copy(),
        }


class KCoreDecomposition(traversal.KCoreDecomposition):
    """Per-event capture of :class:`repro.workloads.traversal.KCoreDecomposition`."""

    def execute(
        self, ctx: FrameworkContext, graph: CsrGraph, k: int | None = None
    ) -> dict:
        tg = ctx.register_graph(graph)
        n = graph.num_vertices
        # kCore's working arrays are packed (8 bytes/vertex): the
        # whole-graph scan each round streams them with spatial
        # locality, which is why kCore shows a lower candidate miss
        # rate in the paper's Figure 10.
        degree = ctx.property_table("kcore.degree", n, 0, element_size=8)
        active = ctx.property_table("kcore.active", n, 1, element_size=8)

        out_degrees = graph.out_degrees()
        if k is None:
            # GraphBIG's default: peel the low-degree fringe.  The
            # workload's signature cost is re-scanning inactive
            # vertices across rounds, not the removals (its atomic
            # count is small — Section IV-B1).
            k = 5

        def init(tid, trace, v):
            trace.work(2)
            degree.write(trace, v, int(out_degrees[v]))

        vertices = list(range(n))
        ctx.parallel_for(vertices, init)

        removed_total = 0
        changed = True
        rounds = 0
        while changed:
            changed = False
            removals_this_round = []

            def scan_and_update(tid, trace, v):
                nonlocal changed
                trace.work(3)
                if active.read(trace, v) == 0:
                    return
                if degree.read(trace, v) < k:
                    active.write(trace, v, 0)
                    removals_this_round.append(v)
                    changed = True
                    for u in tg.neighbors(trace, v):
                        degree.fetch_sub(trace, u, 1)

            ctx.parallel_for(vertices, scan_and_update)
            removed_total += len(removals_this_round)
            rounds += 1

        core_mask = active.values.copy().astype(bool)
        return {
            "in_core": core_mask,
            "core_size": int(core_mask.sum()),
            "removed": removed_total,
            "rounds": rounds,
            "k": k,
        }


class ShortestPath(traversal.ShortestPath):
    """Per-event capture of :class:`repro.workloads.traversal.ShortestPath`."""

    def execute(
        self, ctx: FrameworkContext, graph: CsrGraph, root: int | None = None
    ) -> dict:
        if root is None:
            root = default_root(graph)
        tg = ctx.register_graph(graph)
        dist = ctx.property_table(
            "sssp.dist", graph.num_vertices, INFINITE_DIST, dtype=np.float64
        )
        next_frontiers = [
            Frontier(ctx, f"sssp.frontier.{tid}", graph.num_vertices)
            for tid in range(ctx.num_threads)
        ]
        weighted = graph.weights is not None
        dist.write(ctx.threads[0], root, 0.0)
        frontier = [root]
        rounds = 0
        # Bellman-Ford terminates after at most V rounds; the frontier
        # variant usually needs far fewer.  Every traversed edge issues
        # an atomic CAS-min relaxation (lock cmpxchg loop, Table II);
        # the returned old value signals whether the distance improved.
        while frontier and rounds <= graph.num_vertices:
            def relax(tid, trace, u):
                trace.work(4)
                du = dist.read(trace, u)
                if weighted:
                    edges = tg.neighbors_with_weights(trace, u)
                else:
                    edges = ((v, 1.0) for v in tg.neighbors(trace, u))
                for v, w in edges:
                    trace.work(2)  # add + compare
                    if dist.cas_improve_min(trace, v, du + w):
                        next_frontiers[tid].push(trace, v)

            ctx.parallel_for(frontier, relax)
            merged: list[int] = []
            for tid, nf in enumerate(next_frontiers):
                merged.extend(nf.drain(ctx.threads[tid]))
            # Deduplicate while keeping deterministic order.
            frontier = list(dict.fromkeys(merged))
            rounds += 1

        return {"dist": dist.values.copy(), "root": root, "rounds": rounds}


class TriangleCount(rich_property.TriangleCount):
    """Per-event capture of :class:`repro.workloads.rich_property.TriangleCount`."""

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

        def degree_ok(v: int) -> bool:
            return max_degree is None or degrees[v] <= max_degree

        def count_for(tid, trace, u):
            trace.work(3)
            if not degree_ok(u):
                return
            u_start, u_end = undirected.neighbor_slice(u)
            columns = undirected.columns
            local_count = 0
            for j in range(u_start, u_end):
                trace.work(2)
                trace.load(tg.columns_alloc.addr_of(j), 8)
                v = int(columns[j])
                if v <= u or not degree_ok(v):
                    continue
                # Merge-intersect sorted adjacency of u and v, counting
                # common neighbors w > v (each triangle counted once,
                # at its minimum vertex).
                iu, iv = u_start, undirected.row_offsets[v]
                v_end = undirected.row_offsets[v + 1]
                while iu < u_end and iv < v_end:
                    trace.work(3)
                    trace.load(tg.columns_alloc.addr_of(iu), 8)
                    trace.load(tg.columns_alloc.addr_of(int(iv)), 8)
                    a, b = int(columns[iu]), int(columns[iv])
                    if a < b:
                        iu += 1
                    elif b < a:
                        iv += 1
                    else:
                        if a > v and degree_ok(a):
                            local_count += 1
                        iu += 1
                        iv += 1
            # One atomic accumulation per vertex (thread-local counting
            # inside the scan): TC's atomic density is low, which is
            # why its PIM benefit is marginal (Section IV-B1).
            if local_count:
                triangles.fetch_add(trace, u, local_count)

        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        step = max(1, int(round(1.0 / sample_fraction)))
        ctx.parallel_for(list(range(0, n, step)), count_for)
        counts = triangles.values.copy()
        return {
            # counts[u] = triangles whose minimum vertex is u.
            "per_vertex": counts,
            "total_triangles": int(counts.sum()),
            "sampled_vertices": len(range(0, n, step)),
        }


class BetweennessCentrality(centrality.BetweennessCentrality):
    """Per-event capture of :class:`repro.workloads.centrality.BetweennessCentrality`."""

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
        trace0 = ctx.threads[0]

        def reset(tid, trace, v):
            trace.work(2)
            sigma.write(trace, v, 0)
            depth.write(trace, v, UNVISITED)
            delta.write(trace, v, 0.0)

        ctx.parallel_for(list(range(n)), reset)
        sigma.write(trace0, source, 1)
        depth.write(trace0, source, 0)

        levels: list[list[int]] = [[source]]
        level = 0
        while levels[-1]:
            frontier = levels[-1]
            next_level: list[int] = []

            def expand(tid, trace, u, _level=level):
                trace.work(4)
                su = sigma.read(trace, u)
                for v in tg.neighbors(trace, u):
                    dv = depth.read(trace, v)
                    if dv == UNVISITED:
                        if depth.cas(trace, v, UNVISITED, _level + 1):
                            next_level.append(v)
                            dv = _level + 1
                    if dv == _level + 1:
                        sigma.fetch_add(trace, v, su)

            ctx.parallel_for(frontier, expand)
            levels.append(next_level)
            level += 1

        # Backward dependency accumulation, deepest level first.
        for back_level in range(len(levels) - 2, -1, -1):
            frontier = levels[back_level]

            def accumulate(tid, trace, u, _level=back_level):
                trace.work(4)
                su = sigma.read(trace, u)
                acc = 0.0
                for v in tg.neighbors(trace, u):
                    if depth.read(trace, v) == _level + 1:
                        sv = sigma.read(trace, v)
                        dv = delta.read(trace, v)
                        trace.work(self.ACCUMULATION_WORK)
                        acc += (su / sv) * (1.0 + dv)
                if acc:
                    delta.fp_add(trace, u, acc)
                if u != levels[0][0]:
                    trace.work(2)
                    centrality.fp_add(trace, u, acc)

            ctx.parallel_for(frontier, accumulate)


class PageRank(ranking.PageRank):
    """Per-event capture of :class:`repro.workloads.ranking.PageRank`."""

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
        vertices = list(range(n))

        dangling_mass = 0.0
        for _ in range(iterations):
            dangling_mass = 0.0

            def scatter(tid, trace, u):
                nonlocal dangling_mass
                trace.work(3)
                ru = rank.read(trace, u)
                deg = int(out_degrees[u])
                if deg == 0:
                    dangling_mass += damping * ru
                    return
                trace.work(6)  # divide + loop setup
                share = damping * ru / deg
                for v in tg.neighbors(trace, u):
                    next_rank.fp_add(trace, v, share)

            ctx.parallel_for(vertices, scatter)

            dangling_share = dangling_mass / n

            def swap(tid, trace, v):
                trace.work(4)
                r = next_rank.read(trace, v)
                rank.write(trace, v, r + dangling_share)
                next_rank.write(trace, v, base)

            ctx.parallel_for(vertices, swap)

        ranks = rank.values.copy()
        return {
            "rank": ranks,
            "iterations": iterations,
            "total_mass": float(ranks.sum()),
        }


#: One reference instance per Figure 7 workload code.
REFERENCE_WORKLOADS: dict[str, Workload] = {
    workload.code: workload
    for workload in (
        BreadthFirstSearch(),
        ConnectedComponents(),
        DegreeCentrality(),
        KCoreDecomposition(),
        ShortestPath(),
        TriangleCount(),
        BetweennessCentrality(),
        PageRank(),
    )
}


def reference_workload(code: str) -> Workload:
    """The per-event reference of the Figure 7 workload ``code``."""
    return REFERENCE_WORKLOADS[code]
