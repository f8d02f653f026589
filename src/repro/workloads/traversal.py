"""Graph Traversal workloads: BFS, DFS, SSSP, k-Core.

These are the paper's flagship offloading targets (Table II): their
property updates are single-word CAS/add/sub operations on irregularly
accessed per-vertex state.
"""

from __future__ import annotations

import numpy as np

from repro.framework.context import FrameworkContext
from repro.framework.frontier import ThreadFrontiers
from repro.framework.layout import lay_out
from repro.graph.csr import CsrGraph
from repro.trace.events import AtomicOp
from repro.workloads.base import Category, Workload
from repro.workloads.registry import register

#: Sentinel depth/distance for unvisited vertices (Figure 3's MAX).
UNVISITED = np.iinfo(np.int64).max

#: Unreachable distance for SSSP.
INFINITE_DIST = float("inf")


def default_root(graph: CsrGraph) -> int:
    """Deterministic traversal root: the max-out-degree vertex."""
    return int(np.argmax(graph.out_degrees()))


class BreadthFirstSearch(Workload):
    """Vertex-frontier BFS exactly as in the paper's Figure 3.

    Each step processes the frontier in parallel; neighbor depths are
    checked with a plain load and claimed with ``lock cmpxchg``.
    """

    code = "BFS"
    name = "Breadth-first search"
    category = Category.GRAPH_TRAVERSAL
    host_instruction = "lock cmpxchg"
    pim_op = AtomicOp.CAS
    applicable = True

    def execute(
        self, ctx: FrameworkContext, graph: CsrGraph, root: int | None = None
    ) -> dict:
        if root is None:
            root = default_root(graph)
        tg = ctx.register_graph(graph)
        depth = ctx.property_table("bfs.depth", graph.num_vertices, UNVISITED)

        next_frontier = ThreadFrontiers(ctx, "bfs.frontier", graph.num_vertices)
        depth.write(ctx.threads[0], root, 0)
        frontier = np.array([root])
        out_degrees = graph.out_degrees()
        level = 0
        while frontier.size:
            def visit(group, _level=level):
                # Section II-D: "all neighbor vertices' properties are
                # accessed via CAS atomic operations" -- one CAS per
                # traversed edge.  It wins at the neighbour's first
                # visitor in thread-major order, if still unvisited.
                part = group.items
                edges, degrees = tg.edge_positions(part)
                targets = graph.columns[edges]
                first = np.zeros(targets.size, dtype=bool)
                first[np.unique(targets, return_index=True)[1]] = True
                claimed = first & (depth.values[targets] == UNVISITED)
                depth.values[targets[claimed]] = _level + 1
                return lay_out(
                    group.counts,
                    # pop bookkeeping + depth register reuse
                    head=tg.offset_slots(part, work=4),
                    edge=[
                        *tg.column_slots(edges),
                        *depth.atomic_slots(AtomicOp.CAS, targets, True),
                        *next_frontier.push_slots(
                            group, degrees, targets, claimed
                        ),
                    ],
                    degrees=degrees,
                )

            ctx.parallel_blocks(frontier, visit, out_degrees[frontier] + 1)
            frontier = np.array(next_frontier.drain(), dtype=np.int64)
            level += 1

        depths = depth.values.copy()
        visited = int(np.count_nonzero(depths != UNVISITED))
        return {"depth": depths, "visited": visited, "levels": level, "root": root}


class DepthFirstSearch(Workload):
    """Parallel DFS forest: threads claim vertices with CAS.

    Each thread runs a stack-based DFS over its share of root
    candidates; the shared ``visited`` property is claimed atomically so
    no vertex is expanded twice.
    """

    code = "DFS"
    name = "Depth-first search"
    category = Category.GRAPH_TRAVERSAL
    host_instruction = "lock cmpxchg"
    pim_op = AtomicOp.CAS
    applicable = True

    def execute(self, ctx: FrameworkContext, graph: CsrGraph) -> dict:
        tg = ctx.register_graph(graph)
        visited = ctx.property_table("dfs.visited", graph.num_vertices, 0)
        parent = np.full(graph.num_vertices, -1, dtype=np.int64)
        stack_alloc = ctx.alloc_meta(
            "dfs.stacks", ctx.num_threads * 64, 8
        )
        order: list[int] = []

        roots = list(range(graph.num_vertices))
        for tid, part in enumerate(ctx.partition(roots)):
            trace = ctx.threads[tid]
            stack_base = tid * 64
            for r in part:
                trace.work(3)
                if visited.read(trace, r) != 0:
                    continue
                if not visited.cas(trace, r, 0, 1):
                    continue
                order.append(r)
                stack = [r]
                while stack:
                    trace.load(stack_alloc.addr_of(stack_base + (len(stack) - 1) % 64), 8)
                    u = stack.pop()
                    for v in tg.neighbors(trace, u):
                        if visited.read(trace, v) == 0:
                            if visited.cas(trace, v, 0, 1):
                                parent[v] = u
                                order.append(v)
                                trace.store(
                                    stack_alloc.addr_of(
                                        stack_base + len(stack) % 64
                                    ),
                                    8,
                                )
                                stack.append(v)
        ctx.barrier()
        return {
            "parent": parent,
            "order": np.asarray(order, dtype=np.int64),
            "visited": int(visited.values.sum()),
        }


class ShortestPath(Workload):
    """Frontier-relaxation SSSP (Bellman-Ford style).

    Distance improvements are claimed with the read + ``lock cmpxchg``
    pattern of Table II.  Unweighted graphs fall back to unit weights.
    """

    code = "SSSP"
    name = "Shortest path"
    category = Category.GRAPH_TRAVERSAL
    host_instruction = "lock cmpxchg"
    pim_op = AtomicOp.CAS
    applicable = True

    def execute(
        self, ctx: FrameworkContext, graph: CsrGraph, root: int | None = None
    ) -> dict:
        if root is None:
            root = default_root(graph)
        tg = ctx.register_graph(graph)
        dist = ctx.property_table(
            "sssp.dist", graph.num_vertices, INFINITE_DIST, dtype=np.float64
        )
        next_frontier = ThreadFrontiers(ctx, "sssp.frontier", graph.num_vertices)
        dist.write(ctx.threads[0], root, 0.0)
        # Relaxations read distances lowered earlier in the same step
        # (thread-major order), so the decide loop runs in order.
        dists = dist.values.tolist()
        weights = (
            graph.weights.tolist()
            if graph.weights is not None
            else [1.0] * graph.num_edges
        )
        out_degrees = graph.out_degrees()
        frontier = np.array([root])
        rounds = 0
        # Bellman-Ford terminates after at most V rounds; the frontier
        # variant usually needs far fewer.  Every traversed edge issues
        # an atomic CAS-min relaxation (lock cmpxchg loop, Table II);
        # the returned old value signals whether the distance improved.
        while frontier.size and rounds <= graph.num_vertices:
            def relax(group):
                part = group.items
                edges, degrees = tg.edge_positions(part)
                targets = graph.columns[edges]
                bounds = [0, *np.cumsum(degrees).tolist()]
                edge_list = edges.tolist()
                target_list = targets.tolist()
                improved = []
                for u, lo, hi in zip(part.tolist(), bounds, bounds[1:]):
                    du = dists[u]
                    for i in range(lo, hi):
                        v = target_list[i]
                        candidate = du + weights[edge_list[i]]
                        if candidate < dists[v]:
                            dists[v] = candidate
                            improved.append(i)
                pushed = np.zeros(edges.size, dtype=bool)
                pushed[improved] = True
                return lay_out(
                    group.counts,
                    head=[
                        *dist.read_slots(part, work=4),
                        *tg.offset_slots(part),
                    ],
                    edge=[
                        *tg.column_slots(edges, graph.weights is not None),
                        # add + compare
                        *dist.atomic_slots(AtomicOp.CAS, targets, True, work=2),
                        *next_frontier.push_slots(
                            group, degrees, targets, pushed
                        ),
                    ],
                    degrees=degrees,
                )

            ctx.parallel_blocks(frontier, relax, out_degrees[frontier] + 1)
            # Deduplicate while keeping deterministic order.
            frontier = np.array(
                list(dict.fromkeys(next_frontier.drain())), dtype=np.int64
            )
            rounds += 1

        dist.values[:] = dists
        return {"dist": dist.values.copy(), "root": root, "rounds": rounds}


class KCoreDecomposition(Workload):
    """Iterative k-core peeling.

    Every round scans *all* vertices (the paper notes kCore "spends a
    significant amount of time checking inactive vertices"); removals
    decrement neighbor degrees with ``lock subw``.
    """

    code = "kCore"
    name = "K-core decomposition"
    category = Category.GRAPH_TRAVERSAL
    host_instruction = "lock subw"
    pim_op = AtomicOp.SUB
    applicable = True

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

        def init(group):
            part = group.items
            degree.values[part] = out_degrees[part]
            return lay_out(group.counts, head=degree.write_slots(part, work=2))

        vertices = np.arange(n)
        ctx.parallel_blocks(vertices, init)

        # A scan sees the removals and decrements of earlier vertices of
        # the same round (thread-major order), so it decides in order.
        degrees_left = degree.values.tolist()
        alive = active.values.tolist()
        removed_total = 0
        changed = True
        rounds = 0
        while changed:
            changed = False
            removals_this_round = []

            def scan_and_update(group):
                nonlocal changed
                part = group.items
                was_active = np.zeros(len(part), dtype=bool)
                removed = np.zeros(len(part), dtype=bool)
                for i, v in enumerate(part.tolist()):
                    if not alive[v]:
                        continue
                    was_active[i] = True
                    if degrees_left[v] < k:
                        alive[v] = 0
                        removed[i] = True
                        removals_this_round.append(v)
                        changed = True
                        for u in graph.neighbors(v).tolist():
                            degrees_left[u] -= 1
                edges, _ = tg.edge_positions(part[removed])
                targets = graph.columns[edges]
                return lay_out(
                    group.counts,
                    head=[
                        *active.read_slots(part, work=3),
                        *degree.read_slots(part, keep=was_active),
                        *active.write_slots(part, keep=removed),
                        *tg.offset_slots(part, keep=removed),
                    ],
                    edge=[
                        *tg.column_slots(edges),
                        *degree.atomic_slots(AtomicOp.SUB, targets, False),
                    ],
                    degrees=np.where(removed, out_degrees[part], 0),
                )

            ctx.parallel_blocks(vertices, scan_and_update, out_degrees + 1)
            removed_total += len(removals_this_round)
            rounds += 1

        degree.values[:] = degrees_left
        active.values[:] = alive
        core_mask = active.values.copy().astype(bool)
        return {
            "in_core": core_mask,
            "core_size": int(core_mask.sum()),
            "removed": removed_total,
            "rounds": rounds,
            "k": k,
        }


BFS = register(BreadthFirstSearch())
DFS = register(DepthFirstSearch())
SSSP = register(ShortestPath())
KCORE = register(KCoreDecomposition())
