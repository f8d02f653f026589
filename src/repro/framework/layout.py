"""Row layout for decide-then-emit capture.

A bulk-synchronous step of a Figure 7 workload records, on each thread,
the same pattern for every item of its partition: a few head rows (the
vertex's own property and offset loads), then one fixed group of rows
per edge, then a few tail rows.  Some rows depend on what the step
decided (a CAS that won, a neighbour one level down), so each row is a
:class:`Slot` whose ``keep`` selects where it happens.

:func:`lay_out` turns the slots of one thread's share of a step into
the ``(N, 6)`` int64 block :meth:`ThreadTrace.append_block` records,
with the gaps the per-event recorders would have produced: a slot's
``work`` is counted where the slot runs, whether or not it records an
event, and lands in the gap of the next row that does.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

import numpy as np

#: Kind of a :class:`Slot` that records work but no event.
WORK = -1

#: One ``(N, 6)`` int64 row as a single record, for whole-row gathers.
_ROW = np.dtype((np.void, 48))


class Slot(NamedTuple):
    """One candidate row per item (head and tail) or per edge.

    ``addr``, ``work`` and ``keep`` are scalars, or arrays with one
    entry per item or edge; ``size``, ``op`` and ``ret`` are the same
    for every entry.  ``work`` is the non-memory instruction count
    recorded just before the slot's event; ``keep`` says where the slot
    runs at all.  A :data:`WORK` slot runs its work and records no
    event.
    """

    kind: int
    addr: Any = 0
    size: int = 8
    work: Any = 0
    keep: Any = True
    op: int = -1
    ret: int = 0


def work_slot(instructions, keep=True) -> Slot:
    """``work(instructions)`` where ``keep`` holds, with no event."""
    return Slot(WORK, work=instructions, keep=keep)


def lay_out(
    count: int,
    head: Sequence[Slot] = (),
    edge: Sequence[Slot] = (),
    tail: Sequence[Slot] = (),
    degrees=None,
) -> "tuple[np.ndarray, int]":
    """The rows of ``count`` items, in order, and the work left after them.

    Item ``i`` records its ``head`` slots, then ``degrees[i]`` copies of
    the ``edge`` slots (edge arrays run over all items' edges in
    order), then its ``tail`` slots.  Returns ``(rows, trailing_work)``
    for :meth:`~repro.trace.stream.ThreadTrace.append_block`.
    """
    if degrees is None or not edge:
        degrees = np.zeros(count, dtype=np.int64)
    degrees = np.asarray(degrees, dtype=np.int64)
    n_edges = int(degrees.sum())
    # One entry row per item head, per edge and per item tail, stacked
    # in that order; one column per slot, padded to the widest group.
    groups = ((head, count), (edge, n_edges), (tail, count))
    first = np.cumsum([0] + [n if slots else 0 for slots, n in groups])
    width = max(len(head), len(edge), len(tail), 1)
    addr = np.zeros((first[-1], width), dtype=np.int64)
    work = np.zeros((first[-1], width), dtype=np.int64)
    # Row of ``templates`` (the slot's constant fields) where the slot
    # records its event; 0 where it records none (not kept, a work slot
    # or padding).
    event = np.zeros((first[-1], width), dtype=np.int64)
    templates = [(0, 0, 0, 0, 0, 0)]
    for (slots, n), start in zip(groups, first):
        rows = slice(start, start + n)
        for s, slot in enumerate(slots):
            if np.ndim(slot.work) or slot.work:
                work[rows, s] = np.multiply(slot.work, slot.keep)
            if slot.kind != WORK:
                addr[rows, s] = slot.addr
                event[rows, s] = np.multiply(len(templates), slot.keep)
                templates.append(
                    (slot.kind, 0, slot.size, 0, slot.op, slot.ret)
                )

    # The entry rows in item order: each item's head, edges, tail.
    per_item = bool(head) + degrees + bool(tail)
    item_start = np.cumsum(per_item) - per_item
    order = np.empty(first[-1], dtype=np.int64)
    if head:
        order[item_start] = first[0] + np.arange(count)
    if edge:
        first_edge = np.cumsum(degrees) - degrees
        order[
            np.repeat(item_start + bool(head) - first_edge, degrees)
            + np.arange(n_edges)
        ] = first[1] + np.arange(n_edges)
    if tail:
        order[item_start + per_item - 1] = first[2] + np.arange(count)

    # Candidates in layout order; ``counted`` is the work recorded up to
    # and including each, so a row's gap is the difference to the last
    # row recorded before it.
    counted = np.cumsum(np.take(work, order, axis=0))
    event = np.take(event, order, axis=0).ravel()
    kept = np.flatnonzero(event)
    if not kept.size:
        empty = np.empty((0, 6), dtype=np.int64)
        return empty, int(counted[-1]) if counted.size else 0
    # Whole template rows, gathered as 48-byte records, then the
    # per-entry address and the gap.
    block = (
        np.take(
            np.array(templates, dtype=np.int64).view(_ROW).ravel(),
            event[kept],
        )
        .view(np.int64)
        .reshape(-1, 6)
    )
    block[:, 1] = addr.ravel()[order[kept // width] * width + kept % width]
    at_row = counted[kept]
    block[0, 3] = at_row[0]
    block[1:, 3] = np.diff(at_row)
    return block, int(counted[-1] - at_row[-1])

