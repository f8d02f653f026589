"""Row layout for decide-then-emit capture.

A bulk-synchronous step of a Figure 7 workload records, on each thread,
the same pattern for every item of its partition: a few head rows (the
vertex's own property and offset loads), then one fixed group of rows
per edge, then a few tail rows.  Some rows depend on what the step
decided (a CAS that won, a neighbour one level down), so each row is a
:class:`Slot` whose ``keep`` selects where it happens.

:func:`lay_out` turns the slots of a group of threads' shares of a step
(one segment of items per thread, in thread order) into the six event
columns :meth:`ThreadTrace.append_columns` records, with the gaps the
per-event recorders would have produced: a slot's ``work`` is counted
where the slot runs, whether or not it records an event, and lands in
the gap of the next row of the same segment that does.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

import numpy as np

from repro.trace.columnar import narrowed, narrowest_type, stack_rows

#: Kind of a :class:`Slot` that records work but no event.
WORK = -1


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


class Layout(NamedTuple):
    """The rows :func:`lay_out` decided, as six narrow columns (``kind``,
    ``addr``, ``size``, ``gap``, ``op``, ``ret``), split into segments.

    Segment ``k`` owns rows ``bounds[k]`` to ``bounds[k + 1] - 1`` and
    leaves ``trailing[k]`` instructions pending after its last row.
    Each column is in the narrowest signed type that holds it, so a
    thread's capture columns take a segment without a range scan.
    """

    columns: "tuple[np.ndarray, ...]"
    bounds: "list[int]"
    trailing: "list[int]"

    def segment(self, segment: int = 0) -> "tuple[np.ndarray, ...]":
        """The six columns' slices (views) of one segment's rows."""
        lo, hi = self.bounds[segment], self.bounds[segment + 1]
        return tuple(column[lo:hi] for column in self.columns)

    def rows(self, segment: int = 0) -> np.ndarray:
        """The ``(N, 6)`` int64 block of one segment's rows."""
        return stack_rows(self.segment(segment))


def lay_out(
    counts,
    head: Sequence[Slot] = (),
    edge: Sequence[Slot] = (),
    tail: Sequence[Slot] = (),
    degrees=None,
) -> Layout:
    """The rows of consecutive segments of items, in order.

    ``counts`` holds each segment's item count (an int is one segment).
    Item ``i`` records its ``head`` slots, then ``degrees[i]`` copies of
    the ``edge`` slots (edge arrays run over all items' edges in
    order), then its ``tail`` slots.  The work count restarts at each
    segment, so each segment's rows and trailing work are those of its
    items laid out alone, ready for one thread's
    :meth:`~repro.trace.stream.ThreadTrace.append_columns`.
    """
    counts = np.atleast_1d(np.asarray(counts, dtype=np.int64))
    item_bounds = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=item_bounds[1:])
    count = int(item_bounds[-1])
    if degrees is None or not edge:
        degrees = np.zeros(count, dtype=np.int64)
    degrees = np.asarray(degrees, dtype=np.int64)
    # Entry rows in layout order: each item's head, its edges, its
    # tail; one column per slot, padded to the widest group.
    per_item = bool(head) + degrees + bool(tail)
    item_end = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(per_item, out=item_end[1:])
    entries = int(item_end[-1])
    width = max(len(head), len(edge), len(tail), 1)
    addr = np.zeros((entries, width), dtype=np.int64)
    work = np.zeros((entries, width), dtype=np.int64)
    # Row of ``templates`` (the slot's constant fields) where the slot
    # records its event; 0 where it records none (not kept, a work slot
    # or padding).
    event = np.zeros((entries, width), dtype=np.int16)
    templates = [(0, 0, 0, 0, 0, 0)]
    groups = []
    if head:
        groups.append((head, item_end[:-1]))
    if edge:
        n_edges = int(degrees.sum())
        first_edge = np.cumsum(degrees) - degrees
        groups.append((edge, np.arange(n_edges) + np.repeat(
            item_end[:-1] + bool(head) - first_edge, degrees
        )))
    if tail:
        groups.append((tail, item_end[1:] - 1))
    for slots, at in groups:
        for s, slot in enumerate(slots):
            if np.ndim(slot.work) or slot.work:
                work[at, s] = np.multiply(slot.work, slot.keep)
            if slot.kind != WORK:
                addr[at, s] = slot.addr
                event[at, s] = np.multiply(len(templates), slot.keep)
                templates.append(
                    (slot.kind, 0, slot.size, 0, slot.op, slot.ret)
                )

    # ``counted`` is the work recorded up to and including each cell,
    # so a row's gap is the difference to the last row recorded before
    # it in its segment (or to the segment's start).  Each cell matrix
    # is dropped once read.
    kept = np.flatnonzero(event)
    ids = event.ravel()[kept]
    del event
    counted = work.ravel()
    np.cumsum(counted, out=counted)
    gaps = counted[kept]
    # Work counted before each segment boundary; a segment's trailing
    # work is what it counted after its last row (all of it, if none).
    cells = item_end[item_bounds] * width
    before = np.zeros(cells.size, dtype=np.int64)
    inner = cells > 0
    before[inner] = counted[cells[inner] - 1]
    del work, counted
    bounds = np.searchsorted(kept, cells)
    starts, ends = bounds[:-1], bounds[1:]
    recorded = ends > starts
    trailing = before[1:] - before[:-1]
    trailing[recorded] = before[1:][recorded] - gaps[ends[recorded] - 1]
    opening = gaps[starts[recorded]] - before[:-1][recorded]
    gaps[1:] -= gaps[:-1].copy()
    gaps[starts[recorded]] = opening
    # The constant fields, gathered by template from columns as narrow
    # as the templates allow.
    fields = list(zip(*templates))
    kind, size, op, ret = (
        np.array(
            fields[c], dtype=narrowest_type(min(fields[c]), max(fields[c]))
        )[ids]
        for c in (0, 2, 4, 5)
    )
    return Layout(
        (kind, addr.ravel()[kept], size, narrowed(gaps), op, ret),
        bounds.tolist(),
        trailing.tolist(),
    )
