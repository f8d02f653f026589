"""Traced work queues (frontiers).

Frontiers are the "meta data" component of the paper's breakdown:
small, sequentially accessed, cache friendly.  Pushes and pops issue
metadata stores/loads against a circular simulated buffer.
"""

from __future__ import annotations

import numpy as np

from repro.framework.context import FrameworkContext, ThreadGroup
from repro.framework.layout import Slot
from repro.trace.events import EV_LOAD, EV_STORE
from repro.trace.stream import ThreadTrace

#: Queue bookkeeping instructions per push/pop (pointer update, wrap).
QUEUE_OP_WORK = 2


class Frontier:
    """A traced FIFO of vertex ids backed by a metadata allocation."""

    def __init__(
        self, ctx: FrameworkContext, label: str, capacity_hint: int = 1024
    ):
        capacity = max(capacity_hint, 16)
        self._alloc = ctx.alloc_meta(label, capacity, 8)
        self._capacity = capacity
        self._items: list[int] = []
        self._read = 0
        self._push_cursor = 0
        self._pop_cursor = 0

    def push(self, trace: ThreadTrace, vertex: int) -> None:
        """Append a vertex (traced metadata store)."""
        trace.work(QUEUE_OP_WORK)
        slot = self._push_cursor % self._capacity
        trace.store(self._alloc.addr_of(slot), 8)
        self._push_cursor += 1
        self._items.append(vertex)

    def drain(self, trace: ThreadTrace) -> list[int]:
        """Pop everything (traced metadata loads), FIFO order."""
        drained = []
        while self._read < len(self._items):
            trace.work(QUEUE_OP_WORK)
            slot = self._pop_cursor % self._capacity
            trace.load(self._alloc.addr_of(slot), 8)
            self._pop_cursor += 1
            drained.append(self._items[self._read])
            self._read += 1
        self._items = []
        self._read = 0
        return drained

    def snapshot(self) -> list[int]:
        """Untraced view of queued items (assertions only)."""
        return self._items[self._read :]

    def __len__(self) -> int:
        return len(self._items) - self._read

    def __bool__(self) -> bool:
        return self._read < len(self._items)


class ThreadFrontiers:
    """The next frontier of a decide-then-emit step: one traced FIFO per
    virtual thread, each laid out and traced as a :class:`Frontier`.

    The queues are allocated in thread order, as a list of
    :class:`Frontier` would be (``{label}.{tid}``); a thread pushes onto
    its own queue at its own cursor, and drains it after the barrier.
    """

    def __init__(
        self, ctx: FrameworkContext, label: str, capacity_hint: int = 1024
    ):
        self._capacity = max(capacity_hint, 16)
        self._threads = ctx.threads
        self._bases = np.array(
            [
                ctx.alloc_meta(f"{label}.{tid}", self._capacity, 8).base
                for tid in range(ctx.num_threads)
            ],
            dtype=np.int64,
        )
        self._push_cursor = np.zeros(ctx.num_threads, dtype=np.int64)
        self._pop_cursor = np.zeros(ctx.num_threads, dtype=np.int64)
        self._items: "list[list[int]]" = [[] for _ in range(ctx.num_threads)]

    def _slot_addrs(self, cursor, owner: np.ndarray) -> np.ndarray:
        """Addresses of consecutive queue slots: entry ``i`` is the next
        slot of thread ``owner[i]`` (``owner`` sorted) past ``cursor``,
        which advances."""
        counts = np.bincount(owner, minlength=cursor.size)
        rank = np.arange(owner.size) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        slots = (cursor[owner] + rank) % self._capacity
        cursor += counts
        return self._bases[owner] + slots * 8

    def push_slots(
        self,
        group: ThreadGroup,
        degrees: np.ndarray,
        targets: np.ndarray,
        pushed: np.ndarray,
    ) -> list:
        """Queue ``targets[pushed]``, in order, each on the queue of the
        thread whose item owns the edge (``group``'s items own
        ``degrees`` edges each).

        Returns the slot of the :meth:`Frontier.push` stores, one entry
        per edge, to lay out beside the rows that decided them.
        """
        threads = np.arange(group.first, group.first + group.counts.size)
        owner = np.repeat(np.repeat(threads, group.counts), degrees)[pushed]
        addr = np.zeros(targets.size, dtype=np.int64)
        addr[pushed] = self._slot_addrs(self._push_cursor, owner)
        queued = targets[pushed].tolist()
        bounds = np.searchsorted(owner, np.arange(len(self._items) + 1))
        for items, lo, hi in zip(self._items, bounds, bounds[1:]):
            items.extend(queued[lo:hi])
        return [Slot(EV_STORE, addr, 8, QUEUE_OP_WORK, pushed)]

    def drain(self) -> "list[int]":
        """Each thread pops its whole queue (traced metadata loads, one
        row block per thread); returns the items, in thread order."""
        counts = np.array([len(items) for items in self._items])
        owner = np.repeat(np.arange(counts.size), counts)
        rows = np.empty((owner.size, 6), dtype=np.int64)
        rows[:] = (EV_LOAD, 0, 8, QUEUE_OP_WORK, -1, 0)
        rows[:, 1] = self._slot_addrs(self._pop_cursor, owner)
        drained: "list[int]" = []
        start = 0
        for thread, items in zip(self._threads, self._items):
            if items:
                thread.append_block(rows[start : start + len(items)])
                start += len(items)
                drained.extend(items)
                items.clear()
        return drained
