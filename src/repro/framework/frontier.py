"""Traced work queues (frontiers).

Frontiers are the "meta data" component of the paper's breakdown:
small, sequentially accessed, cache friendly.  Pushes and pops issue
metadata stores/loads against a circular simulated buffer.
"""

from __future__ import annotations

import numpy as np

from repro.framework.context import FrameworkContext
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

    def _slot_addrs(self, cursor: int, count: int) -> np.ndarray:
        slots = (cursor + np.arange(count)) % self._capacity
        return self._alloc.addrs_of(slots)

    def push_slots(self, vertices: np.ndarray, pushed: np.ndarray) -> list:
        """Queue ``vertices[pushed]``, in order.

        Returns the slot of the :meth:`push` stores, one entry per
        entry of ``vertices``, to lay out beside the rows that decided
        them.
        """
        count = int(np.count_nonzero(pushed))
        addr = np.zeros(len(vertices), dtype=np.int64)
        addr[pushed] = self._slot_addrs(self._push_cursor, count)
        self._push_cursor += count
        self._items.extend(vertices[pushed].tolist())
        return [Slot(EV_STORE, addr, 8, QUEUE_OP_WORK, pushed)]

    def drain_block(self, trace: ThreadTrace) -> list[int]:
        """:meth:`drain`, recorded as one row block."""
        drained = self._items[self._read :]
        count = len(drained)
        rows = np.empty((count, 6), dtype=np.int64)
        rows[:] = (EV_LOAD, 0, 8, QUEUE_OP_WORK, -1, 0)
        rows[:, 1] = self._slot_addrs(self._pop_cursor, count)
        trace.append_block(rows)
        self._pop_cursor += count
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
