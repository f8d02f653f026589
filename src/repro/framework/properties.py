"""Traced per-vertex property tables.

A :class:`PropertyTable` pairs a functional numpy array with a simulated
allocation.  Its accessors both mutate the array and record the memory
event a real framework would issue: plain loads/stores for unshared
access, ``lock``-prefixed atomics for shared updates (the paper's
offloading candidates, Table II).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError
from repro.framework.layout import Slot
from repro.memlayout.allocator import Allocation
from repro.trace.events import EV_ATOMIC, EV_LOAD, EV_STORE, AtomicOp
from repro.trace.stream import ThreadTrace


class PropertyTable:
    """A per-vertex property array with traced access.

    Parameters
    ----------
    allocation:
        Simulated memory backing this table (usually from
        ``FrameworkContext.alloc_property``).
    values:
        Functional storage; length must match the allocation's element
        count.
    """

    def __init__(
        self,
        allocation: Allocation,
        values: np.ndarray,
        plain_atomics: bool = False,
        object_index: Allocation | None = None,
    ):
        if values.ndim != 1:
            raise ConfigError("property values must be a 1-D array")
        if len(values) != allocation.num_elements:
            raise ConfigError(
                f"allocation {allocation.label!r} holds "
                f"{allocation.num_elements} elements but got "
                f"{len(values)} values"
            )
        self.allocation = allocation
        self.values = values
        #: When set, atomic accessors record a plain load+store instead
        #: of a lock-prefixed RMW.  This is the paper's Figure 4
        #: micro-benchmark mode ("excluding the atomic operations").
        self.plain_atomics = plain_atomics
        #: Vertex-object table (structure region).  Object-based
        #: frameworks reach a vertex's property through its vertex
        #: object, so each property access is preceded by a structure
        #: load.  This traffic is cacheable in every system mode.
        self.object_index = object_index

    def _touch_object(self, trace: ThreadTrace, vertex: int) -> None:
        if self.object_index is not None:
            trace.load(self.object_index.addr_of(vertex), 8)

    def _record_atomic(
        self, trace: ThreadTrace, op: AtomicOp, vertex: int, with_return: bool
    ) -> None:
        self._touch_object(trace, vertex)
        addr = self.addr(vertex)
        if self.plain_atomics:
            trace.load(addr, self.element_size)
            trace.store(addr, self.element_size)
        else:
            trace.atomic(op, addr, self.element_size, with_return)

    @classmethod
    def zeros(
        cls, allocation: Allocation, dtype=np.int64
    ) -> "PropertyTable":
        """A table of zeros matching ``allocation``."""
        return cls(allocation, np.zeros(allocation.num_elements, dtype=dtype))

    @classmethod
    def full(
        cls, allocation: Allocation, fill_value, dtype=np.int64
    ) -> "PropertyTable":
        """A table filled with ``fill_value``."""
        return cls(
            allocation,
            np.full(allocation.num_elements, fill_value, dtype=dtype),
        )

    def addr(self, vertex: int) -> int:
        """Simulated address of ``vertex``'s property."""
        return self.allocation.addr_of(vertex)

    @property
    def element_size(self) -> int:
        """Bytes per property element."""
        return self.allocation.element_size

    # ------------------------------------------------------------------
    # Plain (non-atomic) access
    # ------------------------------------------------------------------

    def read(self, trace: ThreadTrace, vertex: int):
        """Traced plain load of a property value."""
        self._touch_object(trace, vertex)
        trace.load(self.addr(vertex), self.element_size)
        return self.values[vertex]

    def write(self, trace: ThreadTrace, vertex: int, value) -> None:
        """Traced plain store of a property value."""
        self._touch_object(trace, vertex)
        trace.store(self.addr(vertex), self.element_size)
        self.values[vertex] = value

    def peek(self, vertex: int):
        """Untraced read (for assertions and result extraction)."""
        return self.values[vertex]

    # ------------------------------------------------------------------
    # Atomic read-modify-write access (offloading candidates)
    # ------------------------------------------------------------------

    def cas(
        self, trace: ThreadTrace, vertex: int, expected, desired
    ) -> bool:
        """``lock cmpxchg``: swap to ``desired`` iff current == expected.

        Returns whether the swap happened (the consumed return value —
        BFS's branch depends on it, Figure 8).
        """
        self._record_atomic(trace, AtomicOp.CAS, vertex, True)
        if self.values[vertex] == expected:
            self.values[vertex] = desired
            return True
        return False

    def fetch_add(
        self, trace: ThreadTrace, vertex: int, delta, with_return: bool = False
    ):
        """``lock add``: integer add; old value returned if consumed."""
        self._record_atomic(trace, AtomicOp.ADD, vertex, with_return)
        old = self.values[vertex]
        self.values[vertex] = old + delta
        return old

    def fetch_sub(
        self, trace: ThreadTrace, vertex: int, delta, with_return: bool = False
    ):
        """``lock sub``: integer subtract; old value returned if consumed."""
        self._record_atomic(trace, AtomicOp.SUB, vertex, with_return)
        old = self.values[vertex]
        self.values[vertex] = old - delta
        return old

    def swap(self, trace: ThreadTrace, vertex: int, value):
        """``lock xchg``: unconditional swap; returns the old value."""
        self._record_atomic(trace, AtomicOp.SWAP, vertex, True)
        old = self.values[vertex]
        self.values[vertex] = value
        return old

    def cas_improve_min(self, trace: ThreadTrace, vertex: int, candidate) -> bool:
        """The ``lock cmpxchg`` improvement loop of SSSP/CComp (Table II).

        A thread that read a stale (round-start) value retries the CAS
        until the stored value is <= its candidate; hardware-wise this
        is one or more ``lock cmpxchg`` instructions, which we record as
        a single offloadable CAS event.  Returns whether the stored
        value decreased.
        """
        self._record_atomic(trace, AtomicOp.CAS, vertex, True)
        if candidate < self.values[vertex]:
            self.values[vertex] = candidate
            return True
        return False

    def atomic_min(self, trace: ThreadTrace, vertex: int, candidate) -> bool:
        """Atomic min (host CAS loop; HMC ``CAS-if-less``).

        Returns whether the stored value decreased.
        """
        self._record_atomic(trace, AtomicOp.MIN, vertex, True)
        if candidate < self.values[vertex]:
            self.values[vertex] = candidate
            return True
        return False

    def atomic_max(self, trace: ThreadTrace, vertex: int, candidate) -> bool:
        """Atomic max (host CAS loop; HMC ``CAS-if-greater``)."""
        self._record_atomic(trace, AtomicOp.MAX, vertex, True)
        if candidate > self.values[vertex]:
            self.values[vertex] = candidate
            return True
        return False

    def fp_add(self, trace: ThreadTrace, vertex: int, delta) -> None:
        """Atomic floating-point add.

        On the host this is a CAS loop; it maps to the paper's proposed
        FP-add PIM extension (Section III-C).
        """
        self._record_atomic(trace, AtomicOp.FP_ADD, vertex, False)
        self.values[vertex] = self.values[vertex] + delta

    def bitwise_or(self, trace: ThreadTrace, vertex: int, mask):
        """``lock or``: set bits; no return value consumed."""
        self._record_atomic(trace, AtomicOp.OR, vertex, False)
        self.values[vertex] = self.values[vertex] | mask

    # ------------------------------------------------------------------
    # Row slots (decide-then-emit capture, :mod:`repro.framework.layout`)
    # ------------------------------------------------------------------
    # Each returns the slots of one accessor call per entry of
    # ``vertices``: ``work`` is recorded just before the call and
    # ``keep`` selects the entries where the call happens.

    def _slots(self, vertices, work, keep, rows) -> list:
        """``rows`` behind the vertex-object load an access opens with
        (when the table has one), ``work`` before the first."""
        if self.object_index is not None:
            lead = Slot(
                EV_LOAD, self.object_index.addrs_of(vertices), 8, work, keep
            )
            return [lead, *(slot._replace(keep=keep) for slot in rows)]
        first, *rest = rows
        return [
            first._replace(work=work, keep=keep),
            *(slot._replace(keep=keep) for slot in rest),
        ]

    def read_slots(self, vertices, work=0, keep=True) -> list:
        """The rows :meth:`read` records for each of ``vertices``."""
        addr = self.allocation.addrs_of(vertices)
        return self._slots(
            vertices, work, keep, [Slot(EV_LOAD, addr, self.element_size)]
        )

    def write_slots(self, vertices, work=0, keep=True) -> list:
        """The rows :meth:`write` records for each of ``vertices``."""
        addr = self.allocation.addrs_of(vertices)
        return self._slots(
            vertices, work, keep, [Slot(EV_STORE, addr, self.element_size)]
        )

    def atomic_slots(
        self, op: AtomicOp, vertices, with_return: bool, work=0, keep=True
    ) -> list:
        """The rows an atomic accessor (``op``) records per vertex.

        A lock-prefixed RMW, or a plain load and store of the same
        element under ``plain_atomics``.
        """
        addr = self.allocation.addrs_of(vertices)
        size = self.element_size
        if self.plain_atomics:
            rows = [Slot(EV_LOAD, addr, size), Slot(EV_STORE, addr, size)]
        else:
            rows = [
                Slot(EV_ATOMIC, addr, size, op=int(op), ret=int(with_return))
            ]
        return self._slots(vertices, work, keep, rows)

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return (
            f"PropertyTable(label={self.allocation.label!r}, "
            f"n={len(self.values)}, pmr={self.allocation.in_pmr})"
        )
