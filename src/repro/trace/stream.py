"""Per-thread trace streams and the multi-thread trace container."""

from __future__ import annotations

import struct
from typing import Optional, Sequence

import numpy as np

from repro.common.errors import TraceError
from repro.trace.columnar import check_event_kinds, decode_thread_matrix
from repro.trace.events import (
    EV_ATOMIC,
    EV_BARRIER,
    EV_LOAD,
    EV_STORE,
    AtomicOp,
)

#: One canonical ``(kind, addr, size, gap, op, ret)`` row: six native
#: int64s, byte-identical to a row of the ``(N, 6)`` matrix.  ``pack``
#: raises ``struct.error`` on exactly the fields :func:`encode_events`
#: rejects (non-integers, values outside int64).
_ROW = struct.Struct("=6q")
_pack_row = _ROW.pack


class ThreadTrace:
    """The recorded instruction stream of one virtual thread.

    The framework calls :meth:`load` / :meth:`store` / :meth:`atomic`
    for memory accesses and :meth:`work` for intervening non-memory
    instructions; the pending work count is folded into the next event's
    ``gap`` field.

    Storage: each event is packed as it is captured into its canonical
    int64 row (:mod:`repro.trace.columnar`) in one growable buffer, the
    layout the ``.npz`` format, :func:`~repro.trace.io.trace_digest` and
    shared memory use, so none of them re-encodes it.  :attr:`events`
    is a tuple view decoded on first access; from then on the thread
    keeps tuples, so the returned list can be mutated like any list.
    The builder switches to tuples the same way on the first event a
    row cannot hold exactly: a field :func:`encode_events` would reject
    (non-integer, outside int64) or an atomic whose ``with_return`` is
    not a bool (the view decodes ``ret`` as one).
    """

    __slots__ = ("thread_id", "_rows", "_events", "_pending_work")

    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        #: Row storage, or None once the thread keeps tuples.
        self._rows: Optional[bytearray] = bytearray()
        #: Tuple storage, or None while the thread keeps rows.
        self._events: Optional[list[tuple]] = None
        self._pending_work = 0

    @classmethod
    def from_rows(cls, thread_id: int, rows: np.ndarray) -> "ThreadTrace":
        """A thread holding a copy of an ``(N, 6)`` int64 row matrix.

        Raises :class:`TraceError` on an unknown event kind, which no
        tuple layout could represent.
        """
        matrix = np.ascontiguousarray(rows, dtype=np.int64).reshape(-1, 6)
        check_event_kinds(matrix[:, 0])
        thread = cls(thread_id)
        thread._rows = bytearray(matrix)
        return thread

    def work(self, instructions: int = 1) -> None:
        """Record ``instructions`` non-memory instructions."""
        if instructions < 0:
            raise TraceError("work count must be non-negative")
        self._pending_work += instructions

    # The recorders below inline the row packing: they run once per
    # captured event, and a shared helper call would cost about as much
    # as the pack itself.

    def load(self, addr: int, size: int = 8) -> None:
        """Record a regular load."""
        gap = self._pending_work
        self._pending_work = 0
        if self._rows is not None:
            try:
                self._rows += _pack_row(EV_LOAD, addr, size, gap, -1, 0)
                return
            except struct.error:
                pass
        self.events.append((EV_LOAD, addr, size, gap))

    def store(self, addr: int, size: int = 8) -> None:
        """Record a regular store."""
        gap = self._pending_work
        self._pending_work = 0
        if self._rows is not None:
            try:
                self._rows += _pack_row(EV_STORE, addr, size, gap, -1, 0)
                return
            except struct.error:
                pass
        self.events.append((EV_STORE, addr, size, gap))

    def atomic(
        self,
        op: AtomicOp,
        addr: int,
        size: int = 8,
        with_return: bool = True,
    ) -> None:
        """Record a host atomic instruction (lock-prefixed RMW)."""
        gap = self._pending_work
        self._pending_work = 0
        if self._rows is not None and (
            with_return is True or with_return is False
        ):
            try:
                self._rows += _pack_row(
                    EV_ATOMIC, addr, size, gap, op, with_return
                )
                return
            except struct.error:
                pass
        self.events.append((EV_ATOMIC, addr, size, gap, op, with_return))

    def barrier(self, barrier_id: int) -> None:
        """Record participation in a global barrier.

        Pending work is charged before the barrier is entered: the
        replay loop charges the event's gap cycles before it syncs.
        """
        gap = self._pending_work
        if gap:
            self._pending_work = 0
        else:
            gap = 0
        if self._rows is not None:
            try:
                self._rows += _pack_row(EV_BARRIER, 0, barrier_id, gap, -1, 0)
                return
            except struct.error:
                pass
        self.events.append((EV_BARRIER, barrier_id, gap))

    def append_block(self, rows: np.ndarray, trailing_work: int = 0) -> None:
        """Record an ``(N, 6)`` int64 block of event rows in one call.

        The bulk form of :meth:`load`/:meth:`store`/:meth:`atomic`:
        work pending from earlier :meth:`work` calls is folded into the
        first row's gap, as the next per-event recorder would fold it,
        and ``trailing_work`` (instructions executed after the block's
        last event) stays pending for the next event or barrier.  An
        empty block only adds ``trailing_work``.  ``rows`` is not
        modified.  A thread that keeps tuples extends them with the
        block's decoded events instead.
        """
        if trailing_work < 0:
            raise TraceError("work count must be non-negative")
        block = np.ascontiguousarray(rows, dtype=np.int64).reshape(-1, 6)
        if not block.shape[0]:
            self._pending_work += trailing_work
            return
        check_event_kinds(block[:, 0])
        pending = self._pending_work
        self._pending_work = trailing_work
        if self._rows is not None:
            # ``extend`` takes the array's buffer; ``+=`` would hand the
            # sum to numpy.
            if not pending:
                self._rows.extend(block)
                return
            first = block[0].tolist()
            first[3] += pending
            try:
                head = _pack_row(*first)
            except struct.error:
                pass
            else:
                self._rows += head
                self._rows.extend(block[1:])
                return
        events = decode_thread_matrix(block)
        if pending:
            first_event = list(events[0])
            first_event[2 if first_event[0] == EV_BARRIER else 3] += pending
            events[0] = tuple(first_event)
        self.events.extend(events)

    @property
    def events(self) -> list[tuple]:
        """The event tuples (layouts in :mod:`repro.trace.events`).

        Decoded from the rows on first access; the thread keeps the
        returned list as its storage from then on.
        """
        events = self._events
        if events is None:
            events = decode_thread_matrix(self.rows())
            self._events = events
            self._rows = None
        return events

    def rows(self) -> Optional[np.ndarray]:
        """The stored rows as a read-only ``(N, 6)`` int64 view.

        None once the thread keeps tuples.  The view pins the buffer,
        so drop it before recording further events.
        """
        if self._rows is None:
            return None
        matrix = np.frombuffer(self._rows, dtype=np.int64).reshape(-1, 6)
        matrix.flags.writeable = False
        return matrix

    def barrier_ids(self) -> list:
        """Barrier ids in stream order."""
        matrix = self.rows()
        if matrix is None:
            return [e[1] for e in self.events if e[0] == EV_BARRIER]
        return matrix[matrix[:, 0] == EV_BARRIER, 2].tolist()

    @property
    def num_events(self) -> int:
        """Number of recorded events."""
        if self._rows is not None:
            return len(self._rows) // _ROW.size
        return len(self.events)

    def __repr__(self) -> str:
        return (
            f"ThreadTrace(thread={self.thread_id}, events={self.num_events})"
        )


class Trace:
    """A complete multi-thread trace plus the allocation layout it used."""

    def __init__(self, threads: Sequence[ThreadTrace], name: str = ""):
        if not threads:
            raise TraceError("a trace needs at least one thread")
        ids = [t.thread_id for t in threads]
        if len(set(ids)) != len(ids):
            raise TraceError(f"duplicate thread ids: {ids}")
        self.threads = list(threads)
        self.name = name

    @property
    def num_threads(self) -> int:
        """Number of thread streams."""
        return len(self.threads)

    @property
    def num_events(self) -> int:
        """Total events across all threads."""
        return sum(t.num_events for t in self.threads)

    def barrier_sequences(self) -> list[list[int]]:
        """Per-thread barrier id sequences, in thread order.

        Shared by :meth:`validate_barriers` and the trace linter's
        barrier-balance rule.
        """
        return [thread.barrier_ids() for thread in self.threads]

    def validate_barriers(self) -> None:
        """Check that every thread hits the same barrier sequence.

        The paper's workloads are bulk-synchronous; mismatched barrier
        sequences would deadlock the replay, so we fail fast here.
        """
        sequences = self.barrier_sequences()
        first = sequences[0]
        for thread, seq in zip(self.threads[1:], sequences[1:]):
            if seq != first:
                raise TraceError(
                    f"barrier sequence mismatch between thread "
                    f"{self.threads[0].thread_id} and {thread.thread_id}"
                )

    def columnar(self):
        """Memoized columnar (SoA) form of this trace.

        Built once per trace object (again after
        :meth:`release_columnar`) by
        :meth:`~repro.trace.columnar.ColumnarTrace.from_events`, which
        concatenates the threads' rows (strictly encoding any thread
        that keeps tuples), and shared by every consumer: the strict
        pre-flight's passes and each simulated mode.  Traces are
        append-only during capture and frozen once handed to
        analysis/simulation; the memo assumes no post-capture mutation.

        Raises :class:`~repro.common.errors.TraceError` (uncached) when
        the trace is not columnar-encodable.
        """
        cached = self.__dict__.get("_columnar")
        if cached is None:
            from repro.trace.columnar import ColumnarTrace

            cached = ColumnarTrace.from_events(self)
            self.__dict__["_columnar"] = cached
        return cached

    def release_columnar(self) -> None:
        """Drop the :meth:`columnar` memo, a second copy of every event.

        For callers done analysing and simulating the trace; a later
        :meth:`columnar` call builds the memo again.
        """
        self.__dict__.pop("_columnar", None)

    def __getstate__(self) -> dict:
        # Keep pickle IPC (pool workers) lean: the columnar memo is
        # derived data, cheaper to rebuild than to ship twice.
        state = self.__dict__.copy()
        state.pop("_columnar", None)
        return state

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, threads={self.num_threads}, "
            f"events={self.num_events})"
        )
