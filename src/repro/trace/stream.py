"""Per-thread trace streams and the multi-thread trace container."""

from __future__ import annotations

import struct
from typing import Optional, Sequence

import numpy as np

from repro.common.errors import TraceError
from repro.trace.columnar import (
    ColumnarTrace,
    check_event_kinds,
    decode_thread_matrix,
)
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

    Storage: during capture each event is packed into its canonical
    int64 row (:mod:`repro.trace.columnar`) in one growable buffer, the
    layout the ``.npz`` format, :func:`~repro.trace.io.trace_digest` and
    shared memory use, so none of them re-encodes it.
    :meth:`Trace.columnar` then *freezes* the thread: its events move
    into the trace's narrow columns, and the thread becomes a view of
    its slice of them and drops the capture buffer.  A recorder call on
    a frozen thread thaws it back to a capture buffer first.
    :attr:`events` is a tuple view decoded on first access; from then
    on the thread keeps tuples, so the returned list can be mutated like
    any list.  The builder switches to tuples the same way on the first
    event a row cannot hold exactly: a field :func:`encode_events`
    would reject (non-integer, outside int64) or an atomic whose
    ``with_return`` is not a bool (the view decodes ``ret`` as one).
    """

    __slots__ = (
        "thread_id", "_rows", "_events", "_pending_work", "_col", "_pos"
    )

    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        #: Capture buffer, or None once the thread is frozen or keeps
        #: tuples.
        self._rows: Optional[bytearray] = bytearray()
        #: Tuple storage, or None while the thread keeps rows.
        self._events: Optional[list[tuple]] = None
        self._pending_work = 0
        #: The trace columns this thread's events are in (at thread
        #: position ``_pos``), or None when no columns speak for it.
        self._col: Optional[ColumnarTrace] = None
        self._pos = 0

    def _freeze(self, col: ColumnarTrace, pos: int) -> None:
        """Point the thread at its slice of ``col`` and drop its capture
        buffer.  A thread keeping tuples keeps them: they stay its
        events (a tuple need not round-trip through a row exactly), and
        the columns only record that nothing changed since."""
        self._col = col
        self._pos = pos
        self._rows = None

    def _thaw(self) -> bool:
        """Give a frozen thread its capture buffer back, for a recorder
        call; True when it did.  The trace's next :meth:`Trace.columnar`
        call then rebuilds the columns."""
        col = self._col
        if col is None or self._events is not None:
            return False
        self._rows = bytearray(col.thread_matrix(self._pos))
        self._col = None
        return True

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
        if self._rows is not None or self._thaw():
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
        if self._rows is not None or self._thaw():
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
        if (self._rows is not None or self._thaw()) and (
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
        if self._rows is not None or self._thaw():
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
        if self._rows is not None or self._thaw():
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
        returned list as its storage from then on, and since the caller
        may edit it, the trace's next :meth:`Trace.columnar` call
        rebuilds the columns.  Readers that only iterate use
        :meth:`event_tuples`, which leaves the storage as it is.
        """
        events = self._events
        if events is None:
            events = decode_thread_matrix(self.rows())
            self._events = events
            self._rows = None
        self._col = None
        return events

    def event_tuples(self) -> list[tuple]:
        """The event tuples, leaving the thread's storage as it is.

        A thread that keeps rows (captured or frozen) decodes a new list
        per call; one that keeps tuples returns its own list, which the
        caller must not mutate.
        """
        if self._events is not None:
            return self._events
        return decode_thread_matrix(self.rows())

    def rows(self) -> Optional[np.ndarray]:
        """The events as a read-only ``(N, 6)`` int64 matrix.

        None once the thread keeps tuples.  During capture this is a
        view of the buffer, which it pins, so drop it before recording
        further events; a frozen thread widens its slice of the trace's
        columns into a new matrix.
        """
        if self._rows is None:
            if self._events is not None or self._col is None:
                return None
            matrix = self._col.thread_matrix(self._pos)
        else:
            matrix = np.frombuffer(self._rows, dtype=np.int64).reshape(-1, 6)
        matrix.flags.writeable = False
        return matrix

    @property
    def frozen(self) -> bool:
        """True while the thread is a view of its trace's columns."""
        return self._rows is None and self._events is None

    def barrier_ids(self) -> list:
        """Barrier ids in stream order."""
        if self._events is not None:
            return [e[1] for e in self._events if e[0] == EV_BARRIER]
        if self._rows is None:
            col = self._col
            rows = col.thread_slice(self._pos)
            barriers = col.kind[rows] == EV_BARRIER
            return col.size[rows][barriers].tolist()
        matrix = self.rows()
        return matrix[matrix[:, 0] == EV_BARRIER, 2].tolist()

    @property
    def num_events(self) -> int:
        """Number of recorded events."""
        if self._rows is not None:
            return len(self._rows) // _ROW.size
        if self._events is not None:
            return len(self._events)
        starts = self._col.starts
        return int(starts[self._pos + 1] - starts[self._pos])

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
        self._columnar: Optional[ColumnarTrace] = None

    @classmethod
    def from_columnar(cls, col: ColumnarTrace) -> "Trace":
        """The trace of ``col``, held once: every thread is a frozen
        view of its slice, and ``col`` is the trace's :meth:`columnar`
        form."""
        threads = [ThreadTrace(tid) for tid in col.thread_ids.tolist()]
        for pos, thread in enumerate(threads):
            thread._freeze(col, pos)
        trace = cls(threads, name=col.name)
        trace._columnar = col
        return trace

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

    def columnar(self) -> ColumnarTrace:
        """The trace's narrow columnar (SoA) form, built once.

        The first call builds it with
        :meth:`~repro.trace.columnar.ColumnarTrace.from_events`, which
        stacks the threads' rows into narrow columns (strictly encoding
        any thread that keeps tuples), then freezes every thread: each
        becomes a view of its slice and drops its capture buffer, so the
        columns are the only copy of the events.  Every consumer shares
        them: the strict pre-flight's passes and each simulated mode.
        Later calls return the same object while every thread is still
        its view; a recorder call on a frozen thread, a read of its
        :attr:`~ThreadTrace.events` or a change to :attr:`threads` makes
        the next call build and freeze again.

        Raises :class:`~repro.common.errors.TraceError` (nothing frozen)
        when the trace is not columnar-encodable.
        """
        cached = self._columnar
        if cached is None or not self._views_of(cached):
            cached = ColumnarTrace.from_events(self)
            for pos, thread in enumerate(self.threads):
                thread._freeze(cached, pos)
            self._columnar = cached
        return cached

    def _views_of(self, col: ColumnarTrace) -> bool:
        """True when the threads are exactly the views of ``col``."""
        threads = self.threads
        return len(threads) == col.num_threads and all(
            thread._col is col and thread._pos == pos
            for pos, thread in enumerate(threads)
        )

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, threads={self.num_threads}, "
            f"events={self.num_events})"
        )
