"""Per-thread trace streams and the multi-thread trace container."""

from __future__ import annotations

import struct
from typing import Optional, Sequence

import numpy as np

from repro.common.errors import TraceError
from repro.trace.columnar import (
    ColumnarTrace,
    ColumnBuffers,
    check_event_kinds,
    decode_thread_matrix,
    stack_rows,
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
#: raises ``struct.error`` on a field no row holds: a non-integer or a
#: value outside int64.
_ROW = struct.Struct("=6q")
_pack_row = _ROW.pack

#: Bytes of packed rows a thread stages before moving them into its
#: narrow columns in one bulk append: 2,048 rows, 96 KiB.
_STAGE_BYTES = 2048 * _ROW.size

_INT64_MAX = 2**63 - 1


class ThreadTrace:
    """The recorded instruction stream of one virtual thread.

    The framework calls :meth:`load` / :meth:`store` / :meth:`atomic`
    for memory accesses and :meth:`work` for intervening non-memory
    instructions; the pending work count is folded into the next event's
    ``gap`` field.

    Storage, in two states.  During capture the events are six narrow
    columns (:class:`~repro.trace.columnar.ColumnBuffers`), each in the
    narrowest signed type that holds the thread's values so far; no
    buffer of 48-byte int64 rows ever holds the whole thread.  The
    per-event recorders and :meth:`append_block` pack canonical int64
    rows (:mod:`repro.trace.columnar`) into a small staging buffer,
    which is moved into the columns in bulk once it holds
    ``_STAGE_BYTES``, before any :meth:`append_columns` and before any
    read.  :meth:`Trace.columnar` then *freezes* the thread, once: its
    columns are copied into the trace's columns and freed, and the
    thread becomes a read-only view of its slice of them; a frozen
    trace pickles as those columns (how a pool worker sends it).  A
    recorder raises :class:`~repro.common.errors.TraceError`, naming the
    thread and the event index, on a field no row holds (a non-integer,
    a value outside int64, an atomic's ``with_return`` that is not a
    bool), on a work count that is not a non-negative integer and on a
    frozen thread; the recorded events and the pending work are left as
    they were.  :meth:`rows` widens the events back to int64 rows and
    :meth:`event_tuples` decodes them into the tuple layouts of
    :mod:`repro.trace.events`.
    """

    __slots__ = (
        "thread_id", "_rows", "_columns", "_pending_work", "_col", "_pos"
    )

    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        #: Staged int64 rows, or None once the thread is frozen.
        self._rows: Optional[bytearray] = bytearray()
        #: Narrow capture columns, or None once the thread is frozen.
        self._columns: Optional[ColumnBuffers] = ColumnBuffers()
        self._pending_work = 0
        #: The trace columns a frozen thread's events are in, at thread
        #: position ``_pos``.
        self._col: Optional[ColumnarTrace] = None
        self._pos = 0

    def _freeze(self, col: ColumnarTrace, pos: int) -> None:
        """Point the thread at its slice of ``col`` and drop its capture
        buffers."""
        self._col = col
        self._pos = pos
        self._rows = None
        self._columns = None

    def _flush(self) -> None:
        """Move the staged rows into the columns."""
        staged = self._rows
        if staged:
            self._columns.append_rows(staged)
            staged.clear()

    def _column_views(self) -> "list[np.ndarray]":
        """The thread's six columns: views of its capture buffers (which
        they pin) or, once frozen, of its slice of the trace's."""
        if self._rows is None:
            return self._col.thread_columns(self._pos)
        self._flush()
        return self._columns.views()

    def _refusal(self, problem: object = "") -> TraceError:
        """The error for an event this thread cannot record."""
        if self._rows is None:
            problem = "the thread is frozen into its trace's columns"
        return TraceError(
            f"thread {self.thread_id} event {self.num_events}: cannot "
            f"record it as a row ({problem})"
        )

    def _check_work(self, instructions: object) -> None:
        """Raise unless ``instructions`` is a non-negative integer.

        Called only for a count that is not a plain non-negative int,
        so the common case costs :meth:`work` one type test.
        """
        if not isinstance(instructions, (int, np.integer)):
            raise self._refusal(
                f"work count {instructions!r} is not an integer"
            )
        if instructions < 0:
            raise self._refusal(f"work count {instructions!r} is negative")

    def work(self, instructions: int = 1) -> None:
        """Record ``instructions`` non-memory instructions.

        A count that is not a non-negative integer raises here, with the
        pending work left as it was.
        """
        if type(instructions) is not int or instructions < 0:
            self._check_work(instructions)
        self._pending_work += instructions

    # The recorders below inline the row packing and the stage check:
    # they run once per captured event, and a shared helper call would
    # cost about as much as the pack itself.  On a frozen thread
    # ``self._rows += ...`` raises TypeError (None has no ``+=``).

    def load(self, addr: int, size: int = 8) -> None:
        """Record a regular load."""
        try:
            self._rows += _pack_row(
                EV_LOAD, addr, size, self._pending_work, -1, 0
            )
        except (struct.error, TypeError) as error:
            raise self._refusal(error) from None
        self._pending_work = 0
        if len(self._rows) >= _STAGE_BYTES:
            self._flush()

    def store(self, addr: int, size: int = 8) -> None:
        """Record a regular store."""
        try:
            self._rows += _pack_row(
                EV_STORE, addr, size, self._pending_work, -1, 0
            )
        except (struct.error, TypeError) as error:
            raise self._refusal(error) from None
        self._pending_work = 0
        if len(self._rows) >= _STAGE_BYTES:
            self._flush()

    def atomic(
        self,
        op: AtomicOp,
        addr: int,
        size: int = 8,
        with_return: bool = True,
    ) -> None:
        """Record a host atomic instruction (lock-prefixed RMW)."""
        if with_return is not True and with_return is not False:
            # The tuple view decodes ``ret`` as a bool.
            raise self._refusal(f"with_return {with_return!r} is not a bool")
        try:
            self._rows += _pack_row(
                EV_ATOMIC, addr, size, self._pending_work, op, with_return
            )
        except (struct.error, TypeError) as error:
            raise self._refusal(error) from None
        self._pending_work = 0
        if len(self._rows) >= _STAGE_BYTES:
            self._flush()

    def barrier(self, barrier_id: int) -> None:
        """Record participation in a global barrier.

        Pending work is charged before the barrier is entered: the
        replay loop charges the event's gap cycles before it syncs.
        """
        try:
            self._rows += _pack_row(
                EV_BARRIER, 0, barrier_id, self._pending_work, -1, 0
            )
        except (struct.error, TypeError) as error:
            raise self._refusal(error) from None
        self._pending_work = 0
        if len(self._rows) >= _STAGE_BYTES:
            self._flush()

    def append_block(self, rows: np.ndarray, trailing_work: int = 0) -> None:
        """Record an ``(N, 6)`` int64 block of event rows in one call.

        The bulk form of :meth:`load`/:meth:`store`/:meth:`atomic`:
        work pending from earlier :meth:`work` calls is folded into the
        first row's gap, as the next per-event recorder would fold it,
        and ``trailing_work`` (instructions executed after the block's
        last event) stays pending for the next event or barrier.  An
        empty block only adds ``trailing_work``.  The rows are staged;
        a block too large for the stage goes into the columns with it.
        ``rows`` is not modified.
        """
        if type(trailing_work) is not int or trailing_work < 0:
            self._check_work(trailing_work)
        block = np.ascontiguousarray(rows, dtype=np.int64).reshape(-1, 6)
        if not block.shape[0]:
            self._pending_work += trailing_work
            return
        check_event_kinds(block[:, 0])
        if self._rows is None:
            raise self._refusal()
        pending = self._pending_work
        if pending:
            first = block[0].tolist()
            first[3] += pending
            try:
                head = _pack_row(*first)
            except struct.error as error:
                raise self._refusal(error) from None
            self._rows += head
            block = block[1:]
        if len(self._rows) + block.nbytes < _STAGE_BYTES:
            # ``extend`` takes the array's buffer; ``+=`` would hand the
            # sum to numpy.
            self._rows.extend(block)
        else:
            self._flush()
            self._columns.append(block.T)
        self._pending_work = trailing_work

    def append_columns(
        self, columns: "Sequence[np.ndarray]", trailing_work: int = 0
    ) -> None:
        """Record events given as six equal-length signed integer
        columns (``kind``, ``addr``, ``size``, ``gap``, ``op``, ``ret``)
        in one call.

        The columnar form of :meth:`append_block`, with the same folding
        of pending work into the first event's gap and of
        ``trailing_work``; the columns go into the thread's narrow
        columns without passing through int64 rows.  ``columns`` are not
        modified.
        """
        if type(trailing_work) is not int or trailing_work < 0:
            self._check_work(trailing_work)
        if not len(columns[0]):
            self._pending_work += trailing_work
            return
        check_event_kinds(columns[0])
        if self._rows is None:
            raise self._refusal()
        pending = self._pending_work
        if pending:
            gap = columns[3].astype(np.int64)
            first = int(gap[0]) + pending
            if first > _INT64_MAX:
                raise self._refusal(f"gap {first} is outside int64")
            gap[0] = first
            columns = (*columns[:3], gap, *columns[4:])
        self._flush()
        self._columns.append(columns)
        self._pending_work = trailing_work

    def event_tuples(self) -> list[tuple]:
        """The event tuples (layouts in :mod:`repro.trace.events`),
        decoded from the rows into a new list on each call."""
        return decode_thread_matrix(self.rows())

    def rows(self) -> np.ndarray:
        """The events as a new read-only ``(N, 6)`` int64 matrix,
        widened from the columns."""
        matrix = stack_rows(self._column_views())
        matrix.flags.writeable = False
        return matrix

    @property
    def frozen(self) -> bool:
        """True once the thread is a view of its trace's columns."""
        return self._rows is None

    def barrier_ids(self) -> list:
        """Barrier ids in stream order, read from the narrow ``kind``
        and ``size`` columns."""
        kind, _addr, size, *_rest = self._column_views()
        return size[kind == EV_BARRIER].tolist()

    @property
    def num_events(self) -> int:
        """Number of recorded events."""
        if self._rows is not None:
            return self._columns.size + len(self._rows) // _ROW.size
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
        #: A tuple: the columns :meth:`columnar` builds stand for exactly
        #: these threads.
        self.threads = tuple(threads)
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

        The first call freezes the trace
        (:meth:`~repro.trace.columnar.ColumnarTrace.from_events`): each
        thread's capture columns are stacked into the trace's columns
        and freed, and the thread becomes a read-only view of its slice,
        so the columns are the only copy of the events.  Every consumer
        shares them: the strict pre-flight's passes and each simulated
        mode.
        """
        col = self._columnar
        if col is None:
            col = self._columnar = ColumnarTrace.from_events(self)
        return col

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, threads={self.num_threads}, "
            f"events={self.num_events})"
        )
