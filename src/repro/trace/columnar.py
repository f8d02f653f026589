"""Columnar (structure-of-arrays) trace representation.

:class:`ColumnarTrace` stores a multi-thread event stream as six flat
numpy columns — ``kind``, ``addr``, ``size``, ``gap``, ``op``, ``ret``
— laid out thread-major (all of thread 0's events, then all of thread
1's, ...), with a ``starts`` offset array delimiting the per-thread
segments.  A row of the six columns is the canonical event encoding
every other representation shares::

    load/store : (kind, addr,       size, gap, -1, 0)
    atomic     : (kind, addr,       size, gap, op, with_return)
    barrier    : (kind, 0,    barrier_id,  gap, -1, 0)

The canonical row is six int64s: the ``.npz`` format
(:mod:`repro.trace.io`) stores it and
:func:`~repro.trace.io.trace_digest` hashes it.  In memory each column
keeps the narrowest signed integer type (int8, int16, int32 or int64)
that holds its values (:func:`narrowest_type`), from capture on: a
:class:`~repro.trace.stream.ThreadTrace` appends its events to a
:class:`ColumnBuffers`, which widens a column in place when a value
needs more, and :meth:`ColumnarTrace.from_events` stacks the threads'
buffers into the trace's columns, each in the widest of its threads'
types.  :meth:`ColumnarTrace.thread_matrix` widens a thread back to its
int64 rows.  So conversion is lossless both ways
(``Trace.from_columnar(ColumnarTrace.from_events(t))`` has ``t``'s
rows), and ``.repro_cache/`` result keys and service spec_keys do not
depend on which form produced a trace.

The vectorized analysis passes (:mod:`repro.analysis.passes`) and the
batch simulation kernel (:mod:`repro.sim.vectorized`) consume this
form; the tuple view (:meth:`ThreadTrace.event_tuples`, decoded by
:func:`decode_thread_matrix`) serves the per-event reference
interpreter and the legacy analyzers.

Every trace is columnar: a thread records nothing a row cannot hold
(its recorders raise :class:`~repro.common.errors.TraceError`
instead), and rows read from a file or handed to
:meth:`ColumnarTrace.from_thread_matrices`,
:meth:`ThreadTrace.append_block` or :meth:`ThreadTrace.append_columns`
are checked for unknown event kinds.
"""

from __future__ import annotations

import ctypes
import struct
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

import numpy as np

from repro.common.errors import TraceError
from repro.trace.events import (
    EV_ATOMIC,
    EV_BARRIER,
    EV_LOAD,
    EV_STORE,
    AtomicOp,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.stream import Trace

_COLUMNS = ("kind", "addr", "size", "gap", "op", "ret")

#: Column types, narrowest first, with the value range each holds.
_NARROW_TYPES = tuple(
    (int(np.iinfo(t).min), int(np.iinfo(t).max), np.dtype(t))
    for t in (np.int8, np.int16, np.int32, np.int64)
)

#: One canonical row, packed: six native int64s.
_ROW = struct.Struct("=6q")

#: ``array`` type code of each column type, for appending a few values
#: given as Python ints.
_ARRAY_CODES = {
    dtype: next(c for c in "bhilq" if array(c).itemsize == dtype.itemsize)
    for _low, _high, dtype in _NARROW_TYPES
}

#: The unsigned type of each column type's width.
_UNSIGNED = {
    dtype: np.dtype(f"u{dtype.itemsize}") for _low, _high, dtype in _NARROW_TYPES
}

#: Most packed rows :meth:`ColumnBuffers.append_rows` moves in Python;
#: numpy's per-call cost pays off only on more.
_FEW_ROWS = 8

#: Fewest bytes a thread's columns must free before the freeze hands
#: the heap's free pages back to the OS: glibc's default trim threshold.
#: Of the ``tiny`` Figure 7 traces only three of BC's threads hold more,
#: so small jobs seldom pay for the call or the page faults after it.
TRIM_FLOOR = 128 * 1024


def _find_malloc_trim() -> "Callable[[int], int]":
    """glibc's ``malloc_trim``, or a no-op where the C library has none.

    glibc keeps freed heap memory for reuse, so without a trim the
    freed capture buffers of a thread stay resident while the frozen
    columns fill.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):
        return lambda pad: 0
    trim.argtypes = (ctypes.c_size_t,)
    trim.restype = ctypes.c_int
    return trim


#: ``_malloc_trim(0)`` returns every free page of the heap to the OS.
_malloc_trim = _find_malloc_trim()


def narrowest_type(low: int, high: int) -> np.dtype:
    """The narrowest signed integer type holding every value in
    ``[low, high]`` (int64 for anything an int64 column holds)."""
    for type_min, type_max, dtype in _NARROW_TYPES:
        if type_min <= low and high <= type_max:
            return dtype
    return _NARROW_TYPES[-1][2]


def narrowed(values: np.ndarray) -> np.ndarray:
    """``values`` in the narrowest signed type that holds them (int8
    when empty), not copied when already in it."""
    if not values.size:
        return values.astype(_NARROW_TYPES[0][2])
    return values.astype(
        narrowest_type(int(values.min()), int(values.max())), copy=False
    )


def stack_rows(
    columns: Sequence[np.ndarray], out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Six equal-length columns of any signed widths as ``(N, 6)`` int64
    rows (the canonical rows): a new matrix, or the first ``N`` rows of
    ``out``."""
    count = len(columns[0])
    if out is None:
        out = np.empty((count, len(_COLUMNS)), dtype=np.int64)
    matrix = out[:count]
    for index, values in enumerate(columns):
        matrix[:, index] = values
    return matrix


def decode_thread_matrix(rows: np.ndarray) -> "list[tuple]":
    """Unpack an (N, 6) row matrix into event tuples."""
    events: list[tuple] = []
    for kind, addr, size, gap, op, ret in rows.tolist():
        if kind == EV_BARRIER:
            events.append((EV_BARRIER, size, gap))
        elif kind == EV_ATOMIC:
            try:
                decoded_op: AtomicOp | int = AtomicOp(op)
            except ValueError:
                # Preserve the raw value: the trace linter reports
                # unknown ops (TRC003/PIM001) with their event index.
                decoded_op = op
            events.append(
                (EV_ATOMIC, addr, size, gap, decoded_op, bool(ret))
            )
        elif kind in (EV_LOAD, EV_STORE):
            events.append((kind, addr, size, gap))
        else:
            raise TraceError(f"unknown event kind {kind} in trace file")
    return events


def check_event_kinds(kinds: np.ndarray) -> None:
    """Raise :class:`TraceError` naming the first unknown event kind."""
    if not kinds.size:
        return
    unsigned = _UNSIGNED.get(kinds.dtype)
    if unsigned is not None:
        # The known kinds are the codes EV_LOAD (0) to EV_BARRIER; read
        # as unsigned, a negative kind is larger than all of them.
        known = kinds.view(unsigned).max() <= EV_BARRIER
    else:
        known = kinds.min() >= EV_LOAD and kinds.max() <= EV_BARRIER
    if known:
        return
    bad = int(kinds[np.argmax((kinds < EV_LOAD) | (kinds > EV_BARRIER))])
    raise TraceError(f"unknown event kind {bad} in trace file")


class ColumnBuffers:
    """One thread's events during capture, as six growable columns.

    Column ``i`` (``kind``, ``addr``, ``size``, ``gap``, ``op``,
    ``ret``) is a ``bytearray`` of values in ``types[i]``, the narrowest
    signed type that holds every value appended to it so far: a value
    that needs more widens the column in place (its values are cast into
    a new buffer).  A ``bytearray`` grows by reallocation with about an
    eighth of slack, so a growing column is never held twice.  This is
    the trace layer's one narrowing routine: capture appends here, and
    so does :meth:`ColumnarTrace.from_thread_matrices` for each thread
    it loads.
    """

    __slots__ = ("_data", "types", "size")

    def __init__(self) -> None:
        self._data = [bytearray() for _ in _COLUMNS]
        self.types = [_NARROW_TYPES[0][2]] * len(_COLUMNS)
        #: Events appended so far.
        self.size = 0

    def _fit(self, index: int, low: int, high: int) -> np.dtype:
        """Widen column ``index`` unless its type holds ``[low, high]``;
        returns its type."""
        have = self.types[index]
        need = narrowest_type(low, high)
        if need.itemsize > have.itemsize:
            old = np.frombuffer(self._data[index], dtype=have)
            self._data[index] = bytearray(old.astype(need))
            self.types[index] = have = need
        return have

    def append(self, columns: Sequence[np.ndarray]) -> None:
        """Append six equal-length signed integer arrays, one per
        column.  Only an array whose type does not cast safely into its
        column's is scanned for its range."""
        count = len(columns[0])
        if not count:
            return
        for index, values in enumerate(columns):
            have = self.types[index]
            if values.dtype != have:
                if not np.can_cast(values.dtype, have):
                    have = self._fit(
                        index, int(values.min()), int(values.max())
                    )
                values = values.astype(have)
            elif not values.flags.c_contiguous:
                values = np.ascontiguousarray(values)
            self._data[index].extend(values)
        self.size += count

    def append_rows(self, rows: "bytes | bytearray") -> None:
        """Append packed canonical int64 rows."""
        count = len(rows) // _ROW.size
        if count > _FEW_ROWS:
            # One transposing copy, then every column's range at once.
            block = np.frombuffer(rows, dtype=np.int64).reshape(-1, 6)
            columns = block.T.copy()
            lows = columns.min(axis=1).tolist()
            highs = columns.max(axis=1).tolist()
            for index, values in enumerate(columns):
                have = self._fit(index, lows[index], highs[index])
                self._data[index].extend(values.astype(have, copy=False))
            self.size += count
            return
        for index, values in enumerate(zip(*_ROW.iter_unpack(rows))):
            # ``array`` refuses a value its type cannot hold.
            try:
                packed = array(_ARRAY_CODES[self.types[index]], values)
            except OverflowError:
                have = self._fit(index, min(values), max(values))
                packed = array(_ARRAY_CODES[have], values)
            self._data[index] += packed
        self.size += count

    def views(self) -> "list[np.ndarray]":
        """The six columns as arrays over the buffers, which they pin:
        drop them before the next append."""
        return [
            np.frombuffer(data, dtype=dtype)
            for data, dtype in zip(self._data, self.types)
        ]


def _narrowed_thread(matrix: np.ndarray) -> "list[np.ndarray]":
    """One thread's (N, 6) int64 rows, checked for unknown kinds, as six
    narrow columns over their own buffers."""
    rows = np.asarray(matrix, dtype=np.int64).reshape(-1, 6)
    check_event_kinds(rows[:, 0])
    buffers = ColumnBuffers()
    buffers.append(rows.T)
    return buffers.views()


@dataclass
class ColumnarTrace:
    """Structure-of-arrays form of a multi-thread trace.

    All six columns are flat, contiguous signed integer arrays of length
    ``num_events``, each of its own width (:meth:`from_events` and
    :meth:`from_thread_matrices` pick the narrowest that holds the
    column; other widths given to the constructor are kept); ``starts``
    has ``num_threads + 1`` int64 entries and thread ``t``'s events
    occupy ``[starts[t], starts[t + 1])``.
    """

    name: str
    thread_ids: np.ndarray
    starts: np.ndarray
    kind: np.ndarray
    addr: np.ndarray
    size: np.ndarray
    gap: np.ndarray
    op: np.ndarray
    ret: np.ndarray

    def __post_init__(self) -> None:
        self.thread_ids = np.asarray(self.thread_ids, dtype=np.int64)
        self.starts = np.ascontiguousarray(self.starts, dtype=np.int64)
        for column in _COLUMNS:
            values = np.asarray(getattr(self, column))
            if values.dtype.kind != "i" or not values.dtype.isnative:
                # The kernel reads native signed integers of any width.
                values = values.astype(np.int64)
            setattr(self, column, np.ascontiguousarray(values))
        if self.thread_ids.size == 0:
            raise TraceError("a trace needs at least one thread")
        if len(set(self.thread_ids.tolist())) != self.thread_ids.size:
            raise TraceError(
                f"duplicate thread ids: {self.thread_ids.tolist()}"
            )
        if self.starts.size != self.thread_ids.size + 1:
            raise TraceError(
                "starts must have num_threads + 1 entries "
                f"(got {self.starts.size} for {self.thread_ids.size} "
                f"threads)"
            )
        total = int(self.starts[-1])
        if int(self.starts[0]) != 0 or np.any(np.diff(self.starts) < 0):
            raise TraceError("starts must be non-decreasing from 0")
        for column in _COLUMNS:
            if getattr(self, column).size != total:
                raise TraceError(
                    f"column {column!r} has {getattr(self, column).size} "
                    f"entries, expected {total}"
                )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def num_threads(self) -> int:
        """Number of thread streams."""
        return int(self.thread_ids.size)

    @property
    def num_events(self) -> int:
        """Total events across all threads."""
        return int(self.starts[-1])

    @property
    def nbytes(self) -> int:
        """Bytes the six event columns hold."""
        return sum(getattr(self, column).nbytes for column in _COLUMNS)

    def thread_slice(self, pos: int) -> slice:
        """Row slice of the thread at position ``pos`` (not thread id)."""
        return slice(int(self.starts[pos]), int(self.starts[pos + 1]))

    def thread_columns(self, pos: int) -> "list[np.ndarray]":
        """The six columns' slices (views) of the thread at ``pos``."""
        rows = self.thread_slice(pos)
        return [getattr(self, column)[rows] for column in _COLUMNS]

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    @classmethod
    def from_events(cls, trace: "Trace") -> "ColumnarTrace":
        """The narrow columns of a :class:`Trace`, which this freezes.

        Each capturing thread's buffers are stacked into the columns and
        freed, one thread at a time, with their pages handed back to the
        OS (:meth:`_stack`), and the thread becomes a read-only view of
        its slice; a thread already frozen is copied from its view and
        left as it is.  :meth:`Trace.columnar` calls this once per trace
        and keeps the result.
        """
        threads = trace.threads

        def freeze(pos: int, col: "ColumnarTrace") -> None:
            if not threads[pos].frozen:
                threads[pos]._freeze(col, pos)

        return cls._stack(
            trace.name,
            [thread.thread_id for thread in threads],
            [thread._column_views() for thread in threads],
            freeze,
        )

    @classmethod
    def from_thread_matrices(
        cls,
        name: str,
        thread_ids: Sequence[int],
        matrices: Iterable[np.ndarray],
    ) -> "ColumnarTrace":
        """Assemble from per-thread (N, 6) matrices (the npz layout),
        each narrowed on its own as capture narrows it.

        A matrix is dropped once narrowed, so matrices read lazily (as
        :func:`~repro.trace.io.load_trace` reads a bundle's members) are
        held one at a time."""
        return cls._stack(
            name, thread_ids, list(map(_narrowed_thread, matrices))
        )

    @classmethod
    def _stack(
        cls,
        name: str,
        thread_ids: Sequence[int],
        parts: "list[Optional[list[np.ndarray]]]",
        copied: "Optional[Callable[[int, ColumnarTrace], None]]" = None,
    ) -> "ColumnarTrace":
        """Copy per-thread narrow columns into thread-major columns.

        ``parts[pos]`` holds thread ``pos``'s six columns, of any signed
        widths; each trace column takes the widest of its threads' types,
        which is the narrowest type holding all of its values when every
        thread's column is narrowest for its own.  ``parts[pos]`` is
        dropped once copied, and ``copied(pos, trace)`` called, so a
        caller that drops its own references frees each thread as it
        goes.  When the thread's columns held at least
        :data:`TRIM_FLOOR` bytes, the heap's free pages then go back to
        the OS: glibc would keep them, and the process would peak at
        every thread's buffers plus the trace's columns.
        """
        starts = np.zeros(len(parts) + 1, dtype=np.int64)
        np.cumsum([len(part[0]) for part in parts], out=starts[1:])
        types = [
            max(
                (part[index].dtype for part in parts),
                key=lambda dtype: dtype.itemsize,
                default=_NARROW_TYPES[0][2],
            )
            for index in range(len(_COLUMNS))
        ]
        col = cls(
            name=name,
            thread_ids=np.asarray(thread_ids, dtype=np.int64),
            starts=starts,
            **{
                column: np.empty(int(starts[-1]), dtype=dtype)
                for column, dtype in zip(_COLUMNS, types)
            },
        )
        targets = [getattr(col, column) for column in _COLUMNS]
        bounds = starts.tolist()
        for pos, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            freed = 0
            for target, values in zip(targets, parts[pos]):
                target[lo:hi] = values
                freed += values.nbytes
            # The loop's last view pins its buffer as well.
            parts[pos] = None
            del values
            if copied is not None:
                copied(pos, col)
            if freed >= TRIM_FLOOR:
                _malloc_trim(0)
        return col

    def thread_matrix(self, pos: int) -> np.ndarray:
        """One thread's events as the canonical (N, 6) int64 matrix.

        The thread's slice of every column, widened back to int64:
        byte-identical to the rows its events were recorded as, which
        :func:`repro.trace.io.save_trace` writes and
        :func:`repro.trace.io.trace_digest` hashes — what keeps digests
        representation-independent.
        """
        return stack_rows(self.thread_columns(pos))

    def __repr__(self) -> str:
        return (
            f"ColumnarTrace(name={self.name!r}, "
            f"threads={self.num_threads}, events={self.num_events})"
        )

