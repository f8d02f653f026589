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

The canonical row is six int64s.  A
:class:`~repro.trace.stream.ThreadTrace` packs its events into these
rows as they are captured, the ``.npz`` format (:mod:`repro.trace.io`)
stores them, and :func:`~repro.trace.io.trace_digest` hashes them.  In memory each
column keeps the narrowest signed integer type (int8, int16, int32 or
int64) that holds its values, chosen from the column's range when the
rows are stacked; :meth:`ColumnarTrace.thread_matrix` widens a thread
back to its int64 rows.  So conversion is lossless both ways
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
:meth:`ColumnarTrace.from_thread_matrices` or
:meth:`ThreadTrace.append_block` are checked for unknown event kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

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

#: Rows transposed at a time while stacking: a (6, _STACK_CHUNK) int64
#: scratch block (384 KB) stays in cache between its write and its reads.
_STACK_CHUNK = 8192


def _narrowest_type(low: int, high: int) -> np.dtype:
    """The narrowest signed integer type holding every value in
    ``[low, high]`` (int64 for anything an int64 column holds)."""
    for type_min, type_max, dtype in _NARROW_TYPES:
        if type_min <= low and high <= type_max:
            return dtype
    return _NARROW_TYPES[-1][2]


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
    # The known kinds are the contiguous codes EV_LOAD..EV_BARRIER.
    if not kinds.size or (
        kinds.min() >= EV_LOAD and kinds.max() <= EV_BARRIER
    ):
        return
    bad = int(kinds[np.argmax((kinds < EV_LOAD) | (kinds > EV_BARRIER))])
    raise TraceError(f"unknown event kind {bad} in trace file")


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

    def iter_threads(self) -> Iterator[tuple[int, slice]]:
        """Yield ``(thread_id, row_slice)`` in thread order."""
        for pos in range(self.num_threads):
            yield int(self.thread_ids[pos]), self.thread_slice(pos)

    # ------------------------------------------------------------------
    # Derived per-event arrays (used by the vectorized passes)
    # ------------------------------------------------------------------

    def event_thread_pos(self) -> np.ndarray:
        """Thread *position* (0..T-1) of every event, thread-major."""
        counts = np.diff(self.starts)
        return np.repeat(
            np.arange(self.num_threads, dtype=np.int64), counts
        )

    def event_index_in_thread(self) -> np.ndarray:
        """Index of every event within its own thread's stream."""
        pos = self.event_thread_pos()
        return (
            np.arange(self.num_events, dtype=np.int64) - self.starts[pos]
        )

    def epoch_ids(self) -> np.ndarray:
        """Barrier-epoch index of every event within its thread.

        Epoch ``k`` spans the events after a thread's ``k``-th barrier
        (and before its ``k+1``-th); barrier events themselves carry the
        index of the epoch they close, mirroring the legacy race
        detector's ``_split_epochs`` segmentation.
        """
        out = np.empty(self.num_events, dtype=np.int64)
        for _tid, rows in self.iter_threads():
            is_barrier = self.kind[rows] == EV_BARRIER
            closed = np.cumsum(is_barrier)
            out[rows] = closed - is_barrier
        return out

    def barrier_sequences(self) -> list[np.ndarray]:
        """Per-thread barrier id arrays, in thread order."""
        sequences = []
        for _tid, rows in self.iter_threads():
            mask = self.kind[rows] == EV_BARRIER
            sequences.append(self.size[rows][mask])
        return sequences

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    @classmethod
    def from_events(cls, trace: "Trace") -> "ColumnarTrace":
        """Columnar form of a :class:`Trace`: its threads' rows, stacked
        into narrow columns."""
        threads = trace.threads
        return cls._stack(
            trace.name,
            [thread.thread_id for thread in threads],
            [thread.rows() for thread in threads],
        )

    @classmethod
    def from_thread_matrices(
        cls,
        name: str,
        thread_ids: Sequence[int],
        matrices: Sequence[np.ndarray],
    ) -> "ColumnarTrace":
        """Assemble from per-thread (N, 6) matrices (the npz layout)."""
        mats = [
            np.asarray(m, dtype=np.int64).reshape(-1, 6) for m in matrices
        ]
        for matrix in mats:
            check_event_kinds(matrix[:, 0])
        return cls._stack(name, thread_ids, mats)

    @classmethod
    def _stack(
        cls,
        name: str,
        thread_ids: Sequence[int],
        matrices: Sequence[np.ndarray],
    ) -> "ColumnarTrace":
        """Copy per-thread (N, 6) int64 rows into narrow thread-major
        columns.

        Two passes over the rows, each transposing one chunk of a thread
        at a time into a small scratch block: the first takes every
        column's min and max, which fix the column types, and the second
        casts into the narrow columns.  Transposed chunks read as
        contiguous memory; gathering each column straight out of the
        strided rows took more than twice as long.
        """
        starts = np.zeros(len(matrices) + 1, dtype=np.int64)
        np.cumsum([m.shape[0] for m in matrices], out=starts[1:])
        width = len(_COLUMNS)
        scratch = np.empty((width, _STACK_CHUNK), dtype=np.int64)

        def chunks():
            for matrix in matrices:
                for lo in range(0, matrix.shape[0], _STACK_CHUNK):
                    part = matrix[lo : lo + _STACK_CHUNK]
                    block = scratch[:, : part.shape[0]]
                    block[...] = part.T
                    yield block

        # An empty range (no events) leaves low > high: int8 columns.
        low = np.full(width, np.iinfo(np.int64).max)
        high = np.full(width, np.iinfo(np.int64).min)
        for block in chunks():
            np.minimum(low, block.min(axis=1), out=low)
            np.maximum(high, block.max(axis=1), out=high)
        columns = [
            np.empty(int(starts[-1]), dtype=_narrowest_type(lo, hi))
            for lo, hi in zip(low.tolist(), high.tolist())
        ]
        at = 0
        for block in chunks():
            end = at + block.shape[1]
            for column, values in zip(columns, block):
                column[at:end] = values
            at = end
        return cls(
            name=name,
            thread_ids=np.asarray(thread_ids, dtype=np.int64),
            starts=starts,
            **dict(zip(_COLUMNS, columns)),
        )

    def thread_matrix(self, pos: int) -> np.ndarray:
        """One thread's events as the canonical (N, 6) int64 matrix.

        The thread's slice of every column, widened back to int64:
        byte-identical to the rows a
        :class:`~repro.trace.stream.ThreadTrace` captures, which
        :func:`repro.trace.io.save_trace` writes and
        :func:`repro.trace.io.trace_digest` hashes — what keeps digests
        representation-independent.
        """
        rows = self.thread_slice(pos)
        matrix = np.empty((rows.stop - rows.start, 6), dtype=np.int64)
        for index, column in enumerate(_COLUMNS):
            matrix[:, index] = getattr(self, column)[rows]
        return matrix

    def __repr__(self) -> str:
        return (
            f"ColumnarTrace(name={self.name!r}, "
            f"threads={self.num_threads}, events={self.num_events})"
        )

