"""Trace serialization.

Phase-1 trace generation (functional workload execution) is the
expensive half of the pipeline for large graphs; saving traces lets a
user trace once and replay under many system configurations in later
processes (``repro trace -o``, then ``repro simulate``).  Traces are
stored as compressed ``.npz`` bundles with one column-oriented array
set per thread.  The worker pool writes no files: its workers send a
frozen trace, pickled as its narrow columns, over their pipe.

Event columns: ``kind``, ``addr``, ``size`` (barrier id for barrier
events), ``gap``, ``op`` (-1 when not an atomic), ``ret`` (0/1).

A thread's matrix is its events as canonical int64 rows, widened from
its narrow columns: saving holds one thread's rows at a time, and
hashing one scratch block of them.  The layout is shared with the columnar
structure-of-arrays form (:class:`~repro.trace.columnar.ColumnarTrace`):
:func:`save_trace` accepts both forms, and :func:`trace_digest` hashes
both to the same value — so cache keys and spec_keys never depend on
which form produced the trace.  A file loads as a
:class:`~repro.trace.stream.Trace` whose threads are frozen views of its
columns.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import zipfile
import zlib
from typing import Iterator, Union

import numpy as np

from repro.common.errors import TraceError
from repro.trace.columnar import ColumnarTrace, stack_rows
from repro.trace.stream import Trace

_FORMAT_VERSION = 1

AnyTrace = Union[Trace, ColumnarTrace]


#: Rows widened at a time while hashing: the ``(_DIGEST_ROWS, 6)`` int64
#: scratch block (384 KiB) stays in cache from its write to the hash.
_DIGEST_ROWS = 8192


def _thread_columns(
    trace: AnyTrace,
) -> "Iterator[tuple[int, list[np.ndarray]]]":
    """Per-thread (id, six narrow columns) pairs for either form, in
    thread order; a capturing thread's are views of its buffers."""
    if isinstance(trace, ColumnarTrace):
        for pos, tid in enumerate(trace.thread_ids.tolist()):
            yield int(tid), trace.thread_columns(pos)
        return
    for thread in trace.threads:
        yield thread.thread_id, thread._column_views()


def trace_digest(trace: AnyTrace) -> str:
    """Stable content hash of a trace (sha256 hex digest).

    Hashes the canonical (N, 6) int64 rows, widened from each thread's
    narrow columns a scratch block at a time, so the digest identifies
    the trace *content* independently of how it was produced (fresh
    execution, loaded from disk, or columnar form).  The experiment
    runner keys its on-disk result cache on this, and the strict
    pre-flight uses it to skip re-linting an already-clean trace.
    """
    digest = hashlib.sha256()
    digest.update(str(trace.num_threads).encode())
    scratch = np.empty((_DIGEST_ROWS, 6), dtype=np.int64)
    for thread_id, columns in _thread_columns(trace):
        digest.update(str(thread_id).encode())
        count = len(columns[0])
        for lo in range(0, count, _DIGEST_ROWS):
            hi = lo + _DIGEST_ROWS
            digest.update(
                stack_rows([values[lo:hi] for values in columns], scratch)
            )
    return digest.hexdigest()


def save_trace(trace: AnyTrace, path: str | os.PathLike) -> None:
    """Write a trace (or its columnar form) to a compressed ``.npz``
    bundle, widening one thread's rows at a time.

    The bundle is the one ``np.savez_compressed`` writes, member by
    member, and like it this adds ``.npz`` to a path without it.
    """
    file = os.fspath(path)
    if not file.endswith(".npz"):
        file += ".npz"
    members = {
        "version": np.asarray([_FORMAT_VERSION]),
        "name": np.asarray([trace.name]),
        "thread_ids": np.asarray(
            [t.thread_id for t in trace.threads]
            if isinstance(trace, Trace)
            else trace.thread_ids,
            dtype=np.int64,
        ),
    }
    with zipfile.ZipFile(
        file, mode="w", compression=zipfile.ZIP_DEFLATED, allowZip64=True
    ) as bundle:
        threads = (
            (f"thread_{tid}", stack_rows(columns))
            for tid, columns in _thread_columns(trace)
        )
        for key, array in itertools.chain(members.items(), threads):
            with bundle.open(f"{key}.npy", mode="w", force_zip64=True) as out:
                np.lib.format.write_array(out, array, allow_pickle=False)


def _read_columns(path: str | os.PathLike) -> ColumnarTrace:
    """Load and version-check an ``.npz`` bundle into narrow columns.

    Each thread's member is read and narrowed in turn, so the int64
    rows of one thread at a time are in memory beside the narrowed
    ones.  Normalizes the grab-bag of load-time failures (truncated
    zip, missing member, corrupt deflate stream, non-npz bytes) to
    :class:`TraceError`, and prefixes the path to any other
    :class:`TraceError` (an unknown event kind), so callers have one
    failure mode — and the CLI one exit code (2).
    """
    try:
        with np.load(path, allow_pickle=False) as bundle:
            version = int(bundle["version"][0])
            if version != _FORMAT_VERSION:
                raise TraceError(
                    f"unsupported trace format version {version} "
                    f"(expected {_FORMAT_VERSION})"
                )
            thread_ids = bundle["thread_ids"].tolist()
            return ColumnarTrace.from_thread_matrices(
                str(bundle["name"][0]),
                thread_ids,
                (bundle[f"thread_{tid}"] for tid in thread_ids),
            )
    except FileNotFoundError:
        raise
    except TraceError as error:
        raise TraceError(f"{os.fspath(path)}: {error}") from None
    except (
        OSError,
        ValueError,
        KeyError,
        EOFError,
        zipfile.BadZipFile,
        zlib.error,
    ) as error:
        # np.load raises a grab-bag depending on *how* the file is bad
        # (truncated zip, missing member, non-npz bytes, a member whose
        # deflate stream is corrupt); normalize to TraceError so
        # callers have one failure mode, and keep the path — np's own
        # messages often omit it.
        raise TraceError(
            f"{os.fspath(path)}: not a readable trace bundle ({error})"
        ) from error


def load_trace(path: str | os.PathLike, validate: bool = True) -> Trace:
    """Read a trace previously written by :func:`save_trace`.

    Each thread's rows are narrowed as its member is read, the narrow
    columns are stacked, and every thread is a frozen view of them
    (:meth:`Trace.from_columnar`); nothing is decoded until a caller
    asks for event tuples.  Unknown event kinds raise
    :class:`TraceError`.  ``validate=False`` skips the fail-fast
    barrier check so analysis tools (``repro lint``) can load a
    malformed trace and report *what* is wrong instead of dying on the
    first inconsistency.
    """
    trace = Trace.from_columnar(_read_columns(path))
    if validate:
        trace.validate_barriers()
    return trace

