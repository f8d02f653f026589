"""Shared-memory trace transport for the supervised worker pool.

A traced workload is the expensive half of a pool job.  When a worker
dies mid-job the supervisor re-dispatches the job to a surviving
worker; shipping the trace through a ``multiprocessing`` pipe would
pickle megabytes per hand-off, so instead the tracing worker publishes
the event arrays once into a named ``multiprocessing.shared_memory``
segment and every later consumer (the replacement worker, and the
parent when it rehydrates the finished job) maps the same pages.

Segment layout (little-endian)::

    offset  size  field
    0       8     magic  b"RPRSHM01"
    8       4     format version (u32)
    12      4     CRC32 of everything after the header (u32)
    16      8     meta length in bytes (u64)
    24      8     payload length in bytes (u64)
    32      -     meta: UTF-8 JSON {"name", "threads": [[tid, rows]..]}
    32+m    -     payload: per-thread (rows, 6) int64 C-order matrices,
                  concatenated in meta order

The payload encoding is byte-for-byte the matrix form ``save_trace``
writes and :func:`~repro.trace.io.trace_digest` hashes, so a trace
rebuilt from shared memory has the same digest — cache keys cannot
drift depending on which transport carried the trace.

Every attach verifies magic, version, bounds, and the CRC32 stamp;
torn or corrupted segments raise :class:`~repro.common.errors.ShmError`
and the caller falls back to the ``.npz`` spill file written alongside.
All reads copy out of the mapping (``bytes`` slices) before ``close``,
so no exported buffer can outlive the segment.
"""

from __future__ import annotations

import json
import secrets
import struct
import zlib
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.common.errors import ShmError
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import _thread_matrices
from repro.trace.stream import Trace

MAGIC = b"RPRSHM01"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sIIQQ")
HEADER_SIZE = _HEADER.size  # 32
_ROW_BYTES = 6 * 8  # one (kind, addr, size, gap, op, ret) int64 row


@dataclass(frozen=True)
class ShmTraceRef:
    """Picklable handle to one published trace segment."""

    name: str
    size: int


def publish_trace(trace: Trace, prefix: str = "repro") -> ShmTraceRef:
    """Copy ``trace`` into a fresh named segment; returns its handle.

    The segment is left linked (the caller owns unlinking); the local
    mapping is closed before returning so the publishing process holds
    no buffer references.
    """
    pairs = list(_thread_matrices(trace))
    chunks = [matrix.reshape(-1).view(np.uint8) for _, matrix in pairs]
    meta = json.dumps(
        {
            "name": trace.name,
            "threads": [
                [int(tid), int(matrix.shape[0])]
                for (tid, matrix) in pairs
            ],
        },
        separators=(",", ":"),
    ).encode("utf-8")
    payload_len = sum(len(chunk) for chunk in chunks)
    crc = zlib.crc32(meta)
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    size = HEADER_SIZE + len(meta) + payload_len
    segment = None
    for _ in range(16):
        name = f"{prefix}_{secrets.token_hex(6)}"
        try:
            segment = shared_memory.SharedMemory(
                name=name, create=True, size=size
            )
            break
        except FileExistsError:
            continue
    if segment is None:  # pragma: no cover - 16 collisions in a row
        raise ShmError("could not allocate a unique shm segment name")
    try:
        buf = segment.buf
        _HEADER.pack_into(
            buf, 0, MAGIC, FORMAT_VERSION, crc, len(meta), payload_len
        )
        offset = HEADER_SIZE
        buf[offset : offset + len(meta)] = meta
        offset += len(meta)
        for chunk in chunks:
            buf[offset : offset + len(chunk)] = chunk
            offset += len(chunk)
        del buf
    finally:
        segment.close()
    return ShmTraceRef(name=segment.name, size=size)


def attach_trace(ref: ShmTraceRef) -> Trace:
    """Rebuild a :class:`Trace` from a published segment.

    The rows are stacked into the trace's narrow columns and every
    thread is a frozen view of them (:meth:`Trace.from_columnar`);
    nothing is decoded per event.

    Raises :class:`ShmError` when the segment is missing or its
    contents fail the magic/version/bounds/CRC checks — the caller is
    expected to fall back to the npz spill file.
    """
    try:
        segment = shared_memory.SharedMemory(name=ref.name)
    except (FileNotFoundError, OSError, ValueError) as error:
        raise ShmError(
            f"shm segment {ref.name!r} not attachable: {error}"
        ) from error
    try:
        total = segment.size
        if total < HEADER_SIZE:
            raise ShmError(
                f"shm segment {ref.name!r} too small for a header"
            )
        magic, version, crc, meta_len, payload_len = _HEADER.unpack_from(
            segment.buf, 0
        )
        if magic != MAGIC:
            raise ShmError(f"shm segment {ref.name!r} has a bad magic")
        if version != FORMAT_VERSION:
            raise ShmError(
                f"shm segment {ref.name!r} has unsupported version "
                f"{version}"
            )
        end = HEADER_SIZE + meta_len + payload_len
        if end > total:
            raise ShmError(
                f"shm segment {ref.name!r} header lengths exceed the "
                f"mapping ({end} > {total})"
            )
        # Copy out of the mapping before any parsing so no view of
        # segment.buf survives close().
        body = bytes(segment.buf[HEADER_SIZE:end])
    finally:
        segment.close()
    if zlib.crc32(body) != crc:
        raise ShmError(
            f"shm segment {ref.name!r} failed its CRC32 check "
            "(torn write or deliberate corruption)"
        )
    try:
        meta = json.loads(body[:meta_len].decode("utf-8"))
        thread_ids, matrices = [], []
        offset = meta_len
        for tid, rows in meta["threads"]:
            nbytes = int(rows) * _ROW_BYTES
            matrices.append(
                np.frombuffer(
                    body, dtype=np.int64, count=int(rows) * 6, offset=offset
                ).reshape(int(rows), 6)
            )
            thread_ids.append(int(tid))
            offset += nbytes
        if offset != meta_len + payload_len:
            raise ShmError(
                f"shm segment {ref.name!r} payload length mismatch"
            )
        return Trace.from_columnar(
            ColumnarTrace.from_thread_matrices(
                meta["name"], thread_ids, matrices
            )
        )
    except ShmError:
        raise
    except Exception as error:  # defense: CRC passed but shape is off
        raise ShmError(
            f"shm segment {ref.name!r} failed to decode: {error}"
        ) from error


def unlink_segment(name: str) -> bool:
    """Best-effort unlink of a named segment; True when it existed."""
    try:
        segment = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError, ValueError):
        return False
    try:
        segment.close()
        segment.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - racy
        return False
    return True


def corrupt_segment(name: str, rng, nbytes: int = 8) -> bool:
    """Chaos hook: flip ``nbytes`` payload bytes of a live segment.

    Flips bits strictly after the header so the next attach parses far
    enough to fail the CRC check (the fallback path under test) rather
    than dying on the magic.  Returns False when the segment is gone or
    too small to corrupt.
    """
    try:
        segment = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError, ValueError):
        return False
    try:
        total = segment.size
        if total <= HEADER_SIZE:
            return False
        for _ in range(max(1, nbytes)):
            index = rng.randrange(HEADER_SIZE, total)
            segment.buf[index] = segment.buf[index] ^ 0xFF
    finally:
        segment.close()
    return True
