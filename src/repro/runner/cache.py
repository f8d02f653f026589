"""Persistent, content-addressed result cache + checkpoint journal.

Layout under the cache root (default ``.repro_cache/``)::

    .repro_cache/
        objects/<sha256>.json     one SimResult payload per key
        objects/quarantine/       corrupt entries moved by verify()
        journal.jsonl             completed-spec checkpoint journal
        VERSION                   cache layout version marker

Keys are computed by :mod:`repro.runner.fingerprint` from the trace
digest, the config fingerprint, and the code-version salt, so a key can
never refer to two different results — writes need no locking beyond
atomic rename, and concurrent runner workers sharing a cache directory
are safe.  Corrupt or unreadable entries are treated as misses and
overwritten; :meth:`ResultCache.verify` additionally quarantines them
so they can be inspected instead of silently regenerated forever.

The :class:`CheckpointJournal` is an append-only record of completed
:class:`~repro.runner.spec.ExperimentSpec` keys; ``repro run --resume``
reads it to skip work a killed run already finished.  It is one of
three consumers of :class:`JsonlJournal`, the torn-write tolerant
JSON-lines format shared with the service's drain checkpoint and the
fleet's worker roster.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import IO, Callable, Iterable

#: Bumped when the on-disk layout (not the payload schema) changes.
CACHE_LAYOUT_VERSION = 1


def _write_atomically(path: Path, write: Callable[[IO[str]], object]) -> None:
    """Run ``write`` on a temp file beside ``path``, then rename it in.

    Readers (including concurrent workers) never observe a partial
    file; on any failure the temp file is removed and the error raised.
    """
    fd, tmp_path = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            write(handle)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


class ResultCache:
    """A directory of JSON payloads addressed by content hash."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self._objects = self.root / "objects"
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Object access
    # ------------------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self._objects / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """Payload for ``key``, or None on miss/corruption."""
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            # ValueError covers JSONDecodeError *and* UnicodeDecodeError:
            # a bit-flipped entry whose bytes are no longer UTF-8 must
            # read as a miss, not crash the worker mid-grid.
            self.misses += 1
            return None
        self.hits += 1
        try:
            # Refresh mtime so LRU pruning sees the hit as recent use.
            os.utime(path)
        except OSError:
            pass
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Atomically store ``payload`` under ``key``.

        Writes to a temp file in the same directory and renames into
        place, so readers (including concurrent workers) never observe
        a partial object.
        """
        self._objects.mkdir(parents=True, exist_ok=True)
        version_marker = self.root / "VERSION"
        if not version_marker.exists():
            version_marker.write_text(f"{CACHE_LAYOUT_VERSION}\n")
        # One json.dumps call runs the C encoder; json.dump streams
        # through the pure-Python one, about 4x slower on a result.
        text = json.dumps(payload)
        _write_atomically(self._path(key), lambda handle: handle.write(text))

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    # ------------------------------------------------------------------
    # Maintenance (`repro cache`)
    # ------------------------------------------------------------------

    def entry_count(self) -> int:
        """Number of cached objects."""
        if not self._objects.is_dir():
            return 0
        return sum(1 for p in self._objects.glob("*.json"))

    def size_bytes(self) -> int:
        """Total bytes of cached objects."""
        if not self._objects.is_dir():
            return 0
        return sum(p.stat().st_size for p in self._objects.glob("*.json"))

    def clear(self) -> int:
        """Delete every cached object; returns how many were removed.

        The checkpoint journal is cleared too — its entries promise
        "this spec's results are available", which deleting the objects
        breaks.
        """
        removed = 0
        if self._objects.is_dir():
            for path in self._objects.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        CheckpointJournal(self.root).clear()
        return removed

    def prune(self, max_bytes: int) -> dict:
        """Evict least-recently-used objects until the cache fits.

        Objects are ranked by mtime, which :meth:`get` refreshes on
        every hit, so eviction order approximates true LRU.  Entries
        are removed oldest-first until the total size is at most
        ``max_bytes`` (0 empties the cache).  The checkpoint journal is
        left alone — a journal entry only promises the *spec* completed
        once; its cached objects regenerating later is just a cache
        miss, not a correctness problem.  A long-lived ``repro serve``
        process calls this on a timer so it can never fill the disk.

        Returns ``{"removed", "freed_bytes", "kept", "size_bytes"}``.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries: "list[tuple[float, int, Path]]" = []
        if self._objects.is_dir():
            for path in self._objects.glob("*.json"):
                try:
                    stat = path.stat()
                except OSError:
                    continue  # raced with a concurrent clear/prune
                entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()
        total = sum(size for _, size, _ in entries)
        removed = 0
        freed = 0
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            freed += size
            removed += 1
        return {
            "removed": removed,
            "freed_bytes": freed,
            "kept": len(entries) - removed,
            "size_bytes": total,
        }

    def verify(self) -> dict:
        """Scan every object; quarantine corrupt or stale entries.

        An entry is healthy when it parses as JSON *and* rebuilds into
        a :class:`~repro.sim.system.SimResult` (which checks the payload
        schema version).  Unhealthy entries are moved to
        ``objects/quarantine/`` — unlike the silent miss-at-read-time
        path, this surfaces corruption and keeps the bad bytes around
        for inspection.  Returns ``{"checked", "ok", "quarantined",
        "quarantine_dir"}``.
        """
        from repro.common.errors import ReproError
        from repro.sim.system import SimResult

        quarantine = self._objects / "quarantine"
        checked = ok = moved = 0
        if self._objects.is_dir():
            for path in sorted(self._objects.glob("*.json")):
                checked += 1
                try:
                    with open(path, encoding="utf-8") as handle:
                        SimResult.from_dict(json.load(handle))
                except (
                    OSError,
                    json.JSONDecodeError,
                    ReproError,
                    KeyError,
                    TypeError,
                    ValueError,
                ):
                    quarantine.mkdir(parents=True, exist_ok=True)
                    os.replace(path, quarantine / path.name)
                    moved += 1
                else:
                    ok += 1
        return {
            "checked": checked,
            "ok": ok,
            "quarantined": moved,
            "quarantine_dir": str(quarantine),
        }

    def info(self) -> dict:
        """Summary mapping for `repro cache --json`."""
        return {
            "root": str(self.root),
            "entries": self.entry_count(),
            "size_bytes": self.size_bytes(),
            "layout_version": CACHE_LAYOUT_VERSION,
        }

    def __repr__(self) -> str:
        return f"ResultCache(root={str(self.root)!r})"


class JsonlJournal:
    """A torn-write tolerant JSON-lines file: the one journal format.

    The runner's resume checkpoint (:class:`CheckpointJournal`), the
    service's drain checkpoint and the fleet's worker roster all sit on
    this.  :meth:`append` adds one record as one line in a single
    append-mode write, so a kill mid-write leaves at most one torn
    final line; the next append ends that line first, so its own record
    stays intact.  :meth:`records` skips torn lines, and any other line
    that is not a JSON object, and returns every intact record in file
    order.  :meth:`replace` swaps in a whole record list atomically
    (temp file and rename; an empty list removes the file) and
    :meth:`clear` removes the file.  Write errors propagate: each
    consumer decides whether its journal is worth failing for.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)

    def append(self, record: dict) -> None:
        """Add one record as one line."""
        line = json.dumps(record).encode("utf-8") + b"\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a+b") as handle:
            if handle.seek(0, os.SEEK_END):
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    line = b"\n" + line  # end a torn last line first
            handle.write(line)

    def records(self) -> "list[dict]":
        """Every intact record; a missing file reads as none."""
        try:
            data = self.path.read_bytes()
        except OSError:
            return []
        records = []
        for line in data.splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue  # blank, or torn by a killed writer
            if isinstance(record, dict):
                records.append(record)
        return records

    def replace(self, records: "Iterable[dict]") -> None:
        """Atomically make ``records`` the whole journal."""
        text = "".join(json.dumps(record) + "\n" for record in records)
        if not text:
            self.clear()
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        _write_atomically(self.path, lambda handle: handle.write(text))

    def clear(self) -> None:
        """Remove the journal (a no-op when it does not exist)."""
        try:
            self.path.unlink()
        except OSError:
            pass

    def __repr__(self) -> str:
        return f"{type(self).__name__}(path={str(self.path)!r})"


class CheckpointJournal(JsonlJournal):
    """Completed-spec journal under the cache root (``--resume``).

    One record per completed spec: ``{"spec": <spec_key>, "job_id":
    <human id>}``.  A torn final record is skipped and every intact one
    still counts, which is exactly the resume semantics we want.
    """

    FILENAME = "journal.jsonl"

    def __init__(self, root: str | os.PathLike):
        super().__init__(Path(root) / self.FILENAME)

    def completed(self) -> "set[str]":
        """Spec keys recorded as completed."""
        return {
            record["spec"]
            for record in self.records()
            if isinstance(record.get("spec"), str)
        }

    def mark(self, spec_key: str, job_id: str = "") -> None:
        """Record one completed spec (idempotent across runs)."""
        self.append({"spec": spec_key, "job_id": job_id})
