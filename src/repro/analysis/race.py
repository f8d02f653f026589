"""Barrier-epoch data-race detection with lockset refinement.

The paper's workloads are bulk-synchronous: barriers split each
thread's stream into *epochs*, and epoch ``k`` of every thread runs
concurrently with epoch ``k`` of every other thread.  The detector is
a lightweight vector-clock-at-epoch scheme — the epoch index *is* the
clock — refined with an Eraser-style lockset so the dynamic-graph
workloads' spinlock-protected critical sections do not flood the
report:

- A CAS atomic to a word that the *same thread* later plain-stores in
  the same epoch is recognized as a spinlock acquire/release pair; the
  word becomes a *lock word*, its accesses are synchronization (not
  data), and the set of locks held is tracked per thread.
- A non-atomic store conflicts with another thread's access to the
  same 8-byte bucket in the same epoch only when the two accesses
  share no held lock (``RACE001``).
- A store/store or store/atomic conflict is an ERROR; a store/load
  conflict with a single writing thread is downgraded to WARNING —
  that is the owner-writes / chaotic-read idiom asynchronous graph
  algorithms (e.g. Gibbs sweeps) use deliberately.

Single-threaded traces are race-free by construction and never
produce findings.
"""

from __future__ import annotations

from repro.trace.events import (
    EV_ATOMIC,
    EV_BARRIER,
    EV_LOAD,
    EV_STORE,
    AtomicOp,
)
from repro.trace.stream import Trace
from repro.analysis.findings import AnalysisReport, Severity
from repro.analysis.rules import make_finding

#: log2 of the conflict-detection granularity (8-byte words).
_BUCKET_SHIFT = 3

#: The last byte address an access may reach.
_I64_MAX = (1 << 63) - 1

#: Cap on reported races; a broken workload races on every vertex.
MAX_RACE_FINDINGS = 100


class _Access:
    """First access of one class by one thread to one bucket."""

    __slots__ = ("index", "lockset")

    def __init__(self, index: int, lockset: frozenset):
        self.index = index
        self.lockset = lockset

    def merge(self, lockset: frozenset) -> None:
        # Eraser candidate set: a location is protected only by locks
        # held on *every* access, so locksets intersect across accesses.
        self.lockset = self.lockset & lockset


def _split_epochs(thread) -> list[list[tuple[int, tuple]]]:
    """Split one thread's events into per-epoch ``(index, event)`` lists."""
    epochs: list[list[tuple[int, tuple]]] = [[]]
    for index, event in enumerate(thread.event_tuples()):
        if event[0] == EV_BARRIER:
            epochs.append([])
        else:
            epochs[-1].append((index, event))
    return epochs


def _buckets(addr: int, size: int) -> range:
    """8-byte buckets overlapped by ``[addr, addr + size)``."""
    return range(addr >> _BUCKET_SHIFT, (addr + size - 1 >> _BUCKET_SHIFT) + 1)


def _well_formed(event: tuple) -> bool:
    """An access whose bytes all lie in ``[0, 2**63)``, the addresses
    an int64 column holds (as the vectorized pass's ``well`` mask)."""
    addr, size = event[1], event[2]
    return addr >= 0 and size > 0 and addr + size - 1 <= _I64_MAX


def _lock_buckets(epoch_events: list[list[tuple[int, tuple]]]) -> set[int]:
    """Buckets used as spinlock words in this epoch.

    A bucket counts as a lock word when some thread CASes it and later
    plain-stores it (acquire then release) within the epoch.
    """
    locks: set[int] = set()
    for events in epoch_events:
        cas_seen: set[int] = set()
        for _index, event in events:
            if not _well_formed(event):
                continue
            kind, addr, size = event[0], event[1], event[2]
            if kind == EV_ATOMIC:
                if event[4] == AtomicOp.CAS:
                    cas_seen.update(_buckets(addr, size))
            elif kind == EV_STORE:
                for bucket in _buckets(addr, size):
                    if bucket in cas_seen:
                        locks.add(bucket)
    return locks


def detect_races(
    trace: Trace, max_findings: int = MAX_RACE_FINDINGS
) -> AnalysisReport:
    """Report same-epoch store conflicts in ``trace``."""
    report = AnalysisReport(subject=trace.name or "trace")
    if trace.num_threads < 2:
        return report

    per_thread = [_split_epochs(thread) for thread in trace.threads]
    tids = [thread.thread_id for thread in trace.threads]
    num_epochs = max(len(epochs) for epochs in per_thread)
    suppressed = 0

    for epoch in range(num_epochs):
        epoch_events = [
            epochs[epoch] if epoch < len(epochs) else []
            for epochs in per_thread
        ]
        lock_words = _lock_buckets(epoch_events)

        # bucket -> {tid: _Access} per access class.
        writers: dict[int, dict[int, _Access]] = {}
        readers: dict[int, dict[int, _Access]] = {}
        atomics: dict[int, dict[int, _Access]] = {}
        for tid, events in zip(tids, epoch_events):
            held: set[int] = set()
            for index, event in events:
                if not _well_formed(event):
                    continue  # malformed; the linter reports these
                kind, addr, size = event[0], event[1], event[2]
                buckets = _buckets(addr, size)
                if kind == EV_ATOMIC:
                    acquired = False
                    for bucket in buckets:
                        if bucket in lock_words:
                            held.add(bucket)
                            acquired = True
                    if acquired:
                        continue
                    target = atomics
                elif kind == EV_STORE:
                    released = False
                    for bucket in buckets:
                        if bucket in lock_words:
                            held.discard(bucket)
                            released = True
                    if released:
                        continue
                    target = writers
                elif kind == EV_LOAD:
                    if any(bucket in lock_words for bucket in buckets):
                        continue  # spin-read of a lock word
                    target = readers
                else:
                    continue
                lockset = frozenset(held)
                for bucket in buckets:
                    access = target.setdefault(bucket, {}).get(tid)
                    if access is None:
                        target[bucket][tid] = _Access(index, lockset)
                    else:
                        access.merge(lockset)

        for bucket, bucket_writers in writers.items():
            store_tid, store = min(
                bucket_writers.items(), key=lambda item: item[1].index
            )
            # (kind, tid, index) conflicts, most severe kind first.
            conflicts: list[tuple[int, str, int, int]] = []
            for rank, kind_name, accesses in (
                (0, "store", bucket_writers),
                (0, "atomic", atomics.get(bucket, {})),
                (1, "load", readers.get(bucket, {})),
            ):
                for tid, access in accesses.items():
                    if tid == store_tid:
                        continue
                    if store.lockset & access.lockset:
                        continue  # both hold a common lock
                    conflicts.append((rank, kind_name, tid, access.index))
            if not conflicts:
                continue
            conflicts.sort()
            rank, other_kind, other_tid, other_index = conflicts[0]
            severity = None  # rule default (ERROR)
            note = ""
            if rank == 1 and len(bucket_writers) == 1:
                # Owner-written word with concurrent readers: the
                # chaotic-read idiom — report, but do not gate CI on it.
                severity = Severity.WARNING
                note = " (single-writer/chaotic-read pattern)"
            if len(report) >= max_findings:
                suppressed += 1
                continue
            report.add(
                make_finding(
                    "RACE001",
                    f"epoch {epoch}: non-atomic store by thread "
                    f"{store_tid} at {bucket << _BUCKET_SHIFT:#x} "
                    f"conflicts with {other_kind} by thread {other_tid} "
                    f"(event #{other_index}){note}",
                    thread_id=store_tid,
                    event_index=store.index,
                    fix_hint="make the update atomic or separate the "
                    "accesses with a barrier",
                    severity=severity,
                )
            )

    if suppressed:
        report.add(
            make_finding(
                "RACE001",
                f"{suppressed} further race findings suppressed "
                f"(cap {max_findings})",
                severity=Severity.INFO,
            )
        )
    return report
