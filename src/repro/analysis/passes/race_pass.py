"""Vectorized barrier-epoch race detection over the columnar IR.

Reimplements :func:`repro.analysis.race.detect_races` with C row sweeps
and array operations, producing **finding-for-finding identical**
reports (same conflicts, same representative picks, same ordering, same
cap and suppression accounting) — enforced by the equivalence tests.

Every stage that reads every event runs in C (``repro/sim/_rows.c``,
built by :mod:`repro.sim._cbuild`), walking the frozen columns in place
thread by thread, each event with its barrier epoch within its thread.
Only the events that can matter are gathered, so the pass's extra
memory is the stores' cells and the events the writer filter keeps,
whatever the trace length:

- *The scan* (``graphpim_race_scan``) counts the well-formed plain
  stores, and takes the maxima the key layout needs (the last bucket
  and the epoch of any well-formed event) and the number of cells the
  stores cover.  A trace with no store (TC) is clean at once.
- ``graphpim_race_cells`` writes each store's packed cells, which
  numpy reduces to the sorted written set.
- *The sweep* (``graphpim_race_keep``) applies the writer filter
  (step 0) through a hash set of the written cells and keeps the
  surviving rows with their epochs and buckets.

Without the C library :func:`detect_races_columnar` returns None, and
the PassManager runs the per-event detector.

0. *Writer filter* — only a (bucket, epoch) cell with a plain-store
   writer can be reported, so the detector builds the sorted set of
   packed ``epoch << bbits | bucket`` keys the well-formed stores
   touch (each store expanded over its bucket range) and keeps only
   the events whose own bucket range meets that set in their epoch
   (a probe of each event's cells).  The filter is exact: every event
   that registers in a reportable cell touches a writer cell, and
   every lock word is a writer cell too (its release is a plain store
   in the same epoch), so a dropped event can neither be reported nor
   acquire, release or spin on a lock.  Kept events
   stay in replay order, so every ordering below is unchanged.  The
   Figure 7 workloads update properties with atomics, so plain stores
   are a few percent of their accesses.

Everything after the filter runs on the kept events alone.  The core
trick is a *packed sort key*: every kept access is expanded to the
8-byte buckets it overlaps (``np.repeat`` + a cumsum offset), and each
(event, bucket) row becomes one int64

    key = bucket << (ebits + tbits + 2) | epoch << (tbits + 2)
        | thread << 2 | class          # class: store=0, load=1, atomic=2

so a single ``np.sort`` groups rows by (bucket, epoch, thread, class)
and every question the detector asks becomes shift/mask arithmetic on
the sorted array:

1. *Lock-word detection* — a bucket is a spinlock word in an epoch when
   one thread CASes it and later plain-stores it: a min/max reduction
   over the (bucket, epoch, thread) prefix of the key, restricted to
   CAS rows and the stores sharing their prefix.
2. *Synchronization skip* — events touching a lock word are dropped
   from registration (``logical_or.reduceat`` per event segment);
   their atomic/store rows on the lock words become the acquire/release
   action timeline.
3. *Candidate selection* — a (bucket, epoch) can only race when it has
   a plain-store writer and ≥ 2 distinct threads; both are reductions
   (``logical_or.reduceat`` and ``add.reduceat``) over the runs of the
   sorted keys.  Clean traces short-circuit here without materializing
   any per-group structure.
4. *Lockset refinement* — for candidate groups only, the Eraser
   candidate-set intersection is computed by counting, per lock word,
   how many of the group's event positions fall inside that word's
   held intervals (searchsorted over the per-(thread, epoch) action
   timeline) — no per-event replay.
5. *Conflict evaluation* — a small Python loop over candidates
   reproduces the legacy representative-selection, severity-downgrade,
   cap and suppression logic exactly, iterating epochs in order and
   buckets in the legacy dict-insertion order (first registered writer
   access, recovered from expansion positions).

Guards: traces whose packed key would overflow 62 bits (addresses
≳ 2^40 past the region tag, or pathological epoch/thread counts;
sized over every well-formed event, ahead of the filter) or whose
stores or kept events expand to more than ``MAX_EXPANDED_ROWS`` bucket
rows return ``None`` and the PassManager falls back to the legacy
detector — correctness never depends on the fast path applying.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.trace.columnar import ColumnarTrace
from repro.trace.events import EV_ATOMIC, EV_LOAD, EV_STORE, AtomicOp
from repro.analysis.findings import AnalysisReport, Severity
from repro.analysis.race import _BUCKET_SHIFT, MAX_RACE_FINDINGS, detect_races
from repro.analysis.rules import make_finding
from repro.analysis.passes.base import (
    AnalysisPass,
    PassContext,
    PassResult,
    in_sorted_set,
    locate_rows,
    register_pass,
    run_starts,
    unique_sorted,
)

_CAS = int(AtomicOp.CAS)
_I64_MAX = np.iinfo(np.int64).max

#: Bucket-expansion guard: beyond this many (event, bucket) rows of the
#: events kept by the writer filter, the vectorized path would thrash
#: memory; fall back to the legacy walk.
MAX_EXPANDED_ROWS = 16_000_000

#: Access classes, packed into the low 2 key bits.  The codes are
#: chosen so ``(key & 3) == 0`` is "plain-store writer".
_CLS_WRITER, _CLS_READER, _CLS_ATOMIC = 0, 1, 2


def _expand(base: np.ndarray, counts: np.ndarray, shift: int) -> np.ndarray:
    """``base[i] + (j << shift)`` for ``j < counts[i]``, in row order.

    Walks each row's bucket range with one ``np.repeat`` plus a cumsum
    of per-segment increments (``counts`` are all >= 1).
    """
    out = np.repeat(base, counts)
    if out.size != base.size:
        intra = np.ones(out.size, dtype=np.int64)
        intra[0] = 0
        intra[np.cumsum(counts[:-1])] = 1 - counts[:-1]
        np.cumsum(intra, out=intra)
        intra <<= shift
        out += intra
    return out


class _LocksetTables:
    """Per-(thread, epoch) acquire/release timelines, built lazily.

    ``lockset_for(t, e, positions)`` returns the set of lock words held
    by thread ``t`` at *every* position in ``positions`` (the Eraser
    candidate-set intersection for one access group).
    """

    def __init__(
        self,
        t_of: np.ndarray,
        e_of: np.ndarray,
        bucket_of: np.ndarray,
        idx_of: np.ndarray,
        acquire: np.ndarray,
        num_epochs: int,
    ):
        te = t_of * num_epochs + e_of
        order = np.argsort(te, kind="stable")
        self._te_sorted = te[order]
        self._bucket = bucket_of[order]
        self._idx = idx_of[order]
        self._acquire = acquire[order]
        self._starts = run_starts(self._te_sorted)
        self._keys = self._te_sorted[self._starts]
        self._ends = np.concatenate(
            (self._starts[1:], [self._te_sorted.size])
        )
        self._num_epochs = num_epochs
        self._cache: dict = {}

    def _table(self, key: int):
        if key in self._cache:
            return self._cache[key]
        j = int(np.searchsorted(self._keys, key))
        if j >= self._keys.size or int(self._keys[j]) != key:
            entry = None
        else:
            s, e = int(self._starts[j]), int(self._ends[j])
            by_bucket = np.argsort(self._bucket[s:e], kind="stable")
            buckets = self._bucket[s:e][by_bucket]
            idx = self._idx[s:e][by_bucket]
            acq = self._acquire[s:e][by_bucket]
            starts = run_starts(buckets)
            ends = np.concatenate((starts[1:], [buckets.size]))
            entry = (buckets, idx, acq, starts, ends)
        self._cache[key] = entry
        return entry

    def lockset_for(
        self, thread_pos: int, epoch: int, positions: np.ndarray
    ) -> frozenset:
        entry = self._table(thread_pos * self._num_epochs + epoch)
        if entry is None:
            return frozenset()
        buckets, idx, acq, starts, ends = entry
        # Count how many query positions land in each inter-action gap;
        # a gap after an acquire contributes to "held".  Positions never
        # equal action positions (an event is either an access or a
        # lock action, not both), so side choice is immaterial.
        before = np.searchsorted(positions, idx)
        after = np.empty_like(before)
        after[:-1] = before[1:]
        after[ends - 1] = positions.size
        contributions = np.where(acq, after - before, 0)
        held_counts = np.add.reduceat(contributions, starts)
        full = held_counts == positions.size
        return frozenset(int(b) for b in buckets[starts][full])


def _lock_words(
    key: np.ndarray,
    x_idx: np.ndarray,
    x_cas: np.ndarray,
    buckets_per: np.ndarray,
    bshift: int,
    eshift: int,
    tbits: int,
    num_epochs: int,
) -> tuple[Optional[np.ndarray], Optional["_LocksetTables"], frozenset]:
    """Lock-word detection over the expanded keys (module docstring,
    step 1); its temporaries are freed on return.

    Returns the expansion rows that stay registered (None when no
    bucket is a lock word), the acquire/release timelines and the
    epochs that hold a lock word.
    """
    emask = (1 << (bshift - eshift)) - 1
    tmask = (1 << tbits) - 1
    kbt = key >> 2
    cas_bt = unique_sorted(kbt[x_cas])
    min_cas = np.full(cas_bt.size, _I64_MAX, dtype=np.int64)
    np.minimum.at(min_cas, np.searchsorted(cas_bt, kbt[x_cas]), x_idx[x_cas])
    store_row = (key & 3) == _CLS_WRITER
    st_slot = np.searchsorted(cas_bt, kbt[store_row])
    np.minimum(st_slot, cas_bt.size - 1, out=st_slot)
    st_hit = cas_bt[st_slot] == kbt[store_row]
    max_store = np.full(cas_bt.size, -1, dtype=np.int64)
    np.maximum.at(max_store, st_slot[st_hit], x_idx[store_row][st_hit])
    lock_be = unique_sorted(cas_bt[min_cas < max_store] >> tbits)
    if not lock_be.size:
        return None, None, frozenset()
    del kbt, st_slot, st_hit, store_row
    row_lock = in_sorted_set(key >> eshift, lock_be)
    seg_starts = np.cumsum(buckets_per) - buckets_per
    skip_event = np.logical_or.reduceat(row_lock, seg_starts)
    keep_row = np.repeat(~skip_event, buckets_per)
    action = row_lock & ((key & 3) != _CLS_READER)
    a_key = key[action]
    locksets = _LocksetTables(
        t_of=(a_key >> 2) & tmask,
        e_of=(a_key >> eshift) & emask,
        bucket_of=a_key >> bshift,
        idx_of=x_idx[action],
        acquire=(a_key & 3) == _CLS_ATOMIC,
        num_epochs=num_epochs,
    )
    lock_epochs = frozenset(int(e) for e in unique_sorted(lock_be & emask))
    return keep_row, locksets, lock_epochs


def detect_races_columnar(
    col: ColumnarTrace, max_findings: int = MAX_RACE_FINDINGS
) -> Optional[AnalysisReport]:
    """Vectorized race detection; None without the C library or when a
    guard trips (fallback)."""
    from repro.sim._cbuild import load_kernel

    lib = load_kernel()[0]
    if lib is None:
        return None
    report = AnalysisReport(subject=col.name or "trace")
    num_threads = col.num_threads
    if num_threads < 2:
        return report
    columns = (col.kind, col.addr, col.size)
    widths = np.array([c.itemsize for c in columns], dtype=np.int64)
    walk = (
        num_threads,
        *(c.ctypes.data for c in columns),
        widths.ctypes.data,
        col.starts.ctypes.data,
        _BUCKET_SHIFT,
    )

    # --- the scan: stores, key layout maxima and the stores' cells -------
    scan = np.zeros(4, dtype=np.int64)
    lib.graphpim_race_scan(*walk, scan.ctypes.data)
    stores, max_epoch, max_bucket, store_cells = scan.tolist()
    if not stores:
        return report  # no plain-store writer, so no reportable cell
    num_epochs = max_epoch + 1

    # --- packed key layout (over every event, ahead of the filter) -------
    bbits = max(max_bucket.bit_length(), 1)
    ebits = (num_epochs - 1).bit_length()
    tbits = (num_threads - 1).bit_length()
    if bbits + ebits + tbits + 2 > 62:
        return None
    bshift = ebits + tbits + 2
    eshift = tbits + 2
    emask = (1 << ebits) - 1
    tmask = (1 << tbits) - 1

    # --- writer filter ----------------------------------------------------
    # Each event covers the packed (epoch, bucket) cells low..high.  The
    # cells the stores write form one sorted set, closed by a sentinel
    # above every real cell; an event is kept when one of its cells is
    # in the set.
    if store_cells > MAX_EXPANDED_ROWS:
        return None  # every store is kept, so the guard below would trip
    cells = np.empty(store_cells, dtype=np.int64)
    lib.graphpim_race_cells(*walk, bbits, cells.ctypes.data)
    written = np.append(unique_sorted(cells), _I64_MAX)
    del cells

    # --- the sweep: the events the filter keeps ---------------------------
    # One call marks them in a bitmask of the rows, the next gathers
    # them, so no per-event array is allocated.
    mask = np.zeros((col.num_events + 7) // 8, dtype=np.uint8)
    filtered = (*walk, bbits, written.ctypes.data, written.size - 1)
    count = lib.graphpim_race_keep(*filtered, mask.ctypes.data, *[None] * 4)
    if count < 0:
        raise MemoryError("race sweep: out of memory")
    # Every store meets its own cells, so some event is kept.
    kept = np.empty((4, count), dtype=np.int64)
    lib.graphpim_race_keep(
        *filtered, mask.ctypes.data, *(part.ctypes.data for part in kept)
    )
    del written, mask
    rows, epoch, first_bucket, buckets_per = kept
    if int(buckets_per.sum()) > MAX_EXPANDED_ROWS:
        return None
    w_kind = col.kind[rows]
    tpos, idx = locate_rows(col, rows)

    w_cls = np.full(rows.size, _CLS_ATOMIC, dtype=np.int64)
    w_cls[w_kind == EV_STORE] = _CLS_WRITER
    w_cls[w_kind == EV_LOAD] = _CLS_READER
    base = (
        (first_bucket << bshift)
        | (epoch << eshift)
        | (tpos << 2)
        | w_cls
    )

    # --- bucket expansion -------------------------------------------------
    # key[i] walks the event's bucket range; expansion order is replay
    # order (thread-major, event ascending, bucket ascending), which the
    # candidate loop later uses to reproduce the legacy dict-insertion
    # order.
    key = _expand(base, buckets_per, bshift)

    # --- lock-word detection ---------------------------------------------
    x_idx: Optional[np.ndarray] = None
    keep_row: Optional[np.ndarray] = None
    locksets: Optional[_LocksetTables] = None
    lock_epochs: frozenset = frozenset()
    w_cas = (w_kind == EV_ATOMIC) & (col.op[rows] == _CAS)
    if np.any(w_cas):
        x_idx = np.repeat(idx, buckets_per)
        keep_row, locksets, lock_epochs = _lock_words(
            key,
            x_idx,
            np.repeat(w_cas, buckets_per),
            buckets_per,
            bshift,
            eshift,
            tbits,
            num_epochs,
        )

    sorted_key = np.sort(key if keep_row is None else key[keep_row])
    if sorted_key.size == 0:
        return report

    # --- candidate (bucket, epoch) selection ------------------------------
    kbe_sorted = sorted_key >> eshift
    be_starts = run_starts(kbe_sorted)
    any_writer = np.logical_or.reduceat(
        (sorted_key & 3) == _CLS_WRITER, be_starts
    )
    kbt_sorted = sorted_key >> 2
    new_bt = np.empty(sorted_key.size, dtype=bool)
    new_bt[0] = True
    np.not_equal(kbt_sorted[1:], kbt_sorted[:-1], out=new_bt[1:])
    del kbt_sorted
    # The first row of a (bucket, epoch) run always starts a new
    # (bucket, thread) run, so each run's count of starts is its count
    # of threads.
    thread_count = np.add.reduceat(new_bt, be_starts)
    candidate = any_writer & (thread_count >= 2)
    if not candidate.any():
        return report
    cand_be = kbe_sorted[be_starts[candidate]]  # ascending
    del sorted_key, kbe_sorted, be_starts, new_bt

    # --- candidate detail extraction --------------------------------------
    in_cand = in_sorted_set(key >> eshift, cand_be)
    if keep_row is not None:
        in_cand &= keep_row
    sub = np.flatnonzero(in_cand)  # expansion positions, replay order
    if x_idx is None:
        x_idx = np.repeat(idx, buckets_per)
    sub_raw = key[sub]
    order = np.argsort(sub_raw, kind="stable")
    sub_key = sub_raw[order]
    sub_idx = x_idx[sub][order]
    sub_pos = sub[order]
    g_starts = run_starts(sub_key)
    g_ends = np.concatenate((g_starts[1:], [sub_key.size]))
    g_key = sub_key[g_starts]
    g_be = g_key >> eshift

    # Assemble per-candidate group lists; groups are (thread, class)
    # ascending within each (bucket, epoch), so per-class lists come
    # out in thread order = the legacy per-bucket dict order.
    per_be: dict[int, dict] = {}
    for g in range(g_starts.size):
        k = int(g_key[g])
        entry = per_be.setdefault(
            int(g_be[g]),
            {
                _CLS_WRITER: [],
                _CLS_READER: [],
                _CLS_ATOMIC: [],
                "first_writer_pos": _I64_MAX,
            },
        )
        cls = k & 3
        group = ((k >> 2) & tmask, g, int(sub_idx[g_starts[g]]))
        entry[cls].append(group)
        if cls == _CLS_WRITER:
            entry["first_writer_pos"] = min(
                entry["first_writer_pos"], int(sub_pos[g_starts[g]])
            )

    # Legacy iteration order: epoch ascending, then writer-dict
    # insertion order = first registered writer access in the epoch.
    ordered = sorted(
        per_be.items(),
        key=lambda item: (item[0] & emask, item[1]["first_writer_pos"]),
    )

    # --- exact conflict evaluation (small Python loop) --------------------
    thread_ids = col.thread_ids
    suppressed = 0
    for be, entry in ordered:
        this_epoch = be & emask
        bucket = be >> ebits

        def lockset_of(group) -> frozenset:
            if locksets is None or this_epoch not in lock_epochs:
                return frozenset()
            thread, g, _ = group
            positions = sub_idx[int(g_starts[g]):int(g_ends[g])]
            return locksets.lockset_for(thread, this_epoch, positions)

        writers = entry[_CLS_WRITER]
        # First minimal index wins ties, matching min() over a dict in
        # thread-insertion order (groups are thread-position sorted).
        store_group = min(writers, key=lambda w: w[2])
        store_t, _, store_idx = store_group
        store_locks = lockset_of(store_group)
        store_tid = int(thread_ids[store_t])
        conflicts: list[tuple[int, str, int, int]] = []
        for rank, kind_name, accesses in (
            (0, "store", writers),
            (0, "atomic", entry[_CLS_ATOMIC]),
            (1, "load", entry[_CLS_READER]),
        ):
            for group in accesses:
                thread, _, first_idx = group
                if thread == store_t:
                    continue
                if store_locks and store_locks & lockset_of(group):
                    continue
                conflicts.append(
                    (rank, kind_name, int(thread_ids[thread]), first_idx)
                )
        if not conflicts:
            continue
        conflicts.sort()
        rank, other_kind, other_tid, other_index = conflicts[0]
        severity = None
        note = ""
        if rank == 1 and len(writers) == 1:
            severity = Severity.WARNING
            note = " (single-writer/chaotic-read pattern)"
        if len(report) >= max_findings:
            suppressed += 1
            continue
        report.add(
            make_finding(
                "RACE001",
                f"epoch {this_epoch}: non-atomic store by thread "
                f"{store_tid} at {bucket << _BUCKET_SHIFT:#x} "
                f"conflicts with {other_kind} by thread {other_tid} "
                f"(event #{other_index}){note}",
                thread_id=store_tid,
                event_index=store_idx,
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


class RacePass(AnalysisPass):
    """Barrier-epoch race detection (vectorized with a legacy oracle)."""

    name = "race"

    def run_columnar(self, ctx: PassContext) -> Optional[PassResult]:
        report = detect_races_columnar(ctx.columnar)
        if report is None:
            return None
        return PassResult(name=self.name, report=report, engine="vectorized")

    def run_legacy(self, ctx: PassContext) -> PassResult:
        report = detect_races(ctx.require_trace())
        return PassResult(name=self.name, report=report, engine="legacy")


RACE_PASS = register_pass(RacePass())
