"""Broker-side fleet state: worker registry, leases, redispatch.

:class:`FleetManager` lives inside one
:class:`~repro.service.broker.JobBroker` and owns the remote-worker
protocol's server half.  It shares the broker's single-event-loop
discipline — every method is called from coroutines on the broker's
loop, so the two objects form one lock-free state machine across two
files (the manager touches broker lanes/jobs/streams directly, by
design).

The lease lifecycle mirrors the PR 8 supervised pool's crash path:

- ``lease`` pops queued jobs whose ``spec_key`` shard
  (:class:`~repro.fleet.ring.HashRing`) maps to the calling worker and
  hands them out under a TTL;
- ``heartbeat`` renews leases (and piggybacks progress frames and
  timeline span batches into the PR 9 SSE streams);
- ``complete`` uploads the result — idempotent by ``spec_key``: a
  duplicate upload (late worker, shard race after a rebalance) is
  acknowledged and discarded, so response bytes are written once;
- the reaper requeues jobs whose lease (or whole worker) went silent,
  exactly like a pool worker death: first expiry redispatches, a
  second expiry of the same job quarantines it as poisoned.

Worker membership is journaled to ``fleet_workers.jsonl`` under the
cache root, a :class:`~repro.runner.cache.JsonlJournal` (torn-line
tolerant): a rebooted broker restores the fleet roster and gives
restored workers one liveness-timeout grace period to resume
heartbeating before they are expired from the ring.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.fleet.ring import HashRing
from repro.obs.logs import get_logger
from repro.runner.cache import JsonlJournal

_log = get_logger("fleet")

#: Filename of the worker-membership journal under the cache root.
FLEET_REGISTRY_FILENAME = "fleet_workers.jsonl"

#: Involuntary lease releases (expiry, worker death) one job survives
#: before it is quarantined — the PR 8 poisoned-spec threshold.
MAX_LEASE_EXPIRIES = 2


@dataclass
class WorkerEntry:
    """One registered pull-worker."""

    worker_id: str
    capacity: int
    registered_at: float
    last_seen: float

    def alive(self, now: float, timeout_s: float) -> bool:
        return (now - self.last_seen) <= timeout_s


@dataclass
class Lease:
    """One job handed to one worker, valid until ``deadline``."""

    job_id: str
    worker_id: str
    deadline: float
    request_id: str = ""


def _roster_record(event: str, worker_id: str, capacity: int) -> dict:
    """One ``fleet_workers.jsonl`` line: a join or a leave."""
    return {
        "event": event,
        "worker": worker_id,
        "capacity": capacity,
        "ts": time.time(),
    }


class FleetManager:
    """Lease/registry state machine for one broker's worker fleet."""

    def __init__(self, broker):
        self.broker = broker
        self.config = broker.config
        self._clock = broker._clock
        self.ring = HashRing(
            vnodes=self.config.fleet_ring_vnodes,
            seed=self.config.fleet_ring_seed,
        )
        self._workers: "dict[str, WorkerEntry]" = {}
        self._leases: "dict[str, Lease]" = {}
        self._expiries = 0
        self._redispatched = 0
        cache_dir = self.config.runner.cache_dir
        self._roster = (
            JsonlJournal(Path(cache_dir) / FLEET_REGISTRY_FILENAME)
            if cache_dir is not None
            else None
        )
        reg = broker.registry
        self._m_workers_alive = reg.gauge(
            "fleet_workers_alive",
            "Registered pull-workers with a fresh heartbeat",
        )
        self._m_leases = reg.gauge(
            "fleet_leases_active", "Jobs currently leased to workers"
        )
        self._m_expiries = reg.counter(
            "fleet_lease_expiries_total",
            "Leases that timed out (or died with their worker)",
        )
        self._m_redispatched = reg.counter(
            "fleet_jobs_redispatched_total",
            "Jobs requeued after an involuntary lease release",
        )
        self._m_completes = reg.counter(
            "fleet_completes_total",
            "Result uploads by outcome (stored/duplicate/ignored/...)",
        )
        self._m_workers_alive.set(0)
        self._m_leases.set(0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def leased_count(self) -> int:
        return len(self._leases)

    def workers_alive(self) -> int:
        now = self._clock()
        timeout = self.config.fleet_worker_timeout_s
        return sum(
            1 for entry in self._workers.values()
            if entry.alive(now, timeout)
        )

    def stats(self) -> dict:
        """Fleet summary for ``/healthz`` and ``/readyz``."""
        return {
            "workers": len(self._workers),
            "workers_alive": self.workers_alive(),
            "leases": len(self._leases),
            "lease_expiries": self._expiries,
            "redispatched": self._redispatched,
        }

    def _sync_gauges(self) -> None:
        self._m_workers_alive.set(self.workers_alive())
        self._m_leases.set(len(self._leases))

    # ------------------------------------------------------------------
    # Worker registry (journaled membership)
    # ------------------------------------------------------------------

    def register(self, worker_id: str, capacity: int = 1) -> dict:
        """Add (or refresh) one worker; idempotent."""
        now = self._clock()
        entry = self._workers.get(worker_id)
        if entry is None:
            entry = WorkerEntry(
                worker_id=worker_id,
                capacity=max(1, capacity),
                registered_at=now,
                last_seen=now,
            )
            self._workers[worker_id] = entry
            self.ring.add(worker_id)
            self._journal("join", worker_id, entry.capacity)
            _log.info(
                "fleet worker joined: %s",
                worker_id,
                extra={
                    "event": "fleet_worker_joined",
                    "worker": worker_id,
                    "capacity": entry.capacity,
                    "workers": len(self._workers),
                },
            )
        else:
            entry.capacity = max(1, capacity)
            entry.last_seen = now
        self._sync_gauges()
        return {
            "worker_id": worker_id,
            "workers": self.ring.members,
            "lease_ttl_s": self.config.fleet_lease_ttl_s,
            "heartbeat_s": self.config.fleet_lease_ttl_s / 3.0,
        }

    async def deregister(self, worker_id: str) -> dict:
        """Graceful leave: requeue the worker's leases, drop its shard."""
        requeued = await self._release_worker(worker_id, voluntary=True)
        if self._workers.pop(worker_id, None) is not None:
            self.ring.remove(worker_id)
            self._journal("leave", worker_id, 0)
            _log.info(
                "fleet worker left: %s (%d lease(s) requeued)",
                worker_id,
                requeued,
                extra={
                    "event": "fleet_worker_left",
                    "worker": worker_id,
                    "requeued": requeued,
                },
            )
        self._sync_gauges()
        return {"worker_id": worker_id, "requeued": requeued}

    def _journal(self, event: str, worker_id: str, capacity: int) -> None:
        if self._roster is None:
            return
        try:
            self._roster.append(_roster_record(event, worker_id, capacity))
        except OSError:
            pass  # membership is soft state; journal loss is survivable

    def restore_registry(self) -> int:
        """Replay the membership journal (torn-line tolerant).

        Restored workers get ``last_seen = now``: one liveness-timeout
        grace period to resume heartbeating before the reaper expires
        them.  The journal is compacted to the surviving roster.
        """
        if self._roster is None:
            return 0
        members: "dict[str, int]" = {}
        for entry in self._roster.records():
            try:
                event = entry["event"]
                worker_id = str(entry["worker"])
                capacity = int(entry.get("capacity", 1) or 1)
            except (KeyError, TypeError, ValueError):
                continue  # stale record: drop, don't crash boot
            if not worker_id:
                continue
            if event == "join":
                members[worker_id] = capacity
            elif event == "leave":
                members.pop(worker_id, None)
        now = self._clock()
        for worker_id, capacity in members.items():
            self._workers[worker_id] = WorkerEntry(
                worker_id=worker_id,
                capacity=max(1, capacity),
                registered_at=now,
                last_seen=now,
            )
            self.ring.add(worker_id)
        # Compact: rewrite the surviving roster as fresh join lines.
        try:
            self._roster.replace(
                _roster_record("join", worker_id, capacity)
                for worker_id, capacity in members.items()
            )
        except OSError:
            pass
        self._sync_gauges()
        return len(members)

    # ------------------------------------------------------------------
    # Lease protocol
    # ------------------------------------------------------------------

    def lease(self, worker_id: str, max_jobs: int = 1) -> dict:
        """Hand out up to ``max_jobs`` queued jobs from this shard.

        Unknown workers are registered implicitly (robust against a
        worker that raced its explicit register past a broker reboot).
        Jobs whose ring owner is another registered worker stay queued
        for that worker; the caller only receives its own shard, which
        is what keeps its ``.repro_cache`` warm for repeat specs.
        """
        if worker_id not in self._workers:
            self.register(worker_id, capacity=max_jobs)
        entry = self._workers[worker_id]
        entry.last_seen = self._clock()
        leased: "list[dict]" = []
        if not self.broker.draining:
            budget = min(
                max(1, max_jobs), self.config.fleet_lease_jobs
            )
            deadline = self._clock() + self.config.fleet_lease_ttl_s
            from repro.service.broker import LANES

            for lane in LANES:
                queue = self.broker._lanes[lane]
                for job in list(queue):
                    if len(leased) >= budget:
                        break
                    if self.ring.owner(job.job_id) != worker_id:
                        continue
                    queue.remove(job)
                    job.status = "running"
                    job.lease_worker = worker_id
                    self._leases[job.job_id] = Lease(
                        job_id=job.job_id,
                        worker_id=worker_id,
                        deadline=deadline,
                        request_id=job.request_id,
                    )
                    self.broker._publish_event(
                        job.job_id, "running", job.status_dict()
                    )
                    leased.append(
                        {
                            "job_id": job.job_id,
                            "spec": job.spec.to_dict(),
                            "priority": job.priority,
                            "request_id": job.request_id,
                        }
                    )
                if len(leased) >= budget:
                    break
            if leased:
                self.broker._sync_depth()
        self._sync_gauges()
        if leased:
            _log.info(
                "leased %d job(s) to %s",
                len(leased),
                worker_id,
                extra={
                    "event": "fleet_lease",
                    "worker": worker_id,
                    "jobs": [job["job_id"] for job in leased],
                },
            )
        return {
            "jobs": leased,
            "lease_ttl_s": self.config.fleet_lease_ttl_s,
            "draining": self.broker.draining,
            "stream": {
                "progress_events": self.config.stream_progress_events,
                "spans": self.config.stream_spans,
            },
        }

    def heartbeat(
        self,
        worker_id: str,
        jobs: "list[str]",
        frames: "Optional[list[dict]]" = None,
        spans: "Optional[list[dict]]" = None,
    ) -> dict:
        """Renew leases; fan progress frames and span batches to SSE.

        Returns the renewed ids plus ``lost`` — job ids the worker
        still claims but no longer holds (its lease expired and the job
        was redispatched); the worker abandons those, and any late
        ``complete`` for them is absorbed idempotently anyway.
        """
        if worker_id not in self._workers:
            self.register(worker_id)
        entry = self._workers[worker_id]
        now = self._clock()
        entry.last_seen = now
        deadline = now + self.config.fleet_lease_ttl_s
        renewed: "list[str]" = []
        lost: "list[str]" = []
        for job_id in jobs:
            lease = self._leases.get(job_id)
            if lease is not None and lease.worker_id == worker_id:
                lease.deadline = deadline
                renewed.append(job_id)
            else:
                lost.append(job_id)
        for item in frames or ():
            if not isinstance(item, dict):
                continue
            job_id = item.get("job_id")
            frame = item.get("frame")
            if (
                isinstance(job_id, str)
                and isinstance(frame, dict)
                and job_id in self.broker._jobs
            ):
                self.broker._publish_event(job_id, "progress", frame)
        if self.config.stream_spans > 0:
            for item in spans or ():
                if not isinstance(item, dict):
                    continue
                job_id = item.get("job_id")
                batch = item.get("spans")
                if (
                    isinstance(job_id, str)
                    and isinstance(batch, list)
                    and batch
                    and job_id in self.broker._jobs
                ):
                    bounded = batch[: self.config.stream_spans]
                    self.broker._publish_event(
                        job_id,
                        "span",
                        {
                            "job_id": job_id,
                            "spans": bounded,
                            "count": len(bounded),
                        },
                    )
        self._sync_gauges()
        return {
            "renewed": renewed,
            "lost": lost,
            "draining": self.broker.draining,
        }

    def complete(
        self, worker_id: str, job_id: str, body: dict
    ) -> dict:
        """Store one uploaded result; idempotent by ``spec_key``.

        Outcomes: ``stored`` (first upload for a live job),
        ``duplicate`` (the job already finished — the shard-race and
        retry case; the upload is discarded so response bytes are
        written exactly once), ``ignored`` (the broker itself is
        executing the job locally), ``unknown`` (no such job anywhere).
        """
        lease = self._leases.pop(job_id, None)
        if lease is not None:
            self._sync_gauges()
        entry = self._workers.get(worker_id)
        if entry is not None:
            entry.last_seen = self._clock()
        job = self.broker._jobs.get(job_id)
        if job is None:
            if self.broker.lookup_response(job_id) is not None:
                self._m_completes.inc(outcome="duplicate")
                return {"outcome": "duplicate"}
            self._m_completes.inc(outcome="unknown")
            return {"outcome": "unknown"}
        if job.finished:
            self._m_completes.inc(outcome="duplicate")
            return {"outcome": "duplicate"}
        if job.status == "running" and not job.lease_worker:
            # A local broker slot owns this execution; its canonical
            # result is about to land — the upload adds nothing.
            self._m_completes.inc(outcome="ignored")
            return {"outcome": "ignored"}
        # A queued job is acceptable too: its lease expired and it is
        # waiting for redispatch — the late worker's result is still
        # bit-identical (content-addressed execution), so take it.
        self.broker._remove_from_lanes(job)
        job.lease_worker = ""
        status = body.get("status")
        if status == "done":
            modes = body.get("modes")
            trace_hash = body.get("trace_hash")
            if not isinstance(modes, dict) or not isinstance(
                trace_hash, str
            ):
                self._m_completes.inc(outcome="rejected")
                return {
                    "outcome": "rejected",
                    "error": "done upload needs trace_hash and modes",
                }
            self.broker._finish_done(
                job,
                trace_hash,
                modes,
                execute_seconds=float(body.get("seconds", 0.0) or 0.0),
            )
        else:
            message = str(
                body.get("error") or "worker reported failure"
            )
            kind = str(body.get("kind") or "error")
            self.broker._fail(job, f"[{kind}] {message}")
        self._m_completes.inc(outcome="stored")
        _log.info(
            "fleet complete: %s from %s (%s)",
            job_id,
            worker_id,
            job.status,
            extra={
                "event": "fleet_complete",
                "worker": worker_id,
                "spec_key": job_id,
                "status": job.status,
            },
        )
        return {"outcome": "stored"}

    # ------------------------------------------------------------------
    # Expiry / redispatch (the PR 8 crash path, one tier up)
    # ------------------------------------------------------------------

    async def _requeue(self, job, voluntary: bool) -> None:
        """Put one leased job back at the front of its lane.

        Involuntary releases (lease timeout, dead worker) count toward
        the poisoned-spec threshold; a job that burns
        ``MAX_LEASE_EXPIRIES`` leases is failed instead of bouncing
        between doomed workers forever.
        """
        job.lease_worker = ""
        if not voluntary:
            job.lease_expiries += 1
            self._expiries += 1
            self._m_expiries.inc()
            if job.lease_expiries >= MAX_LEASE_EXPIRIES:
                self.broker._fail(
                    job,
                    f"poisoned: {job.lease_expiries} lease(s) expired "
                    f"without a result",
                )
                return
            self._redispatched += 1
            self._m_redispatched.inc()
        job.status = "queued"
        cond = self.broker._cond
        assert cond is not None
        async with cond:
            self.broker._lanes[job.priority].appendleft(job)
            self.broker._sync_depth()
            cond.notify()
        self.broker._publish_event(
            job.job_id, "queued", job.status_dict()
        )

    async def _release_worker(
        self, worker_id: str, voluntary: bool
    ) -> int:
        """Requeue every lease one worker holds."""
        released = 0
        for job_id, lease in list(self._leases.items()):
            if lease.worker_id != worker_id:
                continue
            del self._leases[job_id]
            job = self.broker._jobs.get(job_id)
            if job is not None and not job.finished:
                await self._requeue(job, voluntary=voluntary)
            released += 1
        self._sync_gauges()
        return released

    async def reap(self) -> dict:
        """One sweep: expire silent workers, then timed-out leases."""
        now = self._clock()
        timeout = self.config.fleet_worker_timeout_s
        expired_workers = 0
        for worker_id, entry in list(self._workers.items()):
            if entry.alive(now, timeout):
                continue
            await self._release_worker(worker_id, voluntary=False)
            del self._workers[worker_id]
            self.ring.remove(worker_id)
            self._journal("leave", worker_id, 0)
            expired_workers += 1
            _log.warning(
                "fleet worker expired: %s (silent > %gs)",
                worker_id,
                timeout,
                extra={
                    "event": "fleet_worker_expired",
                    "worker": worker_id,
                    "timeout_s": timeout,
                },
            )
        expired_leases = 0
        for job_id, lease in list(self._leases.items()):
            if lease.deadline > now:
                continue
            del self._leases[job_id]
            job = self.broker._jobs.get(job_id)
            if job is not None and not job.finished:
                await self._requeue(job, voluntary=False)
            expired_leases += 1
            _log.warning(
                "fleet lease expired: %s (worker %s)",
                job_id,
                lease.worker_id,
                extra={
                    "event": "fleet_lease_expired",
                    "worker": lease.worker_id,
                    "spec_key": job_id,
                },
            )
        if expired_workers or expired_leases:
            self._sync_gauges()
        return {
            "workers_expired": expired_workers,
            "leases_expired": expired_leases,
        }

    async def reap_loop(self) -> None:
        interval = max(
            0.05, min(1.0, self.config.fleet_lease_ttl_s / 4.0)
        )
        while True:
            await asyncio.sleep(interval)
            await self.reap()

    async def release_all(self) -> int:
        """Drain path: requeue every lease (voluntary — no penalties).

        The broker checkpoints the requeued jobs with the rest of the
        queue, so a worker's in-flight results after a drain land as
        ``unknown``/``duplicate`` completes against the next boot.
        """
        released = 0
        for worker_id in {
            lease.worker_id for lease in self._leases.values()
        }:
            released += await self._release_worker(
                worker_id, voluntary=True
            )
        return released


__all__ = [
    "FLEET_REGISTRY_FILENAME",
    "FleetManager",
    "Lease",
    "MAX_LEASE_EXPIRIES",
    "WorkerEntry",
]
