"""Supervised worker pool with heartbeats and crash recovery.

The one parallel execution path of the runner: each worker is a
spawned process wired to the supervisor by one duplex pipe, which
carries every message both ways.  Workers trace a spec, freeze the
trace into its narrow columns and send the traced
:class:`~repro.workloads.base.WorkloadRun` (``traced``), simulate the
spec's modes, and report the results (``done``) — while a daemon
thread emits periodic heartbeats the whole time.  The supervisor keeps
each job's traced run: it is both the resume state of a re-dispatch
and, on ``done``, the run the finished job hands to ``collect``.

The supervisor multiplexes every worker pipe and process sentinel
through :func:`multiprocessing.connection.wait` and reacts to the
failure taxonomy:

- **crash** — the process sentinel fires (segfault, OOM kill, chaos
  ``os._exit``).  The in-flight job is re-dispatched to a surviving
  worker; if the dead worker had already sent its traced run, the
  ``job`` message carries it, and the replacement skips tracing and
  the pre-flight.
- **hang** — no heartbeat for ``heartbeat_timeout_s``.  The worker is
  SIGKILLed and treated as a crash.
- **timeout** — a job exceeds ``job_timeout_s``.  The worker is killed
  and the job retried with full-jitter exponential backoff up to
  ``job_retries``, then recorded as a structured timeout failure.
- **poisoned spec** — the same job kills two workers.  It is
  quarantined as ``JobFailure(kind="poisoned")`` instead of grinding
  the pool down forever.

Dead workers are replaced up to ``max_pool_restarts`` times; once the
budget is spent and no workers survive, the circuit opens and the
remaining jobs are handed back to the engine for serial in-process
execution.  ``shutdown()`` reaps every child, and the pool converts
SIGTERM into an exception that unwinds through that cleanup — a
terminated grid leaves no orphans.

Chaos hooks (:class:`~repro.chaos.plan.ChaosPlan` riding on
``RunnerConfig``) fire at the worker-side injection points: deliberate
``os._exit`` before a job or after sending its traced run, a stall that
freezes the whole worker mid-job, and a crash on a designated poison
workload.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection, get_context
from typing import Callable, Optional

from repro.common.errors import ReproError, RunnerError
from repro.obs.logs import get_logger
from repro.obs.progress import BufferedPublisher, ProgressSnapshot
from repro.runner.spec import ExperimentSpec, RunnerConfig
from repro.workloads.base import WorkloadRun

_log = get_logger("runner.pool")

_MSG_READY = "ready"
_MSG_HB = "hb"
_MSG_TRACED = "traced"
_MSG_DONE = "done"
_MSG_ERR = "err"

#: Exit code for deliberate chaos kills (recognizable in crash logs).
CHAOS_EXIT_CODE = 113

#: How long an un-ready worker may stay silent before it reads as hung
#: (spawn + interpreter boot + imports can dwarf the steady-state
#: heartbeat timeout, especially the short ones chaos tests use).
_SPAWN_GRACE_S = 60.0


# ----------------------------------------------------------------------
# Worker side (runs in a spawned child process)
# ----------------------------------------------------------------------


def _worker_main(conn, worker_id: int, config: RunnerConfig) -> None:
    """Worker entry point: heartbeat thread + job loop over the pipe."""
    import repro.workloads  # noqa: F401  (registry side effects)

    chaos = config.chaos
    send_lock = threading.Lock()
    state = {
        "jobs_done": 0, "busy": False, "stalled": False,
        "publisher": None, "job_index": None,
    }
    #: (after_jobs, seconds) of this worker's pending chaos stall.
    stall = (
        (chaos.stall_after_jobs, chaos.stall_seconds)
        if chaos is not None and worker_id == chaos.stall_worker
        else None
    )

    def send(message: tuple) -> None:
        with send_lock:
            try:
                conn.send(message)
            except (OSError, ValueError):
                # The supervisor is gone; nothing left to report to.
                os._exit(1)

    def heartbeat() -> None:
        stop_interval = max(0.01, config.heartbeat_interval_s)
        seq = 0
        while not _hb_stop.wait(stop_interval):
            if state["stalled"]:
                continue
            seq += 1
            # Piggyback buffered progress frames on the beat: the pipe
            # already exists and is already drained supervisor-side, so
            # live progress costs no extra fd, thread, or protocol.
            publisher = state["publisher"]
            index = state["job_index"]
            frames = publisher.drain() if publisher is not None else []
            if frames and index is not None:
                send((
                    _MSG_HB, worker_id, seq,
                    [(index, snap.to_dict()) for snap in frames],
                ))
            else:
                send((_MSG_HB, worker_id, seq))

    _hb_stop = threading.Event()
    threading.Thread(
        target=heartbeat, daemon=True, name="repro-heartbeat"
    ).start()
    send((_MSG_READY, worker_id))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "quit":
            break
        _, index, spec, resume = message
        if chaos is not None:
            if (
                worker_id == chaos.kill_worker
                and not chaos.kill_after_trace
                and state["jobs_done"] >= chaos.kill_after_jobs
            ):
                os._exit(CHAOS_EXIT_CODE)
            if chaos.poison_workload == spec.workload:
                os._exit(CHAOS_EXIT_CODE)
        state["busy"] = True
        if config.progress_interval_events > 0:
            state["job_index"] = index
            state["publisher"] = BufferedPublisher(
                interval=config.progress_interval_events
            )
        if stall is not None and state["jobs_done"] >= stall[0]:
            # Chaos: hang mid-job.  The whole worker goes silent, job
            # loop and heartbeat thread alike, as in a real hang, so
            # the supervisor must read the missing beats as one and
            # kill us.
            state["stalled"] = True
            time.sleep(stall[1])
            state["stalled"] = False
            stall = None
        try:
            payload = _execute_job(
                spec, config, resume, worker_id, index, send, state
            )
        except ReproError as error:
            send((_MSG_ERR, index, "error", str(error)))
        except OSError as error:
            send((_MSG_ERR, index, "crash", str(error)))
        except Exception as error:  # unexpected bug: structured, not fatal
            send(
                (_MSG_ERR, index, "error",
                 f"{type(error).__name__}: {error}")
            )
        else:
            send((_MSG_DONE, index, payload))
        finally:
            state["busy"] = False
            state["publisher"] = None
            state["job_index"] = None
            state["jobs_done"] += 1


def _execute_job(
    spec: ExperimentSpec,
    config: RunnerConfig,
    resume: "Optional[tuple[WorkloadRun, str]]",
    worker_id: int,
    index: int,
    send: Callable[[tuple], None],
    state: dict,
) -> dict:
    """One job, worker-side: trace (or take the resumed run), then
    simulate."""
    from repro.runner import engine as engine_mod

    started = time.perf_counter()
    if resume is not None:
        # Re-dispatched after another worker died mid-job: it sent this
        # run already traced and gated, so skip tracing and the
        # pre-flight.
        run, trace_hash = resume
    else:
        run, trace_hash = engine_mod.trace_spec(spec, config)
        # Freeze before sending: a frozen trace pickles as its narrow
        # columns, not its int64 capture rows, and simulation reads
        # this memo next anyway.
        run.trace.columnar()
        send((_MSG_TRACED, index, (run, trace_hash)))
        chaos = config.chaos
        if (
            chaos is not None
            and worker_id == chaos.kill_worker
            and chaos.kill_after_trace
            and state["jobs_done"] >= chaos.kill_after_jobs
        ):
            os._exit(CHAOS_EXIT_CODE)
    publisher = state.get("publisher")
    modes = engine_mod.simulate_spec_modes(
        run, trace_hash, spec, config, publisher=publisher
    )
    # Flush frames the heartbeat thread has not shipped yet into the
    # done payload, so the tail of a run's progress always arrives.
    frames = publisher.drain() if publisher is not None else []
    return {
        "modes": modes,
        "seconds": time.perf_counter() - started,
        "frames": [snap.to_dict() for snap in frames],
    }


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------


@dataclass
class _Job:
    """Supervisor-side state of one grid job."""

    index: int
    spec: ExperimentSpec
    attempts: int = 0
    worker_deaths: int = 0
    timeouts: int = 0
    #: The traced run and its digest, from the ``traced`` message: a
    #: re-dispatch ships it so the next worker skips tracing, and
    #: ``done`` hands the run to ``collect``.
    resume: "Optional[tuple[WorkloadRun, str]]" = None
    not_before: float = 0.0
    dispatched_at: float = 0.0
    backoff_rng: Optional[random.Random] = None


@dataclass
class _Worker:
    """Supervisor-side handle of one spawned worker process."""

    id: int
    process: object
    conn: object
    spawned_at: float
    last_beat: float
    ready: bool = False
    job: Optional[_Job] = None


@dataclass
class PoolOutcome:
    """What one supervised grid run cost in resilience terms."""

    #: Jobs the pool could not execute because the circuit opened
    #: (the engine re-runs them serially in-process).
    leftover: "list[int]" = field(default_factory=list)
    #: Replacement workers spawned after deaths (bounded by
    #: ``max_pool_restarts``).
    restarts: int = 0
    #: Workers that died unexpectedly (crash) or were killed for
    #: missing heartbeats (hang).
    worker_crashes: int = 0
    circuit_open: bool = False


#: ``collect(index, outcome)`` receives, per job, either
#: ``{"status": "done", "payload", "attempts", "queue_seconds"}`` or
#: ``{"status": "failed", "kind", "message", "attempts"}``.
CollectFn = Callable[[int, dict], None]
DispatchFn = Callable[[int, int, bool], None]
#: ``on_progress(index, snapshot)`` fires supervisor-side for every
#: frame piggybacked on a worker heartbeat (or flushed at job end).
PoolProgressFn = Callable[[int, ProgressSnapshot], None]


class SupervisedWorkerPool:
    """Spawns, feeds, watches, and reaps a fleet of trace workers."""

    def __init__(
        self,
        config: RunnerConfig,
        backoff_rng: Optional[Callable[[int], random.Random]] = None,
        on_dispatch: Optional[DispatchFn] = None,
        on_progress: Optional[PoolProgressFn] = None,
    ):
        self.config = config
        self._ctx = get_context("spawn")
        self._workers: "dict[int, _Worker]" = {}
        self._next_worker_id = 0
        self._target = 1
        self._queue: "deque[_Job]" = deque()
        self._unfinished: "set[int]" = set()
        self._outcome = PoolOutcome()
        self._collect: Optional[CollectFn] = None
        self._backoff_rng = backoff_rng or (
            lambda index: random.Random(f"backoff:{index}")
        )
        self._on_dispatch = on_dispatch
        self._on_progress = on_progress

    # -- lifecycle ------------------------------------------------------

    def run(
        self,
        jobs: "list[tuple[int, ExperimentSpec]]",
        collect: CollectFn,
    ) -> PoolOutcome:
        """Execute ``jobs`` (``(index, spec)`` pairs) to completion.

        ``collect`` fires in this (supervising) process as each job
        finishes or fails — incrementally, so checkpoint journalling
        keeps its crash-resume semantics.  Call :meth:`shutdown` in a
        ``finally`` regardless of how this returns or raises.
        """
        self._collect = collect
        self._queue = deque(_Job(index, spec) for index, spec in jobs)
        self._unfinished = {index for index, _ in jobs}
        self._target = min(self.config.resolved_jobs(), len(jobs))
        main_thread = (
            threading.current_thread() is threading.main_thread()
        )
        previous_handler = None
        if main_thread:
            def _terminated(signum, frame):
                raise RunnerError(
                    "grid terminated by SIGTERM; worker pool shut "
                    "down cleanly"
                )

            previous_handler = signal.signal(signal.SIGTERM, _terminated)
        try:
            for _ in range(self._target):
                self._spawn_worker(initial=True)
            while self._unfinished and not self._outcome.circuit_open:
                if not self._workers:
                    self._open_circuit()
                    break
                self._dispatch()
                self._poll()
                self._check_health()
            for worker in self._workers.values():
                try:
                    worker.conn.send(("quit",))
                except (OSError, ValueError):
                    pass
        finally:
            if main_thread:
                signal.signal(signal.SIGTERM, previous_handler)
        return self._outcome

    def shutdown(self) -> None:
        """Reap every child.

        Idempotent, and safe mid-grid: an exception (including the
        SIGTERM-turned-RunnerError) unwinding through the engine's
        ``finally`` lands here with workers still alive.
        """
        workers = list(self._workers.values())
        self._workers.clear()
        for worker in workers:
            try:
                worker.conn.send(("quit",))
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + 2.0
        for worker in workers:
            worker.process.join(max(0.1, deadline - time.monotonic()))
        for worker in workers:
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(5.0)
            try:
                worker.conn.close()
            except OSError:
                pass

    # -- scheduling -----------------------------------------------------

    def _spawn_worker(self, initial: bool) -> None:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, worker_id, self.config),
            name=f"repro-pool-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        now = time.monotonic()
        self._workers[worker_id] = _Worker(
            id=worker_id,
            process=process,
            conn=parent_conn,
            spawned_at=now,
            last_beat=now,
        )
        _log.log(
            20 if initial else 30,  # INFO spawn, WARNING restart
            "pool worker %d %s",
            worker_id,
            "spawned" if initial else "spawned as replacement",
            extra={
                "event": (
                    "pool_worker_spawned" if initial else "pool_restart"
                ),
                "worker": worker_id,
            },
        )

    def _dispatch(self) -> None:
        now = time.monotonic()
        for worker in list(self._workers.values()):
            if not self._queue:
                return
            if not worker.ready or worker.job is not None:
                continue
            job = self._next_ready_job(now)
            if job is None:
                return
            try:
                worker.conn.send(("job", job.index, job.spec, job.resume))
            except (OSError, ValueError):
                # Dying worker; its sentinel will surface the death.
                self._queue.appendleft(job)
                continue
            job.attempts += 1
            job.dispatched_at = now
            worker.job = job
            if self._on_dispatch is not None:
                self._on_dispatch(
                    job.index, job.attempts, job.resume is not None
                )
            _log.debug(
                "job %d dispatched to worker %d",
                job.index,
                worker.id,
                extra={
                    "event": "job_dispatched",
                    "job_index": job.index,
                    "worker": worker.id,
                    "attempt": job.attempts,
                    "resumed": job.resume is not None,
                },
            )

    def _next_ready_job(self, now: float) -> Optional[_Job]:
        for _ in range(len(self._queue)):
            job = self._queue.popleft()
            if job.not_before <= now:
                return job
            self._queue.append(job)  # backoff window still open
        return None

    def _poll(self) -> None:
        conns = {w.conn: w for w in self._workers.values()}
        sentinels = {
            w.process.sentinel: w for w in self._workers.values()
        }
        tick = min(0.1, max(0.01, self.config.heartbeat_interval_s))
        ready = connection.wait(
            list(conns) + list(sentinels), timeout=tick
        )
        dead: "list[_Worker]" = []
        for item in ready:
            worker = conns.get(item) or sentinels.get(item)
            if worker is None or worker.id not in self._workers:
                continue
            if item is worker.conn:
                self._drain_conn(worker, dead)
            elif worker not in dead:
                dead.append(worker)
        for worker in dead:
            if worker.id in self._workers:
                self._reap(worker, event="worker_crashed")

    def _drain_conn(self, worker: _Worker, dead: "list[_Worker]") -> None:
        while True:
            try:
                if not worker.conn.poll():
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                if worker not in dead:
                    dead.append(worker)
                return
            self._handle_message(worker, message)

    # -- message handling -----------------------------------------------

    def _handle_message(self, worker: _Worker, message: tuple) -> None:
        worker.last_beat = time.monotonic()
        kind = message[0]
        if kind == _MSG_READY:
            worker.ready = True
        elif kind == _MSG_HB:
            # The timestamp update above is the liveness signal; beats
            # may additionally carry piggybacked progress frames.  This
            # branch also runs on _reap's buffered-pipe drain, so a
            # crashed worker's final snapshots are flushed rather than
            # silently discarded with the dead pipe.
            if len(message) > 3:
                self._forward_frames(message[3])
        elif kind == _MSG_TRACED:
            _, index, traced = message
            job = worker.job
            # A stale message from an abandoned dispatch (the job timed
            # out and was detached) is dropped.
            if job is not None and job.index == index:
                job.resume = traced
        elif kind == _MSG_DONE:
            _, index, lite = message
            job = worker.job
            if job is None or job.index != index:
                return
            worker.job = None
            self._finish_job(job, lite)
        elif kind == _MSG_ERR:
            _, index, failure_kind, text = message
            job = worker.job
            if job is None or job.index != index:
                return
            worker.job = None
            self._fail_job(job, failure_kind, text)

    def _forward_frames(
        self, frames: "list[tuple[int, dict]]"
    ) -> None:
        """Deliver piggybacked (index, snapshot-dict) pairs upstream."""
        if self._on_progress is None:
            return
        for index, snap in frames:
            try:
                snapshot = ProgressSnapshot.from_dict(snap)
            except (ReproError, KeyError, TypeError, ValueError):
                continue  # malformed frame: progress is best-effort
            self._on_progress(index, snapshot)

    def _finish_job(self, job: _Job, lite: dict) -> None:
        self._forward_frames(
            [(job.index, snap) for snap in lite.get("frames", [])]
        )
        # Every job that reaches ``done`` holds its traced run: a
        # resumed job was dispatched with it, and any other job's worker
        # sent it (``traced``) down the same pipe ahead of ``done``.
        assert job.resume is not None
        run, trace_hash = job.resume
        queue_seconds = max(
            0.0,
            (time.monotonic() - job.dispatched_at) - lite["seconds"],
        )
        self._unfinished.discard(job.index)
        self._collect(job.index, {
            "status": "done",
            "payload": {
                "run": run,
                "trace_hash": trace_hash,
                "modes": lite["modes"],
                "seconds": lite["seconds"],
            },
            "attempts": max(job.attempts, 1),
            "queue_seconds": queue_seconds,
        })

    def _fail_job(self, job: _Job, kind: str, message: str) -> None:
        self._unfinished.discard(job.index)
        self._collect(job.index, {
            "status": "failed",
            "kind": kind,
            "message": message,
            "attempts": max(job.attempts, 1),
        })

    # -- supervision ----------------------------------------------------

    def _check_health(self) -> None:
        now = time.monotonic()
        config = self.config
        for worker in list(self._workers.values()):
            if worker.id not in self._workers:
                continue
            job = worker.job
            if (
                job is not None
                and config.job_timeout_s is not None
                and now - job.dispatched_at > config.job_timeout_s
            ):
                # Deadline overrun is a retry, not a poisoning: detach
                # the job before the reap so death bookkeeping skips it.
                worker.job = None
                self._timeout_job(job, now)
                self._reap(
                    worker, event="worker_killed_timeout",
                    kill=True, count_crash=False,
                )
                continue
            grace = (
                config.heartbeat_timeout_s
                if worker.ready
                else max(_SPAWN_GRACE_S, config.heartbeat_timeout_s)
            )
            if now - worker.last_beat > grace:
                self._reap(worker, event="worker_hung", kill=True)

    def _timeout_job(self, job: _Job, now: float) -> None:
        job.timeouts += 1
        config = self.config
        if job.attempts > config.job_retries:
            self._fail_job(
                job, "timeout",
                f"timed out after {config.job_timeout_s}s "
                f"(attempt {job.attempts})",
            )
            return
        if job.backoff_rng is None:
            job.backoff_rng = self._backoff_rng(job.index)
        cap = config.backoff_base_s * 2 ** (job.timeouts - 1)
        delay = job.backoff_rng.uniform(0.0, cap)
        job.not_before = now + delay
        self._queue.appendleft(job)
        _log.warning(
            "job %d timed out; retrying in %.2fs (attempt %d)",
            job.index,
            delay,
            job.attempts + 1,
            extra={
                "event": "job_retry",
                "job_index": job.index,
                "attempt": job.attempts + 1,
                "backoff_seconds": delay,
            },
        )

    def _reap(
        self,
        worker: _Worker,
        event: str,
        kill: bool = False,
        count_crash: bool = True,
    ) -> None:
        """Remove one dead (or condemned) worker and triage its job."""
        self._workers.pop(worker.id, None)
        if kill:
            worker.process.kill()
        worker.process.join(5.0)
        # Harvest messages still buffered in the pipe before closing
        # it.  Losing a ``traced`` here would forfeit the resume state;
        # a buffered ``done`` means the job actually finished and must
        # not be re-dispatched.
        while True:
            try:
                if not worker.conn.poll():
                    break
                pending = worker.conn.recv()
            except (EOFError, OSError):
                break
            self._handle_message(worker, pending)
        try:
            worker.conn.close()
        except OSError:
            pass
        if count_crash:
            self._outcome.worker_crashes += 1
        _log.warning(
            "pool worker %d died (%s, exit %s)",
            worker.id,
            event,
            worker.process.exitcode,
            extra={
                "event": event,
                "worker": worker.id,
                "exitcode": worker.process.exitcode,
            },
        )
        job, worker.job = worker.job, None
        if job is not None:
            job.worker_deaths += 1
            if job.worker_deaths >= 2:
                self._fail_job(
                    job, "poisoned",
                    f"spec killed {job.worker_deaths} workers (last "
                    f"exit {worker.process.exitcode}); quarantined",
                )
            else:
                self._queue.appendleft(job)
                _log.warning(
                    "job %d re-dispatched after worker death",
                    job.index,
                    extra={
                        "event": "job_redispatched",
                        "job_index": job.index,
                        "resumed": job.resume is not None,
                    },
                )
        self._maybe_replace()

    def _maybe_replace(self) -> None:
        remaining = len(self._unfinished)
        while (
            remaining > 0
            and len(self._workers) < min(self._target, remaining)
            and self._outcome.restarts < self.config.max_pool_restarts
        ):
            self._outcome.restarts += 1
            self._spawn_worker(initial=False)

    def _open_circuit(self) -> None:
        """No workers left and no restart budget: degrade to serial."""
        self._outcome.circuit_open = True
        leftover = sorted(self._unfinished)
        self._outcome.leftover = leftover
        self._queue.clear()
        _log.error(
            "pool circuit open after %d restart(s); %d job(s) fall "
            "back to in-process execution",
            self._outcome.restarts,
            len(leftover),
            extra={
                "event": "pool_circuit_open",
                "restarts": self._outcome.restarts,
                "leftover": len(leftover),
            },
        )
