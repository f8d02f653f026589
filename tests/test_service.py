"""Service-layer tests: broker invariants, HTTP frontend, client.

The load tests prove the serving contract the ISSUE pins down:

- **coalescing invariant** — 32 concurrent submissions of one spec
  execute exactly one simulation and every caller receives
  bit-identical response bytes;
- **backpressure** — submissions over queue capacity are rejected with
  HTTP 429 and a ``Retry-After`` header, never queued unboundedly;
- **graceful drain** — in-flight jobs finish, queued jobs are
  checkpointed in the journal format and restored on the next boot,
  and a clean drain leaves no journal at all.

Simulation work is faked with counting executors so the concurrency
schedule is controlled; one end-to-end test runs the real
:func:`~repro.runner.engine.execute_spec` against a tiny workload.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.common.errors import ServiceError
from repro.runner import ExperimentSpec, RunnerConfig, spec_key
from repro.service import (
    JobBroker,
    QUEUE_CHECKPOINT_FILENAME,
    QueueFullError,
    RateLimitedError,
    ServiceConfig,
    ServiceServer,
    ThreadedServer,
    TokenBucket,
    canonical_json,
)
from repro.service.client import (
    ClientBackpressureError,
    ServiceClient,
    StreamEvent,
)
from repro.service import broker as broker_module
from repro.service import client as client_module
from repro.service import http as http_module
from repro.service.http import MAX_BODY_BYTES, spec_from_request
from repro.sim.config import SystemConfig
from repro.sim.system import SimResult


def make_spec(workload="BFS", threads=16, modes=None, params=None):
    return ExperimentSpec.for_workload(
        workload,
        "tiny",
        modes=modes or [SystemConfig.baseline()],
        num_threads=threads,
        params=params,
    )


class CountingExecute:
    """Thread-safe fake ``execute_spec``: counts calls per spec key."""

    def __init__(self, delay_s=0.0, gate=None, fail_for=()):
        self.delay_s = delay_s
        self.gate = gate  # threading.Event the execute waits on
        self.fail_for = set(fail_for)
        self.calls = []
        self.order = []
        self._lock = threading.Lock()

    def __call__(self, spec, runner_config, publisher=None, recorder=None):
        key = spec_key(spec, runner_config.cache_salt)
        with self._lock:
            self.calls.append(key)
            self.order.append(spec.job_id)
        if self.gate is not None:
            assert self.gate.wait(timeout=30), "test gate never opened"
        if self.delay_s:
            time.sleep(self.delay_s)
        if spec.workload in self.fail_for:
            raise ServiceError(f"injected failure for {spec.workload}")
        return {
            "run": None,
            "trace_hash": f"trace-{spec.workload}-{spec.num_threads}",
            "seconds": self.delay_s,
            "modes": {
                mode.display_name: {
                    "payload": {
                        "cycles": 1000.0 + index,
                        "workload": spec.workload,
                    },
                    "cached": False,
                }
                for index, mode in enumerate(spec.modes)
            },
        }


def service_config(tmp_path=None, **overrides):
    runner = overrides.pop(
        "runner",
        RunnerConfig(
            cache_dir=str(tmp_path / "cache") if tmp_path else None
        ),
    )
    overrides.setdefault("port", 0)
    return ServiceConfig(runner=runner, **overrides)


async def started_broker(config, execute):
    broker = JobBroker(config, execute=execute)
    await broker.start()
    return broker


# ----------------------------------------------------------------------
# Token bucket
# ----------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3, clock=lambda: now[0])
        assert [bucket.try_acquire() for _ in range(3)] == [True] * 3
        assert not bucket.try_acquire()
        assert bucket.retry_after_s() == pytest.approx(0.5)
        now[0] += 0.5  # one token refilled
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_never_exceeds_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=10.0, burst=2, clock=lambda: now[0])
        now[0] += 100.0
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()


# ----------------------------------------------------------------------
# Spec wire format
# ----------------------------------------------------------------------


class TestSpecWireFormat:
    def test_round_trip_preserves_spec_key(self):
        spec = ExperimentSpec.for_workload(
            "DC",
            "tiny",
            modes=SystemConfig().evaluation_trio(),
            num_threads=8,
            params={"samples": 3},
        )
        rebuilt = ExperimentSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert rebuilt == spec
        assert spec_key(rebuilt) == spec_key(spec)

    def test_shorthand_request(self):
        spec = spec_from_request(
            {"workload": "BFS", "scale": "tiny", "modes": ["baseline"]}
        )
        assert spec.workload == "BFS"
        assert spec.scale == "tiny"
        assert [m.display_name for m in spec.modes] == ["Baseline"]

    def test_shorthand_defaults_to_baseline_and_graphpim(self):
        spec = spec_from_request({"workload": "BFS", "scale": "tiny"})
        assert [m.display_name for m in spec.modes] == [
            "Baseline",
            "GraphPIM",
        ]

    def test_shorthand_rejects_unknown_mode(self):
        with pytest.raises(ServiceError, match="unknown mode"):
            spec_from_request(
                {"workload": "BFS", "modes": ["warp-drive"]}
            )

    def test_shorthand_rejects_unknown_workload(self):
        with pytest.raises(ServiceError):
            spec_from_request({"workload": "NOPE"})

    def test_full_spec_form(self):
        spec = make_spec(threads=4)
        rebuilt = spec_from_request({"spec": spec.to_dict()})
        assert rebuilt == spec

    def test_missing_workload_rejected(self):
        with pytest.raises(ServiceError, match="workload"):
            spec_from_request({})


# ----------------------------------------------------------------------
# Broker: coalescing
# ----------------------------------------------------------------------


class TestBrokerCoalescing:
    def test_32_identical_submissions_one_execution(self):
        execute = CountingExecute(delay_s=0.02)

        async def main():
            broker = await started_broker(
                service_config(workers=4), execute
            )
            spec = make_spec()
            pairs = await asyncio.gather(
                *[broker.submit(spec) for _ in range(32)]
            )
            jobs = [job for job, _ in pairs]
            await jobs[0].done_event.wait()
            await broker.drain()
            return pairs, jobs

        pairs, jobs = asyncio.run(main())
        assert len(execute.calls) == 1
        outcomes = [outcome for _, outcome in pairs]
        assert outcomes.count("accepted") == 1
        assert outcomes.count("coalesced") == 31
        assert len({id(job) for job in jobs}) == 1
        bodies = {job.result_bytes for job in jobs}
        assert len(bodies) == 1 and None not in bodies

    def test_mixed_specs_one_execution_per_key(self):
        execute = CountingExecute(delay_s=0.01)
        specs = [make_spec(threads=2 ** i) for i in range(4)]

        async def main():
            broker = await started_broker(
                service_config(workers=2), execute
            )
            pairs = await asyncio.gather(
                *[broker.submit(specs[i % 4]) for i in range(32)]
            )
            for job, _ in pairs:
                await job.done_event.wait()
            await broker.drain()
            return pairs

        pairs = asyncio.run(main())
        assert len(execute.calls) == 4
        assert len(set(execute.calls)) == 4
        by_key = {}
        for job, _ in pairs:
            by_key.setdefault(job.job_id, set()).add(job.result_bytes)
        assert len(by_key) == 4
        for bodies in by_key.values():
            assert len(bodies) == 1

    def test_resubmit_after_done_is_duplicate(self):
        execute = CountingExecute()

        async def main():
            broker = await started_broker(service_config(), execute)
            spec = make_spec()
            job, outcome = await broker.submit(spec)
            await job.done_event.wait()
            again, outcome2 = await broker.submit(spec)
            await broker.drain()
            return outcome, outcome2, job, again

        outcome, outcome2, job, again = asyncio.run(main())
        assert (outcome, outcome2) == ("accepted", "duplicate")
        assert again is job
        assert len(execute.calls) == 1

    def test_a_second_job_of_one_workload_reuses_its_trace(self):
        """The real executor keeps the first job's trace; a job of the
        same workload under other modes reuses it, counted on
        ``service_trace_reuses_total``."""

        async def main():
            broker = JobBroker(service_config())
            await broker.start()
            done = []
            for modes in (
                [SystemConfig.baseline()],
                [SystemConfig.upei(), SystemConfig.graphpim()],
            ):
                job, _ = await broker.submit(make_spec(modes=modes))
                await job.done_event.wait()
                done.append(job)
            await broker.drain()
            return broker, done

        broker, done = asyncio.run(main())
        assert [job.status for job in done] == ["done", "done"]
        hashes = {json.loads(job.result_bytes)["trace_hash"] for job in done}
        assert len(hashes) == 1
        assert broker.registry.get("service_trace_reuses_total").value() == 1

    def test_failed_job_reexecutes_on_resubmit(self):
        execute = CountingExecute(fail_for={"BFS"})

        async def main():
            broker = await started_broker(service_config(), execute)
            spec = make_spec()
            job, _ = await broker.submit(spec)
            await job.done_event.wait()
            execute.fail_for.clear()
            retry, outcome = await broker.submit(spec)
            await retry.done_event.wait()
            await broker.drain()
            return job, retry, outcome

        job, retry, outcome = asyncio.run(main())
        assert job.status == "failed" and "injected" in job.error
        assert outcome == "accepted"
        assert retry.status == "done"
        assert len(execute.calls) == 2


# ----------------------------------------------------------------------
# Broker: admission control
# ----------------------------------------------------------------------


class TestBrokerAdmission:
    def test_queue_full_rejects_with_retry_after(self):
        gate = threading.Event()
        execute = CountingExecute(gate=gate)

        async def main():
            broker = await started_broker(
                service_config(
                    workers=1, queue_capacity=2, retry_after_s=2.5
                ),
                execute,
            )
            first, _ = await broker.submit(make_spec(threads=1))
            second, _ = await broker.submit(make_spec(threads=2))
            with pytest.raises(QueueFullError) as excinfo:
                await broker.submit(make_spec(threads=4))
            gate.set()
            await first.done_event.wait()
            await second.done_event.wait()
            await broker.drain()
            return excinfo.value

        error = asyncio.run(main())
        assert error.retry_after_s == 2.5
        assert error.reason == "backpressure"

    def test_rate_limit_per_client(self):
        now = [0.0]
        execute = CountingExecute()

        async def main():
            broker = JobBroker(
                service_config(
                    rate_limit_rps=1.0, rate_limit_burst=2
                ),
                execute=execute,
                clock=lambda: now[0],
            )
            await broker.start()
            await broker.submit(make_spec(threads=1), client="alice")
            await broker.submit(make_spec(threads=2), client="alice")
            with pytest.raises(RateLimitedError) as excinfo:
                await broker.submit(
                    make_spec(threads=4), client="alice"
                )
            # An unrelated client has its own bucket.
            job, _ = await broker.submit(
                make_spec(threads=8), client="bob"
            )
            # Refill lets alice back in.
            now[0] += 1.0
            await broker.submit(make_spec(threads=16), client="alice")
            await job.done_event.wait()
            await broker.drain()
            return excinfo.value

        error = asyncio.run(main())
        assert error.reason == "rate_limited"
        assert error.retry_after_s > 0

    def test_priority_lane_overtakes_batch(self):
        gate = threading.Event()
        execute = CountingExecute(gate=gate)

        async def main():
            broker = await started_broker(
                service_config(workers=1), execute
            )
            blocker, _ = await broker.submit(make_spec(threads=1))
            while blocker.status != "running":
                await asyncio.sleep(0.005)
            batch, _ = await broker.submit(
                make_spec("DC"), priority="batch"
            )
            interactive, _ = await broker.submit(
                make_spec("CComp"), priority="interactive"
            )
            gate.set()
            await batch.done_event.wait()
            await interactive.done_event.wait()
            await broker.drain()

        asyncio.run(main())
        assert execute.order == [
            "BFS@tiny",
            "CComp@tiny",
            "DC@tiny",
        ]


# ----------------------------------------------------------------------
# Broker: cache short-circuit + drain/restore
# ----------------------------------------------------------------------


class TestBrokerPersistence:
    def test_cache_short_circuit_skips_queue(self, tmp_path):
        execute = CountingExecute()
        config = service_config(tmp_path)

        async def first():
            broker = await started_broker(config, execute)
            job, _ = await broker.submit(make_spec())
            await job.done_event.wait()
            await broker.drain()
            return job.result_bytes

        async def second():
            def explode(spec, runner_config, publisher=None, recorder=None):
                raise AssertionError("cache hit must not execute")

            broker = JobBroker(config, execute=explode)
            await broker.start()
            job, outcome = await broker.submit(make_spec())
            await broker.drain()
            return job, outcome

        original = asyncio.run(first())
        job, outcome = asyncio.run(second())
        assert outcome == "cache_hit"
        assert job.status == "done" and job.from_cache
        assert job.result_bytes == original
        assert len(execute.calls) == 1

    def test_drain_checkpoints_queued_jobs_and_restores(self, tmp_path):
        gate = threading.Event()
        execute = CountingExecute(gate=gate)
        config = service_config(tmp_path, workers=1)
        journal = tmp_path / "cache" / QUEUE_CHECKPOINT_FILENAME

        async def main():
            broker = await started_broker(config, execute)
            running, _ = await broker.submit(make_spec(threads=1))
            while running.status != "running":
                await asyncio.sleep(0.005)
            queued_a, _ = await broker.submit(make_spec("DC"))
            queued_b, _ = await broker.submit(
                make_spec("CComp"), priority="batch"
            )
            drain_task = asyncio.ensure_future(broker.drain())
            await asyncio.sleep(0.01)
            gate.set()  # let the in-flight job finish mid-drain
            checkpointed = await drain_task
            return running, queued_a, queued_b, checkpointed

        running, queued_a, queued_b, checkpointed = asyncio.run(main())
        assert checkpointed == 2
        assert running.status == "done"
        assert queued_a.status == "checkpointed"
        assert queued_b.status == "checkpointed"
        lines = [
            json.loads(line)
            for line in journal.read_text().splitlines()
            if line.strip()
        ]
        assert {entry["spec"] for entry in lines} == {
            queued_a.job_id,
            queued_b.job_id,
        }
        assert lines[0]["request"]["workload"] in ("DC", "CComp")

        async def reboot():
            broker = await started_broker(config, execute)
            # Restored jobs execute without any new submission.
            for _ in range(400):
                done = {
                    key for key in (queued_a.job_id, queued_b.job_id)
                    if (job := broker.get(key)) and job.status == "done"
                }
                if len(done) == 2:
                    break
                await asyncio.sleep(0.01)
            await broker.drain()
            return done

        done = asyncio.run(reboot())
        assert len(done) == 2
        assert not journal.exists()

    def test_clean_drain_leaves_no_journal(self, tmp_path):
        execute = CountingExecute()
        config = service_config(tmp_path)
        journal = tmp_path / "cache" / QUEUE_CHECKPOINT_FILENAME

        async def main():
            broker = await started_broker(config, execute)
            job, _ = await broker.submit(make_spec())
            await job.done_event.wait()
            return await broker.drain()

        assert asyncio.run(main()) == 0
        assert not journal.exists()

    def test_draining_broker_rejects_submissions(self):
        execute = CountingExecute()

        async def main():
            broker = await started_broker(service_config(), execute)
            await broker.drain()
            from repro.service import DrainingError

            with pytest.raises(DrainingError):
                await broker.submit(make_spec())

        asyncio.run(main())

    def test_prune_caches_bounds_response_store(self, tmp_path):
        execute = CountingExecute()
        config = service_config(tmp_path, max_cache_mb=0.0)

        async def main():
            broker = await started_broker(config, execute)
            job, _ = await broker.submit(make_spec())
            await job.done_event.wait()
            outcome = broker.prune_caches()
            await broker.drain()
            return outcome

        outcome = asyncio.run(main())
        assert outcome["removed"] >= 1
        assert not list(
            (tmp_path / "cache" / "service" / "objects").glob("*.json")
        )


# ----------------------------------------------------------------------
# HTTP frontend
# ----------------------------------------------------------------------


async def http_request(port, method, path, body=None):
    """Minimal HTTP/1.1 round trip; returns (code, headers, body).

    ``body`` is a JSON-able object or the exact bytes to send.  The
    request carries ``Connection: close`` and the helper reads to EOF,
    so it returns only once the server has closed the connection.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    if isinstance(body, bytes):
        payload = body
    else:
        payload = (
            json.dumps(body).encode("utf-8") if body is not None else b""
        )
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: t\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + payload)
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    head_bytes, _, body_bytes = raw.partition(b"\r\n\r\n")
    lines = head_bytes.decode("latin-1").split("\r\n")
    code = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return code, headers, body_bytes


async def with_server(config, execute, scenario):
    broker = JobBroker(config, execute=execute)
    server = ServiceServer(config, broker=broker)
    await server.start()
    try:
        return await scenario(server)
    finally:
        await server.stop()


class TestHttpFrontend:
    def test_health_ready_metrics_and_request_id(self, tmp_path):
        execute = CountingExecute()

        async def scenario(server):
            port = server.port
            health = await http_request(port, "GET", "/healthz")
            ready = await http_request(port, "GET", "/readyz")
            metrics = await http_request(port, "GET", "/metrics")
            missing = await http_request(port, "GET", "/v1/jobs/nope")
            return health, ready, metrics, missing

        health, ready, metrics, missing = asyncio.run(
            with_server(service_config(tmp_path), execute, scenario)
        )
        assert health[0] == 200
        assert json.loads(health[2])["status"] == "ok"
        assert "x-request-id" in health[1]
        assert health[1]["connection"] == "close"
        assert ready[0] == 200
        assert metrics[0] == 200
        text = metrics[2].decode()
        assert "# TYPE service_connections_total counter" in text
        # One connection per request so far: health, ready, metrics.
        assert "service_connections_total 3" in text
        assert "# TYPE service_queue_depth gauge" in text
        assert "# TYPE service_coalesced_hits_total counter" in text
        assert "# TYPE service_rejected_total counter" in text
        assert "# TYPE service_request_seconds histogram" in text
        assert missing[0] == 404

    def test_submit_poll_roundtrip(self, tmp_path):
        execute = CountingExecute()

        async def scenario(server):
            port = server.port
            code, _, body = await http_request(
                port, "POST", "/v1/jobs",
                {"spec": make_spec().to_dict()},
            )
            assert code == 202, body
            job_id = json.loads(body)["job_id"]
            for _ in range(400):
                code, _, body = await http_request(
                    port, "GET", f"/v1/jobs/{job_id}"
                )
                if json.loads(body).get("status") == "done":
                    return code, json.loads(body)
                await asyncio.sleep(0.01)
            raise AssertionError("job never finished")

        code, body = asyncio.run(
            with_server(service_config(tmp_path), execute, scenario)
        )
        assert code == 200
        assert body["status"] == "done"
        assert "Baseline" in body["results"]

    def test_bad_submissions_get_400(self, tmp_path):
        execute = CountingExecute()

        async def scenario(server):
            port = server.port
            garbage = await http_request(port, "POST", "/v1/jobs", None)
            unknown = await http_request(
                port, "POST", "/v1/jobs", {"workload": "NOPE"}
            )
            method = await http_request(port, "GET", "/v1/jobs")
            return garbage, unknown, method

        garbage, unknown, method = asyncio.run(
            with_server(service_config(tmp_path), execute, scenario)
        )
        assert garbage[0] == 400  # empty body is not a submission
        assert unknown[0] == 400
        assert method[0] == 405

    def test_load_32_concurrent_clients_coalesce(self, tmp_path):
        """The ISSUE's concurrency invariant, over the real HTTP stack.

        32 concurrent clients submit a mix of identical and distinct
        specs; every unique spec_key executes exactly once and every
        response body for the same job id is bit-identical.
        """
        execute = CountingExecute(delay_s=0.05)
        shared = make_spec()  # 24 clients pile onto this one
        distinct = [make_spec(threads=2 ** (i + 1)) for i in range(4)]
        config = service_config(
            tmp_path, workers=4, queue_capacity=64
        )

        async def one_client(port, spec):
            code, _, body = await http_request(
                port, "POST", "/v1/jobs", {"spec": spec.to_dict()}
            )
            assert code in (200, 202), body
            job_id = json.loads(body)["job_id"]
            for _ in range(800):
                code, _, raw = await http_request(
                    port, "GET", f"/v1/jobs/{job_id}"
                )
                if json.loads(raw).get("status") == "done":
                    return job_id, raw
                await asyncio.sleep(0.01)
            raise AssertionError("job never finished")

        async def scenario(server):
            port = server.port
            specs = [shared] * 24 + [
                distinct[i % 4] for i in range(8)
            ]
            return await asyncio.gather(
                *[one_client(port, spec) for spec in specs]
            )

        results = asyncio.run(with_server(config, execute, scenario))
        assert len(results) == 32
        unique_keys = {spec_key(s) for s in [shared] + distinct}
        # Exactly one simulation per unique spec, nothing more.
        assert sorted(execute.calls) == sorted(unique_keys)
        by_job = {}
        for job_id, raw in results:
            by_job.setdefault(job_id, set()).add(raw)
        assert set(by_job) == unique_keys
        for bodies in by_job.values():
            assert len(bodies) == 1  # bit-identical for every caller

    def test_backpressure_429_with_retry_after(self, tmp_path):
        gate = threading.Event()
        execute = CountingExecute(gate=gate)
        config = service_config(
            tmp_path, workers=1, queue_capacity=2, retry_after_s=3.0
        )

        async def scenario(server):
            port = server.port
            admitted = []
            rejected = []
            for threads in (1, 2, 4, 8, 16):
                code, headers, body = await http_request(
                    port, "POST", "/v1/jobs",
                    {"spec": make_spec(threads=threads).to_dict()},
                )
                if code == 202:
                    admitted.append(json.loads(body)["job_id"])
                else:
                    rejected.append((code, headers, json.loads(body)))
            gate.set()
            for job_id in admitted:
                for _ in range(800):
                    _, _, raw = await http_request(
                        port, "GET", f"/v1/jobs/{job_id}"
                    )
                    if json.loads(raw).get("status") == "done":
                        break
                    await asyncio.sleep(0.01)
            return admitted, rejected

        admitted, rejected = asyncio.run(
            with_server(config, execute, scenario)
        )
        assert len(admitted) == 2
        assert len(rejected) == 3
        for code, headers, body in rejected:
            assert code == 429
            assert headers["retry-after"] == "3"
            assert body["reason"] == "backpressure"
            assert body["retry_after_s"] == 3.0

    def test_drain_flips_readyz_and_rejects_submissions(self, tmp_path):
        execute = CountingExecute()
        config = service_config(tmp_path)

        async def scenario(server):
            port = server.port
            before = await http_request(port, "GET", "/readyz")
            await server.broker.drain()
            after = await http_request(port, "GET", "/readyz")
            reject = await http_request(
                port, "POST", "/v1/jobs",
                {"spec": make_spec().to_dict()},
            )
            return before, after, reject

        before, after, reject = asyncio.run(
            with_server(config, execute, scenario)
        )
        assert before[0] == 200
        assert after[0] == 503
        assert reject[0] == 503
        assert "retry-after" in reject[1]
        assert json.loads(reject[2])["reason"] == "draining"


# ----------------------------------------------------------------------
# Persistent connections and request framing
# ----------------------------------------------------------------------


def raw_request(method, path, body=b"", headers=(), version="HTTP/1.1"):
    """The bytes of one request with no ``Connection`` header unless
    ``headers`` adds one."""
    head = [
        f"{method} {path} {version}",
        "Host: t",
        f"Content-Length: {len(body)}",
        *headers,
    ]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


async def read_response(reader):
    """One Content-Length framed response: (code, headers, body)."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    return int(lines[0].split(" ")[1]), headers, body


async def read_to_close(reader):
    """What arrives before the server closes (a reset counts as a close)."""
    try:
        return await asyncio.wait_for(reader.read(), timeout=10)
    except ConnectionResetError:
        return b""


def requests_seen(server, route):
    counter = server.registry.counter("service_requests_total")
    return sum(
        counter.value(route=route, code=str(code))
        for code in (200, 202, 400, 404, 405, 413, 429, 500, 503)
    )


def connections_seen(server):
    return server.registry.counter("service_connections_total").value()


class TestPersistentConnections:
    def test_one_connection_carries_many_requests(self, tmp_path):
        execute = CountingExecute()
        body = json.dumps({"spec": make_spec().to_dict()}).encode()

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            answers = []
            writer.write(raw_request("GET", "/healthz"))
            answers.append(await read_response(reader))
            writer.write(raw_request("POST", "/v1/jobs", body))
            answers.append(await read_response(reader))
            job_id = json.loads(answers[-1][2])["job_id"]
            # Two pipelined requests are answered in order.
            writer.write(
                raw_request("GET", f"/v1/jobs/{job_id}")
                + raw_request("GET", "/metrics")
            )
            answers.append(await read_response(reader))
            answers.append(await read_response(reader))
            writer.write(
                raw_request("GET", "/readyz", headers=["Connection: close"])
            )
            answers.append(await read_response(reader))
            rest = await read_to_close(reader)
            writer.close()
            return answers, rest, connections_seen(server)

        answers, rest, connections = asyncio.run(
            with_server(service_config(tmp_path), execute, scenario)
        )
        assert [code for code, _, _ in answers] == [200, 202, 200, 200, 200]
        assert [headers["connection"] for _, headers, _ in answers] == (
            ["keep-alive"] * 4 + ["close"]
        )
        assert json.loads(answers[2][2])["job_id"] == spec_key(make_spec())
        assert "service_connections_total 1" in answers[3][2].decode()
        assert rest == b""
        assert connections == 1

    def test_http10_keeps_alive_only_when_asked(self, tmp_path):
        execute = CountingExecute()

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            asked = []
            for _ in range(2):
                writer.write(raw_request(
                    "GET", "/healthz", version="HTTP/1.0",
                    headers=["Connection: keep-alive"],
                ))
                asked.append(await read_response(reader))
            writer.write(raw_request("GET", "/healthz", version="HTTP/1.0"))
            plain = await read_response(reader)
            rest = await read_to_close(reader)
            writer.close()
            return asked, plain, rest

        asked, plain, rest = asyncio.run(
            with_server(service_config(tmp_path), execute, scenario)
        )
        assert [headers["connection"] for _, headers, _ in asked] == [
            "keep-alive", "keep-alive"
        ]
        assert plain[0] == 200 and plain[1]["connection"] == "close"
        assert rest == b""

    @pytest.mark.parametrize(
        "first, code",
        [
            pytest.param(
                f"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode(),
                413,
                id="body-too-large",
            ),
            pytest.param(b"GARBAGE\r\n", 400, id="malformed-request-line"),
            pytest.param(
                b"POST /v1/jobs HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
                400,
                id="bad-content-length",
            ),
            pytest.param(
                b"POST /v1/jobs HTTP/1.1\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
                400,
                id="chunked-body",
            ),
            # Past the stream reader's 64 KiB line limit.
            pytest.param(
                raw_request("GET", "/" + "a" * 70_000),
                414,
                id="request-line-too-long",
            ),
            pytest.param(
                raw_request(
                    "GET", "/healthz", headers=["X-Big: " + "a" * 70_000]
                ),
                431,
                id="header-line-too-long",
            ),
        ],
    )
    def test_unframed_request_closes_the_connection(
        self, tmp_path, caplog, first, code
    ):
        """Bytes after a request the server could not frame are never
        parsed as the next request: it answers once, closes, and logs
        no error (the input was the client's fault)."""
        execute = CountingExecute()

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(first + raw_request("GET", "/healthz"))
            answer = await read_response(reader)
            rest = await read_to_close(reader)
            writer.close()
            return answer, rest, requests_seen(server, "/healthz")

        answer, rest, healthz = asyncio.run(
            with_server(service_config(tmp_path), execute, scenario)
        )
        assert answer[0] == code
        assert answer[1]["connection"] == "close"
        assert rest == b""
        assert healthz == 0
        assert not [r for r in caplog.records if r.levelname == "ERROR"]

    def test_handler_error_closes_the_connection(self, tmp_path):
        execute = CountingExecute()

        async def scenario(server):
            async def crash(method, path, body):
                raise RuntimeError("injected handler bug")

            server._route = crash
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(raw_request("GET", "/healthz") * 2)
            answer = await read_response(reader)
            rest = await read_to_close(reader)
            writer.close()
            return answer, rest

        answer, rest = asyncio.run(
            with_server(service_config(tmp_path), execute, scenario)
        )
        assert answer[0] == 500
        assert answer[1]["connection"] == "close"
        assert rest == b""

    def test_stop_closes_an_idle_connection(self, tmp_path, caplog):
        """A client's kept-alive connection idle across ``stop()``: the
        server closes it without waiting, cancelling or logging an
        error, and drains."""
        execute = CountingExecute()
        config = service_config(tmp_path)

        async def main():
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(
                lambda _loop, context: errors.append(context)
            )
            server = ServiceServer(
                config, broker=JobBroker(config, execute=execute)
            )
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(raw_request("GET", "/healthz"))
            answer = await read_response(reader)
            handlers = list(server._idle.values())
            checkpointed = await asyncio.wait_for(server.stop(), 10)
            rest = await read_to_close(reader)
            writer.close()
            return answer, handlers, checkpointed, rest, errors

        answer, handlers, checkpointed, rest, errors = asyncio.run(main())
        assert answer[0] == 200 and answer[1]["connection"] == "keep-alive"
        assert len(handlers) == 1
        assert handlers[0].done() and not handlers[0].cancelled()
        assert handlers[0].exception() is None
        assert checkpointed == 0
        assert rest == b""
        assert errors == []
        assert not [r for r in caplog.records if r.levelname == "ERROR"]
        assert not (tmp_path / "cache" / QUEUE_CHECKPOINT_FILENAME).exists()

    def test_stop_answers_the_request_in_flight_then_closes(self, tmp_path):
        execute = CountingExecute()

        async def scenario(server):
            entered = asyncio.Event()
            release = asyncio.Event()
            route = server._route

            async def slow_route(method, path, body):
                entered.set()
                await release.wait()
                return await route(method, path, body)

            server._route = slow_route
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            # The second, pipelined request arrives before stop() and
            # must not be read.
            writer.write(
                raw_request("GET", "/healthz") + raw_request("GET", "/readyz")
            )
            await entered.wait()
            stopping = asyncio.ensure_future(server.stop())
            await asyncio.sleep(0.05)
            release.set()
            answer = await read_response(reader)
            rest = await read_to_close(reader)
            writer.close()
            await asyncio.wait_for(stopping, 10)
            return answer, rest, requests_seen(server, "/readyz")

        answer, rest, readyz = asyncio.run(
            with_server(service_config(tmp_path), execute, scenario)
        )
        assert answer[0] == 200
        assert answer[1]["connection"] == "close"
        assert rest == b""
        assert readyz == 0


# ----------------------------------------------------------------------
# Submission memo (POST /v1/jobs bodies)
# ----------------------------------------------------------------------


def count_parses(monkeypatch):
    """Count ``spec_from_request`` calls made by the HTTP layer."""
    calls = []
    real = http_module.spec_from_request

    def counting(body):
        calls.append(body)
        return real(body)

    monkeypatch.setattr(http_module, "spec_from_request", counting)
    return calls


class TestSubmissionMemo:
    def test_identical_bodies_share_one_parse(self, tmp_path, monkeypatch):
        parses = count_parses(monkeypatch)
        execute = CountingExecute()
        body = {"spec": make_spec().to_dict(), "client": "a"}

        async def scenario(server):
            answers = [
                await http_request(server.port, "POST", "/v1/jobs", body)
                for _ in range(3)
            ]
            return answers, len(server._submissions)

        answers, memo = asyncio.run(
            with_server(service_config(tmp_path), execute, scenario)
        )
        assert len(parses) == 1
        assert memo == 1
        assert [code for code, _, _ in answers][0] == 202
        assert {json.loads(raw)["job_id"] for _, _, raw in answers} == {
            spec_key(make_spec())
        }
        assert len(execute.calls) == 1

    def test_client_field_keeps_its_own_rate_limit_bucket(self, tmp_path):
        execute = CountingExecute()
        config = service_config(
            tmp_path, rate_limit_rps=0.001, rate_limit_burst=1
        )
        spec = make_spec().to_dict()

        async def scenario(server):
            port = server.port
            first = await http_request(
                port, "POST", "/v1/jobs", {"spec": spec, "client": "a"}
            )
            again = await http_request(
                port, "POST", "/v1/jobs", {"spec": spec, "client": "a"}
            )
            other = await http_request(
                port, "POST", "/v1/jobs", {"spec": spec, "client": "b"}
            )
            return first, again, other, len(server._submissions)

        first, again, other, memo = asyncio.run(
            with_server(config, execute, scenario)
        )
        assert first[0] == 202
        assert again[0] == 429
        assert json.loads(again[2])["reason"] == "rate_limited"
        assert other[0] in (200, 202)
        assert memo == 2

    def test_invalid_bodies_are_never_memoized(self, tmp_path, monkeypatch):
        parses = count_parses(monkeypatch)
        execute = CountingExecute()
        bodies = [
            b"{not json",
            json.dumps({"workload": "NOPE"}).encode(),
            json.dumps(
                {"spec": make_spec().to_dict(), "priority": "urgent"}
            ).encode(),
        ]

        async def scenario(server):
            answers = []
            for body in bodies:
                for _ in range(2):
                    answers.append(await http_request(
                        server.port, "POST", "/v1/jobs", body
                    ))
            return answers, len(server._submissions)

        answers, memo = asyncio.run(
            with_server(service_config(tmp_path), execute, scenario)
        )
        assert [code for code, _, _ in answers] == [400] * 6
        assert len({raw for _, _, raw in answers}) == 3
        assert memo == 0
        assert len(parses) == 4  # the two parseable bodies, twice each
        assert execute.calls == []

    def test_memo_never_grows_past_its_bound(self, tmp_path, monkeypatch):
        monkeypatch.setattr(http_module, "SUBMIT_MEMO_ENTRIES", 3)
        execute = CountingExecute()
        bodies = {
            threads: {"spec": make_spec(threads=threads).to_dict()}
            for threads in (1, 2, 4, 8, 16)
        }

        async def scenario(server):
            sizes = []
            for threads in (1, 2, 4, 1, 8, 16):
                code, _, raw = await http_request(
                    server.port, "POST", "/v1/jobs", bodies[threads]
                )
                assert code in (200, 202), raw
                sizes.append(len(server._submissions))
            kept = [
                json.loads(body)["spec"]["num_threads"]
                for body in server._submissions
            ]
            monkeypatch.setattr(http_module, "SUBMIT_MEMO_MAX_BODY", 64)
            await http_request(
                server.port, "POST", "/v1/jobs",
                {"spec": make_spec(threads=32).to_dict()},
            )
            return sizes, kept, len(server._submissions)

        sizes, kept, after_large = asyncio.run(
            with_server(service_config(tmp_path), execute, scenario)
        )
        assert sizes == [1, 2, 3, 3, 3, 3]
        # LRU: resubmitting 1 kept it over 2 and 4.
        assert kept == [1, 8, 16]
        assert after_large == 3  # a body over the size limit is not kept


# ----------------------------------------------------------------------
# Typed client + end-to-end with the real runner
# ----------------------------------------------------------------------


class TestClientEndToEnd:
    def test_client_against_real_service(self, tmp_path):
        config = ServiceConfig(
            port=0,
            workers=1,
            runner=RunnerConfig(cache_dir=str(tmp_path / "cache")),
        )
        with ThreadedServer(config) as server:
            client = ServiceClient(
                f"http://127.0.0.1:{server.port}", client_id="pytest"
            )
            assert client.ready()
            assert client.health()["status"] == "ok"
            ticket = client.submit(
                workload="BFS", scale="tiny", modes=["baseline"]
            )
            status = client.wait(ticket.job_id, timeout_s=120)
            result = SimResult.from_dict(status.results["Baseline"])
            assert result.cycles > 0
            # Identical resubmission answers instantly from memory
            # with bit-identical bytes.
            again = client.submit(
                workload="BFS", scale="tiny", modes=["baseline"]
            )
            assert again.job_id == ticket.job_id
            assert again.done
            assert client.status(again.job_id).raw == status.raw
            metrics = client.metrics_text()
            assert "service_jobs_total" in metrics
            assert 'service_submissions_total{outcome="accepted"} 1'\
                in metrics
            client.close()

        # After the context exits the server has drained cleanly:
        # no queued work was abandoned, so no journal exists.
        assert not (
            tmp_path / "cache" / QUEUE_CHECKPOINT_FILENAME
        ).exists()

    def test_client_surfaces_backpressure(self, tmp_path):
        gate = threading.Event()
        execute = CountingExecute(gate=gate)
        config = service_config(tmp_path, workers=1, queue_capacity=1)

        async def scenario(server):
            port = server.port
            loop = asyncio.get_running_loop()

            def drive():
                client = ServiceClient(f"http://127.0.0.1:{port}")
                client.submit(spec=make_spec(threads=1))
                try:
                    client.submit(spec=make_spec(threads=2))
                    return None
                except ClientBackpressureError as error:
                    return error
                finally:
                    gate.set()
                    client.close()

            return await loop.run_in_executor(None, drive)

        error = asyncio.run(with_server(config, execute, scenario))
        assert error is not None
        assert error.reason == "backpressure"
        assert error.retry_after_s > 0

    def test_client_rejects_bad_urls(self):
        for url in (
            "ftp://somewhere",
            "",
            "http://h:abc",
            "http://h:70000",
            "localhost:abc",
            "http://:8477",
        ):
            with pytest.raises(ServiceError):
                ServiceClient(url)

    @pytest.mark.parametrize(
        "template, family",
        [
            ("http://127.0.0.1:{port}", socket.AF_INET),
            ("127.0.0.1:{port}", socket.AF_INET),
            ("localhost:{port}", socket.AF_INET),
            ("http://127.0.0.1:{port}/ignored/path", socket.AF_INET),
            ("http://[::1]:{port}", socket.AF_INET6),
        ],
    )
    def test_client_accepts_url_forms(self, template, family):
        """A scheme-less ``host:port`` means http, and an IPv6 host goes
        in brackets; each form reaches the server it names."""
        try:
            server = ScriptedServer([OK_EMPTY], family=family)
        except OSError:
            pytest.skip("no IPv6 loopback on this host")
        with server:
            client = ServiceClient(template.format(port=server.port))
            try:
                assert client.health() == {}
            finally:
                client.close()
        assert server.requests[0].startswith(b"GET /healthz HTTP/1.1\r\n")


class TestClientConnections:
    def test_threads_share_one_client(self, tmp_path):
        """Threads calling one client each get the answers to their own
        requests, over one connection per thread."""
        execute = CountingExecute()
        config = service_config(tmp_path, workers=2, queue_capacity=64)
        threads, rounds = 6, 5

        async def scenario(server):
            loop = asyncio.get_running_loop()
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
            barrier = threading.Barrier(threads)

            def drive(index):
                barrier.wait(timeout=30)
                wrong = []
                for step in range(rounds):
                    spec = make_spec(threads=1 + index * rounds + step)
                    ticket = client.submit(spec=spec)
                    status = client.wait(ticket.job_id, timeout_s=30)
                    if ticket.job_id != spec_key(spec) or (
                        status.body["trace_hash"]
                        != f"trace-BFS-{spec.num_threads}"
                    ):
                        wrong.append((index, step, ticket, status))
                return wrong

            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                with ThreadPoolExecutor(threads) as pool:
                    answers = await asyncio.gather(*[
                        loop.run_in_executor(pool, drive, index)
                        for index in range(threads)
                    ])
            finally:
                sys.setswitchinterval(switch)
            open_before = len(server._idle)
            client.close()  # every thread's connection, threads gone
            for _ in range(500):
                if not server._idle:
                    break
                await asyncio.sleep(0.01)
            return (
                answers, connections_seen(server), open_before,
                len(server._idle),
            )

        answers, connections, open_before, open_after = asyncio.run(
            with_server(config, execute, scenario)
        )
        assert answers == [[]] * threads
        assert len(execute.calls) == threads * rounds
        assert connections == threads
        assert (open_before, open_after) == (threads, 0)

    def test_stale_connection_is_resent_once(self, tmp_path, monkeypatch):
        """The server closes an idle connection; the client's next call
        resends on a fresh one, and the server sees it exactly once."""
        monkeypatch.setattr(http_module, "KEEPALIVE_IDLE_S", 0.2)
        execute = CountingExecute()

        async def scenario(server):
            loop = asyncio.get_running_loop()

            def drive():
                client = ServiceClient(f"http://127.0.0.1:{server.port}")
                try:
                    client.health()
                    time.sleep(0.6)  # past the idle timeout
                    return client.submit(spec=make_spec())
                finally:
                    client.close()

            ticket = await loop.run_in_executor(None, drive)
            return (
                ticket,
                requests_seen(server, "/v1/jobs"),
                connections_seen(server),
            )

        ticket, submits, connections = asyncio.run(
            with_server(service_config(tmp_path), execute, scenario)
        )
        assert ticket.outcome == "accepted"
        assert submits == 1
        assert connections == 2

    def test_no_resend_once_a_response_started(self):
        """A response cut off mid-body fails the call; it is not sent
        again on another connection."""
        server = ScriptedServer([
            OK_EMPTY,
            b"HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\n{",
        ])
        with server:
            client = ServiceClient(
                f"http://127.0.0.1:{server.port}", timeout_s=5
            )
            try:
                assert client.health() == {}
                with pytest.raises(ServiceError):
                    client.health()
            finally:
                client.close()
        assert len(server.requests) == 2
        assert server.connections == 1  # no second connection was opened

    def test_no_resend_on_a_fresh_connection(self):
        """A new connection the server closes unanswered fails the call:
        only a reused one can have gone stale."""
        server = ScriptedServer([])
        with server:
            client = ServiceClient(
                f"http://127.0.0.1:{server.port}", timeout_s=5
            )
            try:
                with pytest.raises(ServiceError, match="unanswered"):
                    client.health()
            finally:
                client.close()
        assert server.connections == 1


# ----------------------------------------------------------------------
# Client transport against a scripted socket server
# ----------------------------------------------------------------------

OK_EMPTY = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"


def read_request(stream) -> bytes:
    """One request's bytes off a server-side stream: head, then the
    ``Content-Length`` body; ``b""`` when the client closed first."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        line = stream.readline()
        if not line:
            return head
        head += line
    for line in head.split(b"\r\n"):
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            return head + stream.read(int(value))
    return head


def request_headers(request: bytes) -> "list[tuple[str, str]]":
    """The (lower-cased name, value) pairs of one request, in order."""
    head = request.split(b"\r\n\r\n", 1)[0].decode("latin-1")
    pairs = []
    for line in head.split("\r\n")[1:]:
        name, _, value = line.partition(":")
        pairs.append((name.strip().lower(), value.strip()))
    return pairs


class ScriptedServer:
    """A listening socket that answers requests with canned bytes.

    Each argument is the list of answers for one connection, in the
    order connections arrive: the server reads a whole request, sends
    the next answer, and after the last one closes the connection, or,
    with ``hold=True``, waits for the client to close it first.
    ``requests`` holds every request's bytes; ``connections`` counts
    the connections accepted, including any the script did not expect.
    """

    def __init__(self, *script, hold=False, family=socket.AF_INET):
        host = "::1" if family == socket.AF_INET6 else "127.0.0.1"
        self.listener = socket.create_server((host, 0), family=family)
        self.port = self.listener.getsockname()[1]
        self.requests: "list[bytes]" = []
        self.connections = 0
        self._script = script
        self._hold = hold
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self):
        for answers in self._script:
            conn, _ = self.listener.accept()
            self.connections += 1
            with conn, conn.makefile("rb") as stream:
                try:
                    for answer in answers:
                        self.requests.append(read_request(stream))
                        conn.sendall(answer)
                    if self._hold:
                        stream.read()
                except OSError:
                    pass  # the client gave up mid-answer

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._thread.join(timeout=10)
        assert not self._thread.is_alive(), "scripted server still running"
        self.listener.settimeout(0.2)
        try:
            self.listener.accept()[0].close()
            self.connections += 1
        except socket.timeout:
            pass
        self.listener.close()


class TestClientTransport:
    @pytest.mark.parametrize(
        "first",
        [
            pytest.param(
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                b"Connection: close\r\n\r\n{}",
                id="connection-close",
            ),
            pytest.param(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b"\r\n{}",
                id="no-length-read-to-close",
            ),
        ],
    )
    def test_closing_answer_opens_a_new_connection(self, first):
        server = ScriptedServer([first], [OK_EMPTY])
        with server:
            client = ServiceClient(
                f"http://127.0.0.1:{server.port}", timeout_s=5
            )
            try:
                assert client.health() == {}
                assert client.health() == {}
            finally:
                client.close()
        assert len(server.requests) == 2
        assert server.connections == 2

    @pytest.mark.parametrize(
        "answer, complaint",
        [
            pytest.param(
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"2\r\n{}\r\n0\r\n\r\n",
                "Transfer-Encoding",
                id="chunked",
            ),
            pytest.param(
                b"HTTP/1.1 200 OK\r\nX-Big: " + b"a" * 70_000
                + b"\r\nContent-Length: 2\r\n\r\n{}",
                "header line longer than 65536 bytes",
                id="header-line-too-long",
            ),
            pytest.param(
                b"HTTP/1.1 200 OK\r\n" + b"X-Many: 1\r\n" * 101
                + b"Content-Length: 2\r\n\r\n{}",
                "more than 100 header lines",
                id="too-many-headers",
            ),
            pytest.param(
                b"SMTP 220 ready\r\n\r\n",
                "malformed status line",
                id="not-http",
            ),
        ],
    )
    def test_unsupported_framing_raises(self, answer, complaint):
        """An answer the client cannot frame fails the call at once,
        though the server holds the connection open, and the client
        drops that connection."""
        server = ScriptedServer([answer], hold=True)
        with server:
            client = ServiceClient(
                f"http://127.0.0.1:{server.port}", timeout_s=30
            )
            started = time.monotonic()
            try:
                with pytest.raises(ServiceError, match=complaint):
                    client.health()
                assert time.monotonic() - started < 10
            finally:
                client.close()
        assert server.connections == 1

    def test_requests_carry_exactly_their_headers(self, monkeypatch):
        """Each request goes out in one ``sendall`` with the headers the
        client means to send, and no others."""
        sent = []
        sendall = socket.socket.sendall

        def record(sock, data, *args):
            if sock.getpeername()[1] == server.port:  # client side only
                sent.append(bytes(data))
            return sendall(sock, data, *args)

        submitted = json.dumps(
            {"job_id": "j1", "status": "queued", "outcome": "accepted"}
        ).encode()
        server = ScriptedServer([
            b"HTTP/1.1 202 Accepted\r\nContent-Length: %d\r\n\r\n%s"
            % (len(submitted), submitted),
            b"HTTP/1.1 200 OK\r\nContent-Length: 32\r\n\r\n"
            b'{"job_id":"j1","status":"done"}\n',
        ])
        spec = make_spec()
        with server:
            monkeypatch.setattr(socket.socket, "sendall", record)
            client = ServiceClient(
                f"http://127.0.0.1:{server.port}", client_id="ci"
            )
            try:
                ticket = client.submit(spec=spec, request_id="rq-1")
                status = client.status(ticket.job_id)
            finally:
                client.close()
                monkeypatch.undo()
        assert ticket.outcome == "accepted" and status.done
        assert status.raw == b'{"job_id":"j1","status":"done"}\n'
        assert sent == server.requests
        post, get = server.requests
        body = json.dumps(
            {"priority": "interactive", "client": "ci",
             "spec": spec.to_dict()}
        ).encode()
        assert post.startswith(b"POST /v1/jobs HTTP/1.1\r\n")
        assert post.endswith(b"\r\n\r\n" + body)
        authority = f"127.0.0.1:{server.port}"
        assert request_headers(post) == [
            ("host", authority),
            ("content-type", "application/json"),
            ("content-length", str(len(body))),
            ("x-client-id", "ci"),
            ("x-request-id", "rq-1"),
        ]
        assert get.startswith(b"GET /v1/jobs/j1 HTTP/1.1\r\n")
        assert request_headers(get) == [
            ("host", authority), ("x-client-id", "ci"),
        ]

    def test_header_values_cannot_split_the_head(self):
        client = ServiceClient("http://127.0.0.1:9", client_id="a\r\nb")
        with pytest.raises(ServiceError, match="line break"):
            client.health()

    def test_events_parse_the_stream(self):
        """``events()`` skips heartbeat comments, joins multi-line
        ``data:`` fields, and resumes with ``Last-Event-ID``."""
        stream = (
            b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
            b"Connection: close\r\n\r\n"
            b": heartbeat\n\n"
            b'id: 3\nevent: progress\ndata: {"events_done":\ndata: 5}\n\n'
            b": heartbeat\n\n"
            b'id: 4\nevent: done\ndata: {"status": "done"}\n\n'
        )
        server = ScriptedServer([stream])
        with server:
            client = ServiceClient(
                f"http://127.0.0.1:{server.port}", client_id="ci",
                timeout_s=5,
            )
            events = list(client.events("j1", last_event_id=2))
        assert events == [
            StreamEvent(3, "progress", {"events_done": 5}),
            StreamEvent(4, "done", {"status": "done"}),
        ]
        (request,) = server.requests
        assert request.startswith(b"GET /v1/jobs/j1/events HTTP/1.1\r\n")
        assert request_headers(request) == [
            ("host", f"127.0.0.1:{server.port}"),
            ("accept", "text/event-stream"),
            ("connection", "close"),
            ("x-client-id", "ci"),
            ("last-event-id", "2"),
        ]

    def test_import_leaves_http_client_out(self):
        """The client needs no :mod:`http.client` (nor the :mod:`email`
        parser it imports) anywhere in ``repro.service``."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        probe = (
            "import sys, repro.service\n"
            "print(sorted(name for name in sys.modules\n"
            "             if name == 'http.client'\n"
            "             or name.split('.')[0] == 'email'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        assert out.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# One-trip hits: a done submission answers with the job document
# ----------------------------------------------------------------------


def one_trip(job_id, outcome="duplicate", status="done"):
    """A done submission's answer: the job document, named by
    ``Content-Location``."""
    document = canonical_json({"job_id": job_id, "status": status})
    return (
        b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"
        b"Content-Location: /v1/jobs/%s\r\nX-Job-Outcome: %s\r\n\r\n%s"
        % (len(document), job_id.encode(), outcome.encode(), document)
    )


def answer(code, payload):
    body = json.dumps(payload).encode()
    return b"HTTP/1.1 %d X\r\nContent-Length: %d\r\n\r\n%s" % (
        code, len(body), body,
    )


def request_line(request: bytes) -> bytes:
    return request.split(b"\r\n", 1)[0]


class TestOneTripHits:
    def test_done_submission_answers_with_the_job_document(self, tmp_path):
        """``duplicate``, and ``cache_hit`` after a restart, answer 200
        with the bytes ``GET /v1/jobs/{id}`` returns, named by
        ``Content-Location``, the outcome in ``X-Job-Outcome``."""
        execute = CountingExecute()
        config = service_config(tmp_path)
        body = {"spec": make_spec().to_dict()}
        job_id = spec_key(make_spec())

        async def first_boot(server):
            accepted = await http_request(server.port, "POST", "/v1/jobs", body)
            await asyncio.wait_for(
                server.broker.get(job_id).done_event.wait(), 30
            )
            again = await http_request(server.port, "POST", "/v1/jobs", body)
            fetched = await http_request(
                server.port, "GET", f"/v1/jobs/{job_id}"
            )
            return accepted, again, fetched

        async def second_boot(server):
            hit = await http_request(server.port, "POST", "/v1/jobs", body)
            fetched = await http_request(
                server.port, "GET", f"/v1/jobs/{job_id}"
            )
            return hit, fetched

        accepted, duplicate, fetched = asyncio.run(
            with_server(config, execute, first_boot)
        )
        cache_hit, refetched = asyncio.run(
            with_server(config, execute, second_boot)
        )
        assert accepted[0] == 202
        assert "content-location" not in accepted[1]
        assert json.loads(accepted[2])["outcome"] == "accepted"
        for (code, headers, raw), outcome in (
            (duplicate, "duplicate"), (cache_hit, "cache_hit"),
        ):
            assert code == 200
            assert headers["content-location"] == f"/v1/jobs/{job_id}"
            assert headers["x-job-outcome"] == outcome
            assert raw == fetched[2] == refetched[2]
        assert json.loads(fetched[2])["status"] == "done"
        assert len(execute.calls) == 1

    def test_repeated_body_keys_its_spec_once(self, tmp_path, monkeypatch):
        """The server keeps a body's ``spec_key`` beside its memoized
        parse and hands it to the broker."""
        keyed = []
        real = broker_module.spec_key
        monkeypatch.setattr(
            broker_module, "spec_key",
            lambda spec, salt: keyed.append(spec) or real(spec, salt),
        )
        execute = CountingExecute()
        body = {"spec": make_spec().to_dict()}

        async def scenario(server):
            job_id = json.loads(
                (await http_request(server.port, "POST", "/v1/jobs", body))[2]
            )["job_id"]
            await asyncio.wait_for(
                server.broker.get(job_id).done_event.wait(), 30
            )
            return job_id, [
                await http_request(server.port, "POST", "/v1/jobs", body)
                for _ in range(3)
            ]

        job_id, hits = asyncio.run(
            with_server(service_config(tmp_path), execute, scenario)
        )
        assert job_id == spec_key(make_spec())
        assert [headers["x-job-outcome"] for _, headers, _ in hits] == [
            "duplicate"
        ] * 3
        assert len(keyed) == 1

    def test_request_id_generated_only_when_none_is_usable(
        self, tmp_path, monkeypatch
    ):
        generated = []
        real = http_module._new_request_id
        monkeypatch.setattr(
            http_module, "_new_request_id",
            lambda: generated.append(1) or real(),
        )

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            answers = []
            for headers in (
                ["X-Request-Id: rq-7"], [], ["X-Request-Id: not usable"],
            ):
                writer.write(raw_request("GET", "/healthz", headers=headers))
                _, answered, _ = await read_response(reader)
                answers.append((answered["x-request-id"], len(generated)))
            writer.close()
            return answers

        answers = asyncio.run(
            with_server(service_config(tmp_path), CountingExecute(), scenario)
        )
        assert answers[0] == ("rq-7", 0)
        assert [generated for _, generated in answers] == [0, 1, 2]
        assert answers[2][0] != "not usable"

    def test_status_and_wait_after_a_done_submit_ask_nothing(self, tmp_path):
        execute = CountingExecute()
        spec = make_spec()

        async def scenario(server):
            job, _ = await server.broker.submit(spec)
            await asyncio.wait_for(job.done_event.wait(), 30)
            loop = asyncio.get_running_loop()
            client = ServiceClient(f"http://127.0.0.1:{server.port}")

            def drive():
                ticket = client.submit(spec=spec)
                return (
                    ticket,
                    client.status(ticket.job_id),
                    client.wait(ticket.job_id, timeout_s=5),
                )

            try:
                answers = await loop.run_in_executor(None, drive)
            finally:
                client.close()
            # Counted on the event loop, after the last answer's count.
            return (
                job.result_bytes,
                answers,
                requests_seen(server, "/v1/jobs"),
                requests_seen(server, "/v1/jobs/{id}"),
            )

        document, (ticket, status, waited), posts, gets = asyncio.run(
            with_server(service_config(tmp_path), execute, scenario)
        )
        assert (ticket.job_id, ticket.status, ticket.outcome) == (
            spec_key(spec), "done", "duplicate",
        )
        assert status is waited
        assert status.raw == document and status.body["status"] == "done"
        assert (posts, gets) == (1, 0)

    def test_jobs_not_kept_ask_the_server(self):
        """A job the client holds no document for, and one whose later
        submission was answered 202, are fetched from the server."""
        server = ScriptedServer([
            one_trip("j1"),
            answer(200, {"job_id": "j2", "status": "done"}),
            answer(202, {"job_id": "j1", "status": "queued",
                         "outcome": "accepted"}),
            answer(200, {"job_id": "j1", "status": "running"}),
        ])
        spec = make_spec()
        with server:
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
            try:
                ticket = client.submit(spec=spec)
                kept = client.status("j1")
                other = client.status("j2")
                resubmitted = client.submit(spec=spec)
                live = client.status("j1")
            finally:
                client.close()
        assert (ticket.job_id, ticket.done, ticket.outcome) == (
            "j1", True, "duplicate",
        )
        assert kept.done and kept.raw == canonical_json(
            {"job_id": "j1", "status": "done"}
        )
        assert other.done and resubmitted.outcome == "accepted"
        assert live.status == "running"
        assert [request_line(request) for request in server.requests] == [
            b"POST /v1/jobs HTTP/1.1",
            b"GET /v1/jobs/j2 HTTP/1.1",
            b"POST /v1/jobs HTTP/1.1",
            b"GET /v1/jobs/j1 HTTP/1.1",
        ]

    def test_kept_documents_are_bounded(self, monkeypatch):
        monkeypatch.setattr(client_module, "DONE_JOBS_KEPT", 2)
        server = ScriptedServer([
            one_trip("j1"), one_trip("j2", "cache_hit"), one_trip("j3"),
            answer(200, {"job_id": "j1", "status": "done"}),
        ])
        with server:
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
            try:
                for threads in (1, 2, 4):
                    client.submit(spec=make_spec(threads=threads))
                kept = sorted(client._done)
                for job_id in ("j3", "j2", "j1"):
                    client.status(job_id)
            finally:
                client.close()
        assert kept == ["j2", "j3"]
        assert len(server.requests) == 4
        assert request_line(server.requests[-1]) == (
            b"GET /v1/jobs/j1 HTTP/1.1"
        )

    def test_ticket_without_content_location_is_not_kept(self):
        """A done ticket with no ``Content-Location`` (an older server)
        carries no document: the status is fetched."""
        server = ScriptedServer([
            answer(200, {"job_id": "j1", "status": "done",
                         "outcome": "duplicate"}),
            answer(200, {"job_id": "j1", "status": "done", "results": {}}),
        ])
        with server:
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
            try:
                ticket = client.submit(spec=make_spec())
                status = client.status(ticket.job_id)
            finally:
                client.close()
        assert ticket.done and ticket.outcome == "duplicate"
        assert status.done and "results" in status.body
        assert len(server.requests) == 2

    def test_a_hit_read_through_raw_and_status_decodes_nothing(
        self, monkeypatch
    ):
        """A kept document is decoded on the first access of ``body``,
        once, to what the server sent."""
        document = canonical_json({
            "job_id": "j1", "status": "done", "error": "",
            "results": {"Baseline": {"cycles": 1234.0}},
        })
        server = ScriptedServer([
            b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"
            b"Content-Location: /v1/jobs/j1\r\n"
            b"X-Job-Outcome: cache_hit\r\n\r\n%s"
            % (len(document), document)
        ])
        expected = json.loads(document)
        decoded = []
        loads = json.loads
        monkeypatch.setattr(
            client_module.json, "loads",
            lambda *args, **kwargs: decoded.append(args) or loads(
                *args, **kwargs
            ),
        )
        with server:
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
            try:
                ticket = client.submit(spec=make_spec())
                status = client.status(ticket.job_id)
                waited = client.wait(ticket.job_id, timeout_s=5)
            finally:
                client.close()
        assert (ticket.outcome, status.job_id, status.status) == (
            "cache_hit", "j1", "done",
        )
        assert waited is status and status.raw == document
        assert decoded == []
        assert status.body == expected and len(decoded) == 1
        assert status.results == expected["results"]
        assert status.error == "" and len(decoded) == 1

    @pytest.mark.parametrize("document", [b"{not json", b"[1, 2]", b"\xff"])
    def test_a_malformed_one_trip_body_raises_on_first_access(
        self, document
    ):
        server = ScriptedServer([
            b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"
            b"Content-Location: /v1/jobs/j1\r\n\r\n%s"
            % (len(document), document)
        ])
        with server:
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
            try:
                ticket = client.submit(spec=make_spec())
                status = client.status(ticket.job_id)
            finally:
                client.close()
        assert ticket.done and status.raw == document
        for read in ("body", "results", "error"):
            with pytest.raises(ServiceError, match="JSON"):
                getattr(status, read)

    def test_repro_status_prints_the_document(self, capsys):
        from repro.cli import main

        document = {
            "job_id": "j1", "status": "failed", "error": "boom",
            "results": {"GraphPIM": {"cycles": 10.0},
                        "Baseline": {"cycles": 25.4}},
        }
        server = ScriptedServer([answer(200, document)], [
            answer(200, document)
        ])
        with server:
            url = f"http://127.0.0.1:{server.port}"
            assert main(["status", "j1", "--url", url]) == 0
            text = capsys.readouterr().out
            assert main(["status", "j1", "--url", url, "--json"]) == 0
            raw = capsys.readouterr().out
        assert text == (
            "job    : j1\n"
            "status : failed\n"
            "error  : boom\n"
            "Baseline               25 cycles\n"
            "GraphPIM               10 cycles\n"
        )
        assert json.loads(raw) == document

    def test_bodies_are_encoded_once_per_spec_object(self, monkeypatch):
        """One spec object sends the same bytes, encoded once; an equal
        spec whose param is 2.0 rather than 2 keys differently, and sends
        its own bytes."""
        encoded = []
        real = ExperimentSpec.to_dict
        monkeypatch.setattr(
            ExperimentSpec, "to_dict",
            lambda spec: encoded.append(spec) or real(spec),
        )
        twice = make_spec(params={"iterations": 2})
        floated = make_spec(params={"iterations": 2.0})
        assert twice == floated and spec_key(twice) != spec_key(floated)
        ticket = answer(202, {"job_id": "j", "status": "queued"})
        server = ScriptedServer([ticket] * 4)
        with server:
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
            try:
                client.submit(spec=twice)
                client.submit(spec=twice)
                client.submit(spec=floated)
                client.submit(spec=twice, priority="batch")
            finally:
                client.close()
        bodies = [
            request.split(b"\r\n\r\n", 1)[1] for request in server.requests
        ]
        assert bodies[0] == bodies[1]
        assert len(set(bodies)) == 3
        assert b'["iterations", 2.0]' in bodies[2]
        assert len(encoded) == 3


# ----------------------------------------------------------------------
# Canonical serialization
# ----------------------------------------------------------------------


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": [1.5, 2]}) == canonical_json(
            {"a": [1.5, 2], "b": 1}
        )

    def test_round_trip_is_stable(self):
        payload = {"cycles": 202454.21666667177, "n": 3}
        rebuilt = json.loads(canonical_json(payload))
        assert canonical_json(rebuilt) == canonical_json(payload)


# ----------------------------------------------------------------------
# Worker supervision (crash recovery inside the broker)
# ----------------------------------------------------------------------


class TestWorkerSupervision:
    def test_crashed_worker_restarts_and_keeps_serving(self):
        """An exception escaping a worker slot restarts the slot.

        ``_execute_job`` absorbs simulation failures, so an escaping
        exception is a broker bug — the supervisor must restart the
        slot instead of silently losing service capacity.
        """
        execute = CountingExecute()

        async def main():
            broker = await started_broker(
                service_config(workers=1, max_worker_restarts=2),
                execute,
            )
            real = broker._execute_job

            async def crashing(job):
                if job.spec.workload == "DC":
                    raise RuntimeError("injected worker bug")
                await real(job)

            broker._execute_job = crashing
            await broker.submit(make_spec("DC"))
            healthy, _ = await broker.submit(make_spec("BFS"))
            await asyncio.wait_for(healthy.done_event.wait(), timeout=10)
            stats = broker.stats()
            await broker.drain()
            return healthy, stats

        healthy, stats = asyncio.run(main())
        assert healthy.status == "done"
        assert stats["worker_crashes"] == 1
        assert stats["worker_restarts"] == 1
        assert stats["workers_alive"] == 1

    def test_abandoned_slots_flip_readyz_to_503(self):
        """All slots dead past the restart budget => degraded, not ready."""
        execute = CountingExecute()

        async def main():
            config = service_config(workers=1, max_worker_restarts=0)
            broker = JobBroker(config, execute=execute)

            async def crashing(job):
                raise RuntimeError("injected worker bug")

            broker._execute_job = crashing
            server = ServiceServer(config, broker=broker)
            await server.start()
            try:
                before = await http_request(
                    server.port, "GET", "/readyz"
                )
                await broker.submit(make_spec("DC"))
                for _ in range(500):
                    if broker.stats()["workers_alive"] == 0:
                        break
                    await asyncio.sleep(0.01)
                after = await http_request(server.port, "GET", "/readyz")
                metrics = await http_request(
                    server.port, "GET", "/metrics"
                )
                return before, after, metrics, broker.stats()
            finally:
                await server.stop()

        before, after, metrics, stats = asyncio.run(main())
        assert before[0] == 200
        assert after[0] == 503
        degraded = json.loads(after[2])
        assert degraded["status"] == "degraded"
        assert degraded["workers_alive"] == 0
        assert stats["worker_crashes"] == 1
        assert stats["worker_restarts"] == 0
        text = metrics[2].decode()
        assert "service_worker_crashes_total" in text
        assert "service_workers_alive" in text


# ----------------------------------------------------------------------
# Process entry point: SIGTERM right after the listening line
# ----------------------------------------------------------------------


class TestServeSigterm:
    def test_sigterm_on_listening_line_drains_cleanly(self, tmp_path):
        """A supervisor may SIGTERM ``repro serve`` the moment it prints
        ``listening on``; the server must already drain (exit 0, no
        queue journal), not die of the default signal action."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # The race lost most boots when it existed; a few boots make a
        # regression all but certain to show.
        for attempt in range(3):
            cache_dir = tmp_path / f"cache-{attempt}"
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--cache-dir", str(cache_dir)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
            )
            try:
                while True:
                    line = proc.stdout.readline()
                    assert line, "repro serve exited before listening"
                    if "listening on" in line:
                        proc.send_signal(signal.SIGTERM)
                        break
                _stdout, stderr = proc.communicate(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
            assert proc.returncode == 0, stderr
            assert not (cache_dir / QUEUE_CHECKPOINT_FILENAME).exists()

    def test_sigterm_with_an_idle_client_connection(self, tmp_path):
        """SIGTERM while a client holds a kept-alive connection idle:
        a clean drain, and no traceback from the idle handler."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        cache_dir = tmp_path / "cache"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(cache_dir)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            client = ServiceClient(line.split("listening on ")[1].strip())
            assert client.health()["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60)
            client.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, stderr
        assert "Traceback" not in stdout + stderr
        assert not (cache_dir / QUEUE_CHECKPOINT_FILENAME).exists()
