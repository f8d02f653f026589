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
import subprocess
import sys
import threading
import time
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
)
from repro.service.http import spec_from_request
from repro.sim.config import SystemConfig
from repro.sim.system import SimResult


def make_spec(workload="BFS", threads=16, modes=None):
    return ExperimentSpec.for_workload(
        workload,
        "tiny",
        modes=modes or [SystemConfig.baseline()],
        num_threads=threads,
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
    """Minimal HTTP/1.1 round trip; returns (code, headers, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
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
        assert ready[0] == 200
        assert metrics[0] == 200
        text = metrics[2].decode()
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

            return await loop.run_in_executor(None, drive)

        error = asyncio.run(with_server(config, execute, scenario))
        assert error is not None
        assert error.reason == "backpressure"
        assert error.retry_after_s > 0

    def test_client_rejects_bad_urls(self):
        with pytest.raises(ServiceError):
            ServiceClient("ftp://somewhere")
        with pytest.raises(ServiceError):
            ServiceClient("")


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
