"""Fleet tests: hash-ring sharding, lease state machine, pull-workers.

The load-bearing invariant mirrors PRs 2/7/8 one tier up: results
through the distributed fleet are **bit-identical** to serial
in-process execution — including when a worker abandons its lease
mid-batch (the SIGKILL shape) — and fleet topology never touches
``spec_key`` or cache fingerprints.

Protocol tests drive :class:`~repro.fleet.manager.FleetManager`
directly on a manual clock (lease expiry, worker death, duplicate and
late uploads, torn registry journals); end-to-end tests run a real
``repro serve --fleet`` broker with real :class:`FleetWorker` pull
loops and compare raw response bytes against a serial reference
server.
"""

import asyncio
import json
import threading

import pytest

from repro.chaos import ChaosPlan
from repro.common.errors import ConfigError
from repro.fleet import HashRing
from repro.fleet.manager import (
    FLEET_REGISTRY_FILENAME,
    MAX_LEASE_EXPIRIES,
)
from repro.fleet.worker import FleetWorker
from repro.obs.logs import request_id_context
from repro.runner import ExperimentSpec, RunnerConfig, spec_key
from repro.service import JobBroker, ServiceConfig, ThreadedServer
from repro.service.client import ServiceClient
from repro.service.http import sanitize_request_id
from repro.sim.config import SystemConfig


def make_spec(workload="BFS", threads=16):
    return ExperimentSpec.for_workload(
        workload,
        "tiny",
        modes=[SystemConfig.baseline()],
        num_threads=threads,
    )


def fake_payload(spec):
    """What a two-argument execute fake returns for ``spec``."""
    return {
        "run": None,
        "trace_hash": f"trace-{spec.workload}-{spec.num_threads}",
        "seconds": 0.0,
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


def fake_execute(spec, runner_config, publisher=None, recorder=None):
    return fake_payload(spec)


def upload_body(spec):
    """The ``complete`` upload a worker would send for ``spec``."""
    payload = fake_payload(spec)
    return {
        "status": "done",
        "trace_hash": payload["trace_hash"],
        "modes": payload["modes"],
        "seconds": payload["seconds"],
    }


def fleet_config(tmp_path=None, **overrides):
    runner = overrides.pop(
        "runner",
        RunnerConfig(
            cache_dir=str(tmp_path / "cache") if tmp_path else None
        ),
    )
    overrides.setdefault("port", 0)
    overrides.setdefault("workers", 0)  # dispatch-only
    return ServiceConfig(runner=runner, **overrides)


async def started_fleet_broker(config, now):
    broker = JobBroker(
        config, execute=fake_execute, clock=lambda: now[0]
    )
    await broker.start()
    return broker


# ----------------------------------------------------------------------
# Consistent-hash ring
# ----------------------------------------------------------------------


KEYS = [f"spec-{i:04d}" for i in range(200)]


class TestHashRing:
    def test_insertion_order_irrelevant(self):
        a = HashRing(["w1", "w2", "w3"], seed=3)
        b = HashRing(["w3", "w1", "w2"], seed=3)
        assert a.assignments(KEYS) == b.assignments(KEYS)
        assert a.members == b.members == ["w1", "w2", "w3"]

    def test_join_moves_only_gained_keys(self):
        ring = HashRing(["w1", "w2"], seed=3)
        before = ring.assignments(KEYS)
        ring.add("w3")
        after = ring.assignments(KEYS)
        moved = {k for k in KEYS if before[k] != after[k]}
        assert moved  # the new member took a real share
        assert all(after[k] == "w3" for k in moved)
        # Rough balance: the newcomer owns a minority, not everything.
        assert len(moved) < len(KEYS) * 0.75

    def test_leave_moves_only_departed_keys(self):
        ring = HashRing(["w1", "w2", "w3"], seed=3)
        before = ring.assignments(KEYS)
        ring.remove("w2")
        after = ring.assignments(KEYS)
        for key in KEYS:
            if before[key] != "w2":
                assert after[key] == before[key]
            else:
                assert after[key] in ("w1", "w3")

    def test_seeded_rebuild_is_deterministic(self):
        a = HashRing(["w1", "w2"], seed=11).assignments(KEYS)
        b = HashRing(["w1", "w2"], seed=11).assignments(KEYS)
        c = HashRing(["w1", "w2"], seed=12).assignments(KEYS)
        assert a == b
        assert a != c  # the seed actually steers placement

    def test_empty_ring_and_bad_members(self):
        ring = HashRing()
        assert ring.owner("anything") is None
        assert len(ring) == 0
        with pytest.raises(ConfigError):
            ring.add("")
        assert ring.add("w1") is True
        assert ring.add("w1") is False  # idempotent
        assert ring.remove("ghost") is False


# ----------------------------------------------------------------------
# Lease protocol (manual clock, broker-level)
# ----------------------------------------------------------------------


class TestLeaseProtocol:
    def test_zero_workers_is_dispatch_only(self, tmp_path):
        """``workers=0`` runs no local slot and creates no thread pool
        (a zero-worker ThreadPoolExecutor would raise)."""
        with pytest.raises(ConfigError):
            ServiceConfig(workers=-1)

        async def main():
            broker = await started_fleet_broker(
                fleet_config(tmp_path), [0.0]
            )
            try:
                return broker._pool, broker.stats()
            finally:
                await broker.drain()

        pool, stats = asyncio.run(main())
        assert pool is None
        assert stats["workers"] == 0 and stats["workers_alive"] == 0

    def test_lease_hands_out_own_shard_only(self, tmp_path):
        async def main():
            now = [0.0]
            broker = await started_fleet_broker(
                fleet_config(tmp_path, fleet_lease_jobs=16), now
            )
            try:
                fleet = broker.fleet
                fleet.register("w1")
                fleet.register("w2")
                specs = [make_spec(threads=t) for t in (1, 2, 4, 8, 16)]
                for spec in specs:
                    await broker.submit(spec)
                lease1 = fleet.lease("w1", max_jobs=16)
                lease2 = fleet.lease("w2", max_jobs=16)
                return broker, lease1, lease2, specs
            finally:
                await broker.drain()

        broker, lease1, lease2, specs = asyncio.run(main())
        ring = broker.fleet.ring
        got1 = {job["job_id"] for job in lease1["jobs"]}
        got2 = {job["job_id"] for job in lease2["jobs"]}
        assert not (got1 & got2)
        assert got1 | got2 == {spec_key(spec) for spec in specs}
        for job_id in got1:
            assert ring.owner(job_id) == "w1"
        for job_id in got2:
            assert ring.owner(job_id) == "w2"

    def test_remote_complete_bit_identical_to_local_execution(
        self, tmp_path
    ):
        """One serializer, two tiers: identical response bytes."""
        spec = make_spec(threads=6)

        async def local():
            config = fleet_config(tmp_path / "local", workers=1)
            broker = JobBroker(config, execute=fake_execute)
            await broker.start()
            try:
                job, _ = await broker.submit(spec)
                await asyncio.wait_for(job.done_event.wait(), 30)
                return job.result_bytes
            finally:
                await broker.drain()

        async def remote():
            now = [0.0]
            broker = await started_fleet_broker(
                fleet_config(tmp_path / "remote"), now
            )
            try:
                fleet = broker.fleet
                fleet.register("w1")
                await broker.submit(spec)
                lease = fleet.lease("w1")
                (leased,) = lease["jobs"]
                rebuilt = ExperimentSpec.from_dict(leased["spec"])
                assert rebuilt == spec  # wire form preserves identity
                outcome = fleet.complete(
                    "w1", leased["job_id"], upload_body(rebuilt)
                )
                assert outcome["outcome"] == "stored"
                return broker.get(leased["job_id"]).result_bytes
            finally:
                await broker.drain()

        local_bytes = asyncio.run(local())
        remote_bytes = asyncio.run(remote())
        assert local_bytes is not None
        assert local_bytes == remote_bytes

    def test_lease_expiry_requeues_then_quarantines(self, tmp_path):
        async def main():
            now = [0.0]
            ttl = 10.0
            broker = await started_fleet_broker(
                fleet_config(
                    tmp_path,
                    fleet_lease_ttl_s=ttl,
                    fleet_worker_timeout_s=1000.0,
                ),
                now,
            )
            try:
                fleet = broker.fleet
                fleet.register("w1")
                spec = make_spec()
                job, _ = await broker.submit(spec)
                assert fleet.lease("w1")["jobs"]
                assert job.status == "running"
                now[0] += ttl + 1
                await fleet.reap()
                first = (
                    job.status,
                    job.lease_expiries,
                    fleet.leased_count,
                )
                # Redispatch: the same worker leases it again ...
                assert fleet.lease("w1")["jobs"]
                now[0] += ttl + 1
                await fleet.reap()  # ... and burns its second lease.
                return job, first
            finally:
                await broker.drain()

        job, first = asyncio.run(main())
        assert first == ("queued", 1, 0)
        assert job.status == "failed"
        assert job.lease_expiries == MAX_LEASE_EXPIRIES
        assert "poisoned" in job.error

    def test_dead_worker_rebalances_shard_to_survivor(self, tmp_path):
        async def main():
            now = [0.0]
            broker = await started_fleet_broker(
                fleet_config(
                    tmp_path,
                    fleet_lease_ttl_s=10.0,
                    fleet_worker_timeout_s=30.0,
                ),
                now,
            )
            try:
                fleet = broker.fleet
                fleet.register("w1")
                spec = make_spec()
                job, _ = await broker.submit(spec)
                (leased,) = fleet.lease("w1")["jobs"]
                now[0] += 31.0  # w1 silent past the liveness horizon
                await fleet.reap()
                assert "w1" not in fleet.ring
                assert job.status == "queued"
                fleet.register("w2")
                lease = fleet.lease("w2")
                assert [j["job_id"] for j in lease["jobs"]] == [
                    leased["job_id"]
                ]
                outcome = fleet.complete(
                    "w2", leased["job_id"], upload_body(spec)
                )
                return job, outcome
            finally:
                await broker.drain()

        job, outcome = asyncio.run(main())
        assert outcome["outcome"] == "stored"
        assert job.status == "done"

    def test_duplicate_and_late_uploads_are_idempotent(self, tmp_path):
        async def main():
            now = [0.0]
            ttl = 10.0
            broker = await started_fleet_broker(
                fleet_config(
                    tmp_path,
                    fleet_lease_ttl_s=ttl,
                    fleet_worker_timeout_s=1000.0,
                ),
                now,
            )
            try:
                fleet = broker.fleet
                fleet.register("w1")
                spec = make_spec()
                job, _ = await broker.submit(spec)
                (leased,) = fleet.lease("w1")["jobs"]
                body = upload_body(spec)
                # The lease expires; the job requeues for redispatch.
                now[0] += ttl + 1
                await fleet.reap()
                assert job.status == "queued"
                # w1's late upload still lands (content-addressed
                # execution is bit-identical wherever it ran) and
                # removes the job from the lane.
                late = fleet.complete("w1", leased["job_id"], body)
                first_bytes = job.result_bytes
                # A raced second upload (shard race after rebalance)
                # is acknowledged and discarded.
                fleet.register("w2")
                dup = fleet.complete("w2", leased["job_id"], body)
                lease_after = fleet.lease("w2", max_jobs=4)
                return job, late, dup, first_bytes, lease_after
            finally:
                await broker.drain()

        job, late, dup, first_bytes, lease_after = asyncio.run(main())
        assert late["outcome"] == "stored"
        assert dup["outcome"] == "duplicate"
        assert job.status == "done"
        assert job.result_bytes == first_bytes  # written exactly once
        assert lease_after["jobs"] == []  # nothing left to execute

    def test_unknown_and_rejected_uploads(self, tmp_path):
        async def main():
            now = [0.0]
            broker = await started_fleet_broker(
                fleet_config(tmp_path), now
            )
            try:
                fleet = broker.fleet
                fleet.register("w1")
                unknown = fleet.complete(
                    "w1", "no-such-job", {"status": "done"}
                )
                spec = make_spec()
                job, _ = await broker.submit(spec)
                (leased,) = fleet.lease("w1")["jobs"]
                rejected = fleet.complete(
                    "w1", leased["job_id"], {"status": "done"}
                )
                return unknown, rejected, job
            finally:
                await broker.drain()

        unknown, rejected, job = asyncio.run(main())
        assert unknown["outcome"] == "unknown"
        assert rejected["outcome"] == "rejected"

    def test_heartbeat_renews_and_reports_lost(self, tmp_path):
        async def main():
            now = [0.0]
            ttl = 10.0
            broker = await started_fleet_broker(
                fleet_config(
                    tmp_path,
                    fleet_lease_ttl_s=ttl,
                    fleet_worker_timeout_s=1000.0,
                ),
                now,
            )
            try:
                fleet = broker.fleet
                fleet.register("w1")
                spec = make_spec()
                job, _ = await broker.submit(spec)
                (leased,) = fleet.lease("w1")["jobs"]
                # Renewals outlive the original TTL many times over.
                for _ in range(5):
                    now[0] += ttl - 1
                    reply = fleet.heartbeat(
                        "w1", [leased["job_id"], "phantom-job"]
                    )
                    await fleet.reap()
                return job.status, job.lease_expiries, reply
            finally:
                await broker.drain()

        status, expiries, reply = asyncio.run(main())
        assert reply["renewed"] != []
        assert reply["lost"] == ["phantom-job"]
        assert status == "running"
        assert expiries == 0

    def test_heartbeat_piggybacks_progress_and_spans(self, tmp_path):
        async def main():
            now = [0.0]
            broker = await started_fleet_broker(
                fleet_config(tmp_path, stream_spans=4), now
            )
            try:
                fleet = broker.fleet
                fleet.register("w1")
                spec = make_spec()
                job, _ = await broker.submit(spec)
                replay, queue = broker.subscribe(job.job_id)
                (leased,) = fleet.lease("w1")["jobs"]
                frame = {"schema": 1, "events_done": 7}
                spans = [
                    {"track": "cores", "lane": 0, "name": f"s{i}",
                     "ts_us": float(i), "dur_us": 1.0}
                    for i in range(10)
                ]
                fleet.heartbeat(
                    "w1",
                    [leased["job_id"]],
                    frames=[{"job_id": job.job_id, "frame": frame}],
                    spans=[{"job_id": job.job_id, "spans": spans}],
                )
                events = []
                while not queue.empty():
                    events.append(queue.get_nowait())
                return events
            finally:
                await broker.drain()

        events = asyncio.run(main())
        by_name = {event: data for _, event, data in events}
        assert by_name["progress"]["events_done"] == 7
        # Span batches are bounded by stream_spans per event.
        assert by_name["span"]["count"] == 4
        assert len(by_name["span"]["spans"]) == 4

    def test_request_id_travels_with_the_job(self, tmp_path):
        async def main():
            now = [0.0]
            broker = await started_fleet_broker(
                fleet_config(tmp_path), now
            )
            try:
                fleet = broker.fleet
                fleet.register("w1")
                with request_id_context("cli-abc123"):
                    job, _ = await broker.submit(make_spec())
                (leased,) = fleet.lease("w1")["jobs"]
                return job, leased
            finally:
                await broker.drain()

        job, leased = asyncio.run(main())
        assert job.request_id == "cli-abc123"
        assert leased["request_id"] == "cli-abc123"

    def test_drain_releases_leases_and_checkpoints(self, tmp_path):
        async def main():
            now = [0.0]
            broker = await started_fleet_broker(
                fleet_config(tmp_path), now
            )
            fleet = broker.fleet
            fleet.register("w1")
            job, _ = await broker.submit(make_spec())
            assert fleet.lease("w1")["jobs"]
            checkpointed = await broker.drain()
            return broker, job, checkpointed

        broker, job, checkpointed = asyncio.run(main())
        assert checkpointed == 1
        assert job.status == "checkpointed"
        assert job.lease_expiries == 0  # drain is a voluntary release
        assert broker.fleet.leased_count == 0
        journal = (
            tmp_path / "cache" / "service_queue.jsonl"
        ).read_text()
        assert job.job_id in journal

    def test_registry_journal_recovery_tolerates_torn_tail(
        self, tmp_path
    ):
        cache = tmp_path / "cache"
        cache.mkdir(parents=True)
        journal = cache / FLEET_REGISTRY_FILENAME
        lines = [
            json.dumps({"event": "join", "worker": "w1",
                        "capacity": 2, "ts": 1.0}),
            json.dumps({"event": "join", "worker": "w2",
                        "capacity": 1, "ts": 2.0}),
            json.dumps({"event": "leave", "worker": "w2",
                        "capacity": 0, "ts": 3.0}),
            json.dumps({"event": "join", "worker": "w3",
                        "capacity": 1, "ts": 4.0}),
            '{"event": "join", "worker": "w4", "cap',  # torn write
        ]
        journal.write_text("\n".join(lines) + "\n")

        async def main():
            now = [100.0]
            broker = await started_fleet_broker(
                fleet_config(tmp_path), now
            )
            try:
                return sorted(broker.fleet.ring.members)
            finally:
                await broker.drain()

        assert asyncio.run(main()) == ["w1", "w3"]
        # The journal was compacted to the surviving roster.
        compacted = journal.read_text().splitlines()
        workers = {json.loads(line)["worker"] for line in compacted}
        assert workers == {"w1", "w3"}


# ----------------------------------------------------------------------
# HTTP surface: request-id hygiene, readiness, metrics
# ----------------------------------------------------------------------


class TestRequestIdSanitizer:
    def test_accepts_safe_ids(self):
        assert sanitize_request_id("ci-run_42.x") == "ci-run_42.x"

    def test_rejects_header_injection_and_oversize(self):
        assert sanitize_request_id("evil\r\nX-Bad: 1") == ""
        assert sanitize_request_id("a" * 65) == ""
        assert sanitize_request_id("") == ""
        assert sanitize_request_id("spaced id") == ""


class TestFleetHttpSurface:
    def test_readyz_degraded_until_a_worker_registers(self, tmp_path):
        config = fleet_config(tmp_path)
        with ThreadedServer(config) as server:
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
            assert not client.ready()  # no execution capacity anywhere
            info = client.fleet_register("w1", capacity=2)
            assert info["lease_ttl_s"] == pytest.approx(
                config.fleet_lease_ttl_s
            )
            assert client.ready()
            metrics = client.metrics_text()
            assert "fleet_workers_alive 1" in metrics
            assert "fleet_leases_active 0" in metrics
            assert "fleet_lease_expiries_total" in metrics
            assert "fleet_jobs_redispatched_total" in metrics
            # Satellite: per-lane queue-depth gauges are exported.
            assert 'service_queue_depth{lane="interactive"}' in metrics
            assert 'service_queue_depth{lane="batch"}' in metrics
            client.fleet_deregister("w1")
            assert not client.ready()
            client.close()

    def test_http_request_id_echo_and_job_binding(self, tmp_path):
        config = fleet_config(tmp_path)
        with ThreadedServer(config) as server:
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
            client.fleet_register("w1")
            code, headers, data = client._request(
                "POST",
                "/v1/jobs",
                {"workload": "BFS", "scale": "tiny",
                 "modes": ["baseline"]},
                request_id="trace-me-42",
            )
            assert code == 202
            assert headers["x-request-id"] == "trace-me-42"
            lease = client.fleet_lease("w1", max_jobs=4)
            (leased,) = lease["jobs"]
            assert leased["request_id"] == "trace-me-42"
            client.close()

    def test_fleet_routes_validate_input(self, tmp_path):
        config = fleet_config(tmp_path)
        with ThreadedServer(config) as server:
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
            code, _, _ = client._request(
                "POST", "/v1/fleet/lease", {"max_jobs": 1}
            )
            assert code == 400  # worker_id is mandatory
            code, _, _ = client._request(
                "GET", "/v1/fleet/lease"
            )
            assert code == 405
            code, _, _ = client._request(
                "POST", "/v1/fleet/warp", {"worker_id": "w1"}
            )
            assert code == 404
            client.close()


# ----------------------------------------------------------------------
# End-to-end: real workers, real execution, bit-identity
# ----------------------------------------------------------------------


SUBMIT_KWARGS = dict(
    workload="BFS", scale="tiny", modes=["baseline"], threads=4
)


@pytest.fixture(scope="module")
def serial_bytes(tmp_path_factory):
    """Reference response bytes from a serial, non-fleet server."""
    cache = tmp_path_factory.mktemp("serial-cache")
    config = ServiceConfig(
        port=0,
        workers=1,
        runner=RunnerConfig(cache_dir=str(cache)),
    )
    with ThreadedServer(config) as server:
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        status = client.submit_and_wait(timeout_s=180, **SUBMIT_KWARGS)
        client.close()
    return status.raw


class TestFleetEndToEnd:
    def test_pull_worker_result_bit_identical_to_serial(
        self, tmp_path, serial_bytes
    ):
        config = fleet_config(tmp_path)
        with ThreadedServer(config) as server:
            url = f"http://127.0.0.1:{server.port}"
            worker = FleetWorker(
                ServiceClient(url),
                RunnerConfig(cache_dir=str(tmp_path / "wcache")),
                worker_id="w-e2e",
                poll_interval_s=0.05,
            )
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            try:
                client = ServiceClient(url)
                status = client.submit_and_wait(
                    timeout_s=180, **SUBMIT_KWARGS
                )
            finally:
                worker.stop()
                thread.join(timeout=30)
            health = client.health()
            client.close()
        assert status.raw == serial_bytes
        assert worker.executed == 1
        assert health["fleet"]["lease_expiries"] == 0

    def test_chaos_abandoned_lease_redispatches_bit_identical(
        self, tmp_path, serial_bytes
    ):
        """A worker SIGKILL-shape abandon mid-lease: the lease expires,
        the shard rebalances to the survivor, and the final bytes still
        match serial execution."""
        config = fleet_config(
            tmp_path,
            fleet_lease_ttl_s=1.0,
            fleet_worker_timeout_s=3.0,
        )
        with ThreadedServer(config) as server:
            url = f"http://127.0.0.1:{server.port}"
            chaos = ChaosPlan.from_spec("lease=0")
            doomed = FleetWorker(
                ServiceClient(url),
                RunnerConfig(
                    cache_dir=str(tmp_path / "doomed-cache"),
                    chaos=chaos,
                ),
                worker_id="w-doomed",
                poll_interval_s=0.05,
            )
            doomed_thread = threading.Thread(
                target=doomed.run, daemon=True
            )
            doomed_thread.start()
            client = ServiceClient(url)
            ticket = client.submit(**SUBMIT_KWARGS)
            # The doomed worker (sole shard owner) leases the job and
            # goes silent without completing or deregistering.
            doomed_thread.join(timeout=60)
            assert doomed.abandoned
            assert doomed.executed == 0
            survivor = FleetWorker(
                ServiceClient(url),
                RunnerConfig(
                    cache_dir=str(tmp_path / "survivor-cache")
                ),
                worker_id="w-survivor",
                poll_interval_s=0.05,
            )
            survivor_thread = threading.Thread(
                target=survivor.run, daemon=True
            )
            survivor_thread.start()
            try:
                status = client.wait(ticket.job_id, timeout_s=120)
            finally:
                survivor.stop()
                survivor_thread.join(timeout=30)
            metrics = client.metrics_text()
            client.close()
        assert status.raw == serial_bytes
        assert survivor.executed == 1
        assert "fleet_lease_expiries_total 1" in metrics
        assert "fleet_jobs_redispatched_total 1" in metrics
