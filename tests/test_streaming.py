"""Streaming telemetry tests: progress bus, pool piggyback, SSE.

Covers the ISSUE 9 acceptance surface:

- **bit-identity** — a simulation with a live publisher returns
  results bit-identical to one without, under both engines, serially
  and through the supervised pool;
- **cache neutrality** — publisher-on runs hit cache entries written
  by publisher-off runs (progress settings never enter spec keys);
- **pool piggyback** — worker frames ride the heartbeat pipe and the
  done payload; the supervisor's ``_handle_message`` flush path (which
  ``_reap`` replays for crashed workers) forwards them upstream;
- **SSE end-to-end** — two concurrent subscribers over the real HTTP
  frontend observe identical event sequences including mid-run
  progress frames and a terminal event; ``Last-Event-ID`` resumes a
  dropped stream without replaying consumed events.
"""

import asyncio
import json
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.common.errors import ConfigError, ServiceError
from repro.graph.generators import ldbc_like_graph
from repro.obs.progress import (
    NULL_PUBLISHER,
    BufferedPublisher,
    CallbackPublisher,
    LabelledPublisher,
    NullPublisher,
    ProgressSnapshot,
)
from repro.runner import (
    ExperimentRunner,
    ExperimentSpec,
    RunnerConfig,
    execute_spec,
    spec_key,
)
from repro.runner.pool import SupervisedWorkerPool
from repro.service import (
    JobBroker,
    ServiceConfig,
    ServiceServer,
    ThreadedServer,
)
from repro.service.client import ServiceClient
from repro.sim.config import SystemConfig
from repro.sim.system import simulate, simulate_reference
from repro.workloads.registry import get_workload

TRIO = tuple(SystemConfig().evaluation_trio())


def _spec(code="DC", modes=TRIO, **kwargs):
    return ExperimentSpec.for_workload(code, "tiny", modes=modes, **kwargs)


def _snapshot(events_done=100, events_total=400, label="", phase="simulate"):
    return ProgressSnapshot(
        label=label,
        phase=phase,
        events_done=events_done,
        events_total=events_total,
        sim_cycles=123.5,
        instructions=events_done,
        offloaded_atomics=7,
        host_atomics=3,
        elapsed_s=0.25,
        eta_s=0.75,
    )


# ----------------------------------------------------------------------
# Frames and publishers
# ----------------------------------------------------------------------


class TestProgressSnapshot:
    def test_round_trip(self):
        snap = _snapshot(label="BFS@tiny/graphpim")
        rebuilt = ProgressSnapshot.from_dict(
            json.loads(json.dumps(snap.to_dict()))
        )
        assert rebuilt == snap

    def test_schema_gate(self):
        payload = _snapshot().to_dict()
        payload["schema"] = 99
        with pytest.raises(ConfigError, match="schema"):
            ProgressSnapshot.from_dict(payload)

    def test_fraction_clamps(self):
        assert _snapshot(0, 0).fraction == 0.0
        assert _snapshot(200, 400).fraction == 0.5
        assert _snapshot(900, 400).fraction == 1.0


class TestPublishers:
    def test_null_publisher_is_disabled_noop(self):
        assert NullPublisher.enabled is False
        assert NULL_PUBLISHER.enabled is False
        NULL_PUBLISHER.publish(_snapshot())  # must not raise

    def test_callback_publisher(self):
        frames = []
        pub = CallbackPublisher(frames.append, interval=10)
        assert pub.enabled and pub.interval == 10
        pub.publish(_snapshot())
        assert len(frames) == 1
        with pytest.raises(ConfigError):
            CallbackPublisher(frames.append, interval=0)

    def test_buffered_publisher_drops_oldest(self):
        pub = BufferedPublisher(interval=10, max_frames=3)
        for done in range(1, 6):
            pub.publish(_snapshot(events_done=done))
        drained = pub.drain()
        assert [snap.events_done for snap in drained] == [3, 4, 5]
        assert pub.dropped_frames == 2
        assert pub.drain() == []

    def test_labelled_publisher_stamps_and_prefixes(self):
        frames = []
        pub = LabelledPublisher(
            CallbackPublisher(frames.append, interval=5), "BFS@tiny"
        )
        assert pub.enabled and pub.interval == 5
        pub.publish(_snapshot(label=""))
        pub.publish(_snapshot(label="graphpim"))
        assert [f.label for f in frames] == [
            "BFS@tiny",
            "BFS@tiny/graphpim",
        ]


# ----------------------------------------------------------------------
# Simulation-loop hooks: bit-identity and frame shape
# ----------------------------------------------------------------------


class TestSimulatePublishing:
    @pytest.fixture(scope="class")
    def bfs_trace(self):
        graph = ldbc_like_graph(400, seed=3)
        return get_workload("BFS").run(graph, num_threads=4).trace

    @pytest.mark.parametrize(
        "sim",
        [pytest.param(simulate_reference, id="legacy"),
         pytest.param(simulate, id="auto")],
    )
    def test_bit_identical_and_frames_monotonic(self, bfs_trace, sim):
        config = SystemConfig.graphpim()
        plain = sim(bfs_trace, config)
        frames = []
        published = sim(
            bfs_trace,
            config,
            None,
            CallbackPublisher(frames.append, interval=100),
        )
        assert plain.to_dict() == published.to_dict()
        assert frames, "an enabled publisher emitted no frames"
        done = [snap.events_done for snap in frames]
        assert done == sorted(done)
        for snap in frames:
            assert snap.events_total == bfs_trace.num_events
            assert 0.0 <= snap.fraction <= 1.0
            assert snap.elapsed_s >= 0.0

    def test_vectorized_chunk_frames(self, bfs_trace):
        frames = []
        result = simulate(
            bfs_trace,
            SystemConfig.graphpim(),
            publisher=CallbackPublisher(frames.append, interval=100),
        )
        assert [snap.phase for snap in frames] == ["precompute", "kernel"]
        final = frames[-1]
        assert final.events_done == final.events_total
        assert final.instructions == result.instructions

    def test_null_publisher_matches_no_publisher(self, bfs_trace):
        config = SystemConfig.graphpim()
        plain = simulate_reference(bfs_trace, config)
        nulled = simulate_reference(bfs_trace, config, pub=NULL_PUBLISHER)
        assert plain.to_dict() == nulled.to_dict()


# ----------------------------------------------------------------------
# Runner: inline frames, incremental outcomes, cache neutrality
# ----------------------------------------------------------------------


class TestRunnerStreaming:
    def test_inline_frames_and_incremental_outcomes(self):
        specs = [_spec("DC"), _spec("kCore")]
        frames = []
        streamed = []
        config = RunnerConfig(
            parallel=False, cache_dir=None, progress_interval_events=100
        )
        runner = ExperimentRunner(config)

        def on_outcome(index, outcome):
            # Incremental results: the partial report already carries
            # this job's record when its outcome streams out.
            partial = runner.partial_report()
            assert partial is not None
            assert partial.jobs[index].status == "done"
            streamed.append((index, outcome.spec.workload))

        outcomes, _report = runner.run(
            specs,
            on_frame=lambda index, snap: frames.append((index, snap)),
            on_outcome=on_outcome,
        )
        assert streamed == [(0, "DC"), (1, "kCore")]
        assert {index for index, _ in frames} == {0, 1}
        # Frames are labelled job/mode by the runner, not the sim loop.
        labels = {snap.label for _, snap in frames}
        assert any("DC@tiny" in label for label in labels)
        assert all("/" in label for label in labels)
        baseline = ExperimentRunner(
            RunnerConfig(parallel=False, cache_dir=None)
        ).run(specs)[0]
        for with_pub, without in zip(outcomes, baseline):
            for label in without.results:
                assert (
                    with_pub.results[label].to_dict()
                    == without.results[label].to_dict()
                )

    def test_supervised_pool_streams_frames(self):
        specs = [_spec("DC"), _spec("BFS")]
        frames = []
        config = RunnerConfig(
            jobs=2,
            parallel=True,
            cache_dir=None,
            progress_interval_events=100,
        )
        outcomes, report = ExperimentRunner(config).run(
            specs, on_frame=lambda index, snap: frames.append((index, snap))
        )
        assert report.parallel
        assert frames, "no frames crossed the worker pipe"
        assert {index for index, _ in frames} <= {0, 1}
        serial = ExperimentRunner(
            RunnerConfig(parallel=False, cache_dir=None)
        ).run(specs)[0]
        for pooled, plain in zip(outcomes, serial):
            for label in plain.results:
                assert (
                    pooled.results[label].to_dict()
                    == plain.results[label].to_dict()
                )

    def test_publisher_on_hits_publisher_off_cache(self, tmp_path):
        spec = _spec("DC")
        cache_dir = str(tmp_path / "cache")
        off = RunnerConfig(parallel=False, cache_dir=cache_dir)
        cold = execute_spec(spec, off)
        assert not any(
            entry["cached"] for entry in cold["modes"].values()
        )
        on = RunnerConfig(
            parallel=False,
            cache_dir=cache_dir,
            progress_interval_events=100,
        )
        frames = []
        warm = execute_spec(
            spec, on, publisher=CallbackPublisher(frames.append, 100)
        )
        # Progress settings are outside cache identity: every mode of
        # the publisher-on run answers from the publisher-off entries.
        assert all(entry["cached"] for entry in warm["modes"].values())
        for label, entry in cold["modes"].items():
            assert warm["modes"][label]["payload"] == entry["payload"]
        assert spec_key(spec, off.cache_salt) == spec_key(
            spec, on.cache_salt
        )


class TestPoolFrameForwarding:
    def test_hb_piggyback_forwarded_and_bad_frames_skipped(self):
        got = []
        pool = SupervisedWorkerPool(
            RunnerConfig(cache_dir=None),
            on_progress=lambda index, snap: got.append((index, snap)),
        )
        worker = types.SimpleNamespace(last_beat=0.0)
        good = _snapshot(events_done=250)
        # The 4-tuple heartbeat is exactly what _reap replays from a
        # crashed worker's drained pipe — this is the flush path.
        pool._handle_message(
            worker,
            ("hb", 0, 1, [(2, good.to_dict()), (2, {"schema": 99})]),
        )
        assert got == [(2, good)]
        assert worker.last_beat > 0.0

    def test_plain_heartbeat_still_accepted(self):
        pool = SupervisedWorkerPool(RunnerConfig(cache_dir=None))
        worker = types.SimpleNamespace(last_beat=0.0)
        pool._handle_message(worker, ("hb", 0, 1))
        assert worker.last_beat > 0.0


# ----------------------------------------------------------------------
# Service SSE: fakes for deterministic sequencing
# ----------------------------------------------------------------------


class StreamingExecute:
    """Fake ``execute_spec`` that publishes a fixed frame sequence."""

    def __init__(self, gate=None, frames=3, fail=False):
        self.gate = gate
        self.frames = frames
        self.fail = fail

    def __call__(self, spec, runner_config, publisher=None, recorder=None):
        if self.gate is not None:
            assert self.gate.wait(timeout=30), "test gate never opened"
        if publisher is not None:
            for step in range(1, self.frames + 1):
                publisher.publish(
                    _snapshot(
                        events_done=step * 100,
                        events_total=self.frames * 100,
                        label=spec.job_id,
                    )
                )
        if self.fail:
            raise ServiceError(f"injected failure for {spec.workload}")
        return {
            "run": None,
            "trace_hash": f"trace-{spec.workload}",
            "seconds": 0.0,
            "modes": {
                mode.display_name: {
                    "payload": {"cycles": 1000.0, "workload": spec.workload},
                    "cached": False,
                }
                for mode in spec.modes
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
    overrides.setdefault("stream_progress_events", 100)
    return ServiceConfig(runner=runner, **overrides)


async def with_server(config, execute, scenario):
    broker = JobBroker(config, execute=execute)
    server = ServiceServer(config, broker=broker)
    await server.start()
    try:
        return await scenario(server)
    finally:
        await server.stop()


def _collect_events(port, job_id, last_event_id=None, timeout_s=60):
    client = ServiceClient(f"http://127.0.0.1:{port}")
    events = []
    for event in client.events(
        job_id, last_event_id=last_event_id, timeout_s=timeout_s
    ):
        events.append(event)
        if event.terminal:
            break
    return events


class TestServiceStreaming:
    def test_two_subscribers_see_identical_sequences(self, tmp_path):
        gate = threading.Event()
        execute = StreamingExecute(gate=gate, frames=3)
        config = service_config(tmp_path, stream_heartbeat_s=0.2)

        async def scenario(server):
            port = server.port
            loop = asyncio.get_running_loop()
            job, _ = await server.broker.submit(_spec("BFS"))
            with ThreadPoolExecutor(2) as pool:
                futures = [
                    loop.run_in_executor(
                        pool, _collect_events, port, job.job_id
                    )
                    for _ in range(2)
                ]
                # Hold the gate past a heartbeat interval so the idle
                # comment path is exercised (the client skips it).
                await asyncio.sleep(0.5)
                gate.set()
                return await asyncio.gather(*futures)

        first, second = asyncio.run(with_server(config, execute, scenario))
        wire = [(e.event_id, e.event, e.data) for e in first]
        assert wire == [(e.event_id, e.event, e.data) for e in second]
        names = [e.event for e in first]
        assert names == [
            "queued", "running", "progress", "progress", "progress",
            "done",
        ]
        assert [e.event_id for e in first] == list(range(1, 7))
        fractions = [
            e.data["events_done"] for e in first if e.event == "progress"
        ]
        assert fractions == [100, 200, 300]
        assert first[-1].data["status"] == "done"

    def test_last_event_id_resumes_without_replaying(self, tmp_path):
        execute = StreamingExecute(frames=3)
        config = service_config(tmp_path)

        async def scenario(server):
            port = server.port
            loop = asyncio.get_running_loop()
            job, _ = await server.broker.submit(_spec("DC"))
            await asyncio.wait_for(job.done_event.wait(), timeout=30)
            full = await loop.run_in_executor(
                None, _collect_events, port, job.job_id
            )
            resumed = await loop.run_in_executor(
                None,
                _collect_events,
                port,
                job.job_id,
                full[2].event_id,
            )
            return full, resumed

        full, resumed = asyncio.run(with_server(config, execute, scenario))
        assert [e.event for e in full] == [
            "queued", "running", "progress", "progress", "progress",
            "done",
        ]
        assert [(e.event_id, e.event) for e in resumed] == [
            (e.event_id, e.event) for e in full[3:]
        ]

    def test_failed_job_streams_terminal_failed(self, tmp_path):
        execute = StreamingExecute(frames=1, fail=True)
        config = service_config(tmp_path)

        async def scenario(server):
            job, _ = await server.broker.submit(_spec("kCore"))
            await asyncio.wait_for(job.done_event.wait(), timeout=30)
            return await asyncio.get_running_loop().run_in_executor(
                None, _collect_events, server.port, job.job_id
            )

        events = asyncio.run(with_server(config, execute, scenario))
        assert events[-1].event == "failed"
        assert events[-1].terminal
        assert "injected failure" in events[-1].data["error"]

    def test_unknown_job_is_404(self, tmp_path):
        config = service_config(tmp_path)

        async def scenario(server):
            loop = asyncio.get_running_loop()

            def probe():
                client = ServiceClient(f"http://127.0.0.1:{server.port}")
                with pytest.raises(ServiceError, match="unknown job"):
                    for _ in client.events("no-such-job"):
                        pass

            await loop.run_in_executor(None, probe)

        asyncio.run(with_server(config, StreamingExecute(), scenario))

    def test_stream_metrics_exported(self, tmp_path):
        execute = StreamingExecute(frames=2)
        config = service_config(tmp_path)

        async def scenario(server):
            port = server.port
            loop = asyncio.get_running_loop()
            job, _ = await server.broker.submit(_spec("BFS"))
            await asyncio.wait_for(job.done_event.wait(), timeout=30)
            await loop.run_in_executor(
                None, _collect_events, port, job.job_id
            )

            def scrape():
                client = ServiceClient(f"http://127.0.0.1:{port}")
                try:
                    return client.metrics_text()
                finally:
                    client.close()

            return await loop.run_in_executor(None, scrape)

        text = asyncio.run(with_server(config, execute, scenario))
        assert 'service_stream_events_total{event="queued"} 1' in text
        assert 'service_stream_events_total{event="progress"} 2' in text
        assert 'service_stream_events_total{event="done"} 1' in text
        assert "service_stream_subscribers 0" in text
        assert "service_stream_dropped_total" in text

    def test_real_execute_streams_progress_and_done(self, tmp_path):
        """End-to-end: real simulation, real HTTP, live SSE frames."""
        config = ServiceConfig(
            port=0,
            workers=1,
            stream_progress_events=50,
            runner=RunnerConfig(cache_dir=str(tmp_path / "cache")),
        )
        with ThreadedServer(config) as server:
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
            ticket = client.submit(
                workload="BFS", scale="tiny", modes=["baseline"]
            )
            events = _collect_events(
                server.port, ticket.job_id, timeout_s=120
            )
            progress = [e for e in events if e.event == "progress"]
            assert progress, "no mid-run progress frame arrived"
            snap = ProgressSnapshot.from_dict(progress[-1].data)
            assert snap.events_total > 0
            assert events[-1].event == "done"
            # The streamed terminal matches the polled terminal state.
            assert client.status(ticket.job_id).done
            client.close()
