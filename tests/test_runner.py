"""Tests for the parallel experiment runner and its result cache.

Covers cache hit/miss behavior under config and salt changes,
parallel-vs-serial bit-identical results, the pool's circuit-open
fallback to in-process execution, and the serialization round-trips
the cache and worker IPC rely on, plus the resilience surface:
per-job timeouts with jittered exponential backoff on real pool
workers, structured failures under ``allow_partial``,
checkpoint/resume, and cache verification with quarantine.
"""

import dataclasses
import hashlib
import json
import random

import pytest

import repro.runner.engine as engine_module
from repro.chaos import ChaosPlan
from repro.common.errors import ConfigError, RunnerError, SimulationError
from repro.core.api import EvaluationReport, GraphPimSystem
from repro.core.presets import workload_params
from repro.faults import FaultPlan
from repro.runner import (
    CheckpointJournal,
    ExperimentRunner,
    ExperimentSpec,
    ResultCache,
    RunnerConfig,
    config_fingerprint,
    evaluation_grid_specs,
    execute_spec,
    result_key,
    run_evaluation_grid,
    spec_key,
    trace_digest,
)
from repro.sim.config import SystemConfig
from repro.sim.system import SimResult
from repro.workloads import get_workload
from tests.test_chaos import _assert_no_leaks, _results

TRIO = tuple(SystemConfig().evaluation_trio())


def _spec(code="DC", modes=TRIO, scale="tiny", **kwargs):
    return ExperimentSpec.for_workload(code, scale, modes=modes, **kwargs)


@pytest.fixture(scope="module")
def dc_payload():
    """One executed spec without any caching (shared baseline truth)."""
    return execute_spec(_spec(), RunnerConfig(parallel=False, cache_dir=None))


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert cache.get("k" * 64) is None
        cache.put("k" * 64, {"a": 1})
        assert cache.get("k" * 64) == {"a": 1}
        assert cache.hits == 1 and cache.misses == 1

    def test_stored_bytes_are_the_payload_json(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        payload = {
            "cycles": 0.1 + 0.2,
            "counts": [1, -2, 2**62],
            "nested": {"none": None, "flag": True, "text": "Ünïcode"},
            "inf": float("inf"),
        }
        cache.put("j" * 64, payload)
        assert cache._path("j" * 64).read_bytes() == json.dumps(
            payload
        ).encode()
        assert cache.get("j" * 64) == payload

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put("x" * 64, {"a": 1})
        path = cache._path("x" * 64)
        path.write_text("{not json")
        assert cache.get("x" * 64) is None

    def test_clear_and_info(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put("a" * 64, {"v": 1})
        cache.put("b" * 64, {"v": 2})
        info = cache.info()
        assert info["entries"] == 2
        assert info["size_bytes"] > 0
        assert cache.clear() == 2
        assert cache.entry_count() == 0


class TestCachePrune:
    @staticmethod
    def _aged_cache(tmp_path, count=4):
        """Cache with `count` entries whose mtimes ascend with the key."""
        import os

        cache = ResultCache(tmp_path / "c")
        for index in range(count):
            key = format(index, "x") * 64
            cache.put(key, {"payload": "x" * 512, "index": index})
            os.utime(cache._path(key), (1_000 + index, 1_000 + index))
        return cache

    def test_prune_evicts_oldest_first(self, tmp_path):
        cache = self._aged_cache(tmp_path)
        entry_bytes = cache._path("0" * 64).stat().st_size
        outcome = cache.prune(max_bytes=2 * entry_bytes)
        assert outcome["removed"] == 2
        assert outcome["kept"] == 2
        assert outcome["freed_bytes"] == 2 * entry_bytes
        assert outcome["size_bytes"] <= 2 * entry_bytes
        # The two oldest entries are gone, the two newest survive.
        assert cache.get("0" * 64) is None
        assert cache.get("1" * 64) is None
        assert cache.get("2" * 64) is not None
        assert cache.get("3" * 64) is not None

    def test_prune_within_budget_is_a_noop(self, tmp_path):
        cache = self._aged_cache(tmp_path)
        outcome = cache.prune(max_bytes=10 * 1024 * 1024)
        assert outcome["removed"] == 0
        assert outcome["kept"] == 4
        assert cache.entry_count() == 4

    def test_prune_to_zero_clears_everything(self, tmp_path):
        cache = self._aged_cache(tmp_path)
        outcome = cache.prune(max_bytes=0)
        assert outcome["removed"] == 4
        assert cache.entry_count() == 0

    def test_prune_rejects_negative_budget(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        with pytest.raises(ValueError):
            cache.prune(max_bytes=-1)

    def test_get_refreshes_recency(self, tmp_path):
        """A cache hit protects the entry from the next prune (LRU)."""
        cache = self._aged_cache(tmp_path)
        entry_bytes = cache._path("0" * 64).stat().st_size
        assert cache.get("0" * 64) is not None  # touch the oldest
        outcome = cache.prune(max_bytes=2 * entry_bytes)
        assert outcome["removed"] == 2
        assert cache.get("0" * 64) is not None  # survived the prune
        assert cache.get("1" * 64) is None
        assert cache.get("2" * 64) is None

    def test_prune_leaves_journal_and_quarantine_alone(self, tmp_path):
        cache = self._aged_cache(tmp_path)
        journal = tmp_path / "c" / "journal.jsonl"
        journal.write_text('{"spec": "x"}\n')
        quarantine = tmp_path / "c" / "objects" / "quarantine"
        quarantine.mkdir()
        (quarantine / "bad.json").write_text("{}")
        cache.prune(max_bytes=0)
        assert journal.exists()
        assert (quarantine / "bad.json").exists()


class TestCacheKeys:
    def test_config_fingerprint_stable_and_sensitive(self):
        base = SystemConfig()
        assert config_fingerprint(base) == config_fingerprint(SystemConfig())
        tweaked = dataclasses.replace(base, mlp=base.mlp + 1)
        assert config_fingerprint(base) != config_fingerprint(tweaked)

    def test_config_fingerprints_keep_their_values(self):
        """The memoized fingerprint of every benchmark config (sweep,
        Fig. 7, link faults, served catalog) is the sha256 of its
        sorted-key JSON with the HMC and fault plan mapped by
        ``dataclasses.asdict``, as before the memo."""

        def asdict_fingerprint(config):
            data = config.to_dict()
            data["hmc"] = dataclasses.asdict(config.hmc)
            if config.faults is not None:
                data["faults"] = dataclasses.asdict(config.faults)
            canonical = json.dumps(data, sort_keys=True)
            return hashlib.sha256(canonical.encode()).hexdigest()

        hmc = SystemConfig().hmc
        configs = [m for s in evaluation_grid_specs("small") for m in s.modes]
        for ctor in (SystemConfig.baseline, SystemConfig.upei):
            for factor in (0.25, 0.5, 1.0, 2.0):
                configs.append(
                    ctor(hmc=hmc.scaled_link_bandwidth(factor))
                )
        for fus in (1, 2, 4, 8, 16):
            for factor in (0.25, 0.5, 1.0, 2.0):
                configs.append(
                    SystemConfig.graphpim(
                        hmc=hmc.with_fus(fus).scaled_link_bandwidth(factor)
                    )
                )
        for ber in (1e-7, 1e-6, 1e-5):
            plan = FaultPlan(seed=7, request_ber=ber, response_ber=ber)
            for ctor in (SystemConfig.baseline, SystemConfig.graphpim):
                configs.append(ctor().with_faults(plan))
        for config in configs:
            expected = asdict_fingerprint(config)
            assert config_fingerprint(config) == expected
            assert config_fingerprint(config) == expected  # memoized

    def test_config_fingerprint_is_per_object_not_per_value(self):
        as_int = dataclasses.replace(SystemConfig(), mlp=4)
        as_float = dataclasses.replace(SystemConfig(), mlp=4.0)
        assert as_int == as_float
        assert config_fingerprint(as_int) != config_fingerprint(as_float)

    def test_result_key_depends_on_all_parts(self):
        key = result_key("t1", "c1", "s1")
        assert key != result_key("t2", "c1", "s1")
        assert key != result_key("t1", "c2", "s1")
        assert key != result_key("t1", "c1", "s2")

    def test_trace_digest_matches_content(self):
        from repro.graph.generators import ldbc_like_graph

        graph = ldbc_like_graph(200, seed=7)
        a = get_workload("BFS").run(graph, num_threads=4)
        b = get_workload("BFS").run(graph, num_threads=4)
        assert trace_digest(a.trace) == trace_digest(b.trace)
        c = get_workload("DC").run(graph, num_threads=4)
        assert trace_digest(a.trace) != trace_digest(c.trace)


# ----------------------------------------------------------------------
# execute_spec: caching semantics
# ----------------------------------------------------------------------


class TestExecuteSpecCaching:
    def test_second_execution_is_fully_cached(self, tmp_path):
        config = RunnerConfig(cache_dir=str(tmp_path / "c"))
        first = execute_spec(_spec(), config)
        assert all(not m["cached"] for m in first["modes"].values())
        second = execute_spec(_spec(), config)
        assert all(m["cached"] for m in second["modes"].values())
        for label in first["modes"]:
            assert (
                first["modes"][label]["payload"]
                == second["modes"][label]["payload"]
            )

    def test_config_change_misses(self, tmp_path):
        config = RunnerConfig(cache_dir=str(tmp_path / "c"))
        execute_spec(_spec(), config)
        tweaked = tuple(
            dataclasses.replace(mode, mlp=mode.mlp + 1) for mode in TRIO
        )
        result = execute_spec(_spec(modes=tweaked), config)
        assert all(not m["cached"] for m in result["modes"].values())

    def test_salt_change_invalidates(self, tmp_path):
        cache_dir = str(tmp_path / "c")
        execute_spec(_spec(), RunnerConfig(cache_dir=cache_dir))
        bumped = RunnerConfig(cache_dir=cache_dir, cache_salt="sim-v2")
        result = execute_spec(_spec(), bumped)
        assert all(not m["cached"] for m in result["modes"].values())
        # ... and the new population is itself cacheable.
        again = execute_spec(_spec(), bumped)
        assert all(m["cached"] for m in again["modes"].values())

    def test_cached_payloads_match_fresh_simulation(
        self, tmp_path, dc_payload
    ):
        config = RunnerConfig(cache_dir=str(tmp_path / "c"))
        execute_spec(_spec(), config)
        cached = execute_spec(_spec(), config)
        for label, entry in cached["modes"].items():
            assert entry["payload"] == dc_payload["modes"][label]["payload"]


# ----------------------------------------------------------------------
# Runner: parallel determinism, failures, fallback
# ----------------------------------------------------------------------


class TestRunnerExecution:
    def test_parallel_bit_identical_to_serial(self, tmp_path):
        specs = [_spec("DC"), _spec("kCore"), _spec("BFS")]
        serial_cfg = RunnerConfig(parallel=False, cache_dir=None)
        parallel_cfg = RunnerConfig(jobs=2, parallel=True, cache_dir=None)
        serial, serial_report = ExperimentRunner(serial_cfg).run(specs)
        parallel, parallel_report = ExperimentRunner(parallel_cfg).run(specs)
        assert not serial_report.parallel
        assert parallel_report.parallel
        for s_out, p_out in zip(serial, parallel):
            assert s_out.spec == p_out.spec
            for label in s_out.results:
                assert (
                    s_out.results[label].to_dict()
                    == p_out.results[label].to_dict()
                )

    def test_failed_job_raises_runner_error(self):
        bad = ExperimentSpec.for_workload("NOPE", "tiny", modes=TRIO)
        config = RunnerConfig(parallel=False, cache_dir=None)
        with pytest.raises(RunnerError, match="NOPE"):
            ExperimentRunner(config).run([bad])

    def test_broken_pool_falls_back_inline(self):
        """No restart budget: the poisoned first spec kills both real
        workers, the circuit opens, and the jobs it leaves run inline."""
        specs = [_spec("BFS"), _spec("DC"), _spec("kCore"), _spec("CComp")]
        config = RunnerConfig(
            jobs=2,
            parallel=True,
            cache_dir=None,
            heartbeat_interval_s=0.05,
            max_pool_restarts=0,
            allow_partial=True,
            chaos=ChaosPlan(poison_workload="BFS", seed=7),
        )
        outcomes, report = ExperimentRunner(config).run(specs)
        assert report.fell_back
        assert "finished in-process" in report.summary()
        assert report.pool_restarts == 0
        assert report.worker_crashes == 2
        assert [(f.job_id, f.kind) for f in report.failures] == [
            ("BFS@tiny", "poisoned")
        ]
        fallback = [job for job in report.jobs if job.executor == "fallback"]
        # Both workers die on BFS long before one could finish the other
        # three specs, so the last is still queued when the circuit opens.
        assert fallback and fallback[-1].workload == "CComp"
        assert all(job.status == "done" for job in fallback)
        # Fallback results are the same bits the workers would have made.
        serial_config = RunnerConfig(parallel=False, cache_dir=None)
        serial, _ = ExperimentRunner(serial_config).run(specs[1:])
        assert _results(outcomes) == _results(serial)
        _assert_no_leaks()

    def test_report_counters(self, tmp_path):
        config = RunnerConfig(
            parallel=False, cache_dir=str(tmp_path / "c")
        )
        _outcomes, cold = ExperimentRunner(config).run([_spec("kCore")])
        assert cold.simulations == len(TRIO)
        assert cold.cache_hits == 0
        assert not cold.all_cached
        _outcomes, warm = ExperimentRunner(config).run([_spec("kCore")])
        assert warm.simulations == 0
        assert warm.cache_hits == len(TRIO)
        assert warm.all_cached
        as_json = json.loads(json.dumps(warm.to_dict()))
        assert as_json["all_cached"] is True
        assert as_json["jobs"][0]["workload"] == "kCore"

    def test_grid_strict_rejects_racy_plain_spec(self):
        racy = _spec(plain_atomics=True, modes=(TRIO[0],))
        config = RunnerConfig(
            parallel=False, cache_dir=None, strict=True
        )
        with pytest.raises(RunnerError, match="RACE001"):
            ExperimentRunner(config).run([racy])
        exempt = _spec(
            plain_atomics=True, modes=(TRIO[0],), strict_exempt=True
        )
        outcomes, _report = ExperimentRunner(config).run([exempt])
        assert outcomes[0].results["Baseline"].cycles > 0


# ----------------------------------------------------------------------
# Resilience: timeouts, backoff, structured failures, resume
# ----------------------------------------------------------------------


class _RecordingRng:
    """The runner's default backoff stream for one spec, plus a log of
    every ``(cap, delay)`` draw the pool makes from it."""

    def __init__(self, key, draws):
        self._rng = random.Random(f"backoff:{key}")
        self._draws = draws.setdefault(key, [])

    def uniform(self, low, high):
        delay = self._rng.uniform(low, high)
        self._draws.append((high, delay))
        return delay


#: Small-scale specs overrun the 0.1 s budget the timeout tests give
#: them on every attempt, a retry that only simulates included: PRank,
#: the quicker one, traces in about 0.1 s and simulates its three modes
#: in about 0.2 s on a 2-vCPU host.
SLOW_SPECS = [_spec("BC", scale="small"), _spec("PRank", scale="small")]

#: Real pool workers, short heartbeats and a tight job deadline.  Every
#: timeout kills its worker and spends restart budget; once the budget
#: is gone the circuit sends the job inline, where no deadline applies.
#: So the budget stays above the kills a test causes.
TIMEOUT_KW = dict(
    jobs=2,
    parallel=True,
    cache_dir=None,
    heartbeat_interval_s=0.05,
    job_timeout_s=0.1,
    backoff_base_s=0.05,
    max_pool_restarts=8,
)


@pytest.mark.parametrize(
    "field, value",
    [
        ("job_timeout_s", 0),  # a deadline no job can meet
        ("job_timeout_s", -1.0),
        ("job_retries", -1),
        ("heartbeat_interval_s", 0),
        ("heartbeat_timeout_s", 0.5),  # not above the 1 s interval
        ("max_pool_restarts", -1),
        ("progress_interval_events", -1),
    ],
)
def test_runner_config_rejects_invalid_values(field, value):
    with pytest.raises(ConfigError, match=field):
        RunnerConfig(**{field: value})


class TestRunnerResilience:
    def test_timeout_exhaustion_records_structured_failure(self):
        draws = {}
        config = RunnerConfig(
            job_retries=2, allow_partial=True, **TIMEOUT_KW
        )
        runner = ExperimentRunner(
            config, backoff_rng=lambda key: _RecordingRng(key, draws)
        )
        outcomes, report = runner.run(SLOW_SPECS)
        assert outcomes == []
        assert [f.kind for f in report.failures] == ["timeout", "timeout"]
        assert all(f.attempts == 3 for f in report.failures)
        assert all(job.status == "failed" for job in report.jobs)
        assert not report.fell_back
        # Full-jitter exponential backoff between attempts, per job: the
        # n-th retry waits a uniform draw from [0, base * 2**(n-1)],
        # from a stream seeded by the spec key — so a rerun of the same
        # grid draws the same delays (reproducible retry schedules).
        keys = [spec_key(spec) for spec in SLOW_SPECS]
        assert sorted(draws) == sorted(keys)
        for key in keys:
            replay = random.Random(f"backoff:{key}")
            assert draws[key] == [
                (cap, replay.uniform(0.0, cap)) for cap in (0.05, 0.1)
            ]
        as_json = json.loads(json.dumps(report.to_dict()))
        assert as_json["failures"][0]["kind"] == "timeout"
        assert "FAILED" in report.summary()
        _assert_no_leaks()

    def test_timeout_without_allow_partial_raises(self):
        config = RunnerConfig(job_retries=0, **TIMEOUT_KW)
        with pytest.raises(RunnerError, match=r"\[timeout\]"):
            ExperimentRunner(config).run(SLOW_SPECS)
        _assert_no_leaks()

    def test_crash_mid_grid_degrades_to_partial_report(self, monkeypatch):
        real = engine_module.execute_spec

        def crashing(spec, config, publisher=None, recorder=None):
            if spec.workload == "kCore":
                raise OSError("worker lost its cache directory")
            return real(spec, config, publisher, recorder)

        monkeypatch.setattr(engine_module, "execute_spec", crashing)
        config = RunnerConfig(
            parallel=False, cache_dir=None, allow_partial=True
        )
        specs = [_spec("DC"), _spec("kCore"), _spec("BFS")]
        outcomes, report = ExperimentRunner(config).run(specs)
        assert [o.spec.workload for o in outcomes] == ["DC", "BFS"]
        (failure,) = report.failures
        assert failure.kind == "crash"
        assert "cache directory" in failure.message
        # The surviving outcomes are real results, not placeholders.
        assert outcomes[0].results["GraphPIM"].cycles > 0

    def test_resume_runs_exactly_the_remaining_specs(
        self, tmp_path, monkeypatch
    ):
        cache_dir = str(tmp_path / "c")
        config = RunnerConfig(parallel=False, cache_dir=cache_dir)
        first = [_spec("DC"), _spec("kCore")]
        ExperimentRunner(config).run(first)

        executed = []
        real = engine_module.execute_spec

        def counting(spec, config, publisher=None, recorder=None):
            executed.append(spec.workload)
            return real(spec, config, publisher, recorder)

        monkeypatch.setattr(engine_module, "execute_spec", counting)
        resumed = RunnerConfig(
            parallel=False, cache_dir=cache_dir, resume=True
        )
        specs = [_spec("DC"), _spec("kCore"), _spec("BFS")]
        outcomes, report = ExperimentRunner(resumed).run(specs)
        assert executed == ["BFS"]
        assert [o.spec.workload for o in outcomes] == ["BFS"]
        assert report.jobs_skipped == 2
        assert {
            job.workload: job.status for job in report.jobs
        } == {"DC": "skipped", "kCore": "skipped", "BFS": "done"}
        assert "skipped (resume)" in report.summary()

    def test_resume_without_cache_dir_is_an_error(self):
        config = RunnerConfig(parallel=False, cache_dir=None, resume=True)
        with pytest.raises(RunnerError, match="resume"):
            ExperimentRunner(config).run([_spec("DC")])

    def test_spec_key_covers_faults_and_salt(self):
        from repro.faults import FaultPlan
        from repro.sim.config import SystemConfig as SC

        clean = _spec("DC")
        faulty = _spec(
            "DC",
            modes=tuple(
                SC(faults=FaultPlan(seed=1, request_ber=1e-6))
                .evaluation_trio()
            ),
        )
        assert spec_key(clean) == spec_key(clean)
        assert spec_key(clean) != spec_key(faulty)
        assert spec_key(clean) != spec_key(clean, salt="other")


class TestCheckpointJournal:
    def test_mark_and_completed(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        assert journal.completed() == set()
        journal.mark("aaa", "DC@tiny")
        journal.mark("bbb")
        assert journal.completed() == {"aaa", "bbb"}
        journal.clear()
        assert journal.completed() == set()

    def test_torn_final_line_is_ignored(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        journal.mark("aaa")
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"spec": "bbb", "job')  # killed mid-write
        assert journal.completed() == {"aaa"}

    def test_cache_clear_drops_journal(self, tmp_path):
        cache = ResultCache(tmp_path)
        journal = CheckpointJournal(tmp_path)
        journal.mark("aaa")
        cache.clear()
        assert journal.completed() == set()


class TestCacheVerify:
    def test_verify_quarantines_bad_entries(self, tmp_path, dc_payload):
        cache = ResultCache(tmp_path / "c")
        good = dc_payload["modes"]["Baseline"]["payload"]
        cache.put("a" * 64, good)
        cache.put("b" * 64, {"schema": 999})  # wrong payload schema
        cache.put("c" * 64, good)
        cache._path("c" * 64).write_text("{not json")
        outcome = cache.verify()
        assert outcome["checked"] == 3
        assert outcome["ok"] == 1
        assert outcome["quarantined"] == 2
        quarantine = cache._objects / "quarantine"
        assert sorted(p.name for p in quarantine.glob("*.json")) == [
            "b" * 64 + ".json",
            "c" * 64 + ".json",
        ]
        # Healthy entry still served; quarantined ones are misses now.
        assert cache.get("a" * 64) == good
        assert cache.get("b" * 64) is None
        # Quarantined bytes do not count as cache entries.
        assert cache.entry_count() == 1

    def test_verify_empty_cache(self, tmp_path):
        outcome = ResultCache(tmp_path / "none").verify()
        assert outcome == {
            "checked": 0,
            "ok": 0,
            "quarantined": 0,
            "quarantine_dir": str(tmp_path / "none" / "objects" / "quarantine"),
        }


# ----------------------------------------------------------------------
# Serialization round-trips (cache + worker IPC substrate)
# ----------------------------------------------------------------------


class TestSerialization:
    def test_simresult_roundtrip_through_json(self, dc_payload):
        for entry in dc_payload["modes"].values():
            payload = json.loads(json.dumps(entry["payload"]))
            result = SimResult.from_dict(payload)
            assert result.to_dict() == entry["payload"]

    def test_simresult_schema_mismatch_rejected(self, dc_payload):
        payload = dict(dc_payload["modes"]["Baseline"]["payload"])
        payload["schema"] = 999
        with pytest.raises(SimulationError, match="schema"):
            SimResult.from_dict(payload)

    def test_evaluation_report_roundtrip(self, tiny_csr):
        system = GraphPimSystem(num_threads=4)
        report = system.evaluate("BFS", tiny_csr)
        data = json.loads(json.dumps(report.to_dict()))
        rebuilt = EvaluationReport.from_dict(data)
        assert rebuilt.workload_code == "BFS"
        assert rebuilt.run is None
        assert rebuilt.to_dict()["results"] == data["results"]
        assert rebuilt.speedup() == report.speedup()
        # Re-attaching the live run restores the full summary.
        attached = EvaluationReport.from_dict(data, run=report.run)
        assert attached.summary() == report.summary()

    def test_evaluation_report_schema_mismatch_rejected(self):
        with pytest.raises(SimulationError, match="schema"):
            EvaluationReport.from_dict(
                {"schema": -1, "workload_code": "BFS", "results": {}}
            )


# ----------------------------------------------------------------------
# Suite API: explicit strictness, lint dedup
# ----------------------------------------------------------------------


def _strict_bfs_trace():
    """BFS traced at tiny through the runner's strict pre-flight."""
    spec = _spec("BFS", params=workload_params("BFS"))
    run, _trace_hash = engine_module.trace_spec(
        spec, RunnerConfig(strict=True, cache_dir=None)
    )
    return run


class TestSuiteMigration:
    def test_trace_workload_explicit_strict(self):
        run = _strict_bfs_trace()
        assert run.trace.num_events > 0

    def test_preflight_dedup_skips_second_lint(self, monkeypatch):
        import repro.analysis as analysis

        analysis.clear_preflight_cache()
        calls = []
        real_analyze = analysis.analyze_run

        def counting_analyze(run, config=None):
            calls.append(run)
            return real_analyze(run, config=config)

        monkeypatch.setattr(analysis, "analyze_run", counting_analyze)
        run = _strict_bfs_trace()
        assert len(calls) == 1
        # Same content evaluated strictly again: no second trace walk.
        GraphPimSystem(num_threads=16, strict=True).evaluate_trace(run)
        assert len(calls) == 1
        analysis.clear_preflight_cache()
        GraphPimSystem(num_threads=16, strict=True).evaluate_trace(run)
        assert len(calls) == 2

    def test_resolve_strict_precedence(self):
        system = GraphPimSystem(strict=True)
        assert system._resolve_strict(None) is True
        assert system._resolve_strict(False) is False
        assert GraphPimSystem(strict=False)._resolve_strict(True) is True


# ----------------------------------------------------------------------
# Grid entry point
# ----------------------------------------------------------------------


class TestEvaluationGrid:
    def test_second_grid_run_is_all_cached(self, tmp_path):
        config = RunnerConfig(
            scale="tiny", parallel=False, cache_dir=str(tmp_path / "c")
        )
        reports, cold = run_evaluation_grid(config)
        assert set(reports) == {
            "BFS", "CComp", "DC", "kCore", "SSSP", "TC", "BC", "PRank"
        }
        assert cold.simulations == 24
        reports2, warm = run_evaluation_grid(config)
        assert warm.all_cached
        for code, report in reports.items():
            for label, result in report.results.items():
                assert (
                    result.cycles == reports2[code].results[label].cycles
                ), (code, label)
