"""Chaos-injection suite: the supervised pool under deliberate faults.

The tentpole invariant: whatever a :class:`~repro.chaos.ChaosPlan`
throws at the worker fleet — kills (before a job or after its traced
run was sent), heartbeat stalls, poisoned cache entries, torn journals
— the grid's surviving results are bit-identical to a chaos-free serial
reference, no worker process is leaked, and the pool leaves nothing in
``/dev/shm``.

Also covers ChaosPlan parsing/serialization, torn-write recovery of the
one JSON-lines journal format at every byte offset of the final record,
and SIGTERM-mid-grid followed by ``--resume``.
"""

import glob
import json
import logging
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.chaos import ChaosPlan, corrupt_cache_entries, truncate_journal
from repro.common.errors import ConfigError
from repro.runner import (
    CheckpointJournal,
    ExperimentRunner,
    JsonlJournal,
    ResultCache,
    RunnerConfig,
)
from repro.runner.engine import evaluation_grid_specs

#: Three-spec tiny grid: enough to keep two workers busy with work to
#: steal when one dies, small enough to keep the suite fast.
SPECS = evaluation_grid_specs("tiny")[:3]

#: Base supervised-pool config for chaos runs; short heartbeats so the
#: hang detector reacts within test timescales.
POOL_KW = dict(
    parallel=True,
    jobs=2,
    cache_dir=None,
    heartbeat_interval_s=0.05,
    heartbeat_timeout_s=2.0,
)


def _results(outcomes):
    """Canonical result mapping for bit-identity comparison."""
    return {
        outcome.spec.workload: {
            label: result.to_dict()
            for label, result in outcome.results.items()
        }
        for outcome in outcomes
    }


def _run_grid(specs=SPECS, **overrides):
    config = RunnerConfig(**{**POOL_KW, **overrides})
    outcomes, report = ExperimentRunner(config).run(specs)
    return _results(outcomes), report


def _assert_no_leaks():
    """No shared memory segments, no orphaned pool workers."""
    if os.path.isdir("/dev/shm"):
        assert glob.glob("/dev/shm/repro_*") == []
    orphans = [
        child
        for child in multiprocessing.active_children()
        if child.name.startswith("repro-pool-")
    ]
    assert orphans == []


@pytest.fixture(scope="module")
def serial_reference():
    """Chaos-free serial run of the shared spec trio."""
    config = RunnerConfig(parallel=False, cache_dir=None)
    outcomes, _report = ExperimentRunner(config).run(SPECS)
    return _results(outcomes)


# ----------------------------------------------------------------------
# ChaosPlan parsing and serialization
# ----------------------------------------------------------------------


class TestChaosPlan:
    def test_json_round_trip(self):
        plan = ChaosPlan(
            seed=11,
            kill_worker=1,
            kill_after_jobs=2,
            kill_after_trace=True,
            poison_workload="BFS",
        )
        rebuilt = ChaosPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert rebuilt == plan

    def test_from_spec_grammar(self):
        plan = ChaosPlan.from_spec(
            "kill=0:1:trace,stall=1:0:5,cache=2,journal=9,poison=DC,seed=3"
        )
        assert plan.kill_worker == 0
        assert plan.kill_after_jobs == 1
        assert plan.kill_after_trace
        assert plan.stall_worker == 1
        assert plan.stall_seconds == 5.0
        assert plan.corrupt_cache_entries == 2
        assert plan.truncate_journal_bytes == 9
        assert plan.poison_workload == "DC"
        assert plan.seed == 3
        assert plan.enabled
        assert "kill worker 0" in plan.describe()

    @pytest.mark.parametrize(
        "spec",
        [
            "kill",  # not key=value
            "kill=x",  # bad int
            "kill=0:1:oops",  # unknown modifier
            "stall=0:0:0",  # stall with no duration
            "nonsense=1",  # unknown key
            "shm=1",  # no such fault: the pool makes no shared memory
        ],
    )
    def test_bad_specs_raise_config_error(self, spec):
        with pytest.raises(ConfigError):
            ChaosPlan.from_spec(spec)

    def test_default_plan_is_disabled(self):
        plan = ChaosPlan()
        assert not plan.enabled
        assert plan.describe() == "chaos-free"

    def test_rng_streams_are_deterministic_and_distinct(self):
        plan = ChaosPlan(seed=5)
        assert plan.rng("cache", 0).random() == plan.rng("cache", 0).random()
        assert plan.rng("cache", 0).random() != plan.rng("cache", 1).random()


# ----------------------------------------------------------------------
# Grid-level chaos: bit-identity under every fault class
# ----------------------------------------------------------------------


class TestChaosGrid:
    def test_clean_supervised_run_matches_serial(self, serial_reference):
        results, report = _run_grid()
        assert results == serial_reference
        assert report.worker_crashes == 0
        assert report.pool_restarts == 0
        assert not report.fell_back
        _assert_no_leaks()

    def test_worker_kill_recovers_bit_identical(self, serial_reference):
        results, report = _run_grid(
            chaos=ChaosPlan(kill_worker=0, kill_after_jobs=0, seed=7)
        )
        assert results == serial_reference
        assert report.worker_crashes >= 1
        assert report.pool_restarts >= 1
        assert report.failures == []
        assert "worker crash(es)" in report.summary_line()
        _assert_no_leaks()

    def test_kill_after_trace_resumes_published_trace(
        self, serial_reference, caplog
    ):
        with caplog.at_level(logging.DEBUG, logger="repro.runner.pool"):
            results, report = _run_grid(
                chaos=ChaosPlan(kill_worker=0, kill_after_trace=True, seed=7)
            )
        assert results == serial_reference
        assert report.worker_crashes >= 1
        # The dead worker had sent its traced run, so the job went back
        # out with it and the replacement skipped tracing.
        for event in ("job_redispatched", "job_dispatched"):
            assert any(
                getattr(record, "event", "") == event
                and getattr(record, "resumed", False)
                for record in caplog.records
            ), event
        _assert_no_leaks()

    def test_heartbeat_stall_is_killed_as_hang(self):
        # The full tiny grid (not the shared trio): with this much work
        # queued, worker 0 always receives a job no matter how the
        # spawn/readiness race shakes out, so the stall reliably fires.
        specs = evaluation_grid_specs("tiny")
        serial_config = RunnerConfig(parallel=False, cache_dir=None)
        reference = _results(ExperimentRunner(serial_config).run(specs)[0])
        results, report = _run_grid(
            specs=specs,
            heartbeat_timeout_s=0.6,
            chaos=ChaosPlan(stall_worker=0, stall_seconds=60.0, seed=7),
        )
        assert results == reference
        assert report.worker_crashes >= 1
        assert report.failures == []
        _assert_no_leaks()

    def test_poisoned_spec_is_quarantined(self, serial_reference):
        results, report = _run_grid(
            allow_partial=True,
            chaos=ChaosPlan(poison_workload="BFS", seed=7),
        )
        expected = {
            code: value
            for code, value in serial_reference.items()
            if code != "BFS"
        }
        assert results == expected
        assert [failure.kind for failure in report.failures] == ["poisoned"]
        assert report.worker_crashes >= 2
        _assert_no_leaks()

    def test_corrupted_cache_entries_read_as_misses(
        self, serial_reference, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        warm, _ = _run_grid(cache_dir=cache_dir)
        assert warm == serial_reference
        results, report = _run_grid(
            cache_dir=cache_dir,
            chaos=ChaosPlan(corrupt_cache_entries=2, seed=7),
        )
        assert results == serial_reference
        assert report.failures == []
        # The corrupted entries forced fresh simulations instead of
        # serving damaged payloads.
        assert report.simulations >= 1
        _assert_no_leaks()

    def test_journal_truncation_chaos_then_resume_completes(
        self, serial_reference, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        first, _ = _run_grid(
            cache_dir=cache_dir,
            chaos=ChaosPlan(truncate_journal_bytes=10, seed=7),
        )
        assert first == serial_reference
        journal = CheckpointJournal(cache_dir)
        completed = journal.completed()
        assert len(completed) < len(SPECS)  # the tear lost the tail
        # Resume re-runs exactly the specs the tear un-journalled and
        # returns outcomes for those alone; each must match the
        # reference bit-for-bit.
        results, report = _run_grid(cache_dir=cache_dir, resume=True)
        assert len(results) == len(SPECS) - len(completed)
        for code, value in results.items():
            assert value == serial_reference[code]
        assert report.failures == []
        assert len(journal.completed()) >= len(completed)
        _assert_no_leaks()


# ----------------------------------------------------------------------
# Torn-write recovery at every byte offset
# ----------------------------------------------------------------------


class TestTornWriteRecovery:
    def test_jsonl_journal_tolerates_any_tear_of_last_record(
        self, tmp_path
    ):
        """The format under the resume journal, the service's drain
        checkpoint and the fleet roster: a tear anywhere in the last
        record loses that record alone, and the next append is whole."""
        journal = JsonlJournal(tmp_path / "journal.jsonl")
        records = [
            {"spec": c * 64, "job_id": f"job-{c}"} for c in "abc"
        ]
        for record in records:
            journal.append(record)
        content = journal.path.read_bytes()
        last_start = content.rstrip(b"\n").rfind(b"\n") + 1
        later = {"spec": "d" * 64, "job_id": "job-d"}
        for offset in range(last_start, len(content) + 1):
            journal.path.write_bytes(content[:offset])
            # The torn record only counts once its closing brace is on
            # disk (the trailing newline is immaterial).
            kept = records if offset >= len(content) - 1 else records[:2]
            assert journal.records() == kept
            journal.append(later)
            assert journal.records() == kept + [later]

    def test_resume_after_torn_journal_reruns_only_the_tail(
        self, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        config = RunnerConfig(parallel=False, cache_dir=cache_dir)
        reference = _results(ExperimentRunner(config).run(SPECS)[0])
        journal = CheckpointJournal(cache_dir)
        content = journal.path.read_bytes()
        last_start = content.rstrip(b"\n").rfind(b"\n") + 1
        # Tear mid-way through the last record: a representative offset
        # of the per-byte sweep above, driven through the full grid.
        journal.path.write_bytes(
            content[: last_start + (len(content) - last_start) // 2]
        )
        resume_config = RunnerConfig(
            parallel=False, cache_dir=cache_dir, resume=True
        )
        outcomes, report = ExperimentRunner(resume_config).run(SPECS)
        statuses = [record.status for record in report.jobs]
        assert statuses.count("skipped") == 2
        assert statuses.count("done") == 1
        # Only the torn-off spec re-runs; its results match the
        # reference bit-for-bit.
        results = _results(outcomes)
        assert len(results) == 1
        for code, value in results.items():
            assert value == reference[code]


# ----------------------------------------------------------------------
# Parent-side chaos hooks (unit level)
# ----------------------------------------------------------------------


class TestChaosHooks:
    def test_corrupt_cache_entries_flips_bytes_in_place(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, {"v": 1})
        cache.put("b" * 64, {"v": 2})
        before = {
            path.name: path.read_bytes()
            for path in sorted((tmp_path / "objects").glob("*.json"))
        }
        flipped = corrupt_cache_entries(
            str(tmp_path), ChaosPlan(corrupt_cache_entries=1, seed=3)
        )
        assert flipped == 1
        after = {
            path.name: path.read_bytes()
            for path in sorted((tmp_path / "objects").glob("*.json"))
        }
        assert sum(before[name] != after[name] for name in before) == 1
        # The damaged entry must read as a miss, never as garbage.
        damaged = [n for n in before if before[n] != after[n]][0]
        assert cache.get(damaged[: -len(".json")]) is None

    def test_truncate_journal_drops_tail_bytes(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        journal.mark("x" * 64)
        size = journal.path.stat().st_size
        truncate_journal(str(journal.path), 5)
        assert journal.path.stat().st_size == size - 5
        assert journal.completed() == set()  # torn record is ignored


# ----------------------------------------------------------------------
# SIGTERM mid-grid, then --resume
# ----------------------------------------------------------------------


_GRID_SCRIPT = """
import sys
from repro.runner.engine import ExperimentRunner, evaluation_grid_specs
from repro.runner.spec import RunnerConfig

# The __main__ guard is mandatory: spawned pool workers re-import this
# module, and an unguarded grid launch would fork-bomb.
if __name__ == "__main__":
    config = RunnerConfig(
        parallel=True,
        jobs=2,
        cache_dir=sys.argv[1],
        resume="--resume" in sys.argv,
        heartbeat_interval_s=0.05,
    )
    ExperimentRunner(config).run(evaluation_grid_specs("tiny"))
    print("GRID-DONE")
"""


class TestSigtermMidGrid:
    def test_sigterm_shuts_down_cleanly_and_resume_completes(
        self, tmp_path
    ):
        script = tmp_path / "grid.py"
        script.write_text(_GRID_SCRIPT)
        cache_dir = tmp_path / "cache"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        journal = CheckpointJournal(cache_dir)

        proc = subprocess.Popen(
            [sys.executable, str(script), str(cache_dir)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if journal.completed():
                    break
                assert proc.poll() is None, (
                    "grid exited before SIGTERM could be delivered"
                )
                time.sleep(0.05)
            else:
                pytest.fail("no checkpoint appeared before the deadline")
            proc.send_signal(signal.SIGTERM)
            _stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode != 0
        assert b"terminated by SIGTERM" in stderr
        _assert_no_leaks()
        checkpointed = journal.completed()
        assert checkpointed  # mid-grid progress survived the kill

        resumed = subprocess.run(
            [sys.executable, str(script), str(cache_dir), "--resume"],
            capture_output=True,
            env=env,
            timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr.decode()
        assert b"GRID-DONE" in resumed.stdout
        # Every spec (including those finished pre-kill) is journalled.
        assert journal.completed() >= checkpointed
        _assert_no_leaks()
