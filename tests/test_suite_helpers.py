"""Tests for the harness's spec memo, its suites and registry internals."""

import pytest

import repro.analysis as analysis
from repro.common.errors import ConfigError
from repro.core.presets import workload_params
from repro.harness import suite as suite_module
from repro.harness.registry import (
    EXPERIMENTS,
    ExperimentResult,
    experiment,
    run_experiment,
)
from repro.harness.suite import (
    clear_caches,
    evaluation_suite,
    plain_atomics_suite,
    run_specs,
    sweep,
)
from repro.runner import (
    ExperimentSpec,
    RunnerConfig,
    clear_trace_memo,
    plain_atomics_specs,
)
from repro.runner.engine import trace_spec
from repro.sim.config import SystemConfig


@pytest.fixture(scope="module", autouse=True)
def _clean():
    clear_caches()
    yield
    clear_caches()


def _trace(code):
    """``code`` traced at tiny on its bench graph with its parameters."""
    spec = ExperimentSpec.for_workload(
        code, "tiny", modes=[SystemConfig.graphpim()],
        params=workload_params(code),
    )
    run, _trace_hash = trace_spec(spec, RunnerConfig(cache_dir=None))
    return run


class TestSuiteHelpers:
    def test_trace_workload_deterministic(self):
        a = _trace("BFS")
        clear_trace_memo()  # capture again instead of reusing ``a``
        b = _trace("BFS")
        assert a is not b
        assert a.trace.num_events == b.trace.num_events
        assert (
            a.trace.threads[0].event_tuples()
            == b.trace.threads[0].event_tuples()
        )

    def test_trace_workload_uses_params(self):
        run = _trace("TC")
        # TC runs sampled at bench scale (WORKLOAD_PARAMS).
        assert run.outputs["sampled_vertices"] < 400

    def test_sssp_graph_weighted(self):
        run = _trace("SSSP")
        assert run.outputs["rounds"] >= 1

    def test_clear_caches_resets(self):
        evaluation_suite("tiny")
        assert suite_module._RESULTS
        clear_caches()
        assert not suite_module._RESULTS
        # Re-populate for the remaining tests in this module.
        evaluation_suite("tiny")

    def test_plain_suite_has_no_atomics(self):
        plain = plain_atomics_suite("tiny")
        for code, result in plain.items():
            assert result.core_stats.host_atomics == 0, code
            assert result.core_stats.offloaded_atomics == 0, code

    def test_plain_suite_faster_than_baseline(self):
        suite = evaluation_suite("tiny")
        plain = plain_atomics_suite("tiny")
        for code in ("BFS", "DC"):
            assert plain[code].cycles < suite[code].baseline.cycles


class TestRunSpecs:
    def test_report_only_for_specs_that_ran(self):
        specs = [
            ExperimentSpec.for_workload(
                "BFS", "tiny", modes=[SystemConfig.baseline()],
                params=workload_params("BFS"),
            )
        ]
        clear_caches()
        first, report = run_specs(specs)
        assert report is not None and report.jobs_total == 1
        again, report = run_specs(specs)
        assert report is None
        assert again == first

    def test_strict_call_not_answered_by_unchecked_results(
        self, monkeypatch
    ):
        analysis.clear_preflight_cache()
        real_analyze = analysis.analyze_run
        calls = []

        def counting_analyze(run, config=None):
            calls.append(run)
            return real_analyze(run, config=config)

        monkeypatch.setattr(analysis, "analyze_run", counting_analyze)
        strict = RunnerConfig(strict=True, parallel=False, cache_dir=None)
        clear_caches()
        counts = []
        for runner in (None, strict, strict):
            evaluation_suite("tiny", runner=runner)
            counts.append(len(calls))
        analysis.clear_preflight_cache()
        # Each of the eight traces is checked once, by the first strict
        # call; the second is answered from the memo.
        assert counts == [0, 8, 8]

    def test_strict_rerun_lost_to_preflight_maps_to_empty(self):
        racy = [
            ExperimentSpec.for_workload(
                "DC", "tiny", modes=[SystemConfig.baseline()],
                plain_atomics=True, params=workload_params("DC"),
            )
        ]
        clear_caches()
        unchecked, _report = run_specs(racy)
        assert unchecked[0]["Baseline"].cycles > 0
        strict = RunnerConfig(
            strict=True, parallel=False, cache_dir=None, allow_partial=True
        )
        results, report = run_specs(racy, strict)
        # The pre-flight rejects the racy trace, so the strict caller
        # gets nothing rather than the unchecked results.
        assert results == [{}]
        assert [(f.job_id, f.kind) for f in report.failures] == [
            ("DC@tiny/plain", "error")
        ]
        assert "RACE001" in report.failures[0].message

    def test_strict_call_answers_exempt_specs_from_memo(self):
        clear_caches()
        plain_atomics_suite("tiny")
        strict = RunnerConfig(strict=True, parallel=False, cache_dir=None)
        specs = plain_atomics_specs("tiny")
        _results, report = run_specs(specs, strict)
        assert report is None

    def test_sweep_rejects_shared_labels(self):
        modes = [SystemConfig.baseline(), SystemConfig.baseline()]
        with pytest.raises(ConfigError, match="own label"):
            sweep(["BFS"], modes, "tiny")

    def test_sweep_results_in_mode_order(self):
        suite = evaluation_suite("tiny")
        trio = SystemConfig().evaluation_trio()
        swept = sweep(["DC"], trio[::-1], "tiny")
        assert [result.cycles for result in swept["DC"]] == [
            suite["DC"].results[label].cycles
            for label in ("GraphPIM", "U-PEI", "Baseline")
        ]

    def test_static_table_ignores_scale(self):
        assert run_experiment("tab05", scale="tiny") == run_experiment(
            "tab05"
        )


class TestRegistryInternals:
    def test_duplicate_registration_rejected(self):
        @experiment("zz_test_dup")
        def _exp():
            return ExperimentResult("zz_test_dup", "t", [])

        try:
            with pytest.raises(ConfigError):

                @experiment("zz_test_dup")
                def _exp2():
                    return ExperimentResult("zz_test_dup", "t", [])

        finally:
            EXPERIMENTS.pop("zz_test_dup", None)

    def test_workload_registry_duplicate_rejected(self):
        from repro.workloads.base import Workload
        from repro.workloads.registry import register

        class Fake(Workload):
            code = "BFS"  # collides

            def execute(self, ctx, graph, **params):
                return {}

        with pytest.raises(ConfigError):
            register(Fake())

    def test_workload_without_code_rejected(self):
        from repro.workloads.base import Workload
        from repro.workloads.registry import register

        class Nameless(Workload):
            code = ""

            def execute(self, ctx, graph, **params):
                return {}

        with pytest.raises(ConfigError):
            register(Nameless())
