"""Tests for harness suite memoization and registry internals."""

import pytest

from repro.common.errors import ConfigError
from repro.harness.registry import EXPERIMENTS, ExperimentResult, experiment
from repro.harness.suite import (
    clear_caches,
    evaluation_suite,
    plain_atomics_suite,
    trace_workload,
)


@pytest.fixture(scope="module", autouse=True)
def _clean():
    clear_caches()
    yield
    clear_caches()


class TestSuiteHelpers:
    def test_trace_workload_deterministic(self):
        a = trace_workload("BFS", "tiny")
        b = trace_workload("BFS", "tiny")
        assert a.trace.num_events == b.trace.num_events
        assert (
            a.trace.threads[0].event_tuples()
            == b.trace.threads[0].event_tuples()
        )

    def test_trace_workload_uses_params(self):
        run = trace_workload("TC", "tiny")
        # TC runs sampled at bench scale (WORKLOAD_PARAMS).
        assert run.outputs["sampled_vertices"] < 400

    def test_sssp_graph_weighted(self):
        run = trace_workload("SSSP", "tiny")
        assert run.outputs["rounds"] >= 1

    def test_clear_caches_resets(self):
        from repro.harness import suite as suite_module

        evaluation_suite("tiny")
        assert suite_module._EVAL_CACHE
        clear_caches()
        assert not suite_module._EVAL_CACHE
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
