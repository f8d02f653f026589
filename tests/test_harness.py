"""Tests for the experiment harness at tiny scale.

Each experiment must run, produce well-formed rows, and reproduce the
paper's qualitative shape (sanity thresholds, not exact numbers).
"""

import pytest

import repro.runner.engine as engine_module
from repro.common.errors import ConfigError
from repro.harness import get_experiment, run_experiment
from repro.harness.registry import EXPERIMENTS, ExperimentResult
from repro.harness.render import format_table
from repro.harness.suite import clear_caches, evaluation_suite
from repro.workloads.registry import FIGURE7_CODES

SCALE = "tiny"


@pytest.fixture(scope="module", autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestRender:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.125]], "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.500" in text

    def test_result_helpers(self):
        result = ExperimentResult(
            "x", "t", ["k", "v"], rows=[["a", 1], ["b", 2]]
        )
        assert result.column("v") == [1, 2]
        assert result.row_for("b") == ["b", 2]
        with pytest.raises(KeyError):
            result.row_for("c")
        assert "[x]" in result.render()


class TestRegistry:
    def test_all_experiments_registered(self):
        get_experiment("fig07")  # trigger loading
        expected = {
            "fig01", "fig02", "fig04", "fig07", "fig09", "fig10",
            "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
            "fig17", "tab02", "tab03", "tab05", "tab06", "tab08",
        }
        assert expected <= set(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            get_experiment("fig99")


class TestStaticTables:
    def test_tab02_rows(self):
        result = run_experiment("tab02")
        assert result.metrics["num_workloads"] >= 6

    def test_tab03_seven_applicable(self):
        result = run_experiment("tab03")
        assert result.metrics["applicable"] == 7

    def test_tab05_matches_table_v(self):
        result = run_experiment("tab05")
        row = result.row_for("64-byte READ")
        assert row[1:] == [1, 5]

    def test_tab06_family_monotone(self):
        result = run_experiment("tab06")
        vertices = result.column("vertices")
        assert vertices == sorted(vertices)


class TestSuiteSharing:
    def test_suite_memoized(self, monkeypatch):
        a = evaluation_suite(SCALE)
        jobs = []
        real_execute = engine_module.execute_spec

        def counting_execute(spec, config, **kwargs):
            jobs.append(spec)
            return real_execute(spec, config, **kwargs)

        monkeypatch.setattr(engine_module, "execute_spec", counting_execute)
        b = evaluation_suite(SCALE)
        assert jobs == []
        assert b == a

    def test_suite_covers_figure7_codes(self):
        suite = evaluation_suite(SCALE)
        assert set(suite) == set(FIGURE7_CODES)


class TestSimulationExperiments:
    def test_fig01_shapes(self):
        result = run_experiment("fig01", scale=SCALE)
        assert len(result.rows) == 13
        # GT workloads are the slow ones.
        assert result.metrics["mean_ipc_GT"] < result.metrics["mean_ipc_RP"]

    def test_fig02_backend_dominates(self):
        result = run_experiment("fig02", scale=SCALE)
        assert result.metrics["mean_backend"] > 0.5

    def test_fig04_atomics_cost_something(self):
        result = run_experiment("fig04", scale=SCALE)
        assert result.metrics["mean_slowdown"] > 1.1

    def test_fig07_graphpim_wins_on_average(self):
        result = run_experiment("fig07", scale=SCALE)
        assert len(result.rows) == 8
        # At tiny scale the shape is muted but GraphPIM must still beat
        # the baseline for the atomic-dense workloads.
        row = result.row_for("DC")
        assert row[3] > 1.0

    def test_fig09_rows_per_system(self):
        result = run_experiment("fig09", scale=SCALE)
        assert len(result.rows) == 16  # 8 workloads x 2 systems
        baseline_rows = [r for r in result.rows if r[1] == "Baseline"]
        for row in baseline_rows:
            assert row[2] == pytest.approx(1.0)

    def test_fig10_rates_in_range(self):
        result = run_experiment("fig10", scale=SCALE)
        for rate in result.column("llc_miss_rate"):
            assert 0.0 <= rate <= 1.0

    def test_fig12_baseline_normalized(self):
        result = run_experiment("fig12", scale=SCALE)
        for row in result.rows:
            if row[1] == "Baseline":
                assert row[4] == pytest.approx(1.0)

    def test_fig15_components_positive(self):
        result = run_experiment("fig15", scale=SCALE)
        for row in result.rows:
            assert all(v >= 0 for v in row[2:])

    def test_fig16_errors_finite(self):
        result = run_experiment("fig16", scale=SCALE)
        assert result.metrics["mean_error"] < 1.0

    def test_fig11_insensitive_to_fus(self):
        result = run_experiment(
            "fig11", scale=SCALE, workloads=("DC",), fu_counts=(1, 16)
        )
        assert result.metrics["max_speedup_spread"] < 0.3

    def test_fig13_insensitive_to_linkbw(self):
        result = run_experiment(
            "fig13", scale=SCALE, workloads=("DC",), factors=(0.5, 2.0)
        )
        assert result.metrics["max_bandwidth_spread"] < 0.4

    def test_fig14_structure(self):
        result = run_experiment("fig14", scale=SCALE, workloads=("DC",))
        sizes = sorted(set(result.column("vertices")))
        assert len(sizes) >= 2

    def test_tab08_counters(self):
        result = run_experiment("tab08", scale=SCALE)
        apps = result.column("app")
        assert set(apps) == {"FD", "RS"}
        for row in result.rows:
            assert 0 < row[1] < 4  # ipc per core
            assert 0 <= row[5] <= 1  # pim atomic fraction

    def test_fig17_speedups(self):
        result = run_experiment("fig17", scale=SCALE)
        for row in result.rows:
            assert row[1] > 0.5  # simulated speedup sane
