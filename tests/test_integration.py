"""End-to-end integration tests exercising the public API."""

import pytest

from repro import (
    GraphPimSystem,
    Mode,
    SystemConfig,
    get_workload,
    ldbc_like_graph,
    simulate,
)
from repro.core.presets import (
    SCALE_VERTICES,
    bench_graph,
    resolve_scale,
    workload_graph,
    workload_params,
)


@pytest.fixture(scope="module")
def graph():
    return ldbc_like_graph(400, seed=7)


class TestGraphPimSystem:
    def test_evaluate_produces_three_modes(self, graph):
        system = GraphPimSystem(num_threads=8)
        report = system.evaluate("BFS", graph)
        assert set(report.results) == {"Baseline", "U-PEI", "GraphPIM"}

    def test_speedup_accessor(self, graph):
        system = GraphPimSystem(num_threads=8)
        report = system.evaluate("DC", graph)
        assert report.speedup("GraphPIM") == pytest.approx(
            report.baseline.cycles / report.results["GraphPIM"].cycles
        )

    def test_summary_mentions_modes(self, graph):
        system = GraphPimSystem(num_threads=8)
        report = system.evaluate("BFS", graph)
        text = report.summary()
        assert "GraphPIM" in text
        assert "speedup" in text

    def test_trace_reuse_between_modes(self, graph):
        system = GraphPimSystem(num_threads=8)
        run = system.trace("BFS", graph)
        report = system.evaluate_trace(run)
        assert report.run is run

    def test_bandwidth_accessor(self, graph):
        system = GraphPimSystem(num_threads=8)
        report = system.evaluate("DC", graph)
        base_req, base_resp = report.bandwidth_flits("Baseline")
        assert base_req > 0 and base_resp > 0

    def test_custom_mode_list(self, graph):
        system = GraphPimSystem(num_threads=8)
        report = system.evaluate(
            "BFS", graph, modes=[SystemConfig.baseline()]
        )
        assert list(report.results) == ["Baseline"]


class TestPresets:
    def test_scales_defined(self):
        assert set(SCALE_VERTICES) == {"tiny", "small", "paper"}

    def test_resolve_scale_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert resolve_scale() == "tiny"

    def test_resolve_scale_rejects_unknown(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            resolve_scale("enormous")

    def test_bench_graph_size(self):
        graph = bench_graph("tiny")
        assert graph.num_vertices == SCALE_VERTICES["tiny"]

    def test_sssp_graph_is_weighted(self):
        assert workload_graph("SSSP", "tiny").weights is not None
        assert workload_graph("BFS", "tiny").weights is None

    def test_workload_graph_is_built_once_per_process(self):
        graph = workload_graph("BFS", "tiny")
        assert workload_graph("DC", "tiny") is graph
        weighted = workload_graph("SSSP", "tiny")
        assert workload_graph("SSSP", "tiny") is weighted
        assert weighted is not graph
        # Callers share it, so a write fails loudly.
        for array in (graph.row_offsets, graph.columns, weighted.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        other = workload_graph("BFS", "tiny", seed=8)
        assert other is not graph
        assert workload_graph("BFS", "tiny") is not graph

    def test_workload_params_copy(self):
        params = workload_params("TC")
        params["max_degree"] = 1
        assert workload_params("TC")["max_degree"] != 1


class TestPaperShapeAtSmallScale:
    """The headline claims, checked on a mid-size run (slow-ish)."""

    @pytest.fixture(scope="class")
    def dc_report(self):
        graph = ldbc_like_graph(1500, seed=7)
        return GraphPimSystem(num_threads=16).evaluate("DC", graph)

    def test_graphpim_speedup_for_dc(self, dc_report):
        assert dc_report.speedup("GraphPIM") > 1.3

    def test_graphpim_saves_bandwidth_for_dc(self, dc_report):
        base = sum(dc_report.bandwidth_flits("Baseline"))
        pim = sum(dc_report.bandwidth_flits("GraphPIM"))
        assert pim < base

    def test_all_candidates_offloaded(self, dc_report):
        pim_stats = dc_report.results["GraphPIM"].core_stats
        assert pim_stats.host_atomics == 0
        assert pim_stats.offloaded_atomics == dc_report.run.stats.atomics

    def test_atomic_overhead_removed(self, dc_report):
        base_stats = dc_report.baseline.core_stats
        pim_stats = dc_report.results["GraphPIM"].core_stats
        assert base_stats.atomic_incore_cycles > 0
        assert pim_stats.atomic_incore_cycles == 0

    def test_mode_enum_round_trip(self):
        assert SystemConfig.graphpim().mode is Mode.GRAPHPIM

    def test_no_fp_extension_keeps_prank_atomics_on_host(self):
        graph = ldbc_like_graph(400, seed=7)
        run = get_workload("PRank").run(graph, num_threads=8, iterations=1)
        result = simulate(run.trace, SystemConfig.graphpim(fp_extension=False))
        assert result.core_stats.host_atomics > 0
