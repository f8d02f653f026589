"""Tests for the command-line interface."""

import gc
import json
import sys
import warnings

import pytest

from repro.cli import main
from repro.runner import RunnerConfig
from repro.service import ServiceConfig, ThreadedServer


class TestCli:
    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "BFS" in out
        assert "GInfer" in out
        assert "fp-ext" in out  # PRank/BC marker

    def test_run_prints_summary(self, capsys):
        assert main(
            ["run", "BFS", "--vertices", "200", "--threads", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "GraphPIM" in out
        assert "speedup" in out
        assert "fallback : 0 mode(s)" in out

    def test_run_epilogue_names_fallback_reasons(self, capsys, monkeypatch):
        from repro.sim import _cbuild

        monkeypatch.setattr(_cbuild, "_cached", (None, "no C compiler"))
        assert main(
            ["run", "BFS", "--vertices", "200", "--threads", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert (
            "fallback : 3 mode(s) (C batch kernel unavailable: no C compiler)"
            in out
        )

    def test_run_unknown_workload_exits_nonzero(self, capsys):
        assert main(["run", "NOPE"]) == 2
        err = capsys.readouterr().err
        assert "NOPE" in err

    def test_trace_then_simulate(self, tmp_path, capsys):
        trace_file = str(tmp_path / "bfs.npz")
        assert main(
            [
                "trace", "BFS",
                "--vertices", "200",
                "--threads", "4",
                "-o", trace_file,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote" in out

        assert main(["simulate", trace_file, "--mode", "graphpim"]) == 0
        out = capsys.readouterr().out
        assert "GraphPIM" in out
        assert "offloaded" in out

    def test_simulate_baseline_mode(self, tmp_path, capsys):
        trace_file = str(tmp_path / "dc.npz")
        main(["trace", "DC", "--vertices", "200", "--threads", "4",
              "-o", trace_file])
        capsys.readouterr()
        assert main(["simulate", trace_file, "--mode", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "host atomics" in out

    def test_experiment_static_table(self, capsys):
        assert main(["experiment", "tab05"]) == 0
        out = capsys.readouterr().out
        assert "64-byte READ" in out

    def test_run_grid_caches_and_reports(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = [
            "run", "--scale", "tiny", "--no-parallel",
            "--cache-dir", cache_dir,
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "runner:" in out
        assert "speedup" in out

        assert main(args + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["runner"]["all_cached"] is True
        assert report["runner"]["simulations"] == 0
        assert set(report["workloads"]) >= {"BFS", "PRank"}
        bfs = report["workloads"]["BFS"]
        assert set(bfs["results"]) == {"Baseline", "U-PEI", "GraphPIM"}

    def test_cache_info_and_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        main(["run", "--scale", "tiny", "--no-parallel",
              "--cache-dir", cache_dir])
        capsys.readouterr()

        assert main(["cache", "--cache-dir", cache_dir, "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["entries"] == 24

        assert main(["cache", "--cache-dir", cache_dir, "--clear"]) == 0
        out = capsys.readouterr().out
        assert "cleared" in out
        assert main(["cache", "--cache-dir", cache_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_cache_prune(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        main(["run", "--scale", "tiny", "--no-parallel",
              "--cache-dir", cache_dir])
        capsys.readouterr()

        # A generous budget removes nothing.
        assert main(["cache", "--cache-dir", cache_dir,
                     "--prune", "--max-mb", "64"]) == 0
        assert "pruned 0" in capsys.readouterr().out

        # A zero budget empties the cache and reports what it freed.
        assert main(["cache", "--cache-dir", cache_dir,
                     "--prune", "--max-mb", "0", "--json"]) == 0
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["removed"] == 24
        assert outcome["kept"] == 0
        assert outcome["freed_bytes"] > 0

        assert main(["cache", "--cache-dir", cache_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_cache_verify_exit_code_reflects_quarantine(
        self, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        main(["run", "--scale", "tiny", "--no-parallel",
              "--cache-dir", cache_dir])
        capsys.readouterr()

        # A healthy cache verifies clean and exits 0.
        assert main(["cache", "--cache-dir", cache_dir,
                     "--verify", "--json"]) == 0
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["quarantined"] == 0

        # Corrupt one entry: verify quarantines it and exits 1 so CI
        # health checks catch silent cache damage.
        victim = sorted((tmp_path / "cache" / "objects").glob("*.json"))[0]
        victim.write_bytes(b"\xff not json \xff")
        assert main(["cache", "--cache-dir", cache_dir,
                     "--verify", "--json"]) == 1
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["quarantined"] == 1

        # The bad entry was moved aside; a re-verify is clean again.
        assert main(["cache", "--cache-dir", cache_dir,
                     "--verify"]) == 0

    def test_run_grid_rejects_bad_chaos_spec(self, capsys):
        assert main(["run", "--chaos", "explode=yes"]) == 2
        assert "chaos" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, field",
        [("--timeout=0", "job_timeout_s"), ("--retries=-1", "job_retries")],
    )
    def test_run_grid_rejects_invalid_timeout_settings(
        self, capsys, option, field
    ):
        args = ["run", "--scale", "tiny", "--no-cache", "--jobs", "2"]
        assert main(args + [option, "--allow-partial"]) == 2
        assert field in capsys.readouterr().err

    def test_run_grid_with_chaos_kill_completes(self, tmp_path, capsys):
        args = [
            "run", "--scale", "tiny", "--no-cache", "--jobs", "2",
            "--chaos", "kill=0:0,seed=7", "--json",
        ]
        assert main(args) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["runner"]["failures"] == []
        assert set(report["workloads"]) >= {"BFS", "PRank"}

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "url", ["http://h:abc", "http://h:70000", "ftp://h:8477"]
    )
    def test_service_commands_reject_a_bad_url(self, capsys, url):
        assert main(["submit", "--url", url, "BFS"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro submit: ") and err.count("\n") == 1

    def test_service_commands_close_their_client(self, tmp_path, capsys):
        """``submit``, ``status`` and ``watch`` close their kept-alive
        connection: none is left for the collector to warn about."""
        config = ServiceConfig(
            port=0, workers=1,
            runner=RunnerConfig(cache_dir=str(tmp_path / "cache")),
        )
        unclosed = []
        hook = sys.unraisablehook
        sys.unraisablehook = unclosed.append
        try:
            with ThreadedServer(config) as server, warnings.catch_warnings():
                warnings.simplefilter("error", ResourceWarning)
                url = f"http://127.0.0.1:{server.port}"
                submit = ["submit", "BFS", "--url", url, "--scale", "tiny",
                          "--modes", "baseline"]
                assert main(submit + ["--json"]) == 0
                job_id = json.loads(capsys.readouterr().out)["job_id"]
                for argv in (
                    submit,  # a duplicate, answered in one trip
                    submit + ["--no-wait"],
                    ["status", "--url", url],
                    ["status", job_id, "--url", url],
                    ["watch", job_id, "--url", url],
                ):
                    assert main(argv) == 0, argv
                    gc.collect()
        finally:
            sys.unraisablehook = hook
        assert [str(entry.exc_value) for entry in unclosed] == []
        assert "(duplicate)" in capsys.readouterr().out
