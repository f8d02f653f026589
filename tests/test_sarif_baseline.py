"""SARIF export, finding baselines, and the lint CI surface."""

import json

import pytest

from repro.cli import main
from repro.common.errors import AnalysisError
from repro.core.presets import workload_params
from repro.memlayout.regions import REGION_SHIFT, Region
from repro.sim.config import SystemConfig
from repro.trace.events import AtomicOp
from repro.trace.io import load_trace, save_trace
from repro.trace.stream import ThreadTrace, Trace
from repro.workloads.registry import get_workload
from repro.analysis import (
    AnalysisReport,
    RULES,
    Severity,
    analyze_run,
    apply_baseline,
    baseline_identity,
    clear_preflight_cache,
    detect_races,
    lint_trace,
    load_baseline,
    make_finding,
    preflight_run,
    render_json,
    write_baseline,
)
from repro.analysis.sarif import (
    FINGERPRINT_KEY,
    SARIF_SCHEMA,
    SARIF_VERSION,
    to_sarif,
)

PMR = int(Region.PROPERTY) << REGION_SHIFT
META = int(Region.META) << REGION_SHIFT


def _sample_report() -> AnalysisReport:
    report = AnalysisReport(subject="sample")
    report.add(
        make_finding(
            "PIM001",
            "PMR atomic FP_ADD has no HMC command",
            thread_id=0,
            event_index=6,
            fix_hint="enable the FP extension",
        )
    )
    report.add(
        make_finding(
            "RACE001",
            "epoch 0: non-atomic store ...",
            thread_id=1,
            event_index=2,
            severity=Severity.WARNING,
        )
    )
    report.add(
        make_finding(
            "PIM001",
            "suppressed note",
            severity=Severity.INFO,
        )
    )
    return report


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_deterministic_and_content_addressed(self):
        a = make_finding("PIM001", "msg", thread_id=1, event_index=2)
        b = make_finding("PIM001", "msg", thread_id=1, event_index=2)
        assert a.fingerprint() == b.fingerprint()
        assert len(a.fingerprint()) == 16

    def test_sensitive_to_identity_fields(self):
        base = make_finding("PIM001", "msg", thread_id=1, event_index=2)
        for variant in (
            make_finding("PIM002", "cached load aliases", thread_id=1),
            make_finding("PIM001", "other msg", thread_id=1, event_index=2),
            make_finding("PIM001", "msg", thread_id=2, event_index=2),
            make_finding("PIM001", "msg", thread_id=1, event_index=3),
            make_finding(
                "PIM001", "msg", thread_id=1, event_index=2,
                severity=Severity.WARNING,
            ),
        ):
            assert variant.fingerprint() != base.fingerprint()

    def test_insensitive_to_fix_hint(self):
        a = make_finding("PIM001", "msg", fix_hint="do X")
        b = make_finding("PIM001", "msg", fix_hint="do Y instead")
        assert a.fingerprint() == b.fingerprint()


# ---------------------------------------------------------------------------
# SARIF shape
# ---------------------------------------------------------------------------

class TestSarif:
    def test_document_shape(self):
        log = to_sarif(_sample_report())
        assert log["version"] == SARIF_VERSION == "2.1.0"
        assert log["$schema"] == SARIF_SCHEMA
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert {r["id"] for r in driver["rules"]} == set(RULES)
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in (
                "error", "warning", "note",
            )
        assert run["properties"]["subject"] == "sample"

    def test_results_golden(self):
        report = _sample_report()
        results = to_sarif(report)["runs"][0]["results"]
        finding = report.findings[0]
        assert results[0] == {
            "ruleId": "PIM001",
            "level": "error",
            "message": {"text": "PMR atomic FP_ADD has no HMC command"},
            "partialFingerprints": {
                FINGERPRINT_KEY: finding.fingerprint()
            },
            "locations": [
                {
                    "logicalLocations": [
                        {"name": "t0#6", "kind": "traceEvent"}
                    ]
                }
            ],
            "properties": {"fixHint": "enable the FP extension"},
        }
        # Severity mapping and location-less results.
        assert results[1]["level"] == "warning"
        assert results[2]["level"] == "note"
        assert "locations" not in results[2]
        assert "properties" not in results[1]

    def test_serializes(self):
        text = json.dumps(to_sarif(_sample_report()))
        assert json.loads(text)["version"] == "2.1.0"


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

class TestBaseline:
    def test_round_trip_suppression(self, tmp_path):
        report = _sample_report()
        path = tmp_path / "baseline.json"
        count = write_baseline(report, path)
        assert count == 2  # the INFO note is never baselined

        frozen = load_baseline(path)
        clean = apply_baseline(report, frozen)
        # Only the INFO note survives; the gate goes green.
        assert [f.severity for f in clean.findings] == [Severity.INFO]
        assert clean.exit_code() == 0
        assert clean.subject == report.subject

        # A brand-new finding is NOT suppressed.
        report.add(make_finding("TRC001", "new regression"))
        regressed = apply_baseline(report, frozen)
        assert [f.rule_id for f in regressed.findings if
                f.severity is Severity.ERROR] == ["TRC001"]
        assert regressed.exit_code() == 1

    def test_identity_is_order_insensitive(self):
        assert baseline_identity({"b", "a"}) == baseline_identity(
            frozenset(["a", "b"])
        )
        assert baseline_identity(set()) != baseline_identity({"a"})

    @pytest.mark.parametrize(
        "content, match",
        [
            ("not json {", "not a readable baseline"),
            ("[1, 2]", "must be a JSON object"),
            ('{"version": 9, "fingerprints": []}', "version"),
            ('{"version": 1, "fingerprints": "xx"}', "list of strings"),
            ('{"version": 1, "fingerprints": [1]}', "list of strings"),
            ('{"version": 1}', "list of strings"),
        ],
    )
    def test_rejects_malformed_files(self, tmp_path, content, match):
        path = tmp_path / "broken.json"
        path.write_text(content)
        with pytest.raises(AnalysisError, match=match):
            load_baseline(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(AnalysisError, match="not found"):
            load_baseline(tmp_path / "absent.json")


# ---------------------------------------------------------------------------
# Strict pre-flight with a baseline
# ---------------------------------------------------------------------------

class TestPreflightBaseline:
    @pytest.fixture()
    def failing_run(self, small_graph):
        # PageRank's FP_ADD atomics violate PIM001 without the FP ext.
        return get_workload("PRank").run(
            small_graph, num_threads=4, **workload_params("PRank")
        )

    def test_baseline_unblocks_known_findings(
        self, failing_run, tmp_path
    ):
        config = SystemConfig.graphpim(fp_extension=False)
        clear_preflight_cache()
        with pytest.raises(AnalysisError):
            preflight_run(failing_run, config=config)

        path = tmp_path / "baseline.json"
        write_baseline(analyze_run(failing_run, config=config), path)
        digest = preflight_run(
            failing_run, config=config, baseline=str(path)
        )
        assert digest
        # Memoized per (trace, config, baseline): the un-baselined
        # pre-flight still fails afterwards.
        with pytest.raises(AnalysisError):
            preflight_run(failing_run, config=config)
        clear_preflight_cache()


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def _write_failing_trace(path):
    """A trace with PIM001 errors under --no-fp-ext (FP_ADD in PMR)."""
    threads = []
    for tid in range(2):
        thread = ThreadTrace(tid)
        thread.atomic(
            AtomicOp.FP_ADD, PMR + 64 * tid, 8, with_return=False
        )
        thread.barrier(0)
        threads.append(thread)
    save_trace(Trace(threads, name="fp"), path)


class TestLintCli:
    def test_sarif_output_and_gating(self, tmp_path, capsys):
        trace_file = str(tmp_path / "fp.npz")
        _write_failing_trace(trace_file)
        code = main(
            ["lint", trace_file, "--no-fp-ext", "--format", "sarif"]
        )
        log = json.loads(capsys.readouterr().out)
        assert code == 1
        assert log["version"] == "2.1.0"
        results = log["runs"][0]["results"]
        assert {r["ruleId"] for r in results} == {"PIM001"}
        assert all(
            FINGERPRINT_KEY in r["partialFingerprints"] for r in results
        )

    def test_baseline_round_trip(self, tmp_path, capsys):
        trace_file = str(tmp_path / "fp.npz")
        baseline = str(tmp_path / "baseline.json")
        _write_failing_trace(trace_file)

        assert main(["lint", trace_file, "--no-fp-ext"]) == 1
        capsys.readouterr()
        assert main(
            ["lint", trace_file, "--no-fp-ext",
             "--write-baseline", baseline]
        ) == 0
        assert "wrote 2 fingerprint(s)" in capsys.readouterr().out
        assert main(
            ["lint", trace_file, "--no-fp-ext", "--baseline", baseline]
        ) == 0
        assert "0 error(s)" in capsys.readouterr().out
        # With the FP extension enabled a previously unseen PIM002-free
        # report stays green too, but a different config's findings are
        # not covered by the frozen fingerprints.
        assert main(["lint", trace_file, "--baseline", baseline]) == 0

    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        trace_file = str(tmp_path / "fp.npz")
        _write_failing_trace(trace_file)
        assert main(
            ["lint", trace_file, "--baseline",
             str(tmp_path / "nope.json")]
        ) == 2
        assert "baseline" in capsys.readouterr().err

    def test_corrupt_npz_exits_2(self, tmp_path, capsys):
        """A truncated/corrupt bundle is a clean exit 2, not a traceback."""
        trace_file = tmp_path / "fp.npz"
        _write_failing_trace(str(trace_file))
        raw = bytearray(trace_file.read_bytes())
        # Flip bytes inside the compressed payload, past the member
        # header, so the zip directory parses but inflation fails.
        anchor = raw.find(b"thread_0.npy") + len(b"thread_0.npy")
        for offset in range(anchor + 8, anchor + 24):
            raw[offset] ^= 0xFF
        corrupt = tmp_path / "corrupt.npz"
        corrupt.write_bytes(bytes(raw))

        assert main(["lint", str(corrupt)]) == 2
        err = capsys.readouterr().err
        assert "not a readable trace bundle" in err
        assert "Traceback" not in err

    def test_engine_flag_equivalence(self, tmp_path, capsys):
        """``repro lint`` reports what the per-event oracles report."""
        trace_file = str(tmp_path / "fp.npz")
        _write_failing_trace(trace_file)
        assert main(["lint", trace_file, "--no-fp-ext", "--json"]) == 1
        fast = json.loads(capsys.readouterr().out)
        assert fast["findings"]
        trace = load_trace(trace_file, validate=False)
        config = SystemConfig.graphpim(fp_extension=False)
        slow = AnalysisReport(subject="fp")
        slow.findings += lint_trace(trace, config).findings
        slow.findings += detect_races(trace).findings
        assert fast == json.loads(render_json(slow))

    def test_profile_and_screen_sections(self, tmp_path, capsys):
        trace_file = str(tmp_path / "fp.npz")
        _write_failing_trace(trace_file)
        assert main(
            ["lint", trace_file, "--profile", "--screen", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"]["pmr_atomics"] == 2
        assert payload["offload"]["ops"]["FP_ADD"]["count"] == 2
        labels = [c["label"] for c in payload["screening"]["configs"]]
        assert len(labels) == 3
