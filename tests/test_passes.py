"""Vectorized analysis passes: equivalence with the legacy oracles.

The vectorized lint and race implementations must be
finding-for-finding identical to the PR 1 per-event analyzers — same
rules, same messages, same ordering, same caps.  These tests enforce
that over the full standard workload grid, over hypothesis-generated
traces, and over hand-built adversarial cases (locks, chaotic reads,
cap overflow), plus the per-pass fallback machinery.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.common.errors import ConfigError
from repro.core.presets import workload_params
from repro.memlayout.allocator import AddressSpace
from repro.memlayout.regions import REGION_SHIFT, Region
from repro.sim.config import SystemConfig
from repro.trace.columnar import ColumnarTrace
from repro.trace.events import AtomicOp
from repro.trace.io import save_trace
from repro.trace.stream import ThreadTrace, Trace
from repro.workloads.registry import all_workloads, get_workload
from repro.analysis import Severity, analyze_run
from repro.analysis.race import MAX_RACE_FINDINGS, detect_races
from repro.analysis.trace_lint import MAX_FINDINGS_PER_RULE, lint_trace
from repro.analysis.passes import (
    AnalysisPass,
    PassContext,
    PassManager,
    all_passes,
    detect_races_columnar,
    get_pass,
    lint_columnar,
    offload_summary_columnar,
    profile_columnar,
    register_pass,
    screen_configs,
)
from repro.analysis.passes import base as passes_base
from repro.analysis.passes import race_pass

PMR = int(Region.PROPERTY) << REGION_SHIFT
META = int(Region.META) << REGION_SHIFT

LOCK = META + 0x1000
DATA = META + 0x2000


def _as_tuples(report):
    return [
        (f.rule_id, f.severity, f.message, f.thread_id, f.event_index,
         f.fix_hint)
        for f in report.findings
    ]


def assert_reports_equal(legacy, vectorized):
    assert _as_tuples(legacy) == _as_tuples(vectorized)
    assert legacy.subject == vectorized.subject


#: Chunk sizes the hand-built and property cases run at: a few events,
#: so chunk boundaries fall inside threads, epochs and lock sections,
#: and the default.
_CHUNKS = (3, 7, passes_base.CHUNK_EVENTS)


def _at_chunk_sizes(sizes=_CHUNKS):
    """Yield each size of ``sizes`` with the passes' chunk constant set
    to it for the loop body."""
    for size in sizes:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(passes_base, "CHUNK_EVENTS", size)
            yield size


def _races(trace, sizes=_CHUNKS):
    """The vectorized race report of ``trace``, checked equal to the
    legacy detector's at every chunk size of ``sizes``."""
    legacy = detect_races(trace)
    col = ColumnarTrace.from_events(trace)
    for _ in _at_chunk_sizes(sizes):
        report = detect_races_columnar(col)
        assert report is not None
        assert_reports_equal(legacy, report)
    return report


def _lint(trace, config, sizes=_CHUNKS):
    """The vectorized lint report of ``trace`` under ``config``, checked
    equal to the legacy linter's at every chunk size of ``sizes``."""
    legacy = lint_trace(trace, config)
    col = ColumnarTrace.from_events(trace)
    for _ in _at_chunk_sizes(sizes):
        report = lint_columnar(col, config, None)
        assert_reports_equal(legacy, report)
    return report


def _synth(builders, name="synth"):
    threads = []
    for tid, build in enumerate(builders):
        thread = ThreadTrace(tid)
        build(thread)
        threads.append(thread)
    return Trace(threads, name=name)


# ---------------------------------------------------------------------------
# Grid equivalence: every standard workload, both atomics modes
# ---------------------------------------------------------------------------

_CONFIGS = [
    SystemConfig.graphpim(),
    SystemConfig.graphpim(pmr_bypass=False),
    SystemConfig.graphpim(fp_extension=False),
    SystemConfig.baseline(),
]


@pytest.mark.parametrize(
    "code", [w.code for w in all_workloads()]
)
def test_grid_equivalence(code, small_graph, small_weighted_graph, monkeypatch):
    # Chunks smaller than a thread, so boundaries fall inside threads.
    monkeypatch.setattr(passes_base, "CHUNK_EVENTS", 1024)
    graph = small_weighted_graph if code == "SSSP" else small_graph
    for plain_atomics in (False, True):
        run = get_workload(code).run(
            graph,
            num_threads=8,
            plain_atomics=plain_atomics,
            **workload_params(code),
        )
        col = ColumnarTrace.from_events(run.trace)
        for config in _CONFIGS:
            assert_reports_equal(
                lint_trace(
                    run.trace, config, address_space=run.address_space
                ),
                lint_columnar(col, config, run.address_space),
            )
        vectorized = detect_races_columnar(col)
        assert vectorized is not None, "race guard tripped on real trace"
        assert_reports_equal(detect_races(run.trace), vectorized)


# ---------------------------------------------------------------------------
# Hypothesis equivalence on adversarial small traces
# ---------------------------------------------------------------------------

# Addresses concentrated on few cache lines across regions (plus an
# out-of-range region) so PIM/TRC rules and bucket collisions all fire.
_addr = st.one_of(
    st.integers(META, META + 160),
    st.integers(PMR, PMR + 160),
    st.integers(7 << REGION_SHIFT, (7 << REGION_SHIFT) + 64),
)
_ops = st.sampled_from(list(AtomicOp))


@st.composite
def _thread(draw):
    actions = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("load"), _addr, st.integers(1, 16)),
                st.tuples(st.just("store"), _addr, st.integers(1, 16)),
                st.tuples(
                    st.just("atomic"),
                    _ops,
                    _addr,
                    st.integers(1, 16),
                    st.booleans(),
                ),
                st.tuples(st.just("barrier"), st.integers(0, 2)),
            ),
            max_size=25,
        )
    )
    return actions


@given(st.lists(_thread(), min_size=1, max_size=3))
@settings(max_examples=120, deadline=None)
def test_hypothesis_equivalence(per_thread):
    threads = []
    for tid, actions in enumerate(per_thread):
        thread = ThreadTrace(tid)
        for action in actions:
            method, args = action[0], action[1:]
            if method == "atomic":
                op, addr, size, ret = args
                thread.atomic(op, addr, size, with_return=ret)
            else:
                getattr(thread, method)(*args)
        threads.append(thread)
    trace = Trace(threads, name="hyp")
    for config in (
        SystemConfig.graphpim(),
        SystemConfig.graphpim(pmr_bypass=False),
    ):
        _lint(trace, config)
    _races(trace)


# ---------------------------------------------------------------------------
# Hand-built semantics: locks, chaotic reads, caps
# ---------------------------------------------------------------------------

def _locked(thread):
    thread.atomic(AtomicOp.CAS, LOCK, 8)
    thread.store(DATA, 8)
    thread.store(LOCK, 8)  # release: plain store to the CAS word


def _unlocked(thread):
    thread.store(DATA, 8)


def test_lock_word_suppresses_race():
    report = _races(_synth([_locked, _locked]))
    assert len(report) == 0


def test_unlocked_writer_still_races():
    report = _races(_synth([_locked, _unlocked]))
    assert report.count("RACE001") == 1


def test_single_writer_chaotic_read_is_warning():
    report = _races(
        _synth([lambda t: t.store(DATA, 8), lambda t: t.load(DATA, 8)])
    )
    (finding,) = report.findings
    assert "single-writer/chaotic-read" in finding.message
    assert not report.has_errors


def test_race_cap_and_suppression_note():
    def writer(thread):
        for i in range(MAX_RACE_FINDINGS + 30):
            thread.store(DATA + 0x100 + i * 64, 8)

    def reader(thread):
        for i in range(MAX_RACE_FINDINGS + 30):
            thread.store(DATA + 0x100 + i * 64, 8)

    report = _races(_synth([writer, reader]))
    assert report.count("RACE001") == MAX_RACE_FINDINGS + 1  # + INFO note
    assert "further race findings suppressed" in report.findings[-1].message


# The writer filter keeps only events whose bucket range meets a cell a
# plain store writes in the same epoch; these cases straddle buckets so
# that a filter on one end of either range drops a needed event.

@pytest.mark.parametrize("other", ["load", "store", "atomic"])
def test_straddling_store_reaches_its_second_bucket(other):
    def writer(thread):
        thread.store(DATA, 16)  # buckets b and b + 1

    def toucher(thread):
        if other == "atomic":
            thread.atomic(AtomicOp.ADD, DATA + 8, 8)
        else:
            getattr(thread, other)(DATA + 8, 8)  # bucket b + 1 only

    report = _races(_synth([writer, toucher]))
    assert report.count("RACE001") == 1


def test_access_past_int64_is_ill_formed(tmp_path, capsys):
    """A store whose last byte lies past 2^63 - 1 is ill-formed, as a
    non-positive size is: both detectors skip it, and ``repro lint``
    exits by its findings."""

    def huge(thread):
        thread.store(127, 2**63 - 1)

    def neighbour(thread):
        thread.store(128, 8)
        thread.load(127, 2**63 - 1)

    trace = _synth([huge, neighbour])
    report = _races(trace)
    assert not report.findings
    path = tmp_path / "huge.npz"
    save_trace(trace, path)
    assert main(["lint", str(path)]) == 0
    assert "0 error(s)" in capsys.readouterr().out


@pytest.mark.parametrize("cas_addr", [LOCK, LOCK - 8])
def test_lock_cas_spanning_unwritten_bucket(cas_addr):
    def locked(thread):
        # The CAS covers the lock word and one bucket no store touches.
        thread.atomic(AtomicOp.CAS, cas_addr, 16)
        thread.store(DATA, 8)
        thread.store(LOCK, 8)  # release

    report = _races(_synth([locked, locked]))
    assert len(report) == 0


def test_expansion_guard_counts_filtered_rows(monkeypatch):
    monkeypatch.setattr(race_pass, "MAX_EXPANDED_ROWS", 100)

    def scanner(thread):
        thread.load(META + 0x10000, 8 * 150)  # 150 buckets, never written
        thread.store(DATA, 8)

    def reader(thread):
        thread.load(DATA, 8)

    # Only the store and its reader are kept.
    report = _races(_synth([scanner, reader]))
    assert report.count("RACE001") == 1

    def wide_writer(thread):
        thread.store(META + 0x10000, 8 * 150)

    col = ColumnarTrace.from_events(_synth([wide_writer, reader]))
    for _ in _at_chunk_sizes():
        assert detect_races_columnar(col) is None


def test_lint_region_bounds_and_bad_op_match_legacy():
    region_end = (max(Region) + 1) << REGION_SHIFT

    def thread_body(thread):
        thread.load(region_end - 8, 8)  # last PROPERTY word
        thread.load(region_end, 8)      # first untagged word
        thread.store(-8, 8)
        thread.atomic(AtomicOp.ADD, region_end - 8, 8)
        thread.atomic(99, PMR + 8, 8, False)  # not an op

    trace = _synth([thread_body])
    for config in (
        SystemConfig.graphpim(),
        SystemConfig.graphpim(fp_extension=False),
    ):
        vectorized = _lint(trace, config)
    assert vectorized.count("TRC001") == 2
    assert "atomic op 99 is not an AtomicOp" in [
        f.message for f in vectorized.findings
    ]


def test_lint_cap_and_suppression_note():
    def thread_body(thread):
        thread.atomic(AtomicOp.ADD, PMR, 8, with_return=False)
        for _ in range(MAX_FINDINGS_PER_RULE + 20):
            thread.load(PMR + 8, 4)

    trace = _synth([thread_body])
    vectorized = _lint(trace, SystemConfig.graphpim(pmr_bypass=False))
    assert vectorized.count("PIM002") == MAX_FINDINGS_PER_RULE + 1
    assert "findings suppressed" in vectorized.findings[-1].message


# ---------------------------------------------------------------------------
# Chunk boundaries at the places a sweep carries state across
# ---------------------------------------------------------------------------

def _chunk_bounds(trace):
    """Global rows at which a chunk of the current size starts."""
    col = ColumnarTrace.from_events(trace)
    return {lo for _, lo, _ in passes_base.event_chunks(col)}


def test_chunk_boundary_on_a_barrier_row():
    def first(thread):
        thread.load(META + 0x100, 8)
        thread.load(META + 0x108, 8)
        thread.barrier(0)           # row 2
        thread.store(DATA, 8)       # epoch 1
        thread.barrier(1)           # row 4
        thread.store(DATA + 8, 8)   # epoch 2

    def second(thread):
        thread.store(DATA, 8)       # epoch 0: no conflict
        thread.barrier(0)
        thread.load(DATA, 8)        # epoch 1: chaotic read
        thread.barrier(1)
        thread.store(DATA + 8, 8)   # epoch 2: store/store

    trace = _synth([first, second])
    # At 3 a chunk ends on the first barrier; at 4 one starts on the
    # second.  An epoch count reset at the boundary would put the first
    # thread's store to DATA in epoch 0, against the other's.
    for size in _at_chunk_sizes((3, 4)):
        assert (3 if size == 3 else 4) in _chunk_bounds(trace)
    report = _races(trace, (3, 4))
    assert [f.severity for f in report.findings] == [
        Severity.WARNING,
        Severity.ERROR,
    ]
    assert "epoch 1:" in report.findings[0].message
    _lint(trace, SystemConfig.graphpim(), (3, 4))


def test_chunk_boundary_between_lock_cas_and_release():
    def locked(thread):
        thread.load(META + 0x100, 8)
        thread.atomic(AtomicOp.CAS, LOCK, 8)   # row 1: last of a chunk
        thread.store(DATA, 8)                  # row 2: next chunk
        thread.store(LOCK, 8)                  # release

    for _ in _at_chunk_sizes((2,)):
        assert 2 in _chunk_bounds(_synth([locked]))
    assert len(_races(_synth([locked, locked]), (1, 2))) == 0
    report = _races(_synth([locked, _unlocked]), (1, 2))
    assert report.count("RACE001") == 1


def test_chunk_boundary_after_the_capth_lint_finding():
    def thread_body(thread):
        # Alternating TRC003 variants, one finding per row.
        for i in range(MAX_FINDINGS_PER_RULE + 2):
            if i % 2:
                thread.atomic(99, META + 8 * i, 8, False)
            else:
                thread.load(META + 8 * i, -4)

    trace = _synth([thread_body])
    sizes = (MAX_FINDINGS_PER_RULE, MAX_FINDINGS_PER_RULE - 1, 7)
    for _ in _at_chunk_sizes(sizes[:1]):
        # The cap-th finding is the last row of the first chunk.
        assert MAX_FINDINGS_PER_RULE in _chunk_bounds(trace)
    report = _lint(trace, SystemConfig.graphpim(), sizes)
    assert report.count("TRC003") == MAX_FINDINGS_PER_RULE + 1
    assert report.findings[-1].message.startswith("2 further TRC003")
    assert report.findings[MAX_FINDINGS_PER_RULE - 1].event_index == (
        MAX_FINDINGS_PER_RULE - 1
    )


# ---------------------------------------------------------------------------
# Guards and fallback
# ---------------------------------------------------------------------------

def test_key_width_guard_falls_back_to_legacy():
    def huge(thread):
        thread.store(1 << 62, 8)
        thread.store((1 << 62) + 8, 8)

    trace = _synth([huge, huge])
    col = ColumnarTrace.from_events(trace)
    for _ in _at_chunk_sizes():
        assert detect_races_columnar(col) is None  # guard trips
    # The PassManager transparently falls back to the legacy detector.
    results = PassManager(["race"]).run(trace, SystemConfig.graphpim())
    assert results["race"].engine == "legacy"
    assert_reports_equal(detect_races(trace), results["race"].report)


# ---------------------------------------------------------------------------
# Merged order against the oracles, and the registry
# ---------------------------------------------------------------------------

def _legacy_results(manager, run):
    """Each pass's per-event oracle over ``run``, keyed like
    :meth:`PassManager.run`'s results."""
    ctx = PassContext(
        config=SystemConfig.graphpim(),
        columnar=run.trace.columnar(),
        trace=run.trace,
        address_space=run.address_space,
    )
    return {pass_.name: pass_.run_legacy(ctx) for pass_ in manager.passes}


def test_engine_selection_and_merged_order(small_graph):
    run = get_workload("DC").run(
        small_graph, num_threads=4, **workload_params("DC")
    )
    manager = PassManager(["lint", "race"])
    fast = manager.run(run.trace, address_space=run.address_space)
    slow = _legacy_results(manager, run)
    assert {r.engine for r in fast.values()} == {"vectorized"}
    assert {r.engine for r in slow.values()} == {"legacy"}
    assert_reports_equal(
        manager.merged_report(slow, "DC"),
        manager.merged_report(fast, "DC"),
    )


def test_registry():
    names = {p.name for p in all_passes()}
    assert {"lint", "race", "profile", "offload", "screening"} <= names
    assert get_pass("lint").gating
    assert not get_pass("profile").gating
    with pytest.raises(ConfigError, match="unknown analysis pass"):
        get_pass("nope")
    with pytest.raises(ConfigError, match="duplicate"):
        duplicate = type(
            "Dup", (AnalysisPass,), {"name": "lint"}
        )()
        register_pass(duplicate)


def test_analyze_run_engines_agree(small_graph):
    run = get_workload("CComp").run(
        small_graph, num_threads=4, **workload_params("CComp")
    )
    manager = PassManager(["lint", "race"])
    legacy = manager.merged_report(_legacy_results(manager, run), "CComp")
    assert_reports_equal(legacy, analyze_run(run))


# ---------------------------------------------------------------------------
# Vectorized-only profile passes
# ---------------------------------------------------------------------------

def _pmr_run(small_graph):
    return get_workload("PRank").run(
        small_graph, num_threads=4, **workload_params("PRank")
    )


def test_profile_pass_payload(small_graph):
    run = _pmr_run(small_graph)
    col = ColumnarTrace.from_events(run.trace)
    config = SystemConfig.graphpim()
    profile = profile_columnar(col, config)
    assert profile["num_threads"] == 4
    assert profile["pmr_atomics"] > 0
    assert 0 < profile["vaults_touched"] <= config.hmc.num_vaults
    assert profile["vault_contention_ratio"] >= 1.0
    shares = [v["share"] for v in profile["hot_vaults"]]
    assert shares == sorted(shares, reverse=True)
    for entry in profile["regions"].values():
        assert 0.0 <= entry["hit_rate_upper_bound"] < 1.0
        assert entry["distinct_lines"] <= entry["accesses"]


def test_offload_summary_counts_add_up(small_graph):
    run = _pmr_run(small_graph)
    col = ColumnarTrace.from_events(run.trace)
    summary = offload_summary_columnar(col, SystemConfig.graphpim())
    assert summary["atomics"] == sum(
        entry["count"] for entry in summary["ops"].values()
    )
    assert summary["pmr_atomics"] == sum(
        entry["pmr"] for entry in summary["ops"].values()
    )
    assert (
        summary["offloadable_pmr_atomics"]
        >= summary["offloadable_pmr_atomics_without_fp_ext"]
    )
    # PageRank's updates are FP adds: offloadable only with the FP ext.
    assert summary["ops"]["FP_ADD"]["offloadable"]
    assert not summary["ops"]["FP_ADD"]["offloadable_without_fp_ext"]


def test_screening_pass_modes(small_graph):
    run = _pmr_run(small_graph)
    col = ColumnarTrace.from_events(run.trace)
    screen = screen_configs(
        col,
        [
            SystemConfig.baseline(),
            SystemConfig.graphpim(),
            SystemConfig.graphpim(fp_extension=False),
        ],
    )
    base, gp, gp_nofp = screen["configs"]
    assert base["offloaded_atomics"] == 0
    assert base["host_atomics"] == base["atomics"]
    assert gp["offloaded_atomics"] == screen["pmr_atomics"]
    assert gp["pim001_exposed"] == 0
    # Without the FP extension every FP_ADD stays host-side + exposed.
    assert gp_nofp["offloaded_atomics"] == 0
    assert gp_nofp["pim001_exposed"] == screen["pmr_atomics"]


def test_empty_trace_profiles():
    trace = Trace([ThreadTrace(0)], name="empty")
    col = ColumnarTrace.from_events(trace)
    profile = profile_columnar(col, SystemConfig.graphpim())
    assert profile["pmr_atomics"] == 0
    assert profile["hot_vaults"] == []
    summary = offload_summary_columnar(col, SystemConfig.graphpim())
    assert summary["atomics"] == 0
    screen = screen_configs(col, [SystemConfig.graphpim()])
    assert screen["configs"][0]["offloaded_atomics"] == 0
