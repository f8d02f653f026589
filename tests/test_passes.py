"""Vectorized analysis passes: equivalence with the legacy oracles.

The vectorized lint and race implementations, whose row sweeps run in
the C library, must be finding-for-finding identical to the per-event
analyzers — same rules, same messages, same ordering, same caps.  These
tests enforce that over the full standard workload grid, over
hypothesis-generated traces, and over hand-built adversarial cases
(locks, chaotic reads, cap overflow), plus the per-pass fallback
machinery: with the library masked, the PassManager runs the oracles.
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
from repro.analysis.passes import race_pass
from tests.conftest import without_c_library

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


def _masked_engine(trace, name, config=None):
    """The PassManager's result for pass ``name`` with the C library
    masked: its per-event oracle."""
    with without_c_library():
        return PassManager([name]).run(trace, config)[name]


def _races(trace):
    """The vectorized race report of ``trace``, checked equal to the
    legacy detector's, which the PassManager runs without the C
    library."""
    legacy = detect_races(trace)
    report = detect_races_columnar(ColumnarTrace.from_events(trace))
    assert report is not None
    assert_reports_equal(legacy, report)
    masked = _masked_engine(trace, "race")
    assert masked.engine == "legacy"
    assert_reports_equal(legacy, masked.report)
    return report


def _lint(trace, config):
    """The vectorized lint report of ``trace`` under ``config``, checked
    equal to the legacy linter's, which the PassManager runs without
    the C library."""
    legacy = lint_trace(trace, config)
    report = lint_columnar(ColumnarTrace.from_events(trace), config, None)
    assert_reports_equal(legacy, report)
    masked = _masked_engine(trace, "lint", config)
    assert masked.engine == "legacy"
    assert_reports_equal(legacy, masked.report)
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
def test_grid_equivalence(code, small_graph, small_weighted_graph):
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


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_allocation_check_equivalence(data):
    """TRC001's allocation check against an address space whose arrays
    lie in all three regions: accesses at, around and between their
    bounds, in an order that moves between arrays and regions."""
    space = AddressSpace()
    regions = st.sampled_from([Region.META, Region.STRUCTURE])
    for i in range(data.draw(st.integers(1, 6))):
        count = data.draw(st.integers(0, 5))
        if data.draw(st.booleans()):
            space.pmr_malloc(f"p{i}", count, 8)
        else:
            space.malloc(f"a{i}", data.draw(regions), count, 8)
    edges = [
        edge + delta
        for a in space.allocations
        for edge in (a.base, a.end)
        for delta in (-8, -1, 0, 8)
    ]
    thread = ThreadTrace(0)
    for addr in data.draw(st.lists(st.sampled_from(edges), max_size=30)):
        thread.load(addr, 8)
    trace = Trace([thread], name="spans")
    for config in (SystemConfig.graphpim(), SystemConfig.baseline()):
        legacy = lint_trace(trace, config, address_space=space)
        col = ColumnarTrace.from_events(trace)
        assert_reports_equal(legacy, lint_columnar(col, config, space))
        with without_c_library():
            masked = PassManager(["lint"]).run(trace, config, space)["lint"]
        assert masked.engine == "legacy"
        assert_reports_equal(legacy, masked.report)


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
# Thread and barrier boundaries, where a sweep carries state across rows
# ---------------------------------------------------------------------------

def test_epochs_carry_across_barrier_rows():
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

    # A thread's epoch counts the barrier rows before each row, and
    # restarts at the next thread.  An epoch count reset at a barrier
    # would put the first thread's store to DATA in epoch 0, against
    # the other's; one carried into the second thread would put every
    # access of it past the first's.
    trace = _synth([first, second])
    report = _races(trace)
    assert [f.severity for f in report.findings] == [
        Severity.WARNING,
        Severity.ERROR,
    ]
    assert "epoch 1:" in report.findings[0].message
    assert "epoch 2:" in report.findings[1].message
    _lint(trace, SystemConfig.graphpim())


def test_lock_cas_and_release_across_threads():
    def locked(thread):
        thread.load(META + 0x100, 8)
        thread.atomic(AtomicOp.CAS, LOCK, 8)   # last access before...
        thread.store(DATA, 8)                  # ...the critical store
        thread.store(LOCK, 8)                  # release

    def empty(thread):
        pass

    # Lock sections on both sides of an empty thread; the lock words
    # stay per thread.
    assert len(_races(_synth([locked, empty, locked]))) == 0
    report = _races(_synth([locked, empty, _unlocked]))
    assert report.count("RACE001") == 1


def test_capth_lint_finding_on_a_thread_boundary():
    def rows(count):
        def thread_body(thread):
            # Alternating TRC003 variants, one finding per row.
            for i in range(count):
                if i % 2:
                    thread.atomic(99, META + 8 * i, 8, False)
                else:
                    thread.load(META + 8 * i, -4)

        return thread_body

    cap = MAX_FINDINGS_PER_RULE
    # The cap-th finding is the first thread's last row, or the second
    # thread's first: the per-variant counts and first rows carry
    # across the thread boundary.
    for split in (cap, cap - 1):
        trace = _synth([rows(split), rows(cap + 2 - split)])
        report = _lint(trace, SystemConfig.graphpim())
        assert report.count("TRC003") == cap + 1
        assert report.findings[-1].message.startswith("2 further TRC003")
        capth = report.findings[cap - 1]
        assert (capth.thread_id, capth.event_index) == (
            (0, cap - 1) if split == cap else (1, 0)
        )


def test_barrier_balance_compares_threads_to_the_first():
    def two(thread):
        thread.barrier(0)
        thread.load(META, 8)
        thread.barrier(1)

    def one(thread):
        thread.load(META, 8)
        thread.barrier(0)

    def three(thread):
        thread.barrier(0)
        thread.barrier(1)
        thread.barrier(2)

    def backwards(thread):
        thread.barrier(1)
        thread.barrier(0)

    def same_count(thread):
        thread.barrier(0)
        thread.barrier(2)

    trace = _synth([two, one, three, backwards, same_count, two])
    report = _lint(trace, SystemConfig.graphpim())
    messages = [f.message for f in report.findings if f.rule_id == "TRC002"]
    assert messages == [
        "thread 1 barrier sequence (1 barriers) differs from thread 0 (2)",
        "thread 2 barrier sequence (3 barriers) differs from thread 0 (2)",
        "thread 3 barrier sequence (2 barriers) differs from thread 0 (2)",
        "thread 4 barrier sequence (2 barriers) differs from thread 0 (2)",
        "thread 3 barrier ids are not monotonically increasing",
    ]


# ---------------------------------------------------------------------------
# Guards and fallback
# ---------------------------------------------------------------------------

def test_key_width_guard_falls_back_to_legacy():
    def huge(thread):
        thread.store(1 << 62, 8)
        thread.store((1 << 62) + 8, 8)

    trace = _synth([huge, huge])
    col = ColumnarTrace.from_events(trace)
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
