"""Bit-identity and fallback tests for the batch simulation kernel.

The batch kernel (:mod:`repro.sim.vectorized`) must reproduce the
per-event reference interpreter's (:func:`simulate_reference`)
``SimResult.to_dict()`` byte for byte, fault plans included (or raise
the same ``SimulationError``); the dispatcher must fall back per input
when the kernel declines, and every layer above (facade, runner,
service payloads) must count those fallbacks without letting them leak
into cache identity.
"""

import contextlib
import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.passes import PassManager
from repro.common.errors import SimulationError
from repro.core.api import GraphPimSystem
from repro.core.presets import workload_params
from repro.dram.device import DdrConfig
from repro.faults import FaultPlan
from repro.graph.generators import ldbc_like_graph
from repro.hmc.config import HmcConfig
from repro.memlayout.regions import REGION_BASE, Region
from repro.runner import (
    ExperimentRunner,
    ExperimentSpec,
    RunnerConfig,
    execute_spec,
)
from repro.sim.cache import CacheConfig
from repro.sim.config import SystemConfig
from repro.obs.progress import CallbackPublisher
from repro.obs.timeline import TimelineRecorder
from repro.sim import vectorized
from repro.sim.system import (
    EngineInfo,
    simulate,
    simulate_reference,
    simulate_with_engine,
)
from repro.sim.vectorized import (
    FU_LADDER_KEYS,
    decline_reason,
    try_simulate_vectorized,
)
from repro.trace.columnar import ColumnarTrace
from repro.trace.events import AtomicOp
from repro.trace.stream import ThreadTrace, Trace
from tests.test_columnar import narrow_trace_matrices

# ----------------------------------------------------------------------
# Random traces (the test_property_sim idiom, plus multi-barrier phases)
# ----------------------------------------------------------------------

event_strategy = st.tuples(
    st.sampled_from(["load", "store", "atomic", "work"]),
    st.sampled_from(list(Region)),
    st.integers(0, 63),
    st.integers(0, 12),
    st.sampled_from(list(AtomicOp)),
    st.booleans(),
)

# threads x phases x events; every thread sees the same barrier sequence.
phased_trace_strategy = st.lists(
    st.lists(st.lists(event_strategy, max_size=25), min_size=1, max_size=3),
    min_size=1,
    max_size=4,
)


@st.composite
def fault_plan_strategy(draw) -> FaultPlan:
    """Plans over every fault class, with retry budgets small enough to
    run out and stall windows up to the whole period."""
    period = draw(st.sampled_from([0.0, 37.5, 500.0, 2000.0]))
    return FaultPlan(
        seed=draw(st.integers(0, 2**31 - 1)),
        request_ber=draw(st.sampled_from([0.0, 1e-6, 1e-5, 1e-4])),
        response_ber=draw(st.sampled_from([0.0, 1e-6, 1e-5, 1e-4])),
        max_retransmits=draw(st.integers(0, 8)),
        drop_rate=draw(st.sampled_from([0.0, 0.01, 0.1, 0.5])),
        retry_budget=draw(st.integers(0, 4)),
        vault_stall_period_ns=period,
        vault_stall_duration_ns=period
        * draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
    )


def build_trace(thread_specs) -> Trace:
    threads = []
    num_phases = max(len(phases) for phases in thread_specs)
    for tid, phases in enumerate(thread_specs):
        thread = ThreadTrace(tid)
        for phase_id in range(num_phases):
            for kind, region, line, gap, op, ret in (
                phases[phase_id] if phase_id < len(phases) else []
            ):
                addr = REGION_BASE[region] + line * 64
                thread.work(gap)
                if kind == "load":
                    thread.load(addr, 8)
                elif kind == "store":
                    thread.store(addr, 8)
                elif kind == "atomic":
                    thread.atomic(op, addr, 8, ret)
            thread.barrier(phase_id)
        threads.append(thread)
    return Trace(threads)


def assert_bit_identical(trace: Trace, config: SystemConfig) -> None:
    """Dispatched and reference runs serialize byte-for-byte equal."""
    reference = simulate_reference(trace, config)
    auto, info = simulate_with_engine(trace, config)
    blob_r = json.dumps(reference.to_dict(), sort_keys=True)
    blob_a = json.dumps(auto.to_dict(), sort_keys=True)
    assert blob_r == blob_a, (
        f"engine mismatch under {config.display_name} "
        f"(fallback={info.fallback})"
    )


@given(phased_trace_strategy)
@settings(max_examples=25, deadline=None)
def test_random_traces_bit_identical(specs):
    trace = build_trace(specs)
    for config in SystemConfig().evaluation_trio():
        assert_bit_identical(trace, config)


def _outcome(run) -> str:
    """A run's ``to_dict()`` bytes, or its SimulationError message."""
    try:
        result = run()
    except SimulationError as exc:
        return f"SimulationError: {exc}"
    return json.dumps(result.to_dict(), sort_keys=True)


def _kernel_outcome(trace: Trace, config: SystemConfig) -> str:
    """:func:`_outcome` of a kernel run that must not decline."""

    def kernel():
        # simulate_with_engine reports no fallback exactly when this
        # returns a result; a raise here is the kernel's own.
        result, reason = try_simulate_vectorized(trace, config)
        assert reason is None, f"kernel declined: {reason}"
        return result

    return _outcome(kernel)


def assert_engines_agree(trace: Trace, config: SystemConfig) -> None:
    """The kernel runs the input without falling back, and it and the
    reference end the same way: equal bytes or the same error text."""
    kernel = _kernel_outcome(trace, config)
    assert kernel == _outcome(lambda: simulate_reference(trace, config)), (
        f"engine mismatch under {config.display_name} "
        f"with {config.faults}"
    )


@given(phased_trace_strategy, fault_plan_strategy())
@settings(max_examples=30, deadline=None)
def test_random_traces_with_faults_bit_identical(specs, plan):
    """Fault plans run on the kernel and match the reference bit for bit."""
    trace = build_trace(specs)
    for config in SystemConfig(faults=plan).evaluation_trio():
        assert_engines_agree(trace, config)


@pytest.mark.parametrize(
    "kind, lost",
    # Loads lose READs in every mode; property atomics lose a READ on
    # the Baseline host path and the PIM command where they offload.
    [("load", ("READ", "READ", "READ")),
     ("atomic", ("READ", "add16", "add16"))],
)
def test_retry_budget_exhaustion_raises_the_same_error_on_both_engines(
    kind, lost
):
    trace = build_trace(
        [[[(kind, Region.PROPERTY, line, 1, AtomicOp.ADD, False)
           for line in range(8)]]] * 2
    )
    plan = FaultPlan(seed=1, drop_rate=0.9, retry_budget=0)
    trio = SystemConfig(faults=plan).evaluation_trio()
    for config, what in zip(trio, lost):
        with pytest.raises(SimulationError, match="retry budget") as kernel:
            try_simulate_vectorized(trace, config)
        with pytest.raises(SimulationError) as reference:
            simulate_reference(trace, config)
        assert str(kernel.value) == str(reference.value)
        assert str(kernel.value).startswith(f"{what} at ")


@given(
    st.lists(st.lists(event_strategy, max_size=30), min_size=1, max_size=4),
    st.integers(1, 8),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=15, deadline=None)
def test_config_variants_bit_identical(specs, mlp, prefetch, fp_ext):
    trace = build_trace([[events] for events in specs])
    config = SystemConfig.graphpim(
        mlp=mlp,
        prefetch_next_line=prefetch,
        fp_extension=fp_ext,
    )
    assert_bit_identical(trace, config)


@given(phased_trace_strategy, fault_plan_strategy())
@settings(max_examples=10, deadline=None)
def test_non_power_of_two_geometry_bit_identical(specs, plan):
    """Set, vault and bank counts that are not powers of two take the
    kernel's modulo path instead of its mask path."""
    odd = SystemConfig(
        l1=CacheConfig(size_bytes=3 * 4 * 64, ways=4, latency=4.0),
        l2=CacheConfig(size_bytes=12 * 8 * 64, ways=8, latency=12.0),
        l3=CacheConfig(size_bytes=48 * 16 * 64, ways=16, latency=36.0),
        hmc=HmcConfig(num_vaults=24, banks_per_vault=12),
        faults=plan,
    )
    trace = build_trace(specs)
    for config in odd.evaluation_trio():
        assert_engines_agree(trace, config)


# Eviction-heavy inputs: every access conflicts in caches of one or two
# lines per set and one or two sets per level, and many cores write a
# few shared lines, so LRU victims, back-invalidations, RFOs and the
# sharer directory are exercised on nearly every event.
shared_line_event = st.tuples(
    st.sampled_from(["load", "store", "atomic", "work"]),
    st.sampled_from(list(Region)),
    st.integers(0, 5),
    st.integers(0, 3),
    st.sampled_from(list(AtomicOp)),
    st.booleans(),
)


@st.composite
def shared_lines_trace_strategy(draw) -> Trace:
    """1, 3, 16 or 64 threads; with identical streams half of the time,
    so the cores tie on clock at every step their latencies agree."""
    num_threads = draw(st.sampled_from([1, 3, 16, 64]))
    num_phases = draw(st.integers(1, 2))

    def stream():
        return [
            draw(st.lists(shared_line_event, max_size=8))
            for _ in range(num_phases)
        ]

    if draw(st.booleans()):
        specs = [stream()] * num_threads
    else:
        specs = [stream() for _ in range(num_threads)]
    return build_trace(specs)


@st.composite
def tiny_cache_config_strategy(draw) -> SystemConfig:
    """1-2 ways and 1-2 sets at every level.  With the next-line
    prefetcher on, a one-line L3 evicts the line it has just filled, so
    the filling core keeps private copies of a line the L3 lacks."""

    def level(latency: float) -> CacheConfig:
        ways = draw(st.integers(1, 2))
        sets = draw(st.integers(1, 2))
        return CacheConfig(
            size_bytes=ways * sets * 64, ways=ways, latency=latency
        )

    return SystemConfig(
        l1=level(4.0),
        l2=level(12.0),
        l3=level(36.0),
        prefetch_next_line=draw(st.booleans()),
        mlp=draw(st.integers(1, 4)),
    )


@given(shared_lines_trace_strategy(), tiny_cache_config_strategy())
@settings(max_examples=40, deadline=None)
def test_eviction_heavy_inputs_bit_identical(trace, config):
    for mode_config in config.evaluation_trio():
        assert_engines_agree(trace, mode_config)


# ----------------------------------------------------------------------
# Fallback paths and decline reasons
# ----------------------------------------------------------------------


def _tiny_trace(num_threads: int = 2) -> Trace:
    threads = []
    for tid in range(num_threads):
        thread = ThreadTrace(tid)
        thread.load(REGION_BASE[Region.PROPERTY] + tid * 64, 8)
        thread.atomic(AtomicOp.ADD, REGION_BASE[Region.PROPERTY], 8, False)
        thread.barrier(0)
        threads.append(thread)
    return Trace(threads)


#: Hybrid DDR memory: an input the kernel still declines.
_HYBRID = {"dram": DdrConfig(), "property_hmc_fraction": 0.5}


@given(narrow_trace_matrices())
@settings(max_examples=40, deadline=None)
def test_narrow_columns_run_on_the_kernel_bit_identical(drawn):
    """Columns of every width, up to their type limits, run on the
    kernel in place and match the reference interpreter."""
    thread_ids, matrices = drawn
    trace = Trace.from_columnar(
        ColumnarTrace.from_thread_matrices("narrow", thread_ids, matrices)
    )
    for config in SystemConfig().evaluation_trio():
        result, reason = try_simulate_vectorized(trace, config)
        assert reason is None
        assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
            simulate_reference(trace, config).to_dict(), sort_keys=True
        )


def test_hybrid_ddr_declines_and_falls_back():
    trace = _tiny_trace()
    config = SystemConfig.graphpim(**_HYBRID)
    result, reason = try_simulate_vectorized(trace, config)
    assert result is None and "DDR" in reason
    _result, info = simulate_with_engine(trace, config)
    assert info == EngineInfo(fallback=True, reason=reason)


def test_engine_env_vars_are_ignored(monkeypatch):
    # The input alone picks kernel or reference: the environment
    # variables that once forced the reference no longer do.
    monkeypatch.setenv("REPRO_ENGINE", "legacy")
    monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    trace = _tiny_trace()
    _result, info = simulate_with_engine(trace, SystemConfig.baseline())
    assert info == EngineInfo()
    results = PassManager(["lint", "race"]).run(
        trace, SystemConfig.graphpim()
    )
    assert {r.engine for r in results.values()} == {"vectorized"}


def test_decline_reasons():
    trace = _tiny_trace()
    config = SystemConfig.baseline()
    assert decline_reason(trace, config) is None
    assert decline_reason(
        trace, config.with_faults(FaultPlan(request_ber=1e-6, seed=7))
    ) is None

    class _Recorder:
        enabled = True

    assert "recording" in decline_reason(trace, config, _Recorder())
    wide = Trace([ThreadTrace(tid) for tid in range(65)])
    for thread in wide.threads:
        thread.load(64, 8)
    assert "64 threads" in decline_reason(wide, config)


def test_non_finite_clocks_decline_and_fall_back():
    """An infinite latency drives clocks to +inf, which the kernel's
    next-core scan cannot tell from a waiting core: it declines and the
    reference answers.  Threads of unequal length put the infinite
    clocks beside cores waiting at a barrier."""
    trace = build_trace(
        [
            [[("atomic", Region.PROPERTY, line, 1, AtomicOp.ADD, False)
              for line in range(2 + tid)]] * 2
            for tid in range(3)
        ]
    )
    slow_l1 = replace(SystemConfig().l1, latency=math.inf)
    for config in (
        SystemConfig.graphpim(offload_issue_cycles=math.inf),
        SystemConfig.baseline(l1=slow_l1),
    ):
        result, reason = try_simulate_vectorized(trace, config)
        assert result is None and "not finite" in reason
        assert_bit_identical(trace, config)


def test_negative_addresses_decline():
    thread = ThreadTrace(0)
    thread.load(-64, 8)
    trace = Trace([thread])
    result, reason = try_simulate_vectorized(trace, SystemConfig.baseline())
    assert result is None and "negative" in reason


def test_out_of_table_atomic_op_declines():
    thread = ThreadTrace(0)
    thread.atomic(99, REGION_BASE[Region.PROPERTY], 8, False)
    trace = Trace([thread])
    result, reason = try_simulate_vectorized(trace, SystemConfig.baseline())
    assert result is None
    assert reason == "atomic op outside the HMC command table"


def test_whole_trace_checks_run_once_per_trace(monkeypatch):
    # The op-range and negative-address checks depend on the trace
    # alone: two modes of one trace evaluate them once.
    from repro.sim import vectorized

    checked = []
    check = vectorized._trace_decline_reason

    def counting(col):
        checked.append(col)
        return check(col)

    monkeypatch.setattr(vectorized, "_trace_decline_reason", counting)
    trace = _tiny_trace()
    for config in (SystemConfig.baseline(), SystemConfig.graphpim()):
        result, reason = try_simulate_vectorized(trace, config)
        assert result is not None and reason is None
    assert len(checked) == 1


def test_kernel_disable_env_declines(monkeypatch):
    """An environment with no loadable kernel (no compiler, a failed
    build) declines every input to the reference."""
    from repro.sim import _cbuild

    monkeypatch.setattr(
        _cbuild, "_cached", (None, "no C compiler (cc/gcc/clang) on PATH")
    )
    trace = _tiny_trace()
    result, info = simulate_with_engine(trace, SystemConfig.baseline())
    assert info.fallback and "unavailable" in info.reason
    assert "no C compiler" in info.reason
    reference = simulate_reference(trace, SystemConfig.baseline())
    assert result.to_dict() == reference.to_dict()


def test_kernel_build_tag_covers_flags(monkeypatch):
    from repro.sim import _cbuild

    tag = _cbuild._build_tag(b"int x;")
    assert _cbuild._build_tag(b"int y;") != tag
    monkeypatch.setattr(_cbuild, "_CFLAGS", (*_cbuild._CFLAGS, "-g"))
    assert _cbuild._build_tag(b"int x;") != tag


# ----------------------------------------------------------------------
# Public surface
# ----------------------------------------------------------------------


def test_facade_exports():
    import repro

    for name in (
        "EngineInfo",
        "ExperimentSpec",
        "FaultPlan",
        "GraphPimSystem",
        "RunnerConfig",
        "execute_spec",
        "simulate_with_engine",
    ):
        assert name in repro.__all__
        assert getattr(repro, name) is not None


# ----------------------------------------------------------------------
# FU ladders: larger integer FU counts answered from a wait-free run
# ----------------------------------------------------------------------


@contextlib.contextmanager
def loop_runs():
    """Count the kernel's loop runs: yields a list that gets one entry
    per run, its integer-FU wait count (None while it runs or when it
    raises)."""
    loop = vectorized._simulate_columnar
    runs = []

    def counting(col, config):
        runs.append(None)
        outputs = loop(col, config)
        runs[-1] = int(outputs[2][20])
        return outputs

    vectorized._simulate_columnar = counting
    try:
        yield runs
    finally:
        vectorized._simulate_columnar = loop


def _with_fus(config: SystemConfig, fus: int, **changes) -> SystemConfig:
    return replace(config, hmc=config.hmc.with_fus(fus), **changes)


# Property-region traces of at least two threads whose rows land on two
# vaults, three banks each (lines 0, 32 and 64 are vault 0), with gaps
# of at most two cycles: atomics of different threads often meet at a
# vault's FUs.
crowded_trace_strategy = st.lists(
    st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(["atomic", "atomic", "load", "work"]),
                st.just(Region.PROPERTY),
                st.sampled_from([0, 1, 32, 33, 64, 65]),
                st.integers(0, 2),
                st.sampled_from(list(AtomicOp)),
                st.booleans(),
            ),
            max_size=25,
        ),
        min_size=1,
        max_size=3,
    ),
    min_size=2,
    max_size=4,
)


@given(
    st.one_of(phased_trace_strategy, crowded_trace_strategy),
    st.sampled_from([SystemConfig.upei, SystemConfig.graphpim]),
    st.one_of(st.none(), fault_plan_strategy()),
    st.integers(1, 3),
    st.sampled_from([1, 2, 5, 13]),
)
@settings(max_examples=50, deadline=None)
def test_fu_ladder_answers_equal_fresh_runs(specs, ctor, plan, small, more):
    """After a run under k FUs, a run under k' > k skips the loop
    exactly when no atomic waited under k, and either way equals, config
    included, a fresh kernel run and the reference."""
    large = small + more
    trace = build_trace(specs)
    config = ctor(faults=plan)
    wider = _with_fus(config, large, label=f"{config.label}/fu{large}")
    with loop_runs() as runs:
        _kernel_outcome(trace, _with_fus(config, small))
        answer = _kernel_outcome(trace, wider)
    assert len(runs) == (1 if runs[0] == 0 else 2)
    assert answer == _kernel_outcome(build_trace(specs), wider)
    assert answer == _outcome(lambda: simulate_reference(trace, wider))


def _one_vault_trace(num_atomics: int) -> Trace:
    """``num_atomics`` threads, each sending one integer atomic at cycle
    0 to its own bank of vault 0: they reach the vault's FUs a fraction
    of an FU operation apart."""
    threads = []
    for tid in range(num_atomics):
        thread = ThreadTrace(tid)
        thread.atomic(
            AtomicOp.ADD, REGION_BASE[Region.PROPERTY] + tid * 2048, 8, False
        )
        thread.barrier(0)
        threads.append(thread)
    return Trace(threads)


def test_same_cycle_atomics_wait_under_fewer_fus():
    trace = _one_vault_trace(4)
    with loop_runs() as runs:
        for fus in (1, 2, 3, 4):
            # Each count runs: none is larger than a wait-free one yet.
            simulate(trace, _with_fus(SystemConfig.graphpim(), fus))
    assert [waits > 0 for waits in runs] == [True, True, True, False]


def test_fu_ladder_misses():
    trace = _one_vault_trace(4)
    config = _with_fus(SystemConfig.graphpim(), 4)
    with loop_runs() as runs:
        simulate(trace, config)
    assert runs == [0]
    more = _with_fus(config, 8)
    hmc = more.hmc
    runs_the_loop = [
        replace(config, label="again"),
        replace(more, hmc=hmc.scaled_link_bandwidth(0.5)),
        replace(more, hmc=replace(hmc, fp_fus_per_vault=2)),
        replace(more, mlp=2),
        more.with_faults(FaultPlan(seed=7, request_ber=1e-6)),
        _with_fus(SystemConfig.upei(), 8),
    ]
    for other in runs_the_loop:
        with loop_runs() as runs:
            simulate(trace, other)
        assert len(runs) == 1, other
    with loop_runs() as runs:
        recorded = TimelineRecorder()
        assert try_simulate_vectorized(trace, more, recorded)[0] is None
        assert try_simulate_vectorized(
            trace, replace(more, **_HYBRID)
        )[0] is None
        answer = simulate(trace, replace(more, label="answer"))
    assert runs == []
    assert answer.config.label == "answer"
    assert json.dumps(answer.to_dict()) == json.dumps(
        simulate_reference(trace, replace(more, label="answer")).to_dict()
    )


def test_fu_ladder_keeps_the_fewest_fus():
    trace = _one_vault_trace(4)
    config = SystemConfig.graphpim()
    with loop_runs() as runs:
        for fus in (8, 4, 6, 5, 4, 16):
            simulate(trace, _with_fus(config, fus))
    # 8 and 4 run wait-free; 4 replaces 8, so 6 and 5 are answered, a
    # second 4 runs again and 16 is answered.
    assert runs == [0, 0, 0]


def test_fu_ladder_holds_at_most_its_bound():
    trace = _one_vault_trace(4)
    configs = [
        _with_fus(SystemConfig.graphpim(), 4, mlp=mlp)
        for mlp in range(1, FU_LADDER_KEYS + 5)
    ]
    with loop_runs() as runs:
        for config in configs:
            simulate(trace, config)
    assert runs == [0] * len(configs)
    ladder = trace.columnar().__dict__["_fu_ladder"]
    assert len(ladder) == FU_LADDER_KEYS
    # The oldest keys went; the newest still answer.
    with loop_runs() as runs:
        simulate(trace, _with_fus(configs[-1], 8))
        simulate(trace, _with_fus(configs[0], 8))
    assert runs == [0]
    assert len(ladder) == FU_LADDER_KEYS


def test_fu_ladder_under_racing_threads():
    """Threads climbing shared ladders in different orders get exact
    answers, and each key keeps its fewest-FU wait-free run: a lost
    update would leave a larger count kept."""
    import random
    import sys
    import threading

    trace = _one_vault_trace(4)
    keys = [
        _with_fus(SystemConfig.graphpim(), 4, mlp=mlp) for mlp in range(1, 13)
    ]
    work = [_with_fus(key, fus) for key in keys for fus in (4, 5, 6, 8, 16)]
    expected = {
        id(config): json.dumps(simulate_reference(trace, config).to_dict())
        for config in work
    }
    wrong = []

    def climb(seed):
        order = list(work)
        random.Random(seed).shuffle(order)
        for config in order:
            result = json.dumps(simulate(trace, config).to_dict())
            if result != expected[id(config)]:
                wrong.append(config)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=climb, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    ladder = trace.columnar().__dict__["_fu_ladder"]
    assert sorted(fus for fus, _outputs in ladder.values()) == [4] * len(keys)


def test_fu_ladder_answer_publishes_the_kernel_frames():
    trace = _one_vault_trace(4)
    fresh, answered = [], []
    config = SystemConfig.graphpim()
    simulate(
        _one_vault_trace(4), _with_fus(config, 8),
        publisher=CallbackPublisher(fresh.append),
    )
    simulate(trace, _with_fus(config, 4))
    with loop_runs() as runs:
        simulate(
            trace, _with_fus(config, 8),
            publisher=CallbackPublisher(answered.append),
        )
    assert runs == []

    def stable(frames):
        return [replace(frame, elapsed_s=0.0) for frame in frames]

    assert [frame.phase for frame in answered] == ["precompute", "kernel"]
    assert stable(answered) == stable(fresh)


# ----------------------------------------------------------------------
# Fallback accounting through the stack
# ----------------------------------------------------------------------


def test_report_counts_fallbacks():
    graph = ldbc_like_graph(200, seed=7)
    system = GraphPimSystem(config=SystemConfig(**_HYBRID), num_threads=4)
    report = system.evaluate("BFS", graph, **workload_params("BFS"))
    assert report.engine_fallbacks == len(report.results)
    clean = GraphPimSystem(num_threads=4)
    assert (
        clean.evaluate(
            "BFS", graph, **workload_params("BFS")
        ).engine_fallbacks
        == 0
    )


def _hybrid_spec() -> ExperimentSpec:
    return ExperimentSpec(
        workload="BFS",
        scale="tiny",
        modes=(SystemConfig.baseline(**_HYBRID),
               SystemConfig.graphpim(**_HYBRID)),
        num_threads=4,
    )


def test_execute_spec_payload_reports_engines():
    payload = execute_spec(
        _hybrid_spec(), RunnerConfig(scale="tiny", cache_dir=None)
    )
    for entry in payload["modes"].values():
        assert entry["fallback"] is True


def test_runner_counts_fallbacks_and_cache_ignores_engine(tmp_path):
    config = RunnerConfig(
        scale="tiny", cache_dir=str(tmp_path / "cache"), parallel=False
    )
    spec = _hybrid_spec()
    outcomes, report = ExperimentRunner(config).run([spec])
    assert report.engine_fallbacks == 2
    assert "engine fallback(s)" in report.summary_line()
    assert outcomes[0].fallbacks == {"Baseline": True, "GraphPIM": True}
    # The reference's results land under the same cache keys a kernel
    # run would use: a second run is all hits and counts no fallback.
    outcomes2, report2 = ExperimentRunner(config).run([spec])
    assert report2.cache_hits == 2 and report2.simulations == 0
    assert report2.engine_fallbacks == 0
    assert outcomes2[0].fallbacks == {"Baseline": False, "GraphPIM": False}
    for label, result in outcomes[0].results.items():
        assert (
            result.to_dict() == outcomes2[0].results[label].to_dict()
        )
