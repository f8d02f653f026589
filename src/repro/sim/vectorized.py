"""Batch simulation kernel over the columnar trace IR.

The per-event reference interpreter (:mod:`repro.sim.core` +
:mod:`repro.hmc.device`) walks one tuple at a time through a deep call
stack: ``Core.step`` -> route decision -> ``CacheHierarchy.access`` ->
``MemorySystem`` -> ``HmcDevice`` -> per-resource reservation helpers,
with enum/dict lookups, ``Counter`` updates, and numpy scalar indexing
on every event.  This module runs the same simulation as one flat loop
in C (``_kernel.c``, compiled on demand by :mod:`repro.sim._cbuild`)
that reads the :class:`~repro.trace.columnar.ColumnarTrace` columns in
place, each at its own integer width: as the smallest-clock-first
scheduler reaches an event, the loop derives its route (PMR membership,
atomic-offload classification, cache vs bypass), cache sets, vault/bank,
transaction kind and issue cycles from its six fields.  LRU sets
become oldest-first arrays, the sharer directory becomes a line ->
core-bitmask hash map, link/bank/FU reservations become flat double
arrays, and transaction ``Counter``\\ s become index-addressed arrays
rebuilt in first-seen order at the end.  CPython floats *are* C
doubles, so replaying the reference's operations in the reference's
order — with FMA contraction disabled — reproduces its results bit for
bit.

**Fault plans.**  The plan's :class:`~repro.faults.FaultInjector`
stays the one owner of the fault math: each simulation builds one and
hands the kernel its packet-error tables by FLIT count, its per-vault
stall phases and blocks of its draw stream, refilled through a ctypes
callback.  The kernel draws in the reference's order, so link
retransmissions, reissued requests, vault stall windows and an
exhausted retry budget (with the reference's :class:`SimulationError`
text) all match the reference.

**Bit-identity contract.**  The kernel reproduces the reference's
``SimResult.to_dict()`` byte for byte.  That constrains every floating
point operation: additions stay term-by-term in the reference's
left-associated order, constant sub-sums are precomputed only where the
reference also evaluates them as one expression (bank occupancies), and
``max``/tie semantics, Counter insertion order, and per-core
accumulation order are all replicated.  The FU pools may use heaps
because only the pool *minimum* is observable (the reference picks the
first minimal index; the pool multiset and its minimum evolve
identically either way).

**FU ladders.**  The kernel also counts the PIM atomics whose integer
functional unit was still busy.  A U-PEI or GraphPIM run that counted
none is kept on the trace's columnar form, keyed by its config with the
label and the integer FU count blanked; a later call with the same key
and more integer FUs per vault gets the kept outputs, built into a
fresh result that carries its own config, without running the loop.
Each vault's pool then always holds the smaller pool's next-free times
plus some more, so every atomic starts at the same cycle and every
event repeats (DESIGN §14).

**Fallback.**  :func:`try_simulate_vectorized` returns
``(None, reason)`` instead of a result when the input uses a feature
the kernel does not model — hybrid DDR memory, timeline recording,
more than 64 threads, an FP offload into a cube without FP units — or
when no C compiler is available to build the loop, and the engine
dispatcher (:func:`repro.sim.system.simulate_with_engine`) runs the
reference instead.  The reference interpreter is unchanged and remains
the oracle.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import threading
import time
from typing import Optional

import numpy as np

from repro.common.errors import SimulationError
from repro.faults.injector import FaultInjector
from repro.hmc.commands import HOST_TO_HMC, command_for_atomic
from repro.hmc.device import HmcStats, retry_exhausted_error
from repro.hmc.packets import (
    TransactionKind,
    atomic_transaction_kind,
    flits_for,
)
from repro.memlayout.regions import REGION_SHIFT, Region
from repro.sim._cbuild import REFILL_FN, load_kernel
from repro.sim.cache import CacheHierarchy, CacheLevelStats
from repro.sim.config import Mode, SystemConfig
from repro.sim.core import CoreStats
from repro.trace.events import EV_ATOMIC, AtomicOp, is_fp_op
from repro.trace.stream import Trace

#: Fixed transaction-kind indexing for the counter arrays; rebuilt into
#: Counters in first-seen order at the end of a run.
_TK_LIST = (
    TransactionKind.READ_64,
    TransactionKind.WRITE_64,
    TransactionKind.ATOMIC_NO_RETURN,
    TransactionKind.ATOMIC_WITH_RETURN,
    TransactionKind.ATOMIC_CAS_LIKE,
    TransactionKind.ATOMIC_COMPARE,
)

#: Mode codes of the kernel (MODE_* in _kernel.c).
_MODE_CODE = {Mode.BASELINE: 0, Mode.UPEI: 1, Mode.GRAPHPIM: 2}

_PROPERTY_REGION = int(Region.PROPERTY)
_MAX_OP = max(int(op) for op in AtomicOp)

#: Largest link packet in FLITs (Table V; MAX_FLITS in _kernel.c): the
#: packet-error tables have one entry per size 0.._MAX_FLITS.
_MAX_FLITS = 5

#: Doubles of the fault draw stream per block handed to the kernel.
_DRAW_BLOCK = 4096

#: Configs per trace whose wait-free kernel outputs are kept for larger
#: integer FU counts; an FU sweep needs one per combination of the other
#: swept parameters and offloading mode.
FU_LADDER_KEYS = 16

#: Guards the read-compare-write of the kept outputs (the service
#: simulates on executor threads).
_LADDER_LOCK = threading.Lock()


def _atomic_luts() -> np.ndarray:
    """The kernel's per-op tables, concatenated: transaction-kind index
    and response FLITs by (op, with_return), then the FP flag by op."""
    tk = np.zeros((_MAX_OP + 1, 2), dtype=np.int64)
    respf = np.zeros((_MAX_OP + 1, 2), dtype=np.int64)
    index = {kind: i for i, kind in enumerate(_TK_LIST)}
    for op, command in HOST_TO_HMC.items():
        for ret in (0, 1):
            kind = atomic_transaction_kind(command, bool(ret))
            tk[int(op), ret] = index[kind]
            respf[int(op), ret] = flits_for(kind)[1]
    is_fp = [int(is_fp_op(op)) for op in range(_MAX_OP + 1)]
    return np.concatenate([tk.ravel(), respf.ravel(), is_fp])


_LUTS = _atomic_luts()


class _KernelDeclined(Exception):
    """Internal: the C kernel stopped without a result.  It could not
    allocate its working state or refill its fault draws, or a clock
    left the finite range its scheduler can order.

    Caught by :func:`try_simulate_vectorized` and converted into a
    decline — nothing observable has happened yet (the reference builds
    its own fault injector), so falling back to the reference
    interpreter is safe.
    """


def decline_reason(
    trace: Trace, config: SystemConfig, recorder=None
) -> Optional[str]:
    """Why the vectorized kernel will not take this input, or ``None``.

    Every reason here is a feature the reference interpreter models and
    the kernel (so far) does not; declined inputs run on the reference
    via the engine dispatcher's per-input fallback.
    """
    if recorder is not None and recorder.enabled:
        return "timeline recording requested"
    if config.dram is not None:
        return "hybrid DDR memory configured"
    if (
        config.hmc.fp_fus_per_vault == 0
        and config.fp_extension
        and config.mode in (Mode.GRAPHPIM, Mode.UPEI)
    ):
        # The reference raises a specific SimulationError the moment an
        # FP atomic offloads into a zero-FP-FU cube; let it.
        return "FP offload enabled with zero FP functional units"
    if trace.num_threads > 64:
        # The C kernel's sharer directory is a 64-bit core bitmask.
        return "more than 64 threads"
    if config.mlp < 1:
        return "non-positive MLP window"
    if config.hmc.fus_per_vault < 1:
        return "no integer functional units per vault"
    if (
        config.l1.num_sets < 1
        or config.l2.num_sets < 1
        or config.l3.num_sets < 1
    ):
        return "degenerate cache geometry (zero sets)"
    if config.hmc.num_vaults < 1 or config.hmc.banks_per_vault < 1:
        return "degenerate HMC geometry"
    _lib, kernel_reason = load_kernel()
    if _lib is None:
        return f"C batch kernel unavailable: {kernel_reason}"
    return None


def _trace_decline_reason(col) -> Optional[str]:
    """Why the kernel declines these rows whatever the config, or None.

    Both checks read every event and depend on the trace alone, so
    :func:`try_simulate_vectorized` evaluates them once per trace
    (cached on its columnar form) rather than once per mode.
    """
    if not col.num_events:
        return None
    op = col.op
    if np.any((col.kind == EV_ATOMIC) & ((op < 0) | (op > _MAX_OP))):
        # command_for_atomic would raise ConfigError; keep that error
        # path on the reference interpreter.  The kernel's per-op tables
        # also rely on this range.
        return "atomic op outside the HMC command table"
    if np.any(col.addr < 0):
        # Python floor-mod vs C trunc-mod differ below zero; leave
        # pathological traces to the reference.
        return "negative addresses in trace"
    return None


def try_simulate_vectorized(
    trace: Trace, config: SystemConfig, recorder=None, publisher=None
):
    """Run the batch kernel, or decline.

    Returns ``(SimResult, None)`` on success and ``(None, reason)``
    when the kernel declines the input.  Raises exactly where the
    reference would raise for inputs both engines accept (barrier
    mismatches, stuck barriers, an exhausted fault retry budget).

    ``publisher`` receives coarse chunk-boundary progress frames: the
    C loop cannot be interrupted from Python, so a vectorized run emits
    one ``precompute`` frame before the kernel and one ``kernel`` frame
    after it rather than the interpreter's every-N-events cadence.
    Publishing never affects kernel inputs, so bit-identity holds.

    A config that differs from a wait-free run on the same trace only
    in its label and in more integer FUs is answered from that run's
    outputs (module docstring), with the same two frames.
    """
    reason = decline_reason(trace, config, recorder)
    if reason is not None:
        return None, reason
    col = trace.columnar()
    # Cached beside the columns, as ``Trace.columnar()`` caches them:
    # the rows are frozen once encoded, so the reason never goes stale.
    if "_kernel_decline" not in col.__dict__:
        col.__dict__["_kernel_decline"] = _trace_decline_reason(col)
    reason = col.__dict__["_kernel_decline"]
    if reason is not None:
        return None, reason
    pub = publisher if publisher is not None and publisher.enabled else None
    start = time.monotonic() if pub is not None else 0.0
    if pub is not None:
        # Chunk boundary 1: inputs checked, kernel about to run.
        _publish_chunk(pub, "precompute", 0, col.num_events, start)
    # Kept the same way: wait-free outputs are facts about the trace.
    ladder = col.__dict__.setdefault("_fu_ladder", {})
    key = _ladder_key(config)
    fus = config.hmc.fus_per_vault
    kept = ladder.get(key) if key is not None else None
    if kept is not None and kept[0] < fus:
        outputs = kept[1]
    else:
        try:
            outputs = _simulate_columnar(col, config)
        except _KernelDeclined as exc:
            return None, str(exc)
        if key is not None and outputs[2][20] == 0:  # no FU waits
            _keep(ladder, key, fus, outputs)
    result = _result(config, col.num_threads, outputs)
    if pub is not None:
        # Chunk boundary 2: kernel returned; report final totals.
        _publish_chunk(
            pub, "kernel", col.num_events, col.num_events, start,
            result=result,
        )
    return result, None


def _ladder_key(config: SystemConfig) -> Optional[bytes]:
    """The FU-ladder key of ``config``: a digest of its JSON with the
    label and the integer FU count blanked, or None in Baseline, which
    offloads no atomic."""
    if config.mode is Mode.BASELINE:
        return None
    data = config.to_dict()
    data["label"] = None
    data["hmc"]["fus_per_vault"] = None
    return hashlib.sha256(json.dumps(data).encode()).digest()


def _keep(ladder: dict, key: bytes, fus: int, outputs: tuple) -> None:
    """Keep the outputs of a wait-free run with ``fus`` integer FUs,
    unless the key's kept run has no more FUs; past
    :data:`FU_LADDER_KEYS` keys the oldest goes."""
    with _LADDER_LOCK:
        kept = ladder.get(key)
        if kept is not None and kept[0] <= fus:
            return
        ladder[key] = (fus, outputs)
        if len(ladder) > FU_LADDER_KEYS:
            del ladder[next(iter(ladder))]


def _publish_chunk(pub, phase, events_done, events_total, start,
                   sim_cycles=0.0, result=None):
    """One chunk-boundary progress frame (kernel starting / kernel done).

    Reads finished state only — the kernel has either not started or
    already returned — so publishing cannot perturb the simulation.
    """
    from repro.obs.progress import ProgressSnapshot

    elapsed = time.monotonic() - start
    pub.publish(
        ProgressSnapshot(
            label="",
            phase=phase,
            events_done=events_done,
            events_total=events_total,
            sim_cycles=(
                result.cycles if result is not None else sim_cycles
            ),
            instructions=(
                result.core_stats.instructions if result is not None else 0
            ),
            offloaded_atomics=(
                result.core_stats.offloaded_atomics
                if result is not None else 0
            ),
            host_atomics=(
                result.core_stats.host_atomics if result is not None else 0
            ),
            elapsed_s=elapsed,
            eta_s=None,
        )
    )


def _fault_inputs(config: SystemConfig):
    """The kernel's fault inputs: ``(cfg_i tail, cfg_d tail, fault_d,
    block, refill)``.

    Builds the plan's :class:`FaultInjector` (the reference device
    builds its own from the same plan, so both engines draw the same
    stream) and takes from it the packet-error tables by FLIT count, the
    stall phases in cycles and the draw stream, which the kernel reads
    from ``block`` and refills through ``refill``.
    """
    cfg = config.hmc
    plan = config.faults
    tables = 2 * (_MAX_FLITS + 1)
    if plan is None or not plan.enabled:
        fault_d = np.zeros(tables + cfg.num_vaults, dtype=np.float64)
        return [0, 0, 0, 0], [0.0] * 5, fault_d, None, REFILL_FN()
    injector = FaultInjector(plan, cfg.num_vaults)
    period, duration = injector.stall_window(cfg.core_ghz)
    fault_d = np.array(
        injector.packet_error_table(plan.request_ber, _MAX_FLITS)
        + injector.packet_error_table(plan.response_ber, _MAX_FLITS)
        + injector.stall_phases(period),
        dtype=np.float64,
    )
    block = np.empty(_DRAW_BLOCK, dtype=np.float64)

    def refill() -> int:
        # An exception cannot cross the C boundary; report it instead.
        try:
            injector.fill_draws(block)
        except Exception:  # noqa: BLE001 - the kernel turns 1 into a decline
            return 1
        return 0

    cfg_i = [1, plan.max_retransmits, plan.retry_budget, _DRAW_BLOCK]
    cfg_d = [
        cfg.link_retry_latency,
        cfg.cycles(plan.reissue_timeout_ns),
        plan.drop_rate,
        period,
        duration,
    ]
    return cfg_i, cfg_d, fault_d, block, REFILL_FN(refill)


def _simulate_columnar(col, config: SystemConfig):
    """The fused kernel proper.  See the module docstring for rules.

    Returns its output buffers ``(core_d, core_i, out_i, out_d,
    tkbuf)``, which :func:`_result` turns into a :class:`SimResult`;
    ``out_i[20]`` counts the atomics that waited for an integer FU.
    """
    cfg = config.hmc
    T = col.num_threads
    mode = config.mode
    fault_i, fault_cfg_d, fault_d, block, refill = _fault_inputs(config)

    # Constants, with the reference's expressions and associativity.
    if cfg.atomic_locks_bank:
        occ_at_int = cfg.tRCD + cfg.tCL + cfg.fu_op + cfg.tWR + cfg.tRP
        occ_at_fp = cfg.tRCD + cfg.tCL + cfg.fp_fu_op + cfg.tWR + cfg.tRP
    else:
        occ_at_int = cfg.tRAS + cfg.tRP
        occ_at_fp = occ_at_int
    cfg_i = np.array(
        [
            config.mlp,
            config.l1.ways,
            config.l2.ways,
            config.l3.ways,
            config.l1.num_sets,
            config.l2.num_sets,
            config.l3.num_sets,
            cfg.num_vaults,
            cfg.banks_per_vault,
            cfg.fus_per_vault,
            max(cfg.fp_fus_per_vault, 1),
            1 if config.prefetch_next_line else 0,
            _MODE_CODE[mode],
            1 if mode is Mode.GRAPHPIM and config.pmr_bypass else 0,
            1 if config.fp_extension else 0,
            REGION_SHIFT,
            _PROPERTY_REGION,
            _MAX_OP + 1,
            *fault_i,
        ],
        dtype=np.int64,
    )
    cfg_d = np.array(
        [
            config.l1.latency,
            config.l1.latency + config.l2.latency,
            config.l1.latency + config.l2.latency + config.l3.latency,
            CacheHierarchy.COHERENCE_PENALTY,
            config.atomic_freeze_cycles,
            config.fp_atomic_extra_cycles,
            config.upei_host_op_cycles,
            config.uc_posted_issue_cycles,
            config.offload_issue_cycles,
            cfg.link_latency,
            cfg.vault_overhead,
            cfg.tRCD,
            cfg.tCL,
            cfg.burst,
            cfg.fu_op,
            cfg.fp_fu_op,
            cfg.tRAS + cfg.tRP,
            cfg.tRCD + cfg.burst + cfg.tWR + cfg.tRP,
            occ_at_int,
            occ_at_fp,
            cfg.flits_per_cycle_per_direction,
            # Core.step's `n_instr * (1.0 / issue_width)`
            1.0 / config.issue_width,
            *fault_cfg_d,
        ],
        dtype=np.float64,
    )
    # Output buffers: per-core accumulators grouped field-major, global
    # counters, and the transaction-kind count/order block.
    core_d = np.zeros(5 * T, dtype=np.float64)
    core_i = np.zeros(9 * T, dtype=np.int64)
    out_i = np.zeros(21, dtype=np.int64)
    out_d = np.zeros(4, dtype=np.float64)
    tkbuf = np.zeros(25, dtype=np.int64)

    lib, _unavailable = load_kernel()  # non-None; decline_reason checked
    i64p = ctypes.POINTER(ctypes.c_int64)
    f64p = ctypes.POINTER(ctypes.c_double)

    def ip(a):
        return a.ctypes.data_as(i64p)

    def fp(a):
        return a.ctypes.data_as(f64p)

    # The trace's own columns, read in place: each is contiguous, of the
    # byte width the kernel is told, so no copy is made here.
    columns = (col.kind, col.addr, col.size, col.gap, col.op, col.ret)
    widths = np.array([c.itemsize for c in columns], dtype=np.int64)
    rc = lib.graphpim_simulate(
        T,
        *(c.ctypes.data for c in columns),
        ip(widths),
        ip(col.starts),
        ip(cfg_i),
        fp(cfg_d),
        ip(_LUTS),
        fp(fault_d),
        None if block is None else fp(block),
        refill,
        fp(core_d),
        ip(core_i),
        ip(out_i),
        fp(out_d),
        ip(tkbuf),
    )
    if rc == 1:
        raise SimulationError(
            f"core {int(out_i[14])} reached barrier {int(out_i[15])} "
            f"while others wait at {int(out_i[16])}"
        )
    if rc == 2:
        raise SimulationError(
            "simulation ended with cores stuck at a barrier "
            f"(barrier {int(out_i[15])}, {int(out_i[17])} cores)"
        )
    if rc == 4:
        index, attempts, is_pim = out_i[14:17].tolist()
        what = (
            command_for_atomic(AtomicOp(int(col.op[index]))).value
            if is_pim else "READ"
        )
        raise retry_exhausted_error(
            what, int(col.addr[index]), attempts, config.faults.retry_budget
        )
    if rc == 5:
        raise _KernelDeclined("fault draw stream could not be refilled")
    if rc == 6:
        raise _KernelDeclined("a simulated clock is not finite")
    if rc != 0:
        raise _KernelDeclined(
            f"C kernel could not allocate working state (rc={rc})"
        )
    return core_d, core_i, out_i, out_d, tkbuf


def _result(config: SystemConfig, T: int, outputs: tuple):
    """A fresh :class:`SimResult` from the kernel's output buffers.

    Rebuilds the reference's stats objects field for field.  tolist()
    yields native Python ints/floats (bit-preserving), which keeps
    SimResult.to_dict() JSON byte-identical.
    """
    from repro.sim.system import SimResult

    core_d, core_i, out_i, out_d, tkbuf = outputs
    cd = core_d.tolist()
    ci = core_i.tolist()
    total = CoreStats()
    for i in range(T):
        total.instructions = total.instructions + ci[i]
        total.issue_cycles = total.issue_cycles + cd[T + i]
        total.mem_stall_cycles = total.mem_stall_cycles + cd[2 * T + i]
        total.atomic_incore_cycles = (
            total.atomic_incore_cycles + cd[3 * T + i]
        )
        total.atomic_incache_cycles = (
            total.atomic_incache_cycles + cd[4 * T + i]
        )
        total.host_atomics = total.host_atomics + ci[T + i]
        total.offloaded_atomics = total.offloaded_atomics + ci[2 * T + i]
        total.upei_cache_atomics = total.upei_cache_atomics + ci[3 * T + i]
        total.candidate_total = total.candidate_total + ci[4 * T + i]
        total.candidate_llc_miss = total.candidate_llc_miss + ci[5 * T + i]
        total.candidate_l1_hit = total.candidate_l1_hit + ci[6 * T + i]
        total.candidate_l2_hit = total.candidate_l2_hit + ci[7 * T + i]
        total.candidate_l3_hit = total.candidate_l3_hit + ci[8 * T + i]

    oi = out_i.tolist()
    od = out_d.tolist()
    tkl = tkbuf.tolist()
    hmc_stats = HmcStats()
    for j in range(tkl[24]):
        k = tkl[18 + j]
        tkind = _TK_LIST[k]
        hmc_stats.requests[tkind] = tkl[k]
        hmc_stats.request_flits[tkind] = tkl[6 + k]
        hmc_stats.response_flits[tkind] = tkl[12 + k]
    hmc_stats.dram_activates = oi[9]
    hmc_stats.dram_reads = oi[10]
    hmc_stats.dram_writes = oi[11]
    hmc_stats.fu_int_ops = oi[12]
    hmc_stats.fu_fp_ops = oi[13]
    hmc_stats.bank_wait_cycles = od[0]
    hmc_stats.link_wait_cycles = od[1] + od[2]
    hmc_stats.retransmitted_flits = oi[18]
    hmc_stats.reissued_requests = oi[19]
    hmc_stats.fault_stall_cycles = od[3]

    return SimResult(
        config=config,
        cycles=max(cd[:T]),
        core_stats=total,
        cache_stats={
            "L1": CacheLevelStats(hits=oi[0], misses=oi[1]),
            "L2": CacheLevelStats(hits=oi[2], misses=oi[3]),
            "L3": CacheLevelStats(hits=oi[4], misses=oi[5]),
        },
        hmc_stats=hmc_stats,
        cache_invalidations=oi[6],
        cache_writebacks=oi[7],
        dram_stats=None,
        cache_prefetches=oi[8],
    )
