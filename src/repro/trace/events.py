"""Trace event encoding.

A thread stores its events as canonical int64 rows
``(kind, addr, size, gap, op, ret)`` (:mod:`repro.trace.columnar`); the
tuples below are a view of those rows, decoded by
:meth:`~repro.trace.stream.ThreadTrace.event_tuples` for the per-event
reference interpreter and the legacy analyzers.  The first element of
a tuple is one of the ``EV_*`` codes.

Layouts::

    (EV_LOAD,   addr, size, gap)
    (EV_STORE,  addr, size, gap)
    (EV_ATOMIC, addr, size, gap, AtomicOp, with_return)
    (EV_BARRIER, barrier_id, gap)

``gap`` is the number of non-memory instructions the thread executed
since its previous event; the core model charges them at the issue
width (before the sync, for a barrier).  ``with_return`` records
whether the program consumes the atomic's old value (affects HMC
response FLITs, Table V).
"""

from __future__ import annotations

from enum import IntEnum

EV_LOAD = 0
EV_STORE = 1
EV_ATOMIC = 2
EV_BARRIER = 3


class AtomicOp(IntEnum):
    """Host-level atomic operations emitted by the graph framework.

    These correspond to x86 ``lock``-prefixed instructions (Table II);
    :mod:`repro.pim.offload` maps them to HMC 2.0 commands.
    """

    #: lock cmpxchg — compare-and-swap if equal.
    CAS = 0
    #: lock add / lock addw — signed integer add.
    ADD = 1
    #: lock subw — signed integer subtract.
    SUB = 2
    #: lock xchg — unconditional swap.
    SWAP = 3
    #: lock and.
    AND = 4
    #: lock or.
    OR = 5
    #: lock xor.
    XOR = 6
    #: CAS-loop implementing min (maps to HMC CAS-if-less).
    MIN = 7
    #: CAS-loop implementing max (maps to HMC CAS-if-greater).
    MAX = 8
    #: Floating-point add via CAS loop (paper's proposed HMC extension).
    FP_ADD = 9
    #: Floating-point subtract via CAS loop (extension).
    FP_SUB = 10


#: Ops that require the paper's proposed floating-point HMC extension.
_FP_OPS = frozenset({AtomicOp.FP_ADD, AtomicOp.FP_SUB})


def is_fp_op(op: AtomicOp) -> bool:
    """Whether ``op`` needs the FP-add/sub PIM extension (Section III-C)."""
    return op in _FP_OPS
