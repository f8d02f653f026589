"""Pinned trace digests and functional outputs of the Fig. 7 workloads.

The captured trace is a contract: its digest keys the result cache, the
service's spec_keys and ``perfbench/digests.json``.  This matrix pins,
for every Figure 7 workload, the ``trace_digest`` of a capture and a
sha256 of each functional output at ``tiny`` and ``small`` scale, with
and without ``plain_atomics`` (Figure 4's mode) at 16 threads, plus
``tiny`` at 1, 3 and 64 threads.  Any change to how a workload records
its trace, however it is implemented, must leave every entry equal:
with the C library, and without it, where capture lays rows out in
numpy.

Re-record ``tests/data/workload_digests.json`` (only for an intended
trace change) with::

    REPRO_WRITE_DIGESTS=1 python -m pytest tests/test_workload_digests.py
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.presets import workload_graph, workload_params
from repro.trace.io import trace_digest
from repro.workloads.registry import FIGURE7_CODES, get_workload
from tests.conftest import without_c_library

_DATA = Path(__file__).resolve().parent / "data" / "workload_digests.json"

#: (scale, threads, plain_atomics) cells of the matrix.
CELLS = [
    *(
        (scale, 16, plain)
        for scale in ("tiny", "small")
        for plain in (False, True)
    ),
    ("tiny", 1, False),
    ("tiny", 3, False),
    ("tiny", 64, False),
]


def cell_id(code: str, scale: str, threads: int, plain: bool) -> str:
    return f"{code}/{scale}/t{threads}/{'plain' if plain else 'atomic'}"


def output_digest(value) -> str:
    """sha256 of one functional output: dtype, shape and raw bytes."""
    digest = hashlib.sha256()
    if isinstance(value, np.ndarray):
        digest.update(f"{value.dtype.str}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    else:
        digest.update(repr(value).encode())
    return digest.hexdigest()


def capture_record(code: str, scale: str, threads: int, plain: bool) -> dict:
    run = get_workload(code).run(
        workload_graph(code, scale),
        num_threads=threads,
        plain_atomics=plain,
        **workload_params(code),
    )
    return {
        "events": run.trace.num_events,
        "trace_digest": trace_digest(run.trace),
        "outputs": {
            key: output_digest(run.outputs[key]) for key in sorted(run.outputs)
        },
    }


_PARAMS = [
    pytest.param(code, *cell, id=cell_id(code, *cell))
    for code in FIGURE7_CODES
    for cell in CELLS
]


def _pinned() -> dict:
    if not _DATA.exists():
        return {}
    return json.loads(_DATA.read_text())


@pytest.fixture(scope="module")
def recorded():
    """Records captured by this module's tests; written out when re-recording."""
    records: dict = {}
    yield records
    if os.environ.get("REPRO_WRITE_DIGESTS") and len(records) == len(_PARAMS):
        _DATA.parent.mkdir(exist_ok=True)
        _DATA.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("code,scale,threads,plain", _PARAMS)
def test_capture_matches_pinned_digests(
    recorded, code, scale, threads, plain
):
    key = cell_id(code, scale, threads, plain)
    record = capture_record(code, scale, threads, plain)
    recorded[key] = record
    if os.environ.get("REPRO_WRITE_DIGESTS"):
        return
    assert record == _pinned()[key]


@pytest.mark.parametrize("code,scale,threads,plain", _PARAMS)
def test_capture_without_c_library_matches_pinned_digests(
    code, scale, threads, plain
):
    with without_c_library():
        record = capture_record(code, scale, threads, plain)
    if os.environ.get("REPRO_WRITE_DIGESTS"):
        return
    assert record == _pinned()[cell_id(code, scale, threads, plain)]


def test_matrix_covers_every_cell():
    assert sorted(_pinned()) == sorted(
        cell_id(code, *cell) for code in FIGURE7_CODES for cell in CELLS
    )
