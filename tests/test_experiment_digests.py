"""Pinned digests of every registered experiment's result at ``tiny``.

Each entry is the sha256 of the sorted-key JSON of one experiment's
``{headers, rows, metrics}``.  A change to how the harness reaches its
simulations (suites, runner specs, memos) must leave every entry equal;
only a change to the model itself may move one.

Re-record ``tests/data/experiment_digests.json`` (only for an intended
result change) with::

    REPRO_WRITE_DIGESTS=1 python -m pytest tests/test_experiment_digests.py
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.harness.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.harness.suite import clear_caches

_DATA = Path(__file__).resolve().parent / "data" / "experiment_digests.json"

get_experiment("fig07")  # load the registry before collecting ids
_IDS = sorted(EXPERIMENTS)


def result_digest(experiment_id: str) -> str:
    result = run_experiment(experiment_id, scale="tiny")
    blob = json.dumps(
        {
            "headers": result.headers,
            "rows": result.rows,
            "metrics": result.metrics,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _pinned() -> dict:
    if not _DATA.exists():
        return {}
    return json.loads(_DATA.read_text())


@pytest.fixture(scope="module")
def recorded():
    """Digests computed by this module's tests; written out when
    re-recording.  The harness memo is cleared on both sides, so the
    results come from this module's own runs and stay out of later
    modules' memory."""
    clear_caches()
    records: dict = {}
    yield records
    clear_caches()
    if os.environ.get("REPRO_WRITE_DIGESTS") and len(records) == len(_IDS):
        _DATA.parent.mkdir(exist_ok=True)
        _DATA.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("experiment_id", _IDS)
def test_result_matches_pinned_digest(recorded, experiment_id):
    digest = result_digest(experiment_id)
    recorded[experiment_id] = digest
    if os.environ.get("REPRO_WRITE_DIGESTS"):
        return
    assert digest == _pinned()[experiment_id]


def test_digests_cover_every_experiment():
    assert sorted(_pinned()) == _IDS
