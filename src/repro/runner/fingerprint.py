"""Content-addressed cache keys for the experiment runner.

A cached simulation result is valid exactly when three things are
unchanged: the trace it replayed, the system configuration it was
replayed under, and the simulator code that produced it.  Each factor
gets its own fingerprint:

- trace — :func:`repro.trace.io.trace_digest` over the canonical event
  encoding (the same bytes the ``.npz`` format stores);
- configuration — :func:`config_fingerprint`, a sha256 over the
  canonical JSON of :meth:`SystemConfig.to_dict`;
- code — :data:`CODE_VERSION`, a hand-bumped salt.

:func:`result_key` combines them into the object name under
``.repro_cache/``.

Observability settings (timeline recorders, metrics registries, the
runner's log level) are deliberately outside all three factors: they
never live on :class:`SystemConfig`, so fingerprints — and therefore
cache keys — are identical whether or not a run was observed.  A
recorder cannot invalidate or churn the cache.
"""

from __future__ import annotations

import hashlib
import json

from repro.sim.config import SystemConfig
from repro.trace.io import trace_digest

#: Salt mixed into every cache key.  Bump whenever a change to the
#: timing model, trace encoding, or workload execution can alter
#: simulation output — all previously cached results then miss and are
#: regenerated instead of silently serving stale numbers.
#: v2: fault-injection hooks in the HMC device + HmcStats counters.
CODE_VERSION = "graphpim-sim-v2"


def config_fingerprint(config: SystemConfig) -> str:
    """Stable hex digest of a system configuration's content: the
    sha256 of its sorted-key :meth:`~SystemConfig.to_dict` JSON,
    memoized on the config object (:attr:`SystemConfig.fingerprint`)."""
    return config.fingerprint


def result_key(
    trace_hash: str, config_fp: str, salt: str = CODE_VERSION
) -> str:
    """Cache object name for one (trace, config, code version) triple."""
    combined = f"{salt}\n{trace_hash}\n{config_fp}"
    return hashlib.sha256(combined.encode()).hexdigest()


def spec_key(spec, salt: str = CODE_VERSION) -> str:
    """Stable identity of one :class:`ExperimentSpec` + code version.

    The checkpoint journal records these after a spec completes, so
    ``--resume`` can skip exactly the specs whose *content* already ran
    — two grids naming the same (workload, scale, params, modes) agree
    on the key regardless of spec order or process.
    """
    canonical = json.dumps(
        {
            "workload": spec.workload,
            "scale": spec.scale,
            "num_threads": spec.num_threads,
            "plain_atomics": spec.plain_atomics,
            "params": list(spec.params),
            "modes": [config_fingerprint(mode) for mode in spec.modes],
            "salt": salt,
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


__all__ = [
    "CODE_VERSION",
    "config_fingerprint",
    "result_key",
    "spec_key",
    "trace_digest",
]
