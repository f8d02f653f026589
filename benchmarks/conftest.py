"""Benchmark configuration.

Each benchmark regenerates one table or figure of the paper and prints
it.  Simulations are shared through the results memo of
``repro.harness.suite.run_specs``, so the first benchmark in a session
pays for the grid and later ones reuse it; ``rounds=1`` keeps
pytest-benchmark from re-simulating.

Scale is controlled by ``REPRO_SCALE`` (tiny | small | paper); the
default is ``small``.  Set ``REPRO_JOBS=N`` to fan each suite call's
unseen specs out over N worker processes (with the persistent result
cache when ``REPRO_CACHE_DIR`` is also set) instead of running them
in-process.
"""

import pytest

from repro.core.presets import resolve_scale


@pytest.fixture(scope="session")
def scale() -> str:
    return resolve_scale()


def run_and_render(benchmark, experiment_fn, **kwargs):
    """Run an experiment once under pytest-benchmark and print it."""
    result = benchmark.pedantic(
        lambda: experiment_fn(**kwargs), rounds=1, iterations=1
    )
    print()
    print(result.render())
    return result
