"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class TraceError(ReproError):
    """A trace stream was malformed or used incorrectly."""


class SimulationError(ReproError):
    """The timing simulation reached an inconsistent state."""


class AllocationError(ReproError):
    """The simulated address space could not satisfy an allocation."""


class GraphError(ReproError):
    """A graph structure was malformed or an operation was invalid."""


class RunnerError(ReproError):
    """The experiment runner could not execute or collect a job grid.

    Raised when jobs fail with real errors (as opposed to worker-pool
    breakage, which the runner transparently retries in-process) or when
    the result cache contains an unreadable entry that cannot be
    regenerated.
    """


class ServiceError(ReproError):
    """The simulation service could not accept or answer a request.

    Raised client-side by :mod:`repro.service.client` for transport and
    protocol failures, and broker-side by the admission-control
    subclasses in :mod:`repro.service.broker` (queue full, rate
    limited, draining) — each of which carries a ``retry_after_s``
    hint that the HTTP layer surfaces as a ``Retry-After`` header.
    """


class AnalysisError(ReproError):
    """Static analysis found ERROR-severity invariant violations.

    Raised by the strict pre-flight hooks (``GraphPimSystem.evaluate``
    and the harness suites) so a reproduction run fails fast instead of
    producing skewed figures.
    """
