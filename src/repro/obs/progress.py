"""Live progress publishing from inside the simulation loop.

A *publisher* is the streaming counterpart of the timeline recorder: a
small object handed into :func:`~repro.sim.system.simulate` that
receives versioned :class:`ProgressSnapshot` frames while the run is
still executing.  The per-event reference interpreter emits a frame
every ``interval`` retired events; the vectorized C-kernel driver —
whose inner loop cannot be interrupted from Python — emits frames at
its chunk boundaries (a ``precompute`` frame once the kernel's inputs
are ready, a ``kernel`` frame after it returns).

The default everywhere is the :class:`NullPublisher` singleton
:data:`NULL_PUBLISHER`, which follows the exact hoisted zero-overhead
idiom of :data:`~repro.obs.timeline.NULL_RECORDER`: sim code checks
``publisher.enabled`` once up front and keeps a ``None`` local on the
fast path, so a run with the null publisher is bit-identical to (and
as fast as) a run with no publisher at all.  Publishers only *observe*
— they never feed back into simulation state — and progress settings
live on :class:`~repro.runner.spec.RunnerConfig` /
:class:`~repro.service.config.ServiceConfig`, never on
:class:`~repro.sim.config.SystemConfig`, so they can never enter cache
fingerprints or spec keys (DESIGN.md section 16).

Concrete publishers:

- :class:`CallbackPublisher` — invokes a callable per frame (used
  inline by the runner and by the service broker).
- :class:`BufferedPublisher` — bounded drop-oldest deque, drained by
  another thread; this is what pool workers hand to the simulator so
  the heartbeat thread can piggyback frames onto the supervisor pipe.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional

from repro.common.errors import ConfigError

#: Version stamp carried in every frame's ``schema`` field.
PROGRESS_SCHEMA_VERSION = 1

#: Default publish cadence for the per-event interpreter (events).
DEFAULT_PROGRESS_INTERVAL = 50_000


@dataclass(frozen=True)
class ProgressSnapshot:
    """One point-in-time view of a running simulation.

    Frames are cheap, self-describing, and versioned so they can cross
    process boundaries (worker pipes, SSE wire) and survive schema
    evolution the same way :class:`~repro.sim.system.SimResult` does.
    ``label`` carries job/mode context stamped by the layer that owns
    it (e.g. ``"BFS@tiny/graphpim"``); ``phase`` distinguishes the
    interpreter's steady ``simulate`` ticks from the vectorized
    engine's ``precompute`` / ``kernel`` chunk boundaries.
    """

    label: str
    phase: str
    events_done: int
    events_total: int
    sim_cycles: float
    instructions: int
    offloaded_atomics: int
    host_atomics: int
    elapsed_s: float
    eta_s: Optional[float] = None

    @property
    def fraction(self) -> float:
        """Completed fraction in [0, 1] (0 when the total is unknown)."""
        if self.events_total <= 0:
            return 0.0
        return min(1.0, self.events_done / self.events_total)

    def to_dict(self) -> dict:
        """Versioned wire form (worker pipes, SSE ``data:`` payloads)."""
        return {
            "schema": PROGRESS_SCHEMA_VERSION,
            "label": self.label,
            "phase": self.phase,
            "events_done": self.events_done,
            "events_total": self.events_total,
            "sim_cycles": self.sim_cycles,
            "instructions": self.instructions,
            "offloaded_atomics": self.offloaded_atomics,
            "host_atomics": self.host_atomics,
            "elapsed_s": self.elapsed_s,
            "eta_s": self.eta_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProgressSnapshot":
        """Inverse of :meth:`to_dict`; rejects unknown schema versions."""
        schema = data.get("schema")
        if schema != PROGRESS_SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported progress schema {schema!r} "
                f"(expected {PROGRESS_SCHEMA_VERSION})"
            )
        return cls(
            label=str(data["label"]),
            phase=str(data["phase"]),
            events_done=int(data["events_done"]),
            events_total=int(data["events_total"]),
            sim_cycles=float(data["sim_cycles"]),
            instructions=int(data["instructions"]),
            offloaded_atomics=int(data["offloaded_atomics"]),
            host_atomics=int(data["host_atomics"]),
            elapsed_s=float(data["elapsed_s"]),
            eta_s=None if data.get("eta_s") is None else float(data["eta_s"]),
        )


class NullPublisher:
    """Overhead-free publisher: the publish hook is a no-op.

    Sim code checks ``publisher.enabled`` once up front and hoists a
    ``None`` local when it is False, so the fast path carries zero
    per-event work and the result is bit-identical to an unpublished
    run (guarded by ``benchmarks/test_obs_overhead.py``).
    """

    enabled = False

    #: Publish cadence in retired events for the per-event interpreter;
    #: concrete publishers override per instance.
    interval = DEFAULT_PROGRESS_INTERVAL

    def publish(self, snapshot: ProgressSnapshot) -> None:
        pass


#: Shared do-nothing default; safe because it holds no state.
NULL_PUBLISHER = NullPublisher()


class CallbackPublisher(NullPublisher):
    """Publishes each frame to a caller-supplied function."""

    enabled = True

    def __init__(
        self,
        callback: Callable[[ProgressSnapshot], None],
        interval: int = DEFAULT_PROGRESS_INTERVAL,
    ):
        if interval < 1:
            raise ConfigError("interval must be >= 1")
        self.callback = callback
        self.interval = interval

    def publish(self, snapshot: ProgressSnapshot) -> None:
        self.callback(snapshot)


class BufferedPublisher(NullPublisher):
    """Bounded drop-oldest frame buffer for cross-thread handoff.

    The simulating thread appends; a drainer (the pool worker's
    heartbeat thread) calls :meth:`drain`.  ``deque`` append/popleft
    are atomic under the GIL, so no lock is needed.  When the buffer
    is full the *oldest* frame is evicted — the newest view of a run
    is always the most useful one — and ``dropped_frames`` counts the
    evictions so loss is visible, never silent.
    """

    enabled = True

    def __init__(
        self,
        interval: int = DEFAULT_PROGRESS_INTERVAL,
        max_frames: int = 32,
    ):
        if interval < 1:
            raise ConfigError("interval must be >= 1")
        if max_frames < 1:
            raise ConfigError("max_frames must be >= 1")
        self.interval = interval
        self.max_frames = max_frames
        self.dropped_frames = 0
        self._frames: Deque[ProgressSnapshot] = deque()

    def publish(self, snapshot: ProgressSnapshot) -> None:
        if len(self._frames) >= self.max_frames:
            try:
                self._frames.popleft()
                self.dropped_frames += 1
            except IndexError:  # pragma: no cover - drained concurrently
                pass
        self._frames.append(snapshot)

    def drain(self) -> List[ProgressSnapshot]:
        """Remove and return all buffered frames, oldest first."""
        frames: List[ProgressSnapshot] = []
        while True:
            try:
                frames.append(self._frames.popleft())
            except IndexError:
                return frames


@dataclass
class LabelledPublisher:
    """Wraps a publisher, stamping a label/prefix onto every frame.

    The simulator publishes frames with whatever label it was given
    (usually empty); the runner wraps the caller's publisher per mode
    so frames arrive tagged ``"BFS@tiny/graphpim"`` without the sim
    layer knowing about specs or modes.
    """

    inner: NullPublisher
    label: str
    enabled: bool = field(init=False)
    interval: int = field(init=False)

    def __post_init__(self) -> None:
        self.enabled = self.inner.enabled
        self.interval = self.inner.interval

    def publish(self, snapshot: ProgressSnapshot) -> None:
        if snapshot.label:
            label = f"{self.label}/{snapshot.label}"
        else:
            label = self.label
        self.inner.publish(
            ProgressSnapshot(
                label=label,
                phase=snapshot.phase,
                events_done=snapshot.events_done,
                events_total=snapshot.events_total,
                sim_cycles=snapshot.sim_cycles,
                instructions=snapshot.instructions,
                offloaded_atomics=snapshot.offloaded_atomics,
                host_atomics=snapshot.host_atomics,
                elapsed_s=snapshot.elapsed_s,
                eta_s=snapshot.eta_s,
            )
        )
