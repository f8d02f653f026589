"""Timeline recording in Chrome trace-event / Perfetto JSON.

The simulator's clocks are host-core cycles; the recorder converts them
to **simulated nanoseconds** at emit time (``ns_per_cycle``, set by
:func:`~repro.sim.system.simulate` from the configured core clock) and
stores Chrome trace-event objects whose ``ts``/``dur`` are microseconds
— the unit ``chrome://tracing`` and Perfetto's JSON importer expect —
with ``displayTimeUnit: "ns"`` so the UI renders at nanosecond grain.

Span taxonomy (see DESIGN.md "Observability"):

- track ``cores`` (one lane per core): ``core:execute`` whole-thread
  span, ``stall:mem`` window-full waits, ``stall:barrier`` imbalance
  waits, ``atomic:host`` / ``atomic:pim`` / ``atomic:upei`` spans;
- track ``hmc`` (one lane per vault): ``bank:read`` / ``bank:write`` /
  ``bank:pim_atomic`` row-cycle occupancy spans (the PIM span covers
  the full RMW bank lock), ``fault:retransmit`` / ``fault:reissue``
  instants.

Two knobs bound big traces: ``sample_every`` keeps 1-in-N events per
(track, name) stream, and ``max_events`` hard-caps the buffer (further
events are counted in ``dropped_events``, never silently lost).

The default recorder everywhere is the :class:`NullRecorder` singleton
:data:`NULL_RECORDER`; instrumented components hoist the ``enabled``
flag so the fault-free fast path stays free of per-event work.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Optional

from repro.common.errors import ConfigError

#: Version stamp carried in the exported trace's ``otherData``.
TIMELINE_SCHEMA_VERSION = 1

#: Required keys per Chrome trace-event phase we emit.
_REQUIRED_KEYS = {
    "X": {"name", "ph", "ts", "dur", "pid", "tid"},
    "i": {"name", "ph", "ts", "pid", "tid", "s"},
    "M": {"name", "ph", "pid"},
}


class NullRecorder:
    """Overhead-free recorder: every hook is a no-op.

    Components check ``recorder.enabled`` once at construction and skip
    all recording work when it is False, so a simulation run with the
    null recorder is bit-identical to (and as fast as) one run with no
    recorder at all.
    """

    enabled = False

    def set_time_base(self, ns_per_cycle: float) -> None:
        pass

    def label(self, track: str, lane: int, name: str) -> None:
        pass

    def span(
        self,
        track: str,
        lane: int,
        name: str,
        start_cycles: float,
        dur_cycles: float,
        args: Optional[dict] = None,
    ) -> None:
        pass

    def instant(
        self,
        track: str,
        lane: int,
        name: str,
        ts_cycles: float,
        args: Optional[dict] = None,
    ) -> None:
        pass

    def trace_dict(self) -> dict:
        return {
            "traceEvents": [],
            "displayTimeUnit": "ns",
            "otherData": {"schema": TIMELINE_SCHEMA_VERSION},
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.trace_dict(), fh)


#: Shared do-nothing default; safe because it holds no state.
NULL_RECORDER = NullRecorder()


class TimelineRecorder(NullRecorder):
    """Buffers simulation spans/instants for Chrome/Perfetto export."""

    enabled = True

    def __init__(
        self,
        sample_every: int = 1,
        max_events: int = 1_000_000,
        ns_per_cycle: float = 0.5,
    ):
        if sample_every < 1:
            raise ConfigError("sample_every must be >= 1")
        if max_events < 1:
            raise ConfigError("max_events must be >= 1")
        self.sample_every = sample_every
        self.max_events = max_events
        self.ns_per_cycle = ns_per_cycle
        self.dropped_events = 0
        self._entries: "list[dict]" = []
        #: track name -> pid (assigned in first-seen order).
        self._tracks: "dict[str, int]" = {}
        #: (track, lane) pairs that already carry a thread_name.
        self._labeled: "set[tuple[str, int]]" = set()
        #: per-(track, name) stream counters driving the sampler.
        self._stream_seen: "dict[tuple[str, str], int]" = {}

    # ------------------------------------------------------------------
    # Recording hooks
    # ------------------------------------------------------------------

    def set_time_base(self, ns_per_cycle: float) -> None:
        """Fix the cycles -> nanoseconds conversion for this run."""
        self.ns_per_cycle = ns_per_cycle

    def _pid(self, track: str) -> int:
        pid = self._tracks.get(track)
        if pid is None:
            pid = len(self._tracks)
            self._tracks[track] = pid
            self._entries.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "args": {"name": track},
                }
            )
        return pid

    def label(self, track: str, lane: int, name: str) -> None:
        """Attach a human-readable lane label (Perfetto thread name)."""
        if (track, lane) in self._labeled:
            return
        self._labeled.add((track, lane))
        self._entries.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": self._pid(track),
                "tid": lane,
                "args": {"name": name},
            }
        )

    def _admit(self, track: str, name: str) -> bool:
        """Sampling + cap: whether this event enters the buffer."""
        stream = (track, name)
        seen = self._stream_seen.get(stream, 0)
        self._stream_seen[stream] = seen + 1
        if seen % self.sample_every != 0:
            return False
        if len(self._entries) >= self.max_events:
            self.dropped_events += 1
            return False
        return True

    def _us(self, cycles: float) -> float:
        """Cycles -> trace-event timestamp (microseconds)."""
        return cycles * self.ns_per_cycle / 1000.0

    def span(
        self,
        track: str,
        lane: int,
        name: str,
        start_cycles: float,
        dur_cycles: float,
        args: Optional[dict] = None,
    ) -> None:
        """One complete ("X") span on a lane, in simulated time."""
        if not self._admit(track, name):
            return
        event: "dict[str, Any]" = {
            "name": name,
            "cat": name.split(":", 1)[0],
            "ph": "X",
            "ts": self._us(start_cycles),
            "dur": self._us(dur_cycles),
            "pid": self._pid(track),
            "tid": lane,
        }
        if args:
            event["args"] = args
        self._entries.append(event)

    def instant(
        self,
        track: str,
        lane: int,
        name: str,
        ts_cycles: float,
        args: Optional[dict] = None,
    ) -> None:
        """One thread-scoped instant ("i") event."""
        if not self._admit(track, name):
            return
        event: "dict[str, Any]" = {
            "name": name,
            "cat": name.split(":", 1)[0],
            "ph": "i",
            "s": "t",
            "ts": self._us(ts_cycles),
            "pid": self._pid(track),
            "tid": lane,
        }
        if args:
            event["args"] = args
        self._entries.append(event)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    @property
    def event_count(self) -> int:
        """Recorded span/instant events (metadata excluded)."""
        return sum(1 for e in self._entries if e["ph"] != "M")

    def trace_dict(self) -> dict:
        """Chrome trace-event "JSON object format" payload."""
        return {
            "traceEvents": list(self._entries),
            "displayTimeUnit": "ns",
            "otherData": {
                "schema": TIMELINE_SCHEMA_VERSION,
                "ns_per_cycle": self.ns_per_cycle,
                "sample_every": self.sample_every,
                "dropped_events": self.dropped_events,
            },
        }

    def write(self, path: str) -> None:
        """Serialize to ``path`` (open with Perfetto / chrome://tracing)."""
        with open(path, "w") as fh:
            json.dump(self.trace_dict(), fh)


class SpanStream(NullRecorder):
    """Bounded live span buffer for SSE streaming (PR 10).

    Unlike :class:`TimelineRecorder` this keeps no trace document —
    just a drop-oldest deque of small span dicts that the service (or a
    fleet worker's heartbeat loop) drains into ``span`` SSE events
    while the simulation is still running.  The writer side runs on the
    executor thread and the drainer on the event loop; both sides only
    use single deque operations, which are atomic under the GIL — the
    same cross-thread discipline as
    :class:`~repro.obs.progress.BufferedPublisher`.

    Sampling reuses the 1-in-N per-(track, name) stream rule so a
    hot simulation cannot flood the stream; ``dropped_spans`` counts
    overflow evictions (never silently lost).
    """

    enabled = True

    def __init__(
        self,
        sample_every: int = 64,
        max_buffered: int = 1024,
        ns_per_cycle: float = 0.5,
    ):
        if sample_every < 1:
            raise ConfigError("sample_every must be >= 1")
        if max_buffered < 1:
            raise ConfigError("max_buffered must be >= 1")
        self.sample_every = sample_every
        self.ns_per_cycle = ns_per_cycle
        self.dropped_spans = 0
        self._buffer: "deque[dict]" = deque(maxlen=max_buffered)
        self._stream_seen: "dict[tuple[str, str], int]" = {}

    def set_time_base(self, ns_per_cycle: float) -> None:
        self.ns_per_cycle = ns_per_cycle

    def _admit(self, track: str, name: str) -> bool:
        stream = (track, name)
        seen = self._stream_seen.get(stream, 0)
        self._stream_seen[stream] = seen + 1
        return seen % self.sample_every == 0

    def span(
        self,
        track: str,
        lane: int,
        name: str,
        start_cycles: float,
        dur_cycles: float,
        args: Optional[dict] = None,
    ) -> None:
        if not self._admit(track, name):
            return
        if len(self._buffer) == self._buffer.maxlen:
            self.dropped_spans += 1  # deque evicts the oldest below
        scale = self.ns_per_cycle / 1000.0
        self._buffer.append(
            {
                "track": track,
                "lane": lane,
                "name": name,
                "ts_us": start_cycles * scale,
                "dur_us": dur_cycles * scale,
            }
        )

    def instant(
        self,
        track: str,
        lane: int,
        name: str,
        ts_cycles: float,
        args: Optional[dict] = None,
    ) -> None:
        self.span(track, lane, name, ts_cycles, 0.0, args)

    def drain(self, max_spans: int) -> "list[dict]":
        """Pop up to ``max_spans`` oldest buffered spans (thread-safe)."""
        out: "list[dict]" = []
        while len(out) < max_spans:
            try:
                out.append(self._buffer.popleft())
            except IndexError:
                break
        return out


def validate_trace_dict(data: dict) -> None:
    """Structural check against the Chrome trace-event object format.

    Raises :class:`~repro.common.errors.ConfigError` on the first
    violation; used by tests and the ``repro obs timeline`` smoke so a
    malformed export fails loudly rather than silently confusing the
    Perfetto importer.
    """
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise ConfigError("trace must be an object with 'traceEvents'")
    if not isinstance(data["traceEvents"], list):
        raise ConfigError("'traceEvents' must be a list")
    for i, event in enumerate(data["traceEvents"]):
        if not isinstance(event, dict):
            raise ConfigError(f"event {i}: not an object")
        phase = event.get("ph")
        if phase not in _REQUIRED_KEYS:
            raise ConfigError(f"event {i}: unsupported phase {phase!r}")
        missing = _REQUIRED_KEYS[phase] - set(event)
        if missing:
            raise ConfigError(
                f"event {i} ({phase}): missing keys {sorted(missing)}"
            )
        if phase == "X":
            if event["dur"] < 0:
                raise ConfigError(f"event {i}: negative duration")
            if event["ts"] < 0:
                raise ConfigError(f"event {i}: negative timestamp")
