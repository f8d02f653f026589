"""The served workload: one closed-loop client against ``repro serve``.

The client sends one request at a time, the next only after the last is
answered.  A request submits a catalog spec (``POST /v1/jobs``).  A miss
waits for its terminal event on ``GET /v1/jobs/{id}/events``; every
request then fetches the result body (``GET /v1/jobs/{id}``) and checks
it against the committed digests.  Halfway through the stream the server
is stopped with SIGTERM and started again on the same cache dir, so the
first request after it for an already executed spec is answered from
the on-disk response store.  The restart gap is not part of the timed
stream.  Between requests, at most every ``speed.INTERVAL_S``, the
client samples the host's speed (see speed.py); samples are not part of
the timed stream either.
"""

from __future__ import annotations

import hashlib
import re
import signal
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.errors import ServiceError
from repro.service.broker import canonical_json
from repro.service.client import ClientBackpressureError, ServiceClient
from repro.service.config import QUEUE_CHECKPOINT_FILENAME

import grids
import speed

_LISTENING = re.compile(r"listening on (http://[0-9.]+:(\d+))")
_EXECUTE = re.compile(
    r"^service_job_execute_seconds_(sum|count)(?:\{[^}]*\})? (\S+)$",
    re.MULTILINE,
)
HIT_OUTCOMES = ("duplicate", "cache_hit")
#: Host-speed samples a request's times are scaled by: the last few.
RECENT = 5


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, cache_dir: Path, env: dict, cwd: Path):
        self.cache_dir = cache_dir
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(cache_dir)],
            stdout=subprocess.PIPE, env=env, cwd=cwd, text=True,
        )
        match = None
        try:
            while match is None:
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError("repro serve exited before listening")
                match = _LISTENING.search(line)
        except BaseException:
            self.kill()
            raise
        #: Process start to the ``listening on`` line.
        self.boot_s = time.perf_counter() - started
        self.url = match.group(1)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        return int(kib.group(1)) / 1024.0

    def stop(self) -> bool:
        """SIGTERM and wait; True on a clean drain (exit 0, no journal)."""
        self.proc.send_signal(signal.SIGTERM)
        self.proc.stdout.read()
        code = self.proc.wait(timeout=60)
        journal = self.cache_dir / QUEUE_CHECKPOINT_FILENAME
        return code == 0 and not journal.exists()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def retire(self, out: "Stream") -> None:
        """Stop, count an unclean drain, and make sure the process is gone."""
        try:
            if not self.stop():
                out.errors.append(f"server {self.url} did not drain cleanly")
        finally:
            self.kill()


def execute_seconds(metrics_text: str) -> "tuple[float, int]":
    """(sum, count) of the server's job execute-time histogram."""
    found = {kind: float(value) for kind, value in _EXECUTE.findall(metrics_text)}
    return found.get("sum", 0.0), int(found.get("count", 0))


@dataclass
class Stream:
    """Everything the client measured over one stream."""

    wall_s: float = 0.0
    hit_s: "list[float]" = field(default_factory=list)
    miss_s: "list[float]" = field(default_factory=list)
    #: The host-speed factor of each hit and miss, and the stream's wall
    #: at the reference speed (see ``Client.run``).
    hit_factor: "list[float]" = field(default_factory=list)
    miss_factor: "list[float]" = field(default_factory=list)
    wall_reference_s: float = 0.0
    miss_events: int = 0
    outcomes: "dict[str, int]" = field(
        default_factory=lambda: dict.fromkeys(
            ("accepted", "duplicate", "cache_hit", "coalesced", "rejected"),
            0,
        )
    )
    attempted: int = 0
    #: One line per failed operation or unclean drain.
    errors: "list[str]" = field(default_factory=list)
    #: Server boots: (seconds as measured, host-speed factor before it).
    boots: "list[tuple[float, float]]" = field(default_factory=list)
    peak_rss_mb: float = 0.0
    execute_sum_s: float = 0.0
    execute_count: int = 0


class Client:
    """The closed-loop client and its correctness checks."""

    def __init__(self, catalog, digests, events, tracer):
        self.catalog = catalog
        self.digests = digests
        self.events = events
        self.tracer = tracer
        self._verified: "dict[int, bytes]" = {}

    def _check(self, index: int, status) -> str:
        """Why the result body fails the committed digests, or ``""``."""
        if self._verified.get(index) == status.raw:
            return ""
        spec = self.catalog[index]
        results = status.body.get("results", {})
        labels = [mode.display_name for mode in spec.modes]
        if not status.done or sorted(results) != sorted(labels):
            return f"{spec.job_id} answered {status.status} with {sorted(results)}"
        for label, payload in results.items():
            key = grids.digest_key(spec, label)
            digest = hashlib.sha256(canonical_json(payload)).hexdigest()
            if digest != self.digests.get(key):
                return f"{key} differs from its digest"
        self._verified[index] = status.raw
        return ""

    def request(self, client: ServiceClient, index: int, rid: str,
                out: Stream, scale: float):
        tracer = self.tracer
        spec = self.catalog[index]
        out.attempted += 1
        start = time.perf_counter()
        root = tracer.open("served.request", request=rid)
        try:
            span = tracer.open("service.submit")
            try:
                ticket = client.submit(spec=spec, request_id=rid)
            finally:
                tracer.close(span)
            tracer.set_job(root, ticket.job_id)
            out.outcomes[ticket.outcome] = out.outcomes.get(ticket.outcome, 0) + 1
            miss = ticket.outcome not in HIT_OUTCOMES
            if miss:
                span = tracer.open("service.wait")
                try:
                    last = None
                    for event in client.events(ticket.job_id):
                        last = event
                finally:
                    tracer.close(span)
                answered = time.perf_counter()
                if last is None or last.event != "done":
                    ended = last.event if last else "no event"
                    out.errors.append(f"{rid}: job ended with {ended}")
                    return
            span = tracer.open("service.fetch")
            try:
                status = client.status(ticket.job_id)
            finally:
                tracer.close(span)
            end = time.perf_counter()
        except ClientBackpressureError as error:
            out.outcomes["rejected"] += 1
            out.errors.append(f"{rid}: refused: {error}")
            return
        except ServiceError as error:
            out.errors.append(f"{rid}: {error}")
            return
        finally:
            tracer.close(root)
        problem = self._check(index, status)
        if problem:
            out.errors.append(f"{rid}: {problem}")
        elif miss:
            out.miss_s.append(answered - start)
            out.miss_factor.append(scale)
            # Count only the modes this execution simulated, not those
            # the server's result cache answered.
            simulated = sum(
                not cached for cached in status.body["cached_modes"].values()
            )
            out.miss_events += self.events[
                f"{spec.workload}@{spec.scale}"
            ] * simulated
        else:
            out.hit_s.append(end - start)
            out.hit_factor.append(scale)

    def run(self, server: Server, requests, until: int, out: Stream,
            seed: int) -> None:
        """Send requests until ``until`` of the stream have been sent.

        Each request's times are scaled by the median of the last
        ``RECENT`` host-speed samples, about half a second's worth: the
        host's speed changes within a stream, and that change moved the
        stream's p90 more than its p50.
        """
        client = ServiceClient(server.url, timeout_s=60.0)
        recent: "deque[float]" = deque(maxlen=RECENT)
        sampled = 0.0
        while out.attempted < until:
            if time.perf_counter() - sampled >= speed.INTERVAL_S:
                recent.append(speed.sample())
                sampled = time.perf_counter()
                scale = speed.factor(recent)
            started = time.perf_counter()
            index = requests.next(out.attempted)
            self.request(client, index, f"pb{seed}-{out.attempted}", out,
                         scale)
            took = time.perf_counter() - started
            out.wall_s += took
            out.wall_reference_s += took * scale
        metrics = client.metrics_text()
        total, count = execute_seconds(metrics)
        out.execute_sum_s += total
        out.execute_count += count
        out.peak_rss_mb = max(out.peak_rss_mb, server.peak_rss_mb())


def boot_samples(count: int, work: Path, env: dict, cwd: Path, out: Stream):
    """Boot and drain ``count`` servers on fresh cache dirs."""
    for _ in range(count):
        server = boot(work / f"boot-{len(out.boots)}", env, cwd, out)
        try:
            # repro serve prints "listening on" before it installs its
            # SIGTERM handler; a SIGTERM in that window kills it with
            # -15.  Answering one request means the handler is in place.
            ServiceClient(server.url, timeout_s=60.0).health()
        except BaseException:
            server.kill()
            raise
        server.retire(out)


def boot(cache_dir: Path, env: dict, cwd: Path, out: Stream) -> Server:
    """Start a server; record its boot time and the host's speed right
    before it.  Not after: the new server still uses the CPU then."""
    before = speed.samples(2 * speed.BRACKET)
    server = Server(cache_dir, env, cwd)
    out.boots.append((server.boot_s, speed.factor(before)))
    return server


def stream(catalog, digests, events, tracer, *, seed: int, count: int,
           work: Path, env: dict, cwd: Path, out: Stream) -> None:
    """Send ``count`` requests, with one restart after half of them."""
    client = Client(catalog, digests, events, tracer)
    requests = grids.RequestStream(seed, len(catalog), count)
    cache_dir = work / "served-cache"
    for until in (count // 2, count):
        server = boot(cache_dir, env, cwd, out)
        try:
            client.run(server, requests, until, out, seed)
        except BaseException:
            server.kill()
            raise
        server.retire(out)
