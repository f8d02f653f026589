"""Host speed: a fixed pure-Python loop, timed all through every run.

The benchmark's reference machine is a 2-vCPU slice of a shared host
whose speed drifts from one minute to the next: the same loop, and with
it every workload, runs up to 1.5 times slower in some minutes than in
others.  No run length or statistic within one run removes that, so the
end-to-end runs time this loop over and over: during batch passes (from
a timer signal), between served requests, and around each set-up sample
or server boot.  Each timed piece (a slice of a pass, a served request,
a set-up) is scaled by ``REFERENCE_S / median(loop times)`` over the
samples taken during or around it: its time as the reference machine
gives it at its faster speed.  Only the benchmark runs the loop; no
program code is involved in it.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Iterations of one sample of the loop.
LOOP = 10_000
#: Seconds one sample takes on the reference machine at its faster
#: speed (medians of 400 samples in fast minutes read 0.75 ms, tenth
#: percentiles 0.71 ms to 0.73 ms).  Never change it: every end-to-end
#: time of the benchmark is scaled by it.
REFERENCE_S = 0.00072
#: Wall seconds between two samples taken during a pass or stream.
INTERVAL_S = 0.1
#: Samples taken right before and right after a bracketed measurement.
BRACKET = 3


def sample() -> float:
    """Seconds one run of the loop takes now, in this thread's CPU time.

    CPU time rather than wall time: a thread or process that competes
    for the CPU, such as a server's background work, does not lengthen
    a sample, so no program change can move the factor that way.  The
    host's slow spells lengthen CPU time and wall time alike.
    """
    start = time.thread_time()
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return time.thread_time() - start


def samples(count: int) -> "list[float]":
    return [sample() for _ in range(count)]


def factor(times) -> float:
    """What a time measured among these samples is multiplied by."""
    return REFERENCE_S / statistics.median(times)


def bracketed(measure):
    """``measure()`` between two sets of samples: (its result, factor)."""
    before = samples(BRACKET)
    result = measure()
    return result, factor(before + samples(BRACKET))


class Sampler:
    """Samples the loop every ``INTERVAL_S`` of wall time in this
    process, from a SIGALRM interval timer, while the block runs, and
    scales the block's time piece by piece.

    The handler runs between bytecodes of the main thread, so a sample
    never overlaps the program's own work, and its time is left out of
    the block's.  The block's time is cut at every sample, and each
    piece is scaled by the median of its own sample and the ``NEAR``
    samples on either side, about half a second's worth: the host's
    speed changes within a pass, and one factor for a whole pass reads
    one speed when the pass ran at two.
    """

    NEAR = 2

    def __init__(self):
        #: Seconds of the block before each sample, and the samples.
        self.pieces: "list[float]" = []
        self.times: "list[float]" = []
        self._mark = 0.0

    def _tick(self, _signum=None, _frame=None) -> None:
        self.pieces.append(time.perf_counter() - self._mark)
        self.times.append(sample())
        self._mark = time.perf_counter()

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    @property
    def wall_s(self) -> float:
        """The block's time as measured, samples left out."""
        return sum(self.pieces)

    def reference_s(self) -> float:
        """The block's time at the reference speed."""
        near = self.NEAR
        return sum(
            piece * factor(self.times[max(0, i - near):i + near + 1])
            for i, piece in enumerate(self.pieces)
        )
