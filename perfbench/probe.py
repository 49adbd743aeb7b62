"""Host speed probe, for scaling measured times to a nominal host speed.

The shared 2-core host this benchmark was sized on drifts in speed by
+-25 % over tens of seconds (a fixed Python loop, timed in 5 s windows,
took between 0.041 and 0.065 s), and both cores drift together, so a run
of a few tens of seconds cannot average the drift out.  The probe times
a fixed pure-Python loop every INTERVAL_S, in the benchmark's own
process.  Each op's time, less the probe's, is multiplied by the ratio
of NOMINAL_S to the median probe time from a little before the op to a
little after it, raised to ELASTICITY.  Running the probe concurrently
on the other core was tried and rejected: the two cores are not
independent, and the worker lost about a fifth of its CPU time to it.
"""

from __future__ import annotations

import signal
import statistics
import time

NOMINAL_S = 0.0080      # median probe time on the reference host
# How far op times follow the probe: time ~ probe time ** ELASTICITY.  Over
# ten seeds per workload the spread of wall_s was smallest at 0.8 for
# certify, 0.65 for targets and 1.0 for density and sieve (bigint and
# numpy work drifts less than the interpreter); 0.85 gave the smallest
# largest spread, 6.3 %, against 17-34 % unscaled.
ELASTICITY = 0.85
INTERVAL_S = 0.25       # probe again once this much time has passed
PAD = 4                 # samples on each side that smooth an op's scale
_LOOPS = 2
_KERNEL = 100_000


def sample() -> tuple[float, float]:
    """(monotonic time, median seconds of the probe loop)."""
    times = []
    for _ in range(_LOOPS):
        t0 = time.perf_counter()
        x = 0
        for i in range(_KERNEL):
            x += i * i % 7
        times.append(time.perf_counter() - t0)
    return time.monotonic(), statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two probe samples to the
    nominal host speed."""
    return (NOMINAL_S / ((before + after) / 2)) ** ELASTICITY


class Sampler:
    """Probe samples every INTERVAL_S of wall time, also in the middle of
    a long op: a SIGALRM handler runs the probe, and Python runs handlers
    between bytecodes.  ``stolen`` is the handler's total time, for
    taking it out of the op that it interrupted."""

    def __init__(self):
        self.marks = [sample()]
        self.stolen = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.marks.append(sample())
        self.stolen += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.marks.append(sample())

    def scale(self, first: int, last: int) -> float:
        """Factor for a time measured between marks first and last.  One
        sample is noisy, so PAD more on each side are taken in, and the
        median of them all is used; the host's drift is slower than
        those 2 s."""
        return (NOMINAL_S / statistics.median(
            d for _, d in self.marks[max(0, first - PAD):last + 1 + PAD])
        ) ** ELASTICITY
