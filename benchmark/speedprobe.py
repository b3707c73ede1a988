"""Machine-speed probe for one timed pass.

The benchmark's host is a small VM on a shared machine whose CPU speed swings
by up to 2x in phases that last from seconds to minutes, so a raw pass time
moves more with the phase than with the code.  The probe measures the speed
the pass actually got: every INTERVAL_S of the pass a SIGALRM handler, which
runs in the pass's own thread between bytecodes, times a fixed pure-Python
loop.  ``speed`` is the time-average of NOMINAL_S / loop time over the pass,
and ``normalize`` turns a pass time into the time the pass would have taken
at the nominal speed.  A change to the flagcodes code cannot move the loop,
so it moves the normalized time as much as the raw one.  The handler's own
time is counted and taken out of the pass time; it is about 1% of a pass.
``speed_now`` serves spans too short for the timer, such as set-up.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.02
# The loop mixes what the flagcodes kernels spend their time on: calls of a
# small Python function, list indexing and bit operations on Python ints.
# It tracks their slowdown more closely than a bare arithmetic loop does.
LOOP_N = 600
_ROWS = [(i * 0x9E3779B1) & 0xFFFFF for i in range(512)]
# The loop's time in a fast phase of a 2-vCPU Xeon VM under Python 3.11.
NOMINAL_S = 1.1e-4


def _mix(x: int, y: int) -> int:
    return (x ^ y) & (x | y)


def _loop() -> int:
    rows, acc = _ROWS, 0
    for i in range(LOOP_N):
        acc += _mix(rows[i & 511], rows[(i * 7) & 511]).bit_count()
    return acc


def speed_now(samples: int = 25) -> float:
    """Mean speed over ``samples`` back-to-back loops, for spans too short to
    sample from a timer; the speed holds for a while, so the loops run right
    after the span."""
    total = 0.0
    for _ in range(samples):
        start = perf_counter()
        _loop()
        total += NOMINAL_S / (perf_counter() - start)
    return total / samples


class SpeedProbe:
    """Context manager that samples the loop time for as long as it is open."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._old_handler = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _loop()
        took = perf_counter() - start
        self.samples.append(took)
        self.spent_s += perf_counter() - start

    def __enter__(self) -> SpeedProbe:
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        if not self.samples:  # a pass shorter than one interval
            self._sample(signal.SIGALRM, None)

    def speed(self) -> float:
        """Mean speed over the pass; 1.0 is nominal, lower is slower."""
        return sum(NOMINAL_S / t for t in self.samples) / len(self.samples)

    def normalize(self, wall_s: float) -> float:
        """``wall_s`` without the probe's own time, at the nominal speed."""
        return (wall_s - self.spent_s) * self.speed()
