"""Machine-speed probe: scale measured times to one nominal machine speed.

The benchmark runs on a shared host whose speed drifts. On the 2-vCPU
Xeon VM this benchmark was written on, the same repetition took anywhere
from 5.0 s to 9.8 s, in slow phases lasting minutes, with one process
running and nothing else busy inside the VM.  A before-and-after
calibration does not follow such drift.  A reference sampled *during* the
timed phase does:

* every INTERVAL_S of wall time, SIGALRM runs ``reference_slice``, a fixed
  piece of the kind of Python qschub is made of, and records how long it
  took;
* ``clock`` is ``perf_counter`` minus the time spent in those slices, so
  the slices never count towards the workload's own times;
* ``factor`` is NOMINAL_SLICE_S over the median slice, and every time the
  benchmark reports is the ``clock`` time multiplied by it: seconds on a
  machine where one slice takes NOMINAL_SLICE_S, roughly that VM unloaded.

The reference code is part of the benchmark, not of qschub, so a change
to qschub moves the workload's times and leaves the factor alone.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
# median slice on the unloaded VM described above, with Python 3.11
NOMINAL_SLICE_S = 0.0018

# the simple reflections of A4 as integer matrices on root coordinates,
# s_i(a_j) = a_j - c_ij a_i with c the Cartan matrix
_CARTAN = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(4)]
           for i in range(4)]
_REFLECTIONS = tuple(
    tuple(tuple((r == c) - (_CARTAN[i][c] if r == i else 0) for c in range(4))
          for r in range(4))
    for i in range(4))


def _mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


def reference_slice():
    """A fixed piece of the work qschub's own code is made of.

    Weyl-group matrix products, a dict keyed by the resulting nested
    tuples, and Fraction arithmetic: the operations behind Coset
    arithmetic, the chain-search and Bruhat memos, and the divisor engine.
    """
    m, seen, acc = _REFLECTIONS[0], {}, Fraction(0)
    for i in range(1, 101):
        m = _mat_mul(m, _REFLECTIONS[i % 4 if i % 5 else (i * 3) % 4])
        seen[m] = seen.get(m, 0) + 1
        acc += Fraction(i % 11, 7) * Fraction(3, i % 13 + 1)
    return seen, acc


class SpeedProbe:
    """Samples machine speed while active; use as a context manager."""

    def __init__(self):
        self.slices: list[float] = []
        self._stolen = 0.0

    def _tick(self, _signum, _frame) -> None:
        t = time.perf_counter()
        reference_slice()
        d = time.perf_counter() - t
        self.slices.append(d)
        self._stolen += d

    def clock(self) -> float:
        """``perf_counter`` minus the time spent in reference slices."""
        while True:
            stolen = self._stolen
            t = time.perf_counter()
            if stolen == self._stolen:  # no slice ran in between
                return t - stolen

    def factor(self) -> float:
        return NOMINAL_SLICE_S / statistics.median(self.slices) if self.slices else 1.0

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # ignore, not default: a SIGALRM still pending would otherwise kill us
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
