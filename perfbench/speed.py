"""Host speed normalisation for every time the benchmark reports.

The host's speed drifts by up to 2x over seconds (shared cores), far more
than the bounds a regression is judged by. Every time the benchmark
reports is therefore scaled to a reference speed: an interval timer runs
``reference_loop`` (a frozen mini GSEMO that does not depend on semolab)
every REFERENCE_EVERY_S, and time between two samples is multiplied by
REFERENCE_NOMINAL_NS over their mean duration. Times then read as seconds
on a host where ``reference_loop`` takes REFERENCE_NOMINAL_NS. Time spent
in the samples themselves is taken out of every measured interval.

Measured over 150 s on a 2-core shared host, with 60-sample windows, the
quartile spread of a cocz n=64 run was 0.16 raw, 0.08 when scaled by a
plain arithmetic loop and 0.03 when scaled by this loop. For trajectory
recording with CSV output and for equivalence-suite trials it was
0.13-0.15 raw and 0.05 scaled.
"""

from __future__ import annotations

import random
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter_ns, process_time_ns

REFERENCE_NOMINAL_NS = 4_000_000
REFERENCE_EVERY_S = 0.25


def _flip_cdf(n: int) -> tuple[float, ...]:
    probs = [(1.0 - 1.0 / n) ** n]
    for k in range(n):
        probs.append(probs[-1] * (n - k) / ((k + 1) * (n - 1)))
    acc, cdf = 0.0, []
    for p in probs:
        acc = min(acc + p, 1.0)
        cdf.append(acc)
    cdf[-1] = 1.0
    return tuple(cdf)


REFERENCE_N = 32
_REFERENCE_CDF = _flip_cdf(REFERENCE_N)


def reference_loop() -> int:
    """GSEMO on OneMinMax with n=32 from a fixed seed until the front is
    covered: a frozen stand-in for the program's hot loop (uniform parent
    draw, standard bit mutation, popcount evaluation, staircase insert).

    The host's slow states slow this kind of interpreter work more than a
    plain arithmetic loop, so the reference does the same kind of work as
    the code it calibrates, but never changes with it. Returns the
    iteration count, which is fixed."""
    n = REFERENCE_N
    cdf = _REFERENCE_CDF
    rng = random.Random(5)
    getrandbits = rng.getrandbits
    random_f = rng.random
    nbits = (n - 1).bit_length()
    start = getrandbits(n)
    ones = start.bit_count()
    f1s, xs = [ones], [start]
    t = 0
    while len(xs) <= n:
        m = len(xs)
        r = getrandbits((m - 1).bit_length())
        while r >= m:
            r = getrandbits((m - 1).bit_length())
        y = xs[r]
        u = random_f()
        k = 0
        while u > cdf[k]:
            k += 1
        mask = 0
        while k:
            pos = getrandbits(nbits)
            while pos >= n:
                pos = getrandbits(nbits)
            if not mask >> pos & 1:
                mask |= 1 << pos
                k -= 1
        y ^= mask
        f1 = y.bit_count()
        i = bisect_left(f1s, f1)
        if i < len(f1s) and f1s[i] == f1:
            xs[i] = y
        else:
            f1s.insert(i, f1)
            xs.insert(i, y)
        t += 1
    return t


class SpeedProbe:
    """Samples of ``reference_loop`` on a clock that excludes them."""

    def __init__(self):
        self.at: list[int] = []    # work-clock time of each sample
        self.dur: list[int] = []   # its duration
        self.spent_ns = 0
        self.spent_cpu_ns = 0
        self._prefix: list[float] = []

    def sample(self, *_signal):
        c0 = process_time_ns()
        t0 = perf_counter_ns()
        reference_loop()
        t1 = perf_counter_ns()
        self.at.append(t0 - self.spent_ns)
        self.dur.append(t1 - t0)
        self.spent_ns += t1 - t0
        self.spent_cpu_ns += process_time_ns() - c0
        self._prefix = []

    def now(self) -> tuple[int, int]:
        """(wall, CPU) ns, both less the time spent sampling."""
        while True:
            spent, spent_cpu = self.spent_ns, self.spent_cpu_ns
            wall, cpu = perf_counter_ns(), process_time_ns()
            if spent == self.spent_ns:
                return wall - spent, cpu - spent_cpu

    def start(self, periodic: bool = True):
        """Sample now and, if periodic, every REFERENCE_EVERY_S until stop.
        Traced rounds sample only at their ends, so that no sample lands
        inside a timed call."""
        self.sample()
        if not periodic:
            return
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S,
                         REFERENCE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def _factor(self, k: int) -> float:
        return 2 * REFERENCE_NOMINAL_NS / (self.dur[k] + self.dur[k + 1])

    def scaled(self, w0: int, w1: int) -> float:
        """Work-clock interval [w0, w1] in ns at reference speed; the factor
        is piecewise constant between samples and extended past the ends."""
        at = self.at
        if not self._prefix:
            acc = 0.0
            self._prefix = [0.0]
            for k in range(len(at) - 1):
                acc += (at[k + 1] - at[k]) * self._factor(k)
                self._prefix.append(acc)

        def position(w):
            k = min(max(bisect_right(at, w) - 1, 0), len(at) - 2)
            return self._prefix[k] + (w - at[k]) * self._factor(k)
        return position(w1) - position(w0)
