"""Speed-normalised timing: a fixed reference kernel timed next to the work.

On a small shared machine the processor's speed wanders: on the 2-vCPU VM
this benchmark was tuned on (2.1 GHz Xeon, Python 3.11), the kernel below
took anywhere from 0.62 to 1.07 ms, flipping between levels within
milliseconds and staying slow for seconds to tens of seconds, while steal
time stayed near zero.  Wall time alone then tells a
slow stretch of the machine from a slow change only when the stretch is
shorter than a run.

So the benchmark times a fixed pure-Python kernel (Fraction and big-integer
arithmetic and dict traffic, the kind of work deltachar does, none of its
code) in short bursts between operations, and scales each operation's wall
time by REF_S / (the trimmed mean of the kernel times within WINDOW_S of
it).  A scaled time is the wall time the operation would have taken
had the kernel run in REF_S, about its time on that machine when it ran
fastest.  A change to deltachar does not touch the kernel, so it moves
scaled times as it moves wall times; a slow stretch of the machine slows
both and cancels.
"""

import bisect
import gc
import time
from fractions import Fraction

REF_S = 0.00065           # seconds
BURST = 3                 # kernel runs per GAP_S of operation time
GAP_S = 0.1               # operation time between two bursts
WINDOW_S = 1.0            # reference samples this close to an op scale it
TRIM = 0.1                # share of samples dropped at each end


def kernel():
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(i, 7 * i + 1)
    x, m = 3 ** 700, 7 ** 500
    for i in range(60):
        x = (x * x + i) % m
    d = {}
    for i in range(300):
        d[i * 7919 % 1009] = d.get(i, 0) + i
    return s, x, d


def burst(n=BURST):
    """Time the kernel n times with the collector off, so that a collection
    of the program's own objects never lands in a reference time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(n):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        return times
    finally:
        if enabled:
            gc.enable()


def factor(samples):
    """REF_S over the trimmed mean of some kernel times.  A mean, because
    the speed can flip between two levels within milliseconds and a long
    operation runs at the mix of both; trimmed, because an interrupt that
    lands in a 1 ms kernel run would weigh far more there than in the work."""
    ordered = sorted(samples)
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut:len(ordered) - cut]
    return REF_S * len(kept) / sum(kept)


class Scaler:
    """Wall times of a stream of operations, and the same times scaled by
    the reference speed measured within WINDOW_S of each.  Kernel bursts run
    between operations, BURST runs per GAP_S of operation time, so that
    reference time stays about 3% of operation time whatever the
    operations' length."""

    def __init__(self):
        kernel()                  # first-call costs stay out of the samples
        self.sample_at = []       # perf_counter time of each kernel sample
        self.samples = []
        self.spans = []           # (start, end) of each operation
        self.wall = []
        self.since = 0.0
        self._burst(BURST)

    def _burst(self, n):
        at = time.perf_counter()
        times = burst(n)
        self.sample_at.extend([at] * n)
        self.samples.extend(times)

    def add(self, start, elapsed):
        self.spans.append((start, start + elapsed))
        self.wall.append(elapsed)
        self.since += elapsed
        if self.since >= GAP_S:
            self._burst(round(BURST * self.since / GAP_S))
            self.since = 0.0

    def scaled_total(self):
        """Scaled time so far, at the run's mean speed: enough to decide
        when a run has measured long enough."""
        return sum(self.wall) * factor(self.samples)

    def scaled(self):
        """Each wall time scaled by the samples within WINDOW_S of it."""
        self._burst(BURST)
        out = []
        for (start, end), wall in zip(self.spans, self.wall):
            lo = bisect.bisect_left(self.sample_at, start - WINDOW_S)
            hi = bisect.bisect_right(self.sample_at, end + WINDOW_S)
            out.append(wall * factor(self.samples[lo:hi]))
        return out
