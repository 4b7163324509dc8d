"""Machine-speed probe that scales measured times to a reference speed.

On a shared virtual machine the speed of the CPU drifts by up to a factor
of two over seconds to minutes, and process CPU time drifts with it, so raw
timings of the same code spread more between runs than any useful
regression bound.  The probe times a fixed piece of reference work (plain
Python arithmetic, dict updates and small numpy matrix products, the mix
the package itself runs) between operations.  A measured duration is
reported as ``raw * REFERENCE_S / probe``, where ``probe`` is the mean of
the samples taken just before and just after it: milliseconds at the speed
at which the reference work takes ``REFERENCE_S``.  Each sample is the
fastest of three timings, which filters out short stalls of the probe
itself.  Of the estimators tried on recorded runs (bracketing min or mean,
medians and means over windows of 0.5 to 3 s), this one gave the smallest
spread of run medians.  The reference work is part of
the benchmark, so no change to the package can move it.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# typical duration of one reference_work() call on the 2-core Xeon VM the
# bounds were set on; fixes the scale of reported times, not comparisons
REFERENCE_S = 0.004
# seconds between probe samples during a timed section
SAMPLE_INTERVAL_S = 0.1

_MATS = [np.exp(1j * k) * np.eye(3) + 0.1 * np.arange(9.0).reshape(3, 3) / (k + 1)
         for k in range(8)]


def reference_work():
    total = 0
    for i in range(12000):
        total += (i * 7) % 13
    counts: dict = {}
    for i in range(2250):
        counts[i % 97] = counts.get(i % 97, 0) + i
    acc = _MATS[0]
    for i in range(225):
        acc = _MATS[i % 8] @ acc
        acc = acc / np.linalg.norm(acc)
    return total, acc


def probe() -> float:
    """Fastest of three timings of the reference work, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedTrack:
    """Probe samples over a timed section, and the scale factor they give."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.sample()

    def sample(self):
        duration = probe()
        self.times.append(time.perf_counter())
        self.durations.append(duration)

    def maybe_sample(self):
        if time.perf_counter() - self.times[-1] >= SAMPLE_INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean of the samples bracketing [start, end]."""
        before = max(0, bisect.bisect_right(self.times, start) - 1)
        after = min(len(self.times) - 1, bisect.bisect_left(self.times, end))
        return REFERENCE_S / ((self.durations[before] + self.durations[after]) / 2)
