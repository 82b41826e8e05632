"""Host-speed calibration of measured times.

On the 2-core shared machine the benchmark was built on, the host switches
between speed modes about 1.7x apart, each lasting from seconds to minutes,
because of other tenants. No run length averages that out: ten runs spread
by tens of percent. So a fixed kernel of interpreter arithmetic and
small-array numpy calls (the mix of the simulator's hot paths) is timed
after every run, and each run's host time is scaled by

    REFERENCE_S / median(kernel times just before and after the run)

Calibrated seconds equal wall seconds whenever the kernel takes REFERENCE_S,
its time on that machine in a quiet period. A change to the simulator moves
the run times but not the kernel, so it shows in calibrated times in full.
The uncalibrated figures are kept in the details of every result.
"""
from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

ITERATIONS = 2000
REFERENCE_S = 0.015


def kernel_seconds() -> float:
    """Host time of one run of the calibration kernel.

    Half of it is numpy calls on 4x2 and 8-element arrays (as in the SAT
    check and the prediction interpolation), half is scalar float arithmetic
    on Python objects (as in the plant's RK4 step).
    """
    xs = np.linspace(0.0, 1.0, 8)
    ys = xs * xs
    corners = np.arange(8.0).reshape(4, 2)
    acc = 0.0
    t0 = perf_counter()
    for i in range(ITERATIONS):
        t = i * 1e-4
        c, s = math.cos(t), math.sin(t)
        d = corners[:, 0] * c + corners[:, 1] * s
        acc += float(d.min()) - float(d.max()) + float(np.interp(t, xs, ys))
    v, r = 0.0, 0.1
    for i in range(6 * ITERATIONS):
        k1 = (-0.5 * v + 0.1 * r, 0.2 * v - 0.3 * r)
        k2 = (-0.5 * (v + 0.5e-3 * k1[0]) + 0.1 * r, 0.2 * v - 0.3 * (r + 0.5e-3 * k1[1]))
        v, r = v + 1e-3 * k2[0], r + 1e-3 * k2[1] + math.sin(i * 1e-3) * 1e-6
    acc += v + r
    elapsed = perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel diverged")
    return elapsed


class HostSpeed:
    """Kernel times taken between measured intervals, and the factors
    derived from them.

    The kernel is timed once before the first interval and once after each.
    An interval's factor uses the median of the WINDOW kernel times on each
    side of it: a single 15 ms kernel also catches millisecond-scale
    hiccups that do not represent the interval, while the speed modes last
    seconds.
    """

    WINDOW = 2

    def __init__(self):
        self.kernels = [kernel_seconds()]

    def mark(self) -> int:
        """Time the kernel after an interval; returns the interval's index."""
        self.kernels.append(kernel_seconds())
        return len(self.kernels) - 2

    def factor(self, interval: int) -> float:
        lo = max(0, interval + 1 - self.WINDOW)
        around = self.kernels[lo:interval + 1 + self.WINDOW]
        return REFERENCE_S / statistics.median(around)

    def factors(self) -> list[float]:
        return [self.factor(i) for i in range(len(self.kernels) - 1)]
