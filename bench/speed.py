"""A fixed reference workload that tracks the machine's current speed.

On a shared machine the speed of one core drifts by tens of percent
within a minute.  Timing this fixed slice of work next to the jobs
measures that drift, and every reported time is scaled by ``NOMINAL_S``
over the reference's time nearby.  The result is the time
the work would take on a machine where the reference takes ``NOMINAL_S``.
It does not depend on zcurv, so a change to zcurv moves the scaled times
exactly as it moves the raw ones.
"""

import gc
import math
import statistics
import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 1.0e-3


def reference():
    """Time one fixed slice of the kinds of work the workloads do: exact
    Fraction arithmetic and dict updates (jets, symexpr), a float sweep
    over numpy cells with math.exp (the Goursat kernel), 17-digit float
    formatting (the CSV export) and an integer loop.  The garbage
    collector is held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, table, x = Fraction(0), {}, 0
        for i in range(1, 80):
            acc += Fraction(i + 1, 3 * i)
            table[i % 13] = acc
        a = np.zeros((13, 13))
        for i in range(1, 13):
            for j in range(1, 13):
                a[i, j] = (a[i - 1, j] + a[i, j - 1] - a[i - 1, j - 1]
                           + 1e-3 * math.exp(0.5 * a[i - 1, j - 1]))
        ",".join(f"{v:.17g}" for v in a.ravel().tolist())
        for i in range(4000):
            x += i * i
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(times, refs, width=5):
    """Scale ``times[i]`` by NOMINAL_S over the median of the reference
    times within ``width`` places of job i (``refs[i]`` ran just before)."""
    out = []
    for i, t in enumerate(times):
        near = refs[max(0, i - width):i + width + 1]
        out.append(t * NOMINAL_S / statistics.median(near))
    return out
