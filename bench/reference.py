"""A fixed reference computation that measures how fast the machine runs now.

The shared 2-vCPU VM the benchmark was built on switches between speeds up
to about 1.9 times apart, and a speed often holds for tens of seconds,
longer than one pass.  Medians over a run cannot remove that.  So each
pass times this computation before the first command and after each
one, `run.py` does the same
around each set-up sample, and each time is scaled by the reference's
nominal time over its measured time (the mean of the two around it).

The computation mixes what the workloads spend their time on: interpreter
loops over ints and a dict, and building numpy Philox generators and
drawing small arrays from them.  It uses no clairvoyant code, so no change
to the package can move it.  It runs with the cyclic garbage collector off,
so the heap a command leaves behind does not change its cost.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

# The reference's time on the VM the bounds were set on (2.1 GHz Xeon,
# 2 vCPUs).  It only sets the scale: scaled times read as seconds on
# that machine at that speed.
NOMINAL_S = 0.1


def reference_s() -> float:
    """Seconds the reference computation takes now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = 0
        counts: dict[int, int] = {}
        for i in range(120_000):
            counts[i % 997] = counts.get(i % 997, 0) + i
            acc += (i * 7) % 13
        for key in range(3000):
            g = np.random.Generator(np.random.Philox(key=key))
            acc += int((g.random(32) < 0.5).sum())
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def scaled(seconds: float, ref_s: float) -> float:
    """`seconds` measured while the reference took `ref_s`, expressed at
    the nominal reference speed."""
    return seconds * NOMINAL_S / ref_s
