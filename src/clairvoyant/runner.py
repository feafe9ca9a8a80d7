"""Replica scheduling for Monte Carlo runs.

Every Monte Carlo estimate in the package is a loop over replicas, and this
module owns that loop.  A model supplies a one-replica kernel

    kernel(spec: RngSpec, **params) -> row

that draws all of its randomness from ``spec`` and returns one row: a bool,
an int, or a tuple of them.  ``PerReplica(kernel, rng, **params)`` is the
chunk function that runs the kernel for replicas ``lo <= k < hi`` with
``spec = rng.stream(k)`` and stacks the rows into one array, and
``run_chunked`` evaluates a chunk function over contiguous replica ranges,
one per worker.  Because replica k always draws from stream k, the
concatenated result is a pure function of (master seed, replica count) and
does not depend on the worker count.

Kernels get their generators from ``spec.generator()``, which reuses one
Philox per process (each worker process has its own) and rewinds it to
stream k: the draws are those of a freshly built generator.  A kernel that
drops its generator before asking for the next one pays for a rewind, not
a build; one it still holds is never rewound.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable

import numpy as np

from .rng import RngSpec

ChunkFn = Callable[[int, int], np.ndarray]


class PerReplica:
    """Chunk function of a one-replica kernel: row k is func(rng.stream(k)).

    The kernel sits in ``func``, the attribute name `functools.partial`
    uses, so tools that look through partials see the kernel's module.
    Instances pickle whenever the kernel is a module-level function.
    """

    def __init__(self, func: Callable, rng: RngSpec, **params):
        self.func = func
        self.rng = rng
        self.params = params

    def __call__(self, lo: int, hi: int) -> np.ndarray:
        return np.array([self.func(self.rng.stream(k), **self.params)
                         for k in range(lo, hi)])


def chunk_bounds(replicas: int, workers: int) -> list[tuple[int, int]]:
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, replicas)
    base, extra = divmod(replicas, workers)
    bounds = []
    lo = 0
    for w in range(workers):
        hi = lo + base + (1 if w < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def run_chunked(fn: ChunkFn, replicas: int, workers: int = 1) -> np.ndarray:
    """Evaluate fn over [0, replicas), possibly in parallel, in index order."""
    bounds = chunk_bounds(replicas, workers)
    if len(bounds) == 1:
        return np.asarray(fn(*bounds[0]))
    with ProcessPoolExecutor(max_workers=len(bounds)) as pool:
        parts = list(pool.map(fn, *zip(*bounds)))
    return np.concatenate([np.asarray(p) for p in parts])
