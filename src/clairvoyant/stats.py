"""Monte Carlo summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import np
from .rng import RngSpec


@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error and provenance."""

    mean: float
    stderr: float
    replicas: int
    rng: RngSpec

    @classmethod
    def from_samples(cls, samples, rng: RngSpec) -> "Estimate":
        arr = np.asarray(samples, dtype=float)
        n = arr.size
        if n < 1:
            raise ValueError("need at least one sample")
        mean = float(arr.mean())
        stderr = float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return cls(mean=mean, stderr=stderr, replicas=n, rng=rng)

    def agrees(self, value: float, k: float = 3.0) -> bool:
        """True iff ``value`` lies within k standard errors of the mean."""
        return abs(self.mean - value) <= k * self.stderr + 1e-12
