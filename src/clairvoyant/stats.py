"""Monte Carlo summaries, and exact joint laws of binary variables."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

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


@dataclass(frozen=True)
class JointPmf:
    """Exact joint law of k binary variables."""

    labels: tuple[str, ...]
    probs: Mapping[tuple[int, ...], Fraction]

    def __post_init__(self):
        k = len(self.labels)
        for o in self.probs:
            if len(o) != k or any(b not in (0, 1) for b in o):
                raise ValueError("outcomes must be {0,1} vectors of width %d" % k)
        if any(pr < 0 for pr in self.probs.values()):
            raise ValueError("probabilities must be >= 0")
        if sum(self.probs.values(), Fraction(0)) != 1:
            raise ValueError("probabilities must sum to 1")

    @property
    def k(self) -> int:
        return len(self.labels)

    def marginal(self, indices: tuple[int, ...]) -> "JointPmf":
        probs: dict[tuple[int, ...], Fraction] = {}
        for o, pr in self.probs.items():
            sub = tuple(o[i] for i in indices)
            probs[sub] = probs.get(sub, Fraction(0)) + pr
        return JointPmf(tuple(self.labels[i] for i in indices), probs)

    def prob_one(self, index: int) -> Fraction:
        return self.marginal((index,)).probs.get((1,), Fraction(0))
