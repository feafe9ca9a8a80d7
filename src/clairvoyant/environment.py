"""Column random environments and exact k-wise independence testing.

The column model ties percolation to a random environment: column i of the
box receives a density X_i drawn from a finite distribution mu, and every
vertex (i, j) is then open with probability X_i independently.  Dependence
runs along columns (the vertical direction), so the horizontal crossing of
a box is the statistic that feels the environment.  The crossing floods the
open cells 4-connected from column 0 with `words.flood`, one BFS layer at
a time, and stops as soon as the flood reaches column n-1.

`kwise_test` is the generic exact machinery: it checks a `stats.JointPmf`,
a joint law of binary variables as rationals, subset by subset against the
product law `product_pmf` of its one-variable marginals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations, product

from ._lazy import np
from ._record import Record
from .rng import RngSpec
from .runner import PerBlock, run_chunked
from .stats import Estimate, JointPmf
from .words import SQUARE_STEPS, flood, pack_box


def product_pmf(ps: list[Fraction]) -> JointPmf:
    """The independent joint law with P(var_i = 1) = ps[i]."""
    probs: dict[tuple[int, ...], Fraction] = {}
    for o in product((0, 1), repeat=len(ps)):
        pr = Fraction(1)
        for b, p in zip(o, ps):
            pr *= p if b else 1 - p
        probs[o] = pr
    return JointPmf(tuple("v%d" % i for i in range(len(ps))), probs)


class KwiseViolation(Record):
    subset: tuple[int, ...]
    outcome: tuple[int, ...]
    joint: Fraction
    expected: Fraction


class KwiseReport(Record):
    k: int
    independent: bool
    worst: KwiseViolation | None


def kwise_test(pmf: JointPmf, k: int) -> KwiseReport:
    """Check every subset of at most k variables for exact product form.

    Returns the worst violation (largest |joint - expected|), if any.
    """
    if not 1 <= k <= pmf.k:
        raise ValueError("k must lie in 1..%d" % pmf.k)
    singles = [pmf.prob_one(i) for i in range(pmf.k)]
    worst: KwiseViolation | None = None
    worst_gap = Fraction(0)
    for size in range(1, k + 1):
        for subset in combinations(range(pmf.k), size):
            marg = pmf.marginal(subset)
            law = product_pmf([singles[i] for i in subset])
            for o, expected in law.probs.items():
                joint = marg.probs.get(o, Fraction(0))
                gap = abs(joint - expected)
                if gap > worst_gap:
                    worst_gap = gap
                    worst = KwiseViolation(subset, o, joint, expected)
    return KwiseReport(k=k, independent=worst is None, worst=worst)


class FiniteDistribution(Record):
    """A finite distribution on [0, 1]: support points with exact weights."""

    points: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.points) != len(self.weights) or not self.points:
            raise ValueError("need matching, nonempty points and weights")
        if any(not 0 <= p <= 1 for p in self.points):
            raise ValueError("support points must lie in [0, 1]")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be >= 0")
        if sum(self.weights, Fraction(0)) != 1:
            raise ValueError("weights must sum to 1 exactly")

    @classmethod
    def point_mass(cls, p) -> "FiniteDistribution":
        return cls((Fraction(p),), (Fraction(1),))

    @classmethod
    def parse(cls, text: str) -> "FiniteDistribution":
        """Parse 'v1:w1,v2:w2,...' with rational or decimal entries."""
        points = []
        weights = []
        for part in text.split(","):
            v, _, w = part.partition(":")
            if not w:
                raise ValueError("mu entries look like value:weight")
            points.append(Fraction(v.strip()))
            weights.append(Fraction(w.strip()))
        return cls(tuple(points), tuple(weights))

    def __str__(self) -> str:
        return ",".join(
            "%s:%s" % (p, w) for p, w in zip(self.points, self.weights)
        )

    @cached_property
    def _float_law(self) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative weights and points as floats, converted once for
        every environment sampled from this distribution."""
        return (np.cumsum([float(w) for w in self.weights]),
                np.array([float(p) for p in self.points]))


class ColumnEnvironment(Record, eq=False):
    """A sampled environment: per-column densities and the open field."""

    mu: FiniteDistribution
    densities: np.ndarray
    config: np.ndarray  # config[i, j]: column i, row j


def sample_environment(mu: FiniteDistribution, n: int,
                       rng: RngSpec) -> ColumnEnvironment:
    """The environment of stream rng: row 0 of its n + n^2 uniforms."""
    if n < 1:
        raise ValueError("box size must be >= 1")
    dens, config = _environments(
        mu, n, rng.uniform_rows([rng.stream_id], n + n * n))
    return ColumnEnvironment(mu=mu, densities=dens[0], config=config[0])


def _environments(mu: FiniteDistribution, n: int, u: np.ndarray):
    """Column densities and open fields of the environments whose n + n^2
    uniforms are the rows of u: the first n pick the densities from mu's
    cumulative weights, the rest open field cell by cell, column by
    column."""
    cum, points = mu._float_law
    idx = np.searchsorted(cum, u[:, :n], side="right")
    dens = points[np.minimum(idx, len(points) - 1)]
    return dens, u[:, n:].reshape(-1, n, n) < dens[:, :, None]


def crosses_horizontally(config: np.ndarray) -> bool:
    """Whether an open 4-connected cluster joins column 0 to column n-1."""
    bits, stride = pack_box(config)
    last = (config.shape[0] - 1) * stride
    return any(seen >> last for seen in
               flood(bits, stride, SQUARE_STEPS, (1 << stride) - 1))


def _column_block(u: np.ndarray, mu: FiniteDistribution,
                  n: int) -> np.ndarray:
    """Block kernel: whether each environment of the block crosses."""
    return np.array([crosses_horizontally(config)
                     for config in _environments(mu, n, u)[1]], dtype=bool)


def column_percolation_mc(mu: FiniteDistribution, n: int, replicas: int,
                          rng: RngSpec, workers: int = 1) -> Estimate:
    """P(horizontal crossing of the n x n box under environment mu)."""
    rng.check_master()
    if n < 1:
        raise ValueError("box size must be >= 1")
    letters = n + n * n
    fn = PerBlock(_column_block, partial(rng.uniform_rows, letters=letters),
                  letters, mu=mu, n=n)
    samples = run_chunked(fn, replicas, workers)
    return Estimate.from_samples(samples, rng)
