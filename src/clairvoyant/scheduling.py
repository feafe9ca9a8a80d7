"""Clairvoyant scheduling on the looped complete graph.

Two walkers take iid uniform values in {1..M}; vertex (i, j) of the quadrant
is open when X_i != Y_j, and the scheduler survives to depth n when a
monotone lattice path from the origin reaches the antidiagonal i + j = n
through open vertices.  The origin itself is declared open.

Survival is swept one antidiagonal at a time on Python-int bitsets: bit u
of the level-d frontier f is cell (u, d - u).  X_a has bit u where x[u] == a;
Yrev_a has bit k where y[D - k] == a, y read backwards from D, the deepest
level swept.  Yrev_a >> (D - d) has bit u where y[d - u] == a, so level d is
f = (f | f << 1) & ~OR_a(X_a & (Yrev_a >> (D - d))), in linear memory.

Index 0 of each walk is its starting point, so the axis vertices (i, 0) and
(0, j) compare against Y_0 and X_0 respectively.  The open field is 3-wise
but not 4-wise independent; `kwise_joint` computes exact joint laws by
enumeration so that can be checked rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .environment import JointPmf
from .errors import BudgetError, PropertyViolation
from .lattice import LatticeKind, flood, pack_box
from .rng import RngSpec
from .runner import PerReplica, run_chunked
from .stats import Estimate
from .words import pack_mask


@dataclass(frozen=True, eq=False)
class ScheduleGrid:
    """Openness field of two walks on {1..M}, held as 1-D arrays;
    open(i, j) iff x[i] != y[j].
    """

    x: np.ndarray
    y: np.ndarray
    M: int

    def __post_init__(self):
        if self.M < 2:
            raise ValueError("alphabet size M must be >= 2")
        for v in (self.x, self.y):
            if v.size and (v.min() < 1 or v.max() > self.M):
                raise ValueError("values must lie in 1..M")

    @property
    def depth(self) -> int:
        return min(len(self.x), len(self.y)) - 1

    def in_bounds(self, i: int, j: int) -> bool:
        return 0 <= i < len(self.x) and 0 <= j < len(self.y)

    def is_open(self, i: int, j: int) -> bool:
        if (i, j) == (0, 0):
            return True
        return self.x[i] != self.y[j]


def sample_grid(M: int, depth: int, g: np.random.Generator) -> ScheduleGrid:
    """Grid of two uniform walks from g, x first, each with depth+1 values."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if M < 2:
        raise ValueError("alphabet size M must be >= 2")
    return ScheduleGrid(g.integers(1, M + 1, size=depth + 1),
                        g.integers(1, M + 1, size=depth + 1), M)


@dataclass(frozen=True)
class PathWitness:
    """Monotone path from the origin; one coordinate grows per step."""

    steps: tuple[tuple[int, int], ...]


def validate_path(witness: PathWitness, grid: ScheduleGrid) -> bool:
    steps = witness.steps
    if not steps or steps[0] != (0, 0):
        return False
    for (a, b), (c, d) in zip(steps, steps[1:]):
        if (c - a, d - b) not in ((0, 1), (1, 0)):
            return False
    for i, j in steps[1:]:
        if not grid.in_bounds(i, j) or not grid.is_open(i, j):
            return False
    return True


def _frontier_sweep(grid: ScheduleGrid, depth: int, keep: bool):
    """The sweep of the module docstring with D = depth <= grid.depth, so
    every cell it visits lies in the grid; keep=True keeps every frontier.
    Letters missing from either walk close nothing and are skipped.
    """
    xv = grid.x[:depth + 1]
    yrev = grid.y[depth::-1]
    masks = [(pack_mask(xv == a), pack_mask(yrev == a))
             for a in np.intersect1d(xv, yrev)]
    f = 1
    frontiers = [f]
    for d in range(1, depth + 1):
        shift = depth - d
        closed = 0
        for xa, ya in masks:
            closed |= xa & (ya >> shift)
        f = (f | f << 1) & ~closed
        if not f:
            return d - 1, frontiers
        if keep:
            frontiers.append(f)
    return depth, frontiers


def survival_depth(grid: ScheduleGrid, max_depth: int | None = None) -> int:
    """Largest d <= max_depth reachable by a monotone open path."""
    if max_depth is not None and max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    limit = grid.depth if max_depth is None else min(max_depth, grid.depth)
    reached, _ = _frontier_sweep(grid, limit, keep=False)
    return reached


def directed_survival(grid: ScheduleGrid, depth: int) -> PathWitness | None:
    """A monotone open path to antidiagonal depth, or None."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > grid.depth:
        raise ValueError("grid has only %d levels" % grid.depth)
    reached, frontiers = _frontier_sweep(grid, depth, keep=True)
    if reached < depth:
        return None
    last = frontiers[depth]
    u = (last & -last).bit_length() - 1
    steps = [(u, depth - u)]
    for d in range(depth - 1, -1, -1):
        if not frontiers[d] >> u & 1:
            u -= 1
        steps.append((u, d - u))
    steps.reverse()
    witness = PathWitness(tuple(steps))
    if not validate_path(witness, grid):
        raise PropertyViolation("directed_survival produced an invalid path")
    return witness


def _curve_replica(g: np.random.Generator, M: int, max_depth: int) -> int:
    return survival_depth(sample_grid(M, max_depth, g))


def survival_curve_mc(M: int, depths: list[int], replicas: int, rng: RngSpec,
                      workers: int = 1) -> list[Estimate]:
    """P(directed survival to depth d) for each requested d, shared samples.

    One survival depth is computed per replica, so the estimates are
    monotone non-increasing in d sample by sample, not just on average.
    """
    if not depths or any(d < 0 for d in depths):
        raise ValueError("depths must be non-negative")
    fn = PerReplica(_curve_replica, rng, M=M, max_depth=max(depths))
    reached = run_chunked(fn, replicas, workers)
    return [Estimate.from_samples(reached >= d, rng) for d in depths]


def reduce_value(v: int, M: int) -> int:
    """Collapse {1..kM} onto {1..M} by value -> ((value-1) mod M) + 1."""
    return (v - 1) % M + 1


@dataclass(frozen=True)
class CouplingReport:
    M: int
    k: int
    depth: int
    samples: int
    reduced_survivals: int
    big_survivals: int


def _coupling_replica(g: np.random.Generator, M: int, k: int,
                      depth: int) -> tuple[bool, bool, bool]:
    """(superset broken, reduced grid survives, big grid survives)."""
    big = sample_grid(k * M, depth, g)
    xb, yb = big.x, big.y
    xr, yr = reduce_value(xb, M), reduce_value(yb, M)
    # reduced-open at (i,j) must imply big-open there: the rows and columns
    # carrying one big letter b must share one reduced letter
    bad = any(np.unique(np.concatenate((xr[xb == b], yr[yb == b]))).size > 1
              for b in np.intersect1d(xb, yb))
    red = ScheduleGrid(xr, yr, M)
    return bad, survival_depth(red) >= depth, survival_depth(big) >= depth


def coupling_check(M: int, k: int, depth: int, samples: int, rng: RngSpec,
                   workers: int = 1) -> CouplingReport:
    """Sample paired walks on {1..kM} and their mod-M reductions.

    Raises PropertyViolation if any vertex open in the reduced grid is
    closed in the big grid, or if a reduced grid survives while its big
    grid does not; either would contradict the coupling.
    """
    if M < 2:
        raise ValueError("alphabet size M must be >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    fn = PerReplica(_coupling_replica, rng, M=M, k=k, depth=depth)
    res = run_chunked(fn, samples, workers)
    superset_bad = int(res[:, 0].sum())
    ordering_bad = int((res[:, 1] & ~res[:, 2]).sum())
    if superset_bad or ordering_bad:
        raise PropertyViolation(
            "coupling violated on %d/%d samples (superset %d, ordering %d)"
            % (superset_bad + ordering_bad, samples, superset_bad, ordering_bad)
        )
    return CouplingReport(
        M=M,
        k=k,
        depth=depth,
        samples=samples,
        reduced_survivals=int(res[:, 1].sum()),
        big_survivals=int(res[:, 2].sum()),
    )


def undirected_escape(grid: ScheduleGrid, box: int) -> bool:
    """Whether the origin's open cluster reaches the boundary of [0, box]^2.

    Adjacency is the undirected 4-neighbor one, restricted to the quadrant.
    The box is packed by `lattice.pack_box` and flooded from the origin one
    BFS layer at a time until a layer touches row or column box.
    """
    if box < 0:
        raise ValueError("box must be >= 0")
    if box > grid.depth:
        raise ValueError("grid has only %d levels" % grid.depth)
    xv = grid.x[:box + 1]
    yv = grid.y[:box + 1]
    open_uv = xv[:, None] != yv[None, :]
    open_uv[0, 0] = True
    bits, stride = pack_box(open_uv)
    # row box and column box, with no (box+1)^2 temporary wider than bool
    border, _ = pack_box(np.pad(np.zeros((box, box), bool), (0, 1),
                                constant_values=True))
    return any(seen & border for seen in
               flood(bits, stride, LatticeKind.SQUARE, 1))


def _escape_replica(g: np.random.Generator, M: int, box: int) -> bool:
    return undirected_escape(sample_grid(M, box, g), box)


def undirected_mc(M: int, box: int, replicas: int, rng: RngSpec,
                  workers: int = 1) -> Estimate:
    """Escape frequency of the undirected open cluster from the origin."""
    if box < 0:
        raise ValueError("box must be >= 0")
    fn = PerReplica(_escape_replica, rng, M=M, box=box)
    samples = run_chunked(fn, replicas, workers)
    return Estimate.from_samples(samples, rng)


def kwise_joint(vertices, M: int, max_terms: int = 10_000_000) -> JointPmf:
    """Exact joint law of the open indicators at the given grid vertices.

    Enumerates all value assignments of the distinct walk indices involved,
    so the cost is M**(a+b) for a distinct X-indices and b distinct
    Y-indices.  Vertices must have i, j >= 1 (the axis rows involve the
    declared-open origin and the starting values).
    """
    if M < 2:
        raise ValueError("alphabet size M must be >= 2")
    verts = tuple((int(i), int(j)) for i, j in vertices)
    if not verts:
        raise ValueError("need at least one vertex")
    if any(i < 1 or j < 1 for i, j in verts):
        raise ValueError("vertices must have i, j >= 1")
    if len(set(verts)) != len(verts):
        raise ValueError("duplicate vertex")
    is_ = sorted({i for i, _ in verts})
    js = sorted({j for _, j in verts})
    terms = M ** (len(is_) + len(js))
    if terms > max_terms:
        raise BudgetError(
            "joint law needs %d assignments, over the budget of %d"
            % (terms, max_terms)
        )
    counts: dict[tuple[int, ...], int] = {}
    for xs in product(range(M), repeat=len(is_)):
        xmap = dict(zip(is_, xs))
        for ys in product(range(M), repeat=len(js)):
            ymap = dict(zip(js, ys))
            o = tuple(int(xmap[i] != ymap[j]) for i, j in verts)
            counts[o] = counts.get(o, 0) + 1
    probs = {o: Fraction(c, terms) for o, c in counts.items()}
    labels = tuple("%d,%d" % v for v in verts)
    return JointPmf(labels=labels, probs=probs)
