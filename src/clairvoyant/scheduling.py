"""Clairvoyant scheduling on the looped complete graph.

Two walkers take iid uniform values in {1..M}; vertex (i, j) of the quadrant
is open when X_i != Y_j, and the scheduler survives to depth n when a
monotone lattice path from the origin reaches the antidiagonal i + j = n
through open vertices.  The origin itself is declared open.

Survival is swept one antidiagonal at a time on Python-int bitsets, for a
block of B walk pairs at once.  The rows of the block are interleaved: bit
u*B + b of the level-d frontier f is cell (u, d - u) of pair b.  Each pair's
letters are first renamed to their ranks 1, 2, ... among the letters its
own x and y share (`_shared_ranks`); a letter on only one of its walks
closes nothing and is dropped.  X_a has bit u*B + b where x_b[u] has rank
a; Yrev_a has bit k*B + b where y_b[D - k] has rank a, y read backwards
from D, the deepest level swept.  Yrev_a >> (D - d)*B has bit u*B + b
where y_b[d - u] has rank a, so from f = (1 << B) - 1 at level 0,

    f = (f | f << B) & ~OR_a(X_a & (Yrev_a >> (D - d)*B)),

in linear memory, until f is 0 or level D is reached.  Shifts by whole
multiples of B never move a bit into another pair's residue, so the pairs
do not interact.  Level d touches only the low (d + 1)*B bits, and a runs
up to the largest number of letters one pair shares, so each level costs
what B sweeps of one pair would if every pair shared that many; the
Python work per level is paid once per block.  Without the renaming, a
would run over every letter found on some x and some y of the block,
which for M near B*(D + 1) is thousands of times the letters one pair
shares.  With B = 1 it is the sweep of a single pair, bit for bit (the
ranks keep the letters' order): `survival_depth` and `directed_survival`
run it on one grid, and `survival_curve_mc` and `coupling_check` on
blocks of replicas, reading each pair's liveness out of f only at the
depths they report.

Index 0 of each walk is its starting point, so the axis vertices (i, 0) and
(0, j) compare against Y_0 and X_0 respectively.  The open field is 3-wise
but not 4-wise independent; `kwise_joint` computes exact joint laws, summed
over which walk letters are equal rather than over their M**(a+b) values,
so that can be checked rather than assumed, at any M.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from ._lazy import np
from ._record import Record
from .errors import BudgetError, PropertyViolation
from .rng import RngSpec
from .runner import PerBlock, check_replica, run_chunked
from .stats import Estimate, JointPmf
from .words import SQUARE_STEPS, flood, pack_box, pack_mask, unpack_rows


class ScheduleGrid(Record, eq=False):
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


def _walk_rows(ids, rng: RngSpec, M: int, depth: int) -> np.ndarray:
    """Row i holds the walks x and y, depth + 1 values each, that stream
    ids[i] gives: one draw of 2(depth + 1) values on {1..M}, x first."""
    return rng.integer_rows(ids, M, 2 * (depth + 1)).reshape(-1, 2, depth + 1)


def _walk_pairs(kernel, rng: RngSpec, M: int, depth: int, bit_steps: int,
                /, **params) -> PerBlock:
    """Chunk function of kernel on replica k's walks, the 2(depth + 1)
    letters `_walk_rows` draws from its stream, once
    `runner.check_replica` has passed those letters and bit_steps."""
    rng.check_master()
    letters = 2 * (depth + 1)
    check_replica(letters, bit_steps)
    return PerBlock(kernel, partial(_walk_rows, rng=rng, M=M, depth=depth),
                    letters, **params)


def _sweep_steps(depth: int, *alphabets: int) -> int:
    """Bit-steps of sweeping a walk pair to depth once on each alphabet:
    about depth + 1 levels shift masks of up to depth + 1 bits, once per
    shared letter, and a pair shares at most min(alphabet, depth + 1)."""
    n = depth + 1
    return n * n * sum(min(m, n) for m in alphabets)


def sample_grid(M: int, depth: int, rng: RngSpec) -> ScheduleGrid:
    """Grid of two uniform walks from stream rng, x first, each with
    depth+1 values: row 0 of `_walk_rows` for that stream."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if M < 2:
        raise ValueError("alphabet size M must be >= 2")
    return ScheduleGrid(*_walk_rows([rng.stream_id], rng, M, depth)[0], M)


class PathWitness(Record):
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


def _shared_ranks(xv: np.ndarray, yrev: np.ndarray):
    """xv and yrev relabelled row by row: each letter becomes its rank 1, 2,
    ... among the letters shared by that row of xv and that row of yrev,
    and a letter on only one of them, which closes nothing, becomes 0.

    When a table of (row, letter) is no larger than the walks, as for small
    M, the ranks are counted in it.  Otherwise each row of the two, side by
    side, is sorted, and a run of equal letters is shared iff it holds
    entries of both; this also sorts object arrays of ints past int64.
    """
    rows, width = xv.shape
    top = int(max(xv.max(), yrev.max())) + 1
    if rows * top <= 2 * xv.size:
        base = np.arange(rows)[:, None] * top
        kx = np.asarray(xv, dtype=np.int64) + base
        ky = np.asarray(yrev, dtype=np.int64) + base
        on_x = np.zeros(rows * top, dtype=bool)
        on_x[kx] = True
        shared = np.zeros(rows * top, dtype=bool)
        shared[ky] = True
        shared &= on_x
        rank = np.cumsum(shared.reshape(rows, top), axis=1,
                         dtype=np.int32).ravel() * shared
        return rank[kx], rank[ky]
    both = np.concatenate((xv, yrev), axis=1)
    order = np.argsort(both, axis=1)
    v = np.take_along_axis(both, order, axis=1)
    start = np.ones(v.shape, dtype=bool)
    start[:, 1:] = v[:, 1:] != v[:, :-1]
    starts = np.flatnonzero(start)
    on_y = (order >= width).ravel()
    shared = (np.logical_or.reduceat(on_y, starts)
              & ~np.logical_and.reduceat(on_y, starts))
    shared = shared[np.cumsum(start) - 1].reshape(v.shape)
    ranks = np.empty(v.shape, dtype=np.int32)
    np.put_along_axis(ranks, order, np.cumsum(start & shared, axis=1,
                                              dtype=np.int32) * shared, axis=1)
    return ranks[:, :width], ranks[:, width:]


def _frontiers(x: np.ndarray, y: np.ndarray, depth: int):
    """Frontiers of the sweep of the module docstring over the walk pairs
    (x[b], y[b]), B = len(x), with D = depth; every walk holds depth + 1
    values or more.  Yields levels 0, 1, ... up to the last non-empty one.
    One mask pair per shared-letter rank: as many as the most letters
    shared by one pair.
    """
    rows = len(x)
    xr, yr = _shared_ranks(x[:, :depth + 1], y[:, depth::-1])
    masks = [(pack_mask((xr == a).T), pack_mask((yr == a).T))
             for a in range(1, int(xr.max()) + 1)]
    f = (1 << rows) - 1
    yield f
    for d in range(1, depth + 1):
        shift = (depth - d) * rows
        closed = 0
        for xa, ya in masks:
            closed |= xa & (ya >> shift)
        f = (f | f << rows) & ~closed
        if not f:
            return
        yield f


def survival_depth(grid: ScheduleGrid, max_depth: int | None = None) -> int:
    """Largest d <= max_depth reachable by a monotone open path."""
    if max_depth is not None and max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    limit = grid.depth if max_depth is None else min(max_depth, grid.depth)
    for reached, _ in enumerate(_frontiers(grid.x[None], grid.y[None],
                                           limit)):
        pass
    return reached


def directed_survival(grid: ScheduleGrid, depth: int) -> PathWitness | None:
    """A monotone open path to antidiagonal depth, or None."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > grid.depth:
        raise ValueError("grid has only %d levels" % grid.depth)
    frontiers = list(_frontiers(grid.x[None], grid.y[None], depth))
    if len(frontiers) <= depth:
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


def _survival_block(walks: np.ndarray, depths: tuple[int, ...]) -> np.ndarray:
    """Block kernel: walks[b] holds rows x and y of pair b; row b of the
    result says whether pair b survives to each of depths."""
    rows = len(walks)
    wanted = set(depths)
    alive = {}
    for d, f in enumerate(_frontiers(walks[:, 0], walks[:, 1],
                                     max(depths))):
        if d in wanted:
            alive[d] = unpack_rows(f, d + 1, rows).any(axis=0)
    dead = np.zeros(rows, dtype=bool)
    return np.column_stack([alive.get(d, dead) for d in depths])


def survival_curve_mc(M: int, depths: list[int], replicas: int, rng: RngSpec,
                      workers: int = 1) -> list[Estimate]:
    """P(directed survival to depth d) for each requested d, shared samples.

    Each replica is swept once to the deepest requested level, so the
    estimates are monotone non-increasing in d sample by sample, not just
    on average.  A replica past `runner.check_replica`'s bounds raises
    BudgetError before any draw.
    """
    if M < 2:
        raise ValueError("alphabet size M must be >= 2")
    if not depths:
        raise ValueError("give at least one depth")
    if any(d < 0 for d in depths):
        raise ValueError("depths must be non-negative")
    depth = max(depths)
    fn = _walk_pairs(_survival_block, rng, M, depth, _sweep_steps(depth, M),
                     depths=tuple(depths))
    alive = run_chunked(fn, replicas, workers)
    return [Estimate.from_samples(col, rng) for col in alive.T]


def reduce_value(v: int, M: int) -> int:
    """Collapse {1..kM} onto {1..M} by value -> ((value-1) mod M) + 1."""
    return (v - 1) % M + 1


class CouplingReport(Record):
    M: int
    k: int
    depth: int
    samples: int
    reduced_survivals: int
    big_survivals: int


def _superset_broken(big: np.ndarray, red: np.ndarray) -> np.ndarray:
    """Per walk pair of a block, whether some cell open in the reduced grid
    is closed in the big one: whether a big letter on both walks, a rank
    > 0 of the pair's `_shared_ranks`, meets two reduced letters.  kept
    holds one reduced letter of each (pair, rank) group, whichever the
    scatter writes last, and the group holds two iff a letter differs.
    """
    rows, _, width = big.shape
    ranks = np.concatenate(_shared_ranks(big[:, 0], big[:, 1]), axis=1)
    group = ranks + np.arange(rows)[:, None] * (width + 1)
    r = red.reshape(rows, 2 * width)
    kept = np.empty(rows * (width + 1), dtype=r.dtype)
    kept[group] = r
    return ((kept[group] != r) & (ranks > 0)).any(axis=1)


def _coupling_block(walks: np.ndarray, M: int, depth: int) -> np.ndarray:
    """Block kernel: per pair of big walks, (superset broken, reduced grid
    survives, big grid survives)."""
    red = reduce_value(walks, M)
    return np.column_stack((_superset_broken(walks, red),
                            _survival_block(red, (depth,)),
                            _survival_block(walks, (depth,))))


def coupling_check(M: int, k: int, depth: int, samples: int, rng: RngSpec,
                   workers: int = 1) -> CouplingReport:
    """Sample paired walks on {1..kM} and their mod-M reductions.

    Raises PropertyViolation if any vertex open in the reduced grid is
    closed in the big grid, or if a reduced grid survives while its big
    grid does not; either would contradict the coupling.  A replica past
    `runner.check_replica`'s bounds, for its two sweeps, raises BudgetError
    before any draw.
    """
    if M < 2:
        raise ValueError("alphabet size M must be >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    fn = _walk_pairs(_coupling_block, rng, k * M, depth,
                     _sweep_steps(depth, M, k * M), M=M, depth=depth)
    res = run_chunked(fn, samples, workers)
    superset_bad = int(res[:, 0].sum())
    ordering_bad = int((res[:, 1] & ~res[:, 2]).sum())
    if superset_bad or ordering_bad:
        raise PropertyViolation(
            "coupling violated on %d/%d samples (superset %d, ordering %d)"
            % (superset_bad + ordering_bad, samples, superset_bad, ordering_bad)
        )
    return CouplingReport(M, k, depth, samples, int(res[:, 1].sum()),
                          int(res[:, 2].sum()))


def _escapes(x: np.ndarray, y: np.ndarray, box: int) -> bool:
    """`undirected_escape` on the walks x and y."""
    open_uv = x[:box + 1, None] != y[None, :box + 1]
    open_uv[0, 0] = True
    bits, s = pack_box(open_uv)
    # row box, bits box*s .. box*s + box, and column box, bits i*s + box
    column = ((1 << s * (box + 1)) - 1) // ((1 << s) - 1) << box
    border = ((1 << box + 1) - 1) << box * s | column
    return any(seen & border for seen in
               flood(bits, s, SQUARE_STEPS, 1))


def undirected_escape(grid: ScheduleGrid, box: int) -> bool:
    """Whether the origin's open cluster reaches the boundary of [0, box]^2.

    Adjacency is the undirected 4-neighbor one, restricted to the quadrant.
    The box is packed by `words.pack_box` and flooded from the origin one
    BFS layer at a time until a layer touches row or column box.
    """
    if box < 0:
        raise ValueError("box must be >= 0")
    if box > grid.depth:
        raise ValueError("grid has only %d levels" % grid.depth)
    return _escapes(grid.x, grid.y, box)


def _escape_block(walks: np.ndarray, box: int) -> np.ndarray:
    """Block kernel: whether each walk pair's cluster escapes the box."""
    return np.array([_escapes(x, y, box) for x, y in walks], dtype=bool)


def undirected_mc(M: int, box: int, replicas: int, rng: RngSpec,
                  workers: int = 1) -> Estimate:
    """Escape frequency of the undirected open cluster from the origin.

    `runner.check_replica` prices a replica, before any draw, at the floor
    of an escape: box flood layers over a (box + 1)(box + 2)-bit field."""
    if box < 0:
        raise ValueError("box must be >= 0")
    if M < 2:
        raise ValueError("alphabet size M must be >= 2")
    fn = _walk_pairs(_escape_block, rng, M, box,
                     box * (box + 1) * (box + 2), box=box)
    samples = run_chunked(fn, replicas, workers)
    return Estimate.from_samples(samples, rng)


def kwise_joint(vertices, M: int, max_terms: int = 10_000_000) -> JointPmf:
    """Exact joint law of the open indicators at the given grid vertices.

    The open pattern depends only on which of the a + b walk letters
    involved are equal.  Labelled in order, each letter reuses an earlier
    value or takes the next new one, so the law sums over set partitions
    into k <= M blocks, each realised by M(M-1)...(M-k+1) assignments.
    `max_terms` bounds their number, at most M**(a+b) and independent of M
    once M >= a + b, before any is built.  Vertices must have i, j >= 1
    (the axis rows involve the declared-open origin and the starting values).
    """
    if M < 2:
        raise ValueError("alphabet size M must be >= 2")
    if max_terms < 0:
        raise ValueError("max_terms must be >= 0")
    verts = tuple((int(i), int(j)) for i, j in vertices)
    if not verts:
        raise ValueError("need at least one vertex")
    if any(i < 1 or j < 1 for i, j in verts):
        raise ValueError("vertices must have i, j >= 1")
    if len(set(verts)) != len(verts):
        raise ValueError("duplicate vertex")
    xs = {i: n for n, i in enumerate(sorted({i for i, _ in verts}))}
    ys = {j: len(xs) + n for n, j in enumerate(sorted({j for _, j in verts}))}
    letters = len(xs) + len(ys)
    ways = [1]      # ways[k]: patterns of the letters so far with k values
    for _ in range(letters):
        ways = [k * w + v for k, (w, v)
                in enumerate(zip(ways + [0], [0] + ways))][:M + 1]
        if sum(ways) > max_terms:
            raise BudgetError(
                "joint law needs at least %d equality patterns, over the "
                "budget of %d" % (sum(ways), max_terms))
    counts: dict[tuple[int, ...], int] = {}
    # (restricted-growth values of the first letters, weight)
    stack = [((), 1)]
    while stack:
        vals, w = stack.pop()
        k = len(set(vals))
        if len(vals) < letters:
            stack += [(vals + (v,), w * (M - k if v == k else 1))
                      for v in range(min(k + 1, M))]
            continue
        o = tuple(int(vals[xs[i]] != vals[ys[j]]) for i, j in verts)
        counts[o] = counts.get(o, 0) + w
    probs = {o: Fraction(c, M ** letters) for o, c in counts.items()}
    labels = tuple("%d,%d" % v for v in verts)
    return JointPmf(labels=labels, probs=probs)
