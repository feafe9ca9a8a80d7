"""Clairvoyant compatibility: deleting 0s to avoid simultaneous 1s.

Two words are compatible (at this finite horizon) when some 0-letters can
be removed from each so that the resulting words never carry a 1 in the
same position while both still have letters.  Positions past the shorter
output are unconstrained, which makes the horizon-n answer an upper bound
for longer horizons and monotone under extending either word.

State (i, j) has consumed i letters of x and j of y; the moves skip a 0 of
x, skip a 0 of y, or emit one letter from each provided they are not both
1, and a reachable state with either word exhausted accepts.  One row
sweep, `_rows`, yields the reachable j's of each i as one int, for every
pair of words packed into a lane of that int.  The decision and the
deletion witness (walked back through the kept rows) are loops over it on
one lane.

The largest compatible horizon T behind `psi_mc` runs the same sweep on a
block of replicas at once: `_horizon_lanes` packs each pair of words into
a lane and steps every lane with each letter.  `_horizon_chunk`
draws only the letters the sweep reads, in stages: the first 16 letters
of every replica's two streams, then a prefix 4 times longer (or all N
letters, when over half of the stage got that far) for the replicas whose
horizon reached the end of the last one.  Compatibility at horizon n reads
only the first n letters and is monotone in n, so a horizon short of its
stage's end is the replica's T, at any N.
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate

from ._lazy import np
from ._record import Record
from .errors import PropertyViolation
from .rng import RngSpec
from .runner import PerBlock, check_replica, run_chunked
from .stats import Estimate
from .words import Word, pack_rows, unpack_rows


class DeletionWitness(Record):
    """Kept indices (1-based, increasing) into each word; skips are 0s."""

    kept_x: tuple[int, ...]
    kept_y: tuple[int, ...]


def validate_deletion(witness: DeletionWitness, x: Word, y: Word) -> bool:
    for kept, w in ((witness.kept_x, x), (witness.kept_y, y)):
        if any(not 1 <= i <= len(w) for i in kept):
            return False
        if any(a >= b for a, b in zip(kept, kept[1:])):
            return False
        skipped = set(range(1, len(w) + 1)) - set(kept)
        if any(w[i - 1] != 0 for i in skipped):
            return False
    vx = [x[i - 1] for i in witness.kept_x]
    vy = [y[i - 1] for i in witness.kept_y]
    return all(a * b == 0 for a, b in zip(vx, vy))


def _rows(r: int, x0: int, zy: int, ones: int, K: int, steps: int):
    """Yield the closed reachable rows of every lane from r, then one more
    for each of the next `steps` letters of x; stop after an empty row.

    Lane b owns bits b W to b W + K + 1, W = K + 2, of each int (ones has
    bit b W): bit j < K + 1 of its row i is set iff state (i, j) is
    reachable from (0, 0), and bit K + 1 is a guard.  zy has bit j of a
    lane iff y_{j+1} = 0, and x0 bit k iff the k-th next letter of x is 0.
    A step skips x_{i+1} = 0 (keeping every j) or emits (j to j + 1 unless
    x_{i+1} = y_{j+1} = 1): it keeps or emits from r within the mask
    ``(b << (K+1)) - b`` of the lanes b where x_{i+1} = 0, and emits from
    r & zy elsewhere.  It then closes under skip-y: adding r & zy to zy
    carries each run of zy's 1s from its lowest bit in r up to one past
    the run, and xor-ing zy back flips those bits on.  A lane that reaches
    j = K is yielded once with that bit, then cleared, so no shift
    carries it past the guard.
    """
    W = K + 2
    top = ones << K
    r |= ((r & zy) + zy) ^ zy
    yield r
    for _ in range(steps):
        hit = r & top
        if hit:
            b = hit >> K
            r &= ~((b << W) - b)
        b = x0 & ones
        x0 >>= 1
        m0 = (b << (K + 1)) - b
        r = (r & m0) | ((r & (m0 | zy)) << 1)
        r |= ((r & zy) + zy) ^ zy
        yield r
        if not r:
            return


def _one_lane(x: Word, y: Word):
    """The rows of the (len(x), len(y)) sweep: `_rows` on one lane."""
    if len(x) == 0 or len(y) == 0:
        raise ValueError("both words must be nonempty")
    return _rows(1, ~x.bits & ((1 << len(x)) - 1),
                 ~y.bits & ((1 << len(y)) - 1), 1, len(y), len(x))


def compatible(x: Word, y: Word) -> bool:
    """Fast decision without a witness (bitset row sweep)."""
    for r in _one_lane(x, y):
        if (r >> len(y)) & 1:
            return True
    return r != 0


def compatible_prefix(x: Word, y: Word) -> DeletionWitness | None:
    """A deletion witness for compatibility, or None.

    Keeps the rows up to the first accepting state, (i, ny) in the first
    row that has one or else the lowest state of row nx, and walks back to
    (0, 0), preferring an emit from r_{i-1}, then a skip of x_i from
    r_{i-1}, then a skip of y_j within r_i.  Letters of the unfinished word
    are kept wholesale: the kept lists start from them, in reverse.
    """
    nx, ny = len(x), len(y)
    rows = []
    for r in _one_lane(x, y):
        rows.append(r)
        if (r >> ny) & 1:
            break
    if not r:
        return None
    i = len(rows) - 1
    j = ny if (r >> ny) & 1 else (r & -r).bit_length() - 1
    kept_x, kept_y = list(range(nx, i, -1)), list(range(ny, j, -1))
    # The rows alone pick each move: no move enters (i, j) with x_i = y_j = 1,
    # and when x_i = 1 the skips of y's 0s into (i, j) start at an emit, so
    # (i - 1, j - 1) is in r_{i-1} and a skip of x_i is tried only if x_i = 0.
    while i or j:
        if i and j and (rows[i - 1] >> (j - 1)) & 1:
            kept_x.append(i)
            kept_y.append(j)
            i -= 1
            j -= 1
        elif i and (rows[i - 1] >> j) & 1:
            i -= 1
        else:
            j -= 1
    witness = DeletionWitness(tuple(kept_x[::-1]), tuple(kept_y[::-1]))
    if not validate_deletion(witness, x, y):
        raise PropertyViolation("compatible_prefix produced an invalid witness")
    return witness


class MajorityCertificate(Record):
    """A horizon N where both words carry strictly more 1s than N/2."""

    N: int


def majority_certificate(x: Word, y: Word) -> MajorityCertificate | None:
    """Smallest N with strict 1-majorities in both length-N prefixes.

    Such an N forces a collision: whatever 0s are deleted, the outputs'
    overlap is too short to keep the surviving 1s apart.
    """
    if len(x) != len(y):
        raise ValueError("words must have equal length")
    ones = zip(accumulate(x.letters()), accumulate(y.letters()))
    for n, (cx, cy) in enumerate(ones, 1):
        if 2 * cx > n and 2 * cy > n:
            return MajorityCertificate(n)
    return None


# The first stage of `_horizon_chunk` gives every replica this many
# letters; a later stage takes the replicas whose horizon reached the end of
# the last one, with _GROWTH times as many letters, or N at once when over
# half of the last stage's replicas reached its end
_FIRST_LETTERS = 16
_GROWTH = 4


def _horizon_lanes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Largest compatible horizon T <= K of each pair of rows of x and y.

    Row b of the bool (lanes, K) arrays x and y is one pair of words; T is
    the largest n <= K at which the pair's length-n prefixes are
    compatible.  It is the largest max(i, j) over reachable states (i, j):
    a state with max(i, j) = m uses only the first m letters of each word,
    so it accepts at horizon m, and each move raises max(i, j) by at most
    1, so a path to it passes through an accepting state of every smaller
    horizon.

    Every lane runs the `_rows` sweep at once in one int, lane b at bits
    b W and up, W = K + 2.  The aliveness test ``(r + full) & guard``
    carries a lane's nonempty row into its guard bit K + 1 (full holds
    bits 0..K of each lane), so a carry never reaches the next lane.  T is
    the top bit of the lane's union of rows, where a lane whose row i is
    empty also gets bit i - 1, the i-part of T.  Once half of the lanes in
    the int are done, the rest are packed again without them; a lane that
    reached j = K is done from the row after.
    """
    lanes, K = x.shape
    W = K + 2
    T = np.zeros(lanes, dtype=np.int64)
    live, r, i = np.arange(lanes), None, 0
    while True:
        n = len(live)
        ones = pack_rows(np.ones((n, 1), dtype=bool), W)
        full = (ones << (K + 1)) - ones
        guard = ones << (K + 1)
        zy, x0 = pack_rows(~y[live], W), pack_rows(~x[live, i:], W)
        seen, alive = 0, guard
        for i, r in enumerate(_rows(ones if r is None else r, x0, zy, ones,
                                    K, K - i), i):
            seen |= r
            now = (r + full) & guard
            if now != alive:
                if i:
                    seen |= (alive ^ now) >> (K + 2 - i)
                alive = now
                if 2 * alive.bit_count() <= n:
                    break
        if i == K:
            seen |= alive >> 1
        t = K - np.argmax(unpack_rows(seen, n, W)[:, K::-1], axis=1)
        T[live] = np.maximum(T[live], t)
        if not alive or i == K:
            return T
        rows = unpack_rows(r, n, W)
        kept = rows.any(axis=1)
        live, r = live[kept], pack_rows(rows[kept], W)


def _horizon_chunk(lo: int, hi: int, rng: RngSpec, p: float,
                   N: int) -> np.ndarray:
    """Largest compatible horizon T <= N of replicas lo <= k < hi.

    Replica k's words are the Bernoulli(p) letters of streams 2k and 2k+1,
    drawn in stages, each run through `PerBlock`: first _FIRST_LETTERS
    letters for every replica, then, for the replicas whose horizon
    reached the stage's end K < N, a longer prefix, redrawn from the
    stream's start.  The first K letters of a stream do not depend on how
    many follow, and compatibility at horizon n reads only the first n
    letters and is monotone in n, so a stage's T_K < K is T.
    """
    T = np.empty(hi - lo, dtype=np.int64)
    todo = np.arange(lo, hi)
    K = min(_FIRST_LETTERS, N)
    while True:
        probs = np.full(K, p)

        def draw(ids):  # rows x and y of the stage's ids-th replicas
            xs = 2 * todo[ids]
            return rng.bernoulli_rows(np.stack((xs, xs + 1), axis=1).ravel(),
                                      probs).reshape(len(ids), 2, K)
        t = PerBlock(lambda rows: _horizon_lanes(rows[:, 0], rows[:, 1]),
                     draw, 2 * K)(0, len(todo))
        T[todo - lo] = t
        if K == N or (t < K).all():
            return T
        todo = todo[t == K]
        K = N if 2 * len(todo) > len(t) else min(_GROWTH * K, N)


def psi_curve_mc(p: float, ns: list[int], replicas: int, rng: RngSpec,
                 workers: int = 1) -> list[Estimate]:
    """psi(n) = P(two Bernoulli(p) words are compatible at horizon n), per n.

    All horizons come from one sweep: replica k thresholds uniforms from
    streams 2k (for x) and 2k+1 (for y) into words of length N = max(ns)
    and finds the largest horizon T at which their prefixes are
    compatible; psi(n) is the mean of T >= n.  The first n uniforms of a
    stream do not depend on how many follow, so each estimate equals
    `psi_mc(p, n, ...)` exactly, and the estimates are non-increasing in n
    sample by sample.  A replica past `runner.check_replica`'s bounds
    raises BudgetError before any draw.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not ns:
        raise ValueError("give at least one horizon n")
    if any(n < 1 for n in ns):
        raise ValueError("n must be >= 1")
    N = max(ns)
    # two words of N letters, swept as N rows of an (N + 2)-bit lane
    check_replica(2 * N, N * (N + 2))
    fn = partial(_horizon_chunk, rng=rng, p=p, N=N)
    horizons = run_chunked(fn, replicas, workers)
    return [Estimate.from_samples(horizons >= n, rng) for n in ns]


def psi_mc(p: float, n: int, replicas: int, rng: RngSpec,
           workers: int = 1) -> Estimate:
    """Estimate of P(two Bernoulli(p) length-n words are compatible).

    Replica k thresholds uniforms from streams 2k (for x) and 2k+1 (for y),
    so runs at different p or n under one master seed are coupled sample by
    sample: raising p flips 0s to 1s in place, and raising n extends the
    same words.  `psi_curve_mc` gives every horizon from one sweep.
    """
    return psi_curve_mc(p, [n], replicas, rng, workers)[0]
