"""Clairvoyant compatibility: deleting 0s to avoid simultaneous 1s.

Two words are compatible (at this finite horizon) when some 0-letters can
be removed from each so that the resulting words never carry a 1 in the
same position while both still have letters.  Positions past the shorter
output are unconstrained, which makes the horizon-n answer an upper bound
for longer horizons and monotone under extending either word.

State (i, j) has consumed i letters of x and j of y; the moves skip a 0 of
x, skip a 0 of y, or emit one letter from each provided they are not both
1, and a reachable state with either word exhausted accepts.  One row
sweep, `_rows`, yields the reachable j's of each i as one int; the
decision, the largest compatible horizon behind `psi_mc` and the deletion
witness (walked back through the kept rows) are all loops over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from ._lazy import np
from .errors import PropertyViolation
from .rng import RngSpec
from .runner import PerReplica, run_chunked
from .stats import Estimate
from .words import Word, pack_mask


@dataclass(frozen=True)
class DeletionWitness:
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


def _rows(xbits: int, nx: int, ybits: int, ny: int):
    """Yield the closed reachable rows r_0, r_1, ... of the (nx, ny) sweep.

    Bit j of r_i is set iff state (i, j) is reachable from (0, 0); the sweep
    stops after the first empty row.  A row steps to the next by skip-x
    (x_{i+1} = 0 keeps every j) or emit (j to j + 1 unless x_{i+1} and
    y_{j+1} are both 1), then closes under skip-y: adding r & zy to zy
    carries each run of zy's 1s from its lowest bit in r up to one past the
    run, clearing the run on the way, and xor-ing zy back flips those bits
    on (bits of r inside the run aside, which r keeps).
    """
    zy = ~ybits & ((1 << ny) - 1)
    full = (1 << (ny + 1)) - 1
    r = 1 | (((1 & zy) + zy) ^ zy)
    yield r
    for i in range(nx):
        if (xbits >> i) & 1:
            r = (r & zy) << 1
        else:
            r |= (r << 1) & full
        r |= ((r & zy) + zy) ^ zy
        yield r
        if not r:
            return


def compatible(x: Word, y: Word) -> bool:
    """Fast decision without a witness (bitset row sweep)."""
    if len(x) == 0 or len(y) == 0:
        raise ValueError("both words must be nonempty")
    for r in _rows(x.bits, len(x), y.bits, len(y)):
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
    if len(x) == 0 or len(y) == 0:
        raise ValueError("both words must be nonempty")
    nx, ny = len(x), len(y)
    rows = []
    for r in _rows(x.bits, nx, y.bits, ny):
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


@dataclass(frozen=True)
class MajorityCertificate:
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


def _horizon_bits(xbits: int, ybits: int, N: int) -> int:
    """Largest n <= N at which the length-n prefixes are compatible.

    The sweep `_rows` on the length-N words, tracking the largest max(i, j)
    over reachable states (i, j) instead of stopping at the first exhausted
    word.  A state with max(i, j) = m uses only the first m letters of each
    word, so it accepts at horizon m; and each move raises max(i, j) by at
    most 1, so a path to it passes through an accepting state of every
    smaller horizon.  So the prefixes are compatible at horizon n exactly
    when n <= the returned value.
    """
    top = 0
    for i, r in enumerate(_rows(xbits, N, ybits, N)):
        if not r or top >= N:
            break
        if i > top:
            top = i
        j = r.bit_length() - 1
        if j > top:
            top = j
    return top


def _horizon_replica(gx: np.random.Generator, gy: np.random.Generator,
                     p: float, N: int) -> int:
    return _horizon_bits(pack_mask(gx.random(N) < p),
                         pack_mask(gy.random(N) < p), N)


def psi_curve_mc(p: float, ns: list[int], replicas: int, rng: RngSpec,
                 workers: int = 1) -> list[Estimate]:
    """psi(n) = P(two Bernoulli(p) words are compatible at horizon n), per n.

    All horizons come from one sweep: replica k thresholds uniforms from
    streams 2k (for x) and 2k+1 (for y) into words of length N = max(ns)
    and finds the largest horizon T at which their prefixes are
    compatible; psi(n) is the mean of T >= n.  The first n uniforms of a
    stream do not depend on how many follow, so each estimate equals
    `psi_mc(p, n, ...)` exactly, and the estimates are non-increasing in n
    sample by sample.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not ns:
        raise ValueError("give at least one horizon n")
    if any(n < 1 for n in ns):
        raise ValueError("n must be >= 1")
    fn = PerReplica(_horizon_replica, rng, streams=2, p=p, N=max(ns))
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
