"""Clairvoyant compatibility: deleting 0s to avoid simultaneous 1s.

Two words are compatible (at this finite horizon) when some 0-letters can
be removed from each so that the resulting words never carry a 1 in the
same position while both still have letters.  Positions past the shorter
output are unconstrained, which makes the horizon-n answer an upper bound
for longer horizons and monotone under extending either word.

The decision procedure is a DP over consumed-prefix pairs (i, j) with three
moves: skip a 0 of x, skip a 0 of y, or emit one letter from each provided
they are not both 1.  A reachable state with either word exhausted accepts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, PropertyViolation
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


def _closure(r: int, zy: int) -> int:
    # saturate skip-y moves: from consumed-count j, skipping needs y_{j+1}=0.
    # Adding r & zy to zy carries each run of zy's 1s from its lowest bit in
    # r up to one past the run, clearing the run on the way; xor-ing zy back
    # flips those bits on (bits of r inside the run aside, which r keeps).
    return r | (((r & zy) + zy) ^ zy)


def _compatible_bits(xbits: int, nx: int, ybits: int, ny: int) -> bool:
    zy = ~ybits & ((1 << ny) - 1)
    full = (1 << (ny + 1)) - 1
    r = _closure(1, zy)
    if (r >> ny) & 1:
        return True
    for i in range(nx):
        xi = (xbits >> i) & 1
        nr = 0 if xi else r
        src = (r & zy) if xi else r
        nr |= (src << 1) & full
        nr = _closure(nr, zy)
        if nr == 0:
            return False
        r = nr
        if (r >> ny) & 1:
            return True
    return True


def compatible(x: Word, y: Word) -> bool:
    """Fast decision without a witness (bitset row sweep)."""
    if len(x) == 0 or len(y) == 0:
        raise ValueError("both words must be nonempty")
    return _compatible_bits(x.bits, len(x), y.bits, len(y))


def compatible_prefix(x: Word, y: Word) -> DeletionWitness | None:
    """A deletion witness for compatibility, or None.

    BFS over consumed-prefix states, reconstructing kept indices from the
    move sequence; letters of the unfinished word are kept wholesale.
    """
    if len(x) == 0 or len(y) == 0:
        raise ValueError("both words must be nonempty")
    nx, ny = len(x), len(y)
    start = (0, 0)
    parent: dict[tuple[int, int], tuple[tuple[int, int], str]] = {start: (start, "")}
    queue = deque([start])
    accept = None
    while queue:
        i, j = queue.popleft()
        if i == nx or j == ny:
            accept = (i, j)
            break
        moves = []
        if x[i] == 0:
            moves.append(((i + 1, j), "sx"))
        if y[j] == 0:
            moves.append(((i, j + 1), "sy"))
        if not (x[i] == 1 and y[j] == 1):
            moves.append(((i + 1, j + 1), "em"))
        for state, tag in moves:
            if state not in parent:
                parent[state] = ((i, j), tag)
                queue.append(state)
    if accept is None:
        return None
    kept_x: list[int] = []
    kept_y: list[int] = []
    state = accept
    while state != start:
        prev, tag = parent[state]
        if tag == "em":
            kept_x.append(state[0])
            kept_y.append(state[1])
        state = prev
    kept_x.reverse()
    kept_y.reverse()
    ai, aj = accept
    if ai == nx:
        kept_y.extend(range(aj + 1, ny + 1))
    else:
        kept_x.extend(range(ai + 1, nx + 1))
    witness = DeletionWitness(tuple(kept_x), tuple(kept_y))
    if not validate_deletion(witness, x, y):
        raise PropertyViolation("compatible_prefix produced an invalid witness")
    return witness


def compat_oracle(x: Word, y: Word, budget: int = 24) -> bool:
    """Ground-truth decision by enumerating all deletion subsets of 0s."""
    if len(x) == 0 or len(y) == 0:
        raise ValueError("both words must be nonempty")
    if len(x) + len(y) > budget:
        raise BudgetError(
            "oracle on |x|+|y| = %d letters, over the budget of %d"
            % (len(x) + len(y), budget)
        )
    xs = _all_deletions(x)
    ys = _all_deletions(y)
    for vb, vn in xs:
        for wb, wn in ys:
            m = min(vn, wn)
            if vb & wb & ((1 << m) - 1) == 0:
                return True
    return False


def _all_deletions(w: Word) -> list[tuple[int, int]]:
    """All words reachable by deleting 0s, as (bits, length) pairs."""
    zero_pos = [i for i in range(len(w)) if w[i] == 0]
    out = []
    for mask in range(1 << len(zero_pos)):
        drop = {zero_pos[t] for t in range(len(zero_pos)) if (mask >> t) & 1}
        bits = 0
        n = 0
        for i in range(len(w)):
            if i in drop:
                continue
            bits |= w[i] << n
            n += 1
        out.append((bits, n))
    return out


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
    cx = np.cumsum(x.letters())
    cy = np.cumsum(y.letters())
    ns = np.arange(1, len(x) + 1)
    ok = (2 * cx > ns) & (2 * cy > ns)
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        return None
    return MajorityCertificate(int(hits[0]) + 1)


def _horizon_bits(xbits: int, ybits: int, N: int) -> int:
    """Largest n <= N at which the length-n prefixes are compatible.

    The row sweep of `_compatible_bits` on the length-N words, tracking the
    largest max(i, j) over reachable states (i, j) instead of stopping at
    the first exhausted word.  A state with max(i, j) = m uses only the
    first m letters of each word, so it accepts at horizon m; and each move
    raises max(i, j) by at most 1, so a path to it passes through an
    accepting state of every smaller horizon.  So the prefixes are
    compatible at horizon n exactly when n <= the returned value.
    """
    zy = ~ybits & ((1 << N) - 1)
    full = (1 << (N + 1)) - 1
    r = _closure(1, zy)
    top = r.bit_length() - 1
    for i in range(N):
        if top >= N:
            break
        if (xbits >> i) & 1:
            r = ((r & zy) << 1) & full
        else:
            r |= (r << 1) & full
        if r == 0:
            break
        r = _closure(r, zy)
        top = max(top, i + 1, r.bit_length() - 1)
    return top


def _horizon_replica(spec: RngSpec, p: float, N: int) -> int:
    k = spec.stream_id
    xbits = pack_mask(spec.stream(2 * k).generator().random(N) < p)
    ybits = pack_mask(spec.stream(2 * k + 1).generator().random(N) < p)
    return _horizon_bits(xbits, ybits, N)


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
    fn = PerReplica(_horizon_replica, rng, p=p, N=max(ns))
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
