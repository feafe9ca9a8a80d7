"""M-embeddings of binary words into binary sequences.

A word ``v`` of length n M-embeds into ``y`` when there are positions
``m_1 < ... < m_n`` with ``m_0 = 0``, each step ``m_i - m_{i-1}`` between 1
and M, and ``y[m_i] = v[i]`` (positions are 1-based here, matching the gap
convention).  Since ``m_n <= M*n``, the event only looks at the first M*n
letters of ``y``, which a merged-frontier automaton reads one by one with
integer counts to give exact probabilities (Markov-chain embedding, Fu &
Koutras 1994).

For the alternating word against uniform random ``y`` the probability
``v_n`` obeys a two-term linear recursion whose coefficients depend only on
M; both the recursion and the automaton are implemented so each can check
the other.  First and second moments of the number of embeddings of a
random word are exact as well, the second by a DP over position offsets.

The decision and the Monte Carlo estimators run the gap sweep
`words.gap_frontiers`, the latter on a block of replicas, one to a lane.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

from ._lazy import np
from ._record import Record
from .errors import BudgetError, PropertyViolation
from .rng import RngSpec
from .runner import PerBlock, check_replica, run_chunked
from .stats import Estimate
from .words import Word, gap_frontiers, pack_rows, unpack_rows

DEFAULT_BUDGET = 1 << 23


class EmbeddingWitness(Record):
    """1-based positions m_1 < ... < m_n realizing an M-embedding."""

    positions: tuple[int, ...]
    gap_bound: int


def validate_embedding(witness: EmbeddingWitness, v: Word, y: Word) -> bool:
    """Check a witness against the definition, independently of any solver."""
    m = witness.positions
    M = witness.gap_bound
    if M < 1 or len(m) != len(v):
        return False
    prev = 0
    for i, pos in enumerate(m):
        if not 1 <= pos - prev <= M:
            return False
        if pos > len(y) or y[pos - 1] != v[i]:
            return False
        prev = pos
    return True


def embed_decide(v: Word, y: Word, M: int) -> EmbeddingWitness | None:
    """A witness that v M-embeds into y, or None if there is none."""
    if M < 1:
        raise ValueError("gap bound M must be >= 1")
    n = len(v)
    if n == 0:
        return EmbeddingWitness((), M)
    ones = y.bits << 1
    zeros = ~ones & ((1 << (len(y) + 1)) - 2)
    frontiers = list(gap_frontiers(1, (ones if (v.bits >> i) & 1 else zeros
                                       for i in range(n)), M))
    if not frontiers[-1]:
        return None
    # walk the frontiers backwards, taking the lowest admissible position
    m = (frontiers[-1] & -frontiers[-1]).bit_length() - 1
    positions = [m]
    for i in range(n - 1, 0, -1):
        window = ((1 << M) - 1) << max(m - M, 0)
        cand = frontiers[i] & window & ((1 << m) - 1)
        m = (cand & -cand).bit_length() - 1
        positions.append(m)
    positions.reverse()
    witness = EmbeddingWitness(tuple(positions), M)
    if not validate_embedding(witness, v, y):
        raise PropertyViolation("embed_decide produced an invalid witness")
    return witness


def embed_count(v: Word, y: Word, M: int) -> int:
    """The number of distinct M-embedding position sequences of v into y."""
    if M < 1:
        raise ValueError("gap bound M must be >= 1")
    ys = y.letters()
    L = len(y)
    counts = [1] + [0] * L
    for a in v:
        nxt = [0] * (L + 1)
        for pos in range(L + 1):
            c = counts[pos]
            if not c:
                continue
            for d in range(1, M + 1):
                q = pos + d
                if q > L:
                    break
                if ys[q - 1] == a:
                    nxt[q] += c
        counts = nxt
    return sum(counts)


def _automaton_counts(words_bits: list[int], n: int, M: int, budget: int,
                      copies: int = 1) -> list[int]:
    """For each word, how many y in {0,1}^(M*n) it M-embeds into.

    Reads y left to right.  A state holds M bitmasks; mask a has bit i set
    iff v_1..v_i can end a letters back.  The state is packed in one int:
    mask a fills bits a*(n+1) .. a*(n+1) + n, so mask 0 (the newest) sits
    lowest and the dict key is the int itself.  Equal states merge,
    carrying how many y prefixes reach them; a state whose newest mask has
    bit n accepts every continuation, an all-empty one none.  Each live
    state costs its M masks per letter, each word's mask-steps are charged
    ``copies`` times, and BudgetError is raised once these mask-steps
    (summed over letters and words) pass budget.
    """
    if n == 0:
        return [1] * len(words_bits)        # m_0 = 0 embeds it in any y
    L = M * n
    width = n + 1
    field = (1 << width) - 1
    all_but_oldest = (1 << (width * (M - 1))) - 1
    older_shifts = tuple(a * width for a in range(1, M))
    cost = copies * M
    counts = []
    spent = 0
    for vbits in words_bits:
        # bit i + 1 of match[b] is set iff v_{i+1} == b
        match = ((~vbits & ((1 << n) - 1)) << 1, vbits << 1)
        states = {1: 1}
        hits = 0
        for t in range(L):
            spent += len(states) * cost
            if spent > budget:
                raise BudgetError("the automaton passed its budget of %d "
                                  "mask-steps" % budget)
            nxt: dict[int, int] = {}
            get = nxt.get
            accepted = 0
            for state, count in states.items():
                reach = state
                for shift in older_shifts:
                    reach |= state >> shift
                reach = (reach & field) << 1
                aged = (state & all_but_oldest) << width
                for mb in match:
                    newest = reach & mb
                    if newest >> n:
                        accepted += count
                    elif newest or aged:
                        key = aged | newest
                        nxt[key] = get(key, 0) + count
            hits += accepted << (L - t - 1)
            states = nxt
        counts.append(hits)
    return counts


def embed_prob_exact(v: Word, M: int,
                     budget: int = DEFAULT_BUDGET) -> Fraction:
    """P(v M-embeds into uniform random y), exactly, by the automaton.

    ``budget`` caps the automaton's mask-steps: live states summed over
    the letters of y, M masks each.  Each of the M*n letters has at least
    one live state: the target with v_k at position k*M and the opposite
    of v_(k+1) between them stays live and unaccepted up to its last
    letter.  So M*M*n over the budget is refused up front.
    """
    if M < 1:
        raise ValueError("gap bound M must be >= 1")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    L = M * len(v)
    if M * L > budget:
        raise BudgetError("the automaton needs at least %d mask-steps, over "
                          "the budget of %d" % (M * L, budget))
    count = _automaton_counts([v.bits], len(v), M, budget)[0]
    return Fraction(count, 1 << L)


class RecursionParams(Record):
    """Coefficients of v_{n+1} = b v_n - c v_{n-1} for the alternating word."""

    M: int
    alpha: Fraction
    beta: Fraction
    b: Fraction
    c: Fraction


def recursion_params(M: int) -> RecursionParams:
    if M < 2:
        raise ValueError("M must be >= 2")
    beta = Fraction(1, 2**M)
    alpha = 1 - beta
    b = alpha + (M - 1) * beta
    c = beta * (M - 2 * alpha)
    return RecursionParams(M, alpha, beta, b, c)


def vn_recursion(M: int, n: int) -> list[Fraction]:
    """v_0..v_n for the alternating word, exact rationals."""
    if n < 0:
        raise ValueError("n must be >= 0")
    par = recursion_params(M)
    vals = [Fraction(1)]
    if n >= 1:
        vals.append(par.alpha)
    for _ in range(2, n + 1):
        vals.append(par.b * vals[-1] - par.c * vals[-2])
    return vals


class CharRoots(Record):
    """Roots of x**2 - b x + c and the rescaled gap-to-1 diagnostic."""

    M: int
    r_small: float
    r_large: float
    health: float


def char_roots(M: int) -> CharRoots:
    if M > 1100:
        # c < 2^-1075 rounds to 0.0 and b, 2 - b and the discriminant to 1.0:
        # the floats below are their limits (from M = 1086 on), found
        # without squaring Fractions of 2^M denominators
        return CharRoots(M, 0.0, 1.0, 1.0)
    par = recursion_params(M)
    disc = par.b * par.b - 4 * par.c
    if disc <= 0:
        raise PropertyViolation("characteristic roots are not real for M=%d" % M)
    sqrt_d = math.sqrt(disc)
    s = float(2 - par.b)
    # 1 - r_large == 4 beta^2 / (s + sqrt_d); the direct quadratic formula
    # cancels catastrophically because r_large -> 1 at rate 4**-M
    one_minus_large = 4.0 * float(par.beta) ** 2 / (s + sqrt_d)
    r_large = 1.0 - one_minus_large
    r_small = float(par.c) / r_large
    health = 2.0 / (s + sqrt_d)
    return CharRoots(M, r_small, r_large, health)


class ScanReport(Record):
    """Exact embedding probabilities for every word of one length."""

    n: int
    M: int
    table: tuple[tuple[Word, Fraction], ...]
    best_words: tuple[Word, ...]
    worst_words: tuple[Word, ...]
    best_probability: Fraction
    worst_probability: Fraction


def extremal_scan(n: int, M: int, budget: int = DEFAULT_BUDGET) -> ScanReport:
    """Rank all 2**n words of length n by exact M-embedding probability.

    Under uniform y a word and its complement ~v embed equally often, and
    the automaton for ~v has the same live states letter by letter as the
    one for v (swap the letters of y).  So the automaton runs only on the
    2**(n-1) words with v_1 = 0 and each count is copied to the complement.

    ``budget`` caps the mask-steps summed over all 2**n words: each run is
    charged twice, once for its mirror, so a scan is refused for exactly
    the budgets that one run per word would pass.  Each word costs at
    least M*M*n of them (see `embed_prob_exact`), so a scan whose
    2**n * M*M*n floor is over the budget is refused before any word is
    built.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if M < 1:
        raise ValueError("gap bound M must be >= 1")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    floor = (M * M * n) << n
    if floor > budget:
        raise BudgetError("a scan of 2**%d words needs at least %d "
                          "mask-steps, over the budget of %d"
                          % (n, floor, budget))
    full = (1 << n) - 1
    # the words with v_1 = 0 (bit 0 clear); n = 0 has one, its own mirror
    half = _automaton_counts(list(range(0, full + 1, 2)), n, M, budget,
                             copies=2)
    counts = [half[(bits ^ full if bits & 1 else bits) >> 1]
              for bits in range(1 << n)]
    denom = 1 << (M * n)
    table = tuple((Word(bits, n), Fraction(c, denom))
                  for bits, c in enumerate(counts))
    best = max(c for _, c in table)
    worst = min(c for _, c in table)
    return ScanReport(
        n=n,
        M=M,
        table=table,
        best_words=tuple(w for w, c in table if c == best),
        worst_words=tuple(w for w, c in table if c == worst),
        best_probability=best,
        worst_probability=worst,
    )


def mean_embeddings(n: int, M: int) -> Fraction:
    """E(number of M-embeddings of a random n-word into a random target).

    There are M**n gap sequences, and each is an embedding with
    probability 2**-n, so the mean is (M/2)**n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if M < 1:
        raise ValueError("gap bound M must be >= 1")
    return Fraction(M, 2) ** n


def _second_moment_ratios(n: int, M: int) -> tuple[Fraction | None, Fraction]:
    """second_moment_ratio for n - 1 (None at n = 0) and for n, in one pass.

    A pair of position sequences (m1, m2) contributes 2**-(n + k), where k
    counts the i with m1_i != m2_i, so a DP over the offset d = m2_i - m1_i
    sums all M**(2n) pairs; its total one letter short of the end gives
    the ratio for n - 1.

    Letter i meets 2(M - 1)i + 1 offsets, M*M steps each, so the DP takes
    M*M*(n + (M - 1)n(n - 1)) steps; past ``DEFAULT_BUDGET`` it is refused
    up front.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if M < 1:
        raise ValueError("gap bound M must be >= 1")
    steps = M * M * (n + (M - 1) * n * (n - 1))
    if steps > DEFAULT_BUDGET:
        raise BudgetError("the offset DP needs %d steps, over the budget of "
                          "%d" % (steps, DEFAULT_BUDGET))
    # The pair ties v_i to y[m1_i] and y[m2_i], n + k edges with no cycle:
    # a position is at most one m1_i and one m2_j, so a cycle would be an
    # orbit of the increasing map f(m1_i) = m2_i, and those never return
    # (bar fixed points).  So n + k fair bits are fixed.  Weighting zero
    # offsets by 2, not nonzero ones by 1/2, makes the sum 4**n E(N^2).
    ways: dict[int, int] = {0: 1}
    before = None
    for _ in range(n):
        before = ways
        nxt: dict[int, int] = {}
        for d, c in ways.items():
            for g1 in range(1, M + 1):
                for g2 in range(1, M + 1):
                    e = d + g2 - g1
                    nxt[e] = nxt.get(e, 0) + (2 * c if e == 0 else c)
        ways = nxt
    prev = None if before is None else \
        Fraction(sum(before.values()), M ** (2 * n - 2))
    return prev, Fraction(sum(ways.values()), M ** (2 * n))


def second_moment_ratio(n: int, M: int) -> Fraction:
    """E(N^2) / (M/2)**(2n) for N = number of M-embeddings, both words random.

    Exact, by the offset DP of `_second_moment_ratios`.
    """
    return _second_moment_ratios(n, M)[1]


class MomentReport(Record):
    n: int
    M: int
    mean: Fraction
    second_moment_ratio: Fraction
    growth_estimate: float | None


def moment_report(n: int, M: int) -> MomentReport:
    """Mean, normalized second moment, and a one-step growth-rate estimate."""
    prev, ratio = _second_moment_ratios(n, M)
    growth = None if prev is None else float(ratio / prev)
    return MomentReport(
        n=n,
        M=M,
        mean=mean_embeddings(n, M),
        second_moment_ratio=ratio,
        growth_estimate=growth,
    )


def _embeds_block(rows: np.ndarray, n: int, M: int,
                  vbits: int | None) -> np.ndarray:
    """Does each row's word M-embed into its target?  One sweep for all.

    Row b holds replica b's letters: its target y, L = M*n letters, last,
    and before it the replica's own n-letter word, or nothing when every
    replica embeds the word vbits.  Replica b owns bits b*W .. b*W + L of
    one int, W = L + 1: bit b*W is its start m_0 = 0 and bit b*W + m its
    position m.  No guard bits are needed: frontier i lies at positions
    at most i*M <= L, so no spread leaves the replica's own field.
    """
    B = len(rows)
    L = M * n
    W = L + 1
    y = rows[:, rows.shape[1] - L:]

    def mask(letters) -> int:  # y at bits 1..L of each replica's field
        return pack_rows(y == letters, W) << 1

    if vbits is None:
        masks = (mask(rows[:, i:i + 1]) for i in range(n))
    else:
        by_letter = (mask(False), mask(True))
        masks = (by_letter[(vbits >> i) & 1] for i in range(n))
    start = pack_rows(np.ones((B, 1), dtype=bool), W)
    for last in gap_frontiers(start, masks, M):
        pass
    return unpack_rows(last, B, W).any(axis=1)


def embed_prob_mc(v: Word, M: int, replicas: int, rng: RngSpec,
                  p_y: float = 0.5, workers: int = 1) -> Estimate:
    """Monte Carlo estimate of P(v M-embeds into an iid Bernoulli target)."""
    if M < 1:
        raise ValueError("gap bound M must be >= 1")
    if not 0.0 <= p_y <= 1.0:
        raise ValueError("p_y must lie in [0, 1]")
    check_replica(M * len(v), M * len(v) ** 2, "target letters")
    probs = np.full(M * len(v), p_y)
    fn = PerBlock(_embeds_block, partial(rng.bernoulli_rows, probs=probs),
                  probs.size, n=len(v), M=M, vbits=v.bits)
    samples = run_chunked(fn, replicas, workers)
    return Estimate.from_samples(samples, rng)


def embed_survival_mc(M: int, n: int, p_x: float, p_y: float, replicas: int,
                      rng: RngSpec, workers: int = 1) -> Estimate:
    """Monte Carlo estimate of P(X_{1..n} M-embeds into Y_{1..Mn}).

    X has iid Bernoulli(p_x) letters and Y iid Bernoulli(p_y) letters.
    """
    if M < 1:
        raise ValueError("gap bound M must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    for p in (p_x, p_y):
        if not 0.0 <= p <= 1.0:
            raise ValueError("letter densities must lie in [0, 1]")
    check_replica(M * n, M * n * n, "target letters")
    probs = np.concatenate([np.full(n, p_x), np.full(M * n, p_y)])
    fn = PerBlock(_embeds_block, partial(rng.bernoulli_rows, probs=probs),
                  probs.size, n=n, M=M, vbits=None)
    samples = run_chunked(fn, replicas, workers)
    return Estimate.from_samples(samples, rng)

