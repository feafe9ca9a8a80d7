from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from clairvoyant.embedding import (
    CharRoots,
    char_roots,
    embed_count,
    embed_decide,
    embed_prob_exact,
    embed_prob_mc,
    embed_survival_mc,
    extremal_scan,
    mean_embeddings,
    moment_report,
    recursion_params,
    second_moment_ratio,
    validate_embedding,
    vn_recursion,
)
from clairvoyant.errors import BudgetError
from clairvoyant.rng import RngSpec
from clairvoyant.runner import BLOCK_LETTERS
from clairvoyant.stats import Estimate
from clairvoyant.words import Word, alternating_word

from oracles import (
    brute_embed_prob,
    brute_embeddings,
    brute_mean_embeddings,
    brute_second_moment_ratio,
    embeds,
    enum_embed_counts,
    fixed_word_replica,
    survival_replica,
)

small_words = st.lists(st.integers(0, 1), max_size=5)
targets = st.lists(st.integers(0, 1), max_size=12)
gap_bounds = st.integers(1, 4)


@given(small_words, targets, gap_bounds)
def test_embeds_oracle_matches_enumeration(v, y, M):
    assert embeds(v, y, M) == bool(brute_embeddings(v, y, M))


def test_decide_examples():
    v = Word.from_string("01")
    y = Word.from_string("0101")
    wit = embed_decide(v, y, 2)
    assert wit is not None and wit.positions == (1, 2)
    assert validate_embedding(wit, v, y)
    # third 1 would need a position past the end of y
    assert embed_decide(Word.from_string("111"), y, 2) is None
    assert embed_decide(Word.from_string(""), y, 2).positions == ()


def test_count_example():
    # m = (1, 2) is the only admissible pair: the second letter must sit
    # within gap 2 of the first and carry a 1, which rules out position 3
    assert embed_count(Word.from_string("01"), Word.from_string("0101"), 2) == 1
    assert embed_count(Word.from_string(""), Word.from_string("0101"), 2) == 1
    assert embed_count(Word.from_string("0"), Word.from_string("00"), 2) == 2


@given(small_words, targets, gap_bounds)
def test_decide_matches_brute_force(vl, yl, M):
    v, y = Word.from_letters(vl), Word.from_letters(yl)
    wit = embed_decide(v, y, M)
    brute = brute_embeddings(vl, yl, M)
    assert (wit is not None) == bool(brute)
    if wit is not None:
        assert validate_embedding(wit, v, y)
        assert wit.positions in brute


@given(small_words, targets, gap_bounds)
def test_count_matches_brute_force(vl, yl, M):
    v, y = Word.from_letters(vl), Word.from_letters(yl)
    assert embed_count(v, y, M) == len(brute_embeddings(vl, yl, M))


@given(st.lists(st.integers(0, 1), min_size=1, max_size=3), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_exact_probability_matches_brute_force(vl, M):
    assert embed_prob_exact(Word.from_letters(vl), M) == brute_embed_prob(vl, M)


def test_exact_matches_recursion_small():
    for M, top in ((2, 8), (3, 6), (4, 4)):
        for n in range(0, top + 1):
            assert embed_prob_exact(alternating_word(n), M) == \
                vn_recursion(M, n)[n]


def test_recursion_values():
    vals = vn_recursion(2, 4)
    assert vals == [Fraction(1), Fraction(3, 4), Fraction(5, 8),
                    Fraction(17, 32), Fraction(29, 64)]
    par = recursion_params(2)
    assert (par.alpha, par.beta) == (Fraction(3, 4), Fraction(1, 4))
    assert (par.b, par.c) == (Fraction(1), Fraction(1, 8))


@given(st.integers(2, 10))
def test_recursion_monotone_and_bounded(M):
    vals = vn_recursion(M, 30)
    assert all(0 < v <= 1 for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


@given(st.lists(st.integers(0, 1), min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_probability_monotone_in_gap_bound(vl):
    v = Word.from_letters(vl)
    ps = [embed_prob_exact(v, M) for M in range(1, 16 // len(vl) + 1)]
    assert all(a <= b for a, b in zip(ps, ps[1:]))


@given(st.lists(st.integers(0, 1), min_size=1, max_size=4), st.integers(1, 4))
def test_probability_complement_symmetric(vl, M):
    if len(vl) * M > 24:
        return
    v = Word.from_letters(vl)
    assert embed_prob_exact(v, M) == embed_prob_exact(v.complement(), M)


def test_char_roots_identities():
    for M in range(2, 13):
        par = recursion_params(M)
        r = char_roots(M)
        assert 0 < r.r_small < r.r_large < 1
        assert r.r_small + r.r_large == pytest.approx(float(par.b), rel=1e-12)
        assert r.r_small * r.r_large == pytest.approx(float(par.c), rel=1e-9)


def test_char_roots_past_the_exact_bound_are_the_limits():
    # the exact path rounds to the M -> oo limits from M = 1086 on, so past
    # M = 1100 char_roots returns them without building 2^M denominators
    limits = lambda M: CharRoots(M, 0.0, 1.0, 1.0)
    assert char_roots(1085) != limits(1085)
    for M in (1086, 1100, 1101, 10**7, 10**23):
        assert char_roots(M) == limits(M)


def test_char_roots_track_recursion_decay():
    # v_{n+1}/v_n approaches the larger root once the smaller one dies out
    for M in (2, 3, 5):
        vals = vn_recursion(M, 40)
        ratio = float(vals[40] / vals[39])
        assert ratio == pytest.approx(char_roots(M).r_large, rel=1e-6)


def test_mean_embeddings_closed_form():
    for M in range(1, 6):
        for n in range(0, 12 // (M + 1) + 1):
            assert mean_embeddings(n, M) == brute_mean_embeddings(n, M)
    assert mean_embeddings(12, 2) == 1


def test_second_moment_matches_brute_force():
    for n, M in ((0, 2), (1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3),
                 (3, 3), (2, 4)):
        assert second_moment_ratio(n, M) == brute_second_moment_ratio(n, M)


def test_second_moment_small_values():
    assert second_moment_ratio(0, 2) == 1
    assert second_moment_ratio(1, 2) == Fraction(3, 2)
    assert second_moment_ratio(2, 2) == Fraction(17, 8)


def test_moment_report_growth():
    rep = moment_report(3, 2)
    assert rep.mean == 1
    assert rep.growth_estimate == pytest.approx(
        float(second_moment_ratio(3, 2) / second_moment_ratio(2, 2)))
    assert moment_report(0, 2).growth_estimate is None


def test_moment_report_is_one_pass_of_two_ratios():
    for M in range(1, 5):
        for n in range(0, 13):
            rep = moment_report(n, M)
            ratio = second_moment_ratio(n, M)
            assert rep.second_moment_ratio == ratio
            if n == 0:
                assert rep.growth_estimate is None
            else:
                assert rep.growth_estimate == \
                    float(ratio / second_moment_ratio(n - 1, M))


def test_extremal_scan_small():
    rep = extremal_scan(4, 2)
    assert len(rep.table) == 16
    probs = dict(rep.table)
    assert alternating_word(4) in rep.best_words
    assert rep.best_probability == probs[alternating_word(4)]
    assert rep.worst_probability == min(probs.values())
    for w in rep.worst_words:
        assert probs[w] == rep.worst_probability
    # complement pairs always tie
    for w, pr in rep.table:
        assert probs[w.complement()] == pr


def test_extremal_scan_matches_enumeration():
    for n, M in ((8, 2), (5, 3), (4, 4)):
        rep = extremal_scan(n, M)
        counts = enum_embed_counts(list(range(1 << n)), n, M)
        assert rep.table == tuple(
            (Word(bits, n), Fraction(c, 2 ** (M * n)))
            for bits, c in enumerate(counts)
        )


def test_budget_refusals():
    # 2**24 words of 24 letters each need at least 24 * 2**24 mask-steps
    with pytest.raises(BudgetError):
        extremal_scan(24, 1)
    # exact mask-step counts: live states summed over the letters of y
    # (24 for alternating-4 at M = 2, 104 over the 3/2 scan), M masks each
    ALT4_M2_STEPS = 2 * 24
    SCAN_3_2_STEPS = 2 * 104
    with pytest.raises(BudgetError):
        embed_prob_exact(alternating_word(4), 2, budget=ALT4_M2_STEPS - 1)
    assert embed_prob_exact(alternating_word(4), 2, budget=ALT4_M2_STEPS) \
        == vn_recursion(2, 4)[4]
    with pytest.raises(BudgetError):
        extremal_scan(3, 2, budget=SCAN_3_2_STEPS - 1)
    assert len(extremal_scan(3, 2, budget=SCAN_3_2_STEPS).table) == 8
    with pytest.raises(ValueError):
        embed_prob_exact(alternating_word(4), 2, budget=-1)
    with pytest.raises(ValueError):
        extremal_scan(3, 2, budget=-1)


def test_mirrored_half_matches_single_words():
    # the scan runs the automaton only on words with v_1 = 0; every row
    # with v_1 = 1 is copied from its complement
    for n in range(0, 8):
        for M in (2, 3, 4):
            for w, pr in extremal_scan(n, M).table:
                if n == 0 or w.bits & 1:
                    assert pr == embed_prob_exact(w, M), (n, M, w)
    assert extremal_scan(0, 2).table == ((Word(0, 0), Fraction(1)),)
    assert extremal_scan(1, 3).table == ((Word(0, 1), Fraction(7, 8)),
                                         (Word(1, 1), Fraction(7, 8)))


def _least_budget(run) -> int:
    """The smallest budget at which run(budget) raises no BudgetError."""
    lo, hi = -1, 1
    while True:
        try:
            run(hi)
            break
        except BudgetError:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            run(mid)
            hi = mid
        except BudgetError:
            lo = mid
    return hi


def test_scan_budget_is_the_sum_of_word_budgets():
    # mirrored words are charged as if the automaton ran on them too
    for n, M, steps in ((3, 2, 208), (5, 3, 14034), (6, 2, 7940)):
        scan = _least_budget(lambda b: extremal_scan(n, M, budget=b))
        words = sum(_least_budget(lambda b: embed_prob_exact(Word(bits, n), M,
                                                             budget=b))
                    for bits in range(1 << n))
        assert scan == words == steps


def test_mc_deterministic_and_calibrated():
    rng = RngSpec(2024)
    v = alternating_word(4)
    a = embed_prob_mc(v, 2, 4000, rng)
    b = embed_prob_mc(v, 2, 4000, rng)
    assert a == b
    exact = float(embed_prob_exact(v, 2))
    assert abs(a.mean - exact) <= 4 * a.stderr


def test_mc_workers_agree():
    rng = RngSpec(7)
    v = alternating_word(5)
    a = embed_prob_mc(v, 2, 1500, rng, workers=1)
    b = embed_prob_mc(v, 2, 1500, rng, workers=3)
    assert a == b


def test_survival_mc_deterministic():
    rng = RngSpec(11)
    a = embed_survival_mc(2, 6, 0.5, 0.5, 2000, rng)
    b = embed_survival_mc(2, 6, 0.5, 0.5, 2000, rng, workers=2)
    assert a == b
    with pytest.raises(ValueError):
        embed_survival_mc(2, 6, 1.5, 0.5, 10, rng)


def test_survival_mc_matches_scan_average():
    # P(random X embeds) averages the per-word exact table
    rng = RngSpec(3)
    n, M = 6, 2
    rep = extremal_scan(n, M)
    avg = float(sum(pr for _, pr in rep.table) / len(rep.table))
    est = embed_survival_mc(M, n, 0.5, 0.5, 6000, rng)
    assert abs(est.mean - avg) <= 4 * est.stderr


def _oracle(replica, replicas, rng, **params):
    return Estimate.from_samples(
        [replica(rng.stream(k), **params) for k in range(replicas)], rng)


# Blocks hold BLOCK_LETTERS // (M*n) replicas for a fixed word and
# BLOCK_LETTERS // (n + M*n) for a random one: the counts sit on both sides
# of one and of two block boundaries.
_N, _M = 60, 5
_FIXED_ROWS = BLOCK_LETTERS // (_M * _N)
_RANDOM_ROWS = BLOCK_LETTERS // (_N + _M * _N)


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_block_mc_equals_per_replica_oracle(p):
    rng = RngSpec(41)
    v = Word.from_letters((i * i + i // 3) % 2 for i in range(_N))
    for n, M, replicas in ((0, 2, 1), (0, 2, 9), (_N, _M, _FIXED_ROWS),
                           (_N, _M, _FIXED_ROWS + 1),
                           (_N, _M, 2 * _FIXED_ROWS + 1)):
        w = Word(v.bits & ((1 << n) - 1), n)
        want = _oracle(fixed_word_replica, replicas, rng,
                       v_letters=w.letters(), M=M, p_y=p)
        if p == 0.3 and n:
            assert 0 < want.mean < 1            # both outcomes occur
        for workers in (1, 2, 3):
            assert embed_prob_mc(w, M, replicas, rng, p_y=p,
                                 workers=workers) == want
    for n, M, replicas in ((0, 2, 9), (_N, _M, _RANDOM_ROWS),
                           (_N, _M, _RANDOM_ROWS + 1),
                           (_N, _M, 2 * _RANDOM_ROWS + 1)):
        want = _oracle(survival_replica, replicas, rng, n=n, M=M, p_x=p,
                       p_y=p)
        if p == 0.3 and n:
            assert 0 < want.mean < 1
        for workers in (1, 2, 3):
            assert embed_survival_mc(M, n, p, p, replicas, rng,
                                     workers=workers) == want


def test_survival_mc_rejects_negative_n():
    with pytest.raises(ValueError, match="n must be >= 0"):
        embed_survival_mc(2, -1, 0.5, 0.5, 10, RngSpec(0))
