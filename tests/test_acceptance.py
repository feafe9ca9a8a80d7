"""Release acceptance gate.

One test per acceptance criterion, in a fixed order, each reporting a
single PASS/FAIL line in the terminal summary.  Instance sizes, seeds and
tolerances are pinned: Monte Carlo checks use 3 standard errors unless
stated otherwise, and the pinned seeds were verified once and frozen.

This module is slower than the unit tests (minutes).  Run it alone with

    pytest tests/test_acceptance.py
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

import clairvoyant as cv
from clairvoyant import cli
from clairvoyant.rng import RngSpec

from oracles import (brute_path_survives, brute_visible_words,
                     deletion_compatible)


def _record(config, status, cid, desc):
    lines = getattr(config, "_acceptance_lines", None)
    if lines is None:
        lines = []
        config._acceptance_lines = lines
    lines.append("%s %s  %s" % (cid, status, desc))


@contextmanager
def criterion(request, cid, desc):
    try:
        yield
    except BaseException:
        _record(request.config, "FAIL", cid, desc)
        raise
    _record(request.config, "PASS", cid, desc)


@pytest.fixture(scope="module")
def scan_tables():
    """Exact scan tables shared by the extremal-word criteria."""
    t0 = time.time()
    tables = {}
    for n in range(1, 11):
        tables[(n, 2)] = cv.extremal_scan(n, 2)
    for n in range(1, 8):
        tables[(n, 3)] = cv.extremal_scan(n, 3)
    return tables, time.time() - t0


def test_a01_recursion_equals_enumeration(request):
    with criterion(request, "A01", "alternating-word recursion matches exact "
                   "enumeration for n <= 8 at M = 2, within one minute"):
        t0 = time.time()
        vals = cv.vn_recursion(2, 8)
        assert vals[2] == Fraction(5, 8)
        for n in range(0, 9):
            exact = cv.embed_prob_exact(cv.alternating_word(n), 2)
            assert exact == vals[n]
        assert time.time() - t0 < 60.0


def test_a02_alternating_maximizes_at_m2(request, scan_tables):
    tables, elapsed = scan_tables
    with criterion(request, "A02", "full scans at M = 2, n <= 10: every word "
                   "is bounded by the alternating word, which attains the "
                   "maximum; scans stay under ten minutes"):
        assert elapsed < 600.0
        for n in range(1, 11):
            rep = tables[(n, 2)]
            a = cv.alternating_word(n)
            probs = dict(rep.table)
            assert len(rep.table) == 2**n
            assert all(pr <= probs[a] for _, pr in rep.table)
            assert a in rep.best_words
            assert rep.best_probability == probs[a]


def test_a03_constant_minimizes(request, scan_tables):
    tables, _ = scan_tables
    with criterion(request, "A03", "constant words attain the scan minimum "
                   "for n <= 10 at M = 2 and n <= 7 at M = 3"):
        for (n, M), rep in tables.items():
            probs = dict(rep.table)
            for letter in (0, 1):
                c = cv.constant_word(n, letter=letter)
                assert c in rep.worst_words
                assert probs[c] == rep.worst_probability


def test_a04_mean_embeddings_closed_form(request):
    with criterion(request, "A04", "mean embedding count equals (M/2)^n for "
                   "n <= 12, M <= 5, and equals 1 at M = 2"):
        for M in range(1, 6):
            for n in range(0, 13):
                assert cv.mean_embeddings(n, M) == Fraction(M, 2) ** n
        for n in range(0, 13):
            assert cv.mean_embeddings(n, 2) == 1


def test_a05_second_moment_growth(request):
    with criterion(request, "A05", "normalized second moment at M = 2 is >= 1, "
                   "strictly increasing to n = 8, with stabilizing growth "
                   "above 1"):
        frozen = [
            Fraction(1),
            Fraction(3, 2),
            Fraction(17, 8),
            Fraction(47, 16),
            Fraction(513, 128),
            Fraction(1389, 256),
            Fraction(7485, 1024),
            Fraction(20103, 2048),
            Fraction(431009, 32768),
        ]
        ratios = [cv.second_moment_ratio(n, 2) for n in range(9)]
        assert ratios == frozen
        assert all(r >= 1 for r in ratios)
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        growth = [float(b / a) for a, b in zip(ratios, ratios[1:])]
        assert growth[-1] > 1
        assert abs(growth[-1] - growth[-2]) < abs(growth[2] - growth[1])
        assert 1.2 < growth[-1] < 1.5


def test_a06_characteristic_roots(request):
    with criterion(request, "A06", "characteristic roots split around 1/2 for "
                   "M in 2..12 and the rescaled gap at M = 12 lies in "
                   "[0.8, 1.2]"):
        for M in range(2, 13):
            par = cv.recursion_params(M)
            r = cv.char_roots(M)
            assert 0 < r.r_small < 0.5 < r.r_large < 1
            # residual of the exact quadratic at the float roots; exact
            # arithmetic keeps this meaningful right next to 1
            for root in (r.r_small, r.r_large):
                res = Fraction(root) ** 2 - par.b * Fraction(root) + par.c
                assert abs(res) < Fraction(1, 10**12)
        assert 0.8 <= cv.char_roots(12).health <= 1.2


def test_a07_monte_carlo_matches_recursion(request):
    with criterion(request, "A07", "10^5 replicas reproduce the n = 20, M = 3 "
                   "alternating probability within three standard errors"):
        rng = RngSpec(1)
        truth = float(cv.vn_recursion(3, 20)[20])
        est = cv.embed_prob_mc(cv.alternating_word(20), 3, 100_000, rng,
                               workers=4)
        assert abs(est.mean - truth) <= 3 * est.stderr
        # scale note, reported rather than asserted: decay per letter vs
        # the dominant root
        per_letter = est.mean ** (1 / 20)
        print("A07 note: per-letter decay %.6f vs dominant root %.6f"
              % (per_letter, cv.char_roots(3).r_large))


def test_a08_three_wise_but_not_four_wise(request):
    with criterion(request, "A08", "grid openness is 3-wise product-form on "
                   "the 3x3 window for M in {2,3,4}, and fails 4-wise on the "
                   "2x2 rectangle at M = 4 with 21/64 against 81/256"):
        window = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
        for M in (2, 3, 4):
            for triple in combinations(window, 3):
                pmf = cv.kwise_joint(list(triple), M)
                assert cv.kwise_test(pmf, 3).independent, (M, triple)
        rect = [(1, 1), (1, 2), (2, 1), (2, 2)]
        pmf = cv.kwise_joint(rect, 4)
        assert pmf.probs[(1, 1, 1, 1)] == Fraction(21, 64)
        prod = Fraction(1)
        for i in range(4):
            prod *= pmf.prob_one(i)
        assert prod == Fraction(81, 256)
        assert not cv.kwise_test(pmf, 4).independent


def test_a09_alphabet_coupling_holds(request):
    with criterion(request, "A09", "10^3 paired samples at depth 50: reducing "
                   "{1..4} onto {1..2} never opens a closed vertex and never "
                   "revives a dead grid"):
        rep = cv.coupling_check(2, 2, 50, 1000, RngSpec(0), workers=4)
        assert rep.samples == 1000
        assert rep.reduced_survivals <= rep.big_survivals


def test_a10_survival_dp_matches_enumeration(request):
    with criterion(request, "A10", "directed survival DP agrees with "
                   "exhaustive path enumeration on 200 random grids, "
                   "depth <= 12, M in {3, 4}"):
        rng = RngSpec(0)
        for k in range(200):
            M = 3 + (k % 2)
            depth = 1 + k % 12
            grid = cv.sample_grid(M, depth, rng.stream(k))
            wit = cv.directed_survival(grid, depth)
            assert (wit is not None) == brute_path_survives(grid, depth)
            if wit is not None:
                assert cv.validate_path(wit, grid)


def test_a11_compatibility_dp_oracle_and_certificates(request):
    with criterion(request, "A11", "compatibility DP equals the deletion "
                   "oracle on all pairs up to length 6 plus 500 random "
                   "pairs up to length 10; 10^4 majority certificates at "
                   "density 0.6 show no soundness violation"):
        for nx in range(1, 7):
            for ny in range(1, 7):
                for xb in range(1 << nx):
                    x = cv.Word(xb, nx)
                    for yb in range(1 << ny):
                        y = cv.Word(yb, ny)
                        assert cv.compatible(x, y) \
                            == deletion_compatible(list(x), list(y))
        g = RngSpec(0).generator()
        for _ in range(500):
            nx = int(g.integers(1, 11))
            ny = int(g.integers(1, 11))
            x = cv.Word.from_letters((g.random(nx) < 0.5).astype(int))
            y = cv.Word.from_letters((g.random(ny) < 0.5).astype(int))
            assert cv.compatible(x, y) \
                == deletion_compatible(list(x), list(y))
        certs = 0
        for k in range(10_000):
            gg = RngSpec(1).stream(k).generator()
            draws = gg.random(200)
            x = cv.Word.from_letters((draws[:100] < 0.6).astype(int))
            y = cv.Word.from_letters((draws[100:] < 0.6).astype(int))
            cert = cv.majority_certificate(x, y)
            if cert is not None:
                certs += 1
                assert not cv.compatible(x.prefix(cert.N), y.prefix(cert.N))
        assert certs > 0
        print("A11 note: %d of 10000 pairs carried a certificate" % certs)


def test_a12_compatibility_probability_decays(request):
    with criterion(request, "A12", "10^4 coupled replicas at density 1/2 give "
                   "strictly decreasing compatibility estimates over horizons "
                   "25, 50, 100, 200, ending below 0.05"):
        rng = RngSpec(1)
        ests = [cv.psi_mc(0.5, n, 10_000, rng, workers=4)
                for n in (25, 50, 100, 200)]
        means = [e.mean for e in ests]
        assert all(a > b for a, b in zip(means, means[1:])), means
        assert means[-1] < 0.05


def test_a13_block_formula_matches_simulation(request):
    with criterion(request, "A13", "good-block frequency over 10^5 blocks "
                   "matches the closed formula within three standard errors "
                   "for p in {1/4, 1/2, 3/4} x R in {1, 2, 3}; the value at "
                   "(1/2, 2) is exactly 7/8"):
        assert cv.block_good_prob(Fraction(1, 2), 2) == Fraction(7, 8)
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            for R in (1, 2, 3):
                est = cv.block_good_mc(float(p), R, 100_000, RngSpec(0),
                                       workers=4)
                truth = float(cv.block_good_prob(p, R))
                assert abs(est.mean - truth) <= 3 * est.stderr + 1e-12, (p, R)


def test_a14_block_paths_embed_long_words(request):
    with criterion(request, "A14", "100 path-bearing fields at p = 1/2, "
                   "R = 3 each embed a random 100-letter word with a valid "
                   "witness at gap bound 15; adjacent-block cell gaps never "
                   "exceed 5R"):
        rng = RngSpec(0)
        found = 0
        attempts = 0
        while found < 100:
            assert attempts < 130, "path-bearing fields are too rare"
            field = cv.sample_field(0.5, 101 * 3, 201 * 3,
                                    rng.stream(attempts))
            attempts += 1
            path = cv.block_percolation(field, 3, 100)
            if path is None:
                continue
            w = cv.bernoulli_word(100, 0.5, rng.stream(100_000 + attempts))
            wit = cv.embed_word_2d(w, field, 3, path)
            assert wit.gap_bound == 15
            assert cv.validate_embedding_2d(wit, w, field)
            found += 1
        print("A14 note: %d fields sampled for 100 paths" % attempts)
        for R in (1, 2, 3):
            for ti, tj in cv.block_relation_targets((1, 1)):
                for a, b, c, d in product(range(1, R + 1), repeat=4):
                    dm = (ti - 1) * R + c - a
                    dn = (tj - 1) * R + d - b
                    assert dm >= 1 and dn >= 1 and dm + dn <= 5 * R


def test_a15_visible_word_search_is_exact(request):
    with criterion(request, "A15", "budgetless visibility search equals "
                   "exhaustive self-avoiding-walk enumeration on 4x4 boxes "
                   "for all three lattices over 100 random configurations"):
        for k in range(100):
            g = RngSpec(2).stream(k).generator()
            cells = (g.random((4, 4)) < g.uniform(0.25, 0.75)).astype(np.uint8)
            origin = (int(g.integers(0, 4)), int(g.integers(0, 4)))
            for kind in cv.LatticeKind:
                seen = brute_visible_words(cells, kind.offsets, origin, 4)
                for n in range(1, 5):
                    for wl in product((0, 1), repeat=n):
                        got = cv.visible_word(cells, kind, origin,
                                              cv.Word.from_letters(wl))
                        want = cv.Visibility.FOUND if wl in seen \
                            else cv.Visibility.ABSENT
                        assert got is want


def test_a16_alternating_beats_constant_on_triangular(request):
    with criterion(request, "A16", "on the triangular lattice at p = 1/2, "
                   "box radius 60, 10^3 replicas: the alternating word is "
                   "visible more often than the constant word by over five "
                   "combined standard errors"):
        rep = cv.ab_scan(0.5, 60, 1000, RngSpec(0), workers=4)
        gap = rep.alternating.mean - rep.constant.mean
        se = math.hypot(rep.alternating.stderr, rep.constant.stderr)
        assert gap > 5 * se, (rep.alternating.mean, rep.constant.mean)
        print("A16 note: alt %.3f vs const %.3f, %.1f standard errors, "
              "exhausted %d/%d"
              % (rep.alternating.mean, rep.constant.mean, gap / se,
                 rep.alternating_exhausted, rep.constant_exhausted))


def test_a17_outputs_independent_of_worker_count(request, tmp_path):
    with criterion(request, "A17", "rerunning under one master seed with "
                   "1, 2 and 4 workers produces byte-identical outputs"):
        cases = [
            ["compat", "mc", "--p", "1/2", "--n", "40", "--replicas", "600",
             "--seed", "9"],
            ["schedule", "curve", "--M", "2", "--depths", "2,6", "--replicas",
             "600", "--seed", "9"],
            ["lattice", "abscan", "--p", "1/2", "--box", "5", "--replicas",
             "120", "--seed", "9"],
            ["embed", "mc", "--M", "2", "--n", "8", "--target", "random",
             "--replicas", "600", "--seed", "9"],
        ]
        for ci, argv in enumerate(cases):
            payloads = set()
            for workers in (1, 2, 4):
                out = tmp_path / ("c%d_w%d.csv" % (ci, workers))
                code = cli.main(argv + ["--workers", str(workers),
                                        "--out", str(out)])
                assert code == 0
                payloads.add(out.read_bytes())
            assert len(payloads) == 1, argv
