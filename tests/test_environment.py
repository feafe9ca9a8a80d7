from fractions import Fraction

import numpy as np
import pytest

from clairvoyant.environment import (
    FiniteDistribution,
    JointPmf,
    column_percolation_mc,
    crosses_horizontally,
    kwise_test,
    product_pmf,
    sample_environment,
)
from clairvoyant.rng import RngSpec

from oracles import brute_crossing


def xor_pmf():
    # (A, B, A xor B) with A, B fair coins: pairwise independent, not 3-wise
    probs = {}
    for a in (0, 1):
        for b in (0, 1):
            probs[(a, b, a ^ b)] = Fraction(1, 4)
    return JointPmf(("a", "b", "a^b"), probs)


def test_joint_pmf_validation():
    with pytest.raises(ValueError):
        JointPmf(("a",), {(0, 1): Fraction(1)})
    with pytest.raises(ValueError):
        JointPmf(("a",), {(2,): Fraction(1)})
    with pytest.raises(ValueError):
        JointPmf(("a",), {(0,): Fraction(1, 2)})
    with pytest.raises(ValueError):
        JointPmf(("a",), {(0,): Fraction(-1, 2), (1,): Fraction(3, 2)})


def test_marginals():
    pmf = xor_pmf()
    assert pmf.k == 3
    for i in range(3):
        assert pmf.prob_one(i) == Fraction(1, 2)
    pair = pmf.marginal((0, 2))
    assert pair.probs[(0, 0)] == Fraction(1, 4)
    assert pair.labels == ("a", "a^b")


def test_product_pmf_is_fully_independent():
    pmf = product_pmf([Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)])
    for k in (1, 2, 3):
        assert kwise_test(pmf, k).independent


def test_xor_pmf_is_pairwise_only():
    pmf = xor_pmf()
    assert kwise_test(pmf, 2).independent
    rep = kwise_test(pmf, 3)
    assert not rep.independent
    assert rep.worst.subset == (0, 1, 2)
    assert abs(rep.worst.joint - rep.worst.expected) == Fraction(1, 8)


def test_kwise_test_bounds():
    pmf = xor_pmf()
    with pytest.raises(ValueError):
        kwise_test(pmf, 0)
    with pytest.raises(ValueError):
        kwise_test(pmf, 4)


def test_finite_distribution_parse_round_trip():
    mu = FiniteDistribution.parse("1/4:1/2, 3/4:1/2")
    assert mu.points == (Fraction(1, 4), Fraction(3, 4))
    assert FiniteDistribution.parse(str(mu)) == mu
    pm = FiniteDistribution.point_mass(Fraction(2, 3))
    assert str(pm) == "2/3:1"
    with pytest.raises(ValueError):
        FiniteDistribution.parse("1/2")
    with pytest.raises(ValueError):
        FiniteDistribution((Fraction(1, 2),), (Fraction(1, 2),))
    with pytest.raises(ValueError):
        FiniteDistribution((Fraction(3, 2),), (Fraction(1),))


def test_sample_environment():
    mu = FiniteDistribution.parse("1/4:1/2,3/4:1/2")
    rng = RngSpec(400)
    env = sample_environment(mu, 30, rng)
    assert env.config.shape == (30, 30)
    assert set(np.unique(env.densities)) <= {0.25, 0.75}
    again = sample_environment(mu, 30, rng)
    assert (env.densities == again.densities).all()
    assert (env.config == again.config).all()
    pm = sample_environment(FiniteDistribution.point_mass(Fraction(1, 3)), 10,
                            rng)
    assert (pm.densities == 1 / 3).all()


def test_crossing_examples():
    full = np.ones((4, 4), dtype=bool)
    assert crosses_horizontally(full)
    assert not crosses_horizontally(np.zeros((4, 4), dtype=bool))
    lane = np.zeros((4, 4), dtype=bool)
    lane[:, 2] = True                    # one open row of constant j
    assert crosses_horizontally(lane)
    wall = np.zeros((4, 4), dtype=bool)
    wall[1, :] = True                    # open column does not cross
    assert not crosses_horizontally(wall)
    bent = np.array([[1, 0, 0],
                     [1, 1, 0],
                     [0, 1, 1]], dtype=bool)
    assert crosses_horizontally(bent)
    # diagonal contact alone must not count
    diag = np.eye(3, dtype=bool)
    assert not crosses_horizontally(diag)


def test_crossing_matches_brute_force():
    rng = RngSpec(410).generator()
    for _ in range(120):
        config = rng.random((5, 5)) < rng.uniform(0.2, 0.8)
        assert crosses_horizontally(config) == brute_crossing(config)
    for _ in range(400):
        shape = tuple(int(v) for v in rng.integers(1, 10, size=2))
        config = rng.random(shape) < rng.uniform(0.2, 0.8)
        assert crosses_horizontally(config) == brute_crossing(config), config


def test_column_percolation_endpoints():
    rng = RngSpec(420)
    sure = column_percolation_mc(FiniteDistribution.point_mass(1), 6, 50, rng)
    assert sure.mean == 1.0
    never = column_percolation_mc(FiniteDistribution.point_mass(0), 6, 50, rng)
    assert never.mean == 0.0


def test_column_percolation_monotone_in_point_mass():
    # point masses draw identical uniforms, so the open sets are nested
    rng = RngSpec(430)
    lo = column_percolation_mc(FiniteDistribution.point_mass(Fraction(2, 5)),
                               12, 250, rng)
    hi = column_percolation_mc(FiniteDistribution.point_mass(Fraction(4, 5)),
                               12, 250, rng)
    assert lo.mean <= hi.mean
    assert lo == column_percolation_mc(
        FiniteDistribution.point_mass(Fraction(2, 5)), 12, 250, rng, workers=2)
