import numpy as np
import pytest
from hypothesis import given, strategies as st

import clairvoyant as cv
from clairvoyant.environment import FiniteDistribution
from clairvoyant.rng import RngSpec
from clairvoyant.runner import chunk_bounds, run_chunked
from clairvoyant.stats import Estimate


def test_rng_reproducible():
    a = RngSpec(1234, 7).generator().random(100)
    b = RngSpec(1234, 7).generator().random(100)
    assert (a == b).all()


def test_rng_streams_differ():
    base = RngSpec(1234)
    draws = [base.stream(k).generator().random(8) for k in range(20)]
    for i in range(20):
        for j in range(i + 1, 20):
            assert not (draws[i] == draws[j]).all()


def test_rng_seed_matters():
    a = RngSpec(1, 0).generator().random(8)
    b = RngSpec(2, 0).generator().random(8)
    assert not (a == b).all()


def test_rng_rejects_negative_stream():
    with pytest.raises(ValueError):
        RngSpec(1, -1)
    assert RngSpec(1).stream(3).stream_id == 3


def test_estimate_from_samples():
    est = Estimate.from_samples([0, 1, 1, 0], RngSpec(0))
    assert est.mean == 0.5
    assert est.replicas == 4
    assert est.stderr == pytest.approx(np.std([0, 1, 1, 0], ddof=1) / 2)
    single = Estimate.from_samples([1], RngSpec(0))
    assert single.stderr == 0.0
    with pytest.raises(ValueError):
        Estimate.from_samples([], RngSpec(0))


def test_estimate_agrees():
    est = Estimate.from_samples([0, 1, 1, 1], RngSpec(0))
    assert est.agrees(est.mean)
    assert est.agrees(est.mean + 2 * est.stderr)
    assert not est.agrees(est.mean + 4 * est.stderr)
    exact = Estimate.from_samples([1, 1, 1], RngSpec(0))
    assert exact.agrees(1.0)          # zero spread still matches itself


@given(st.integers(1, 500), st.integers(1, 16))
def test_chunk_bounds_partition(replicas, workers):
    bounds = chunk_bounds(replicas, workers)
    assert bounds[0][0] == 0
    assert bounds[-1][1] == replicas
    for (a, b), (c, d) in zip(bounds, bounds[1:]):
        assert b == c and a < b and c < d
    sizes = [b - a for a, b in bounds]
    assert max(sizes) - min(sizes) <= 1
    assert len(bounds) == min(replicas, workers)


def test_chunk_bounds_validation():
    with pytest.raises(ValueError):
        chunk_bounds(0, 2)
    with pytest.raises(ValueError):
        chunk_bounds(5, 0)


def _identity_chunk(lo, hi):
    return np.arange(lo, hi)


def test_run_chunked_order_independent_of_workers():
    want = np.arange(137)
    for workers in (1, 2, 5, 8):
        got = run_chunked(_identity_chunk, 137, workers)
        assert (got == want).all()


# Integer outcomes of every Monte Carlo entry point at small sizes, recorded
# before the per-replica loops were merged into the runner: success counts,
# per-depth counts for survival curves, and found/exhausted counts for the
# AB scan.  They must not move with the code or with the worker count.
PINNED = {
    "embed_prob_mc": 75,
    "embed_survival_mc": 54,
    "survival_curve_mc": [100, 75, 55, 38, 24],
    "coupling_check": (31, 56),
    "undirected_mc": 64,
    "psi_mc": 15,
    "ab_scan": (39, 37, 1, 3),
    "block_good_mc": 268,
    "column_percolation_mc": 46,
}


def _successes(est):
    return round(est.mean * est.replicas)


@pytest.mark.parametrize("workers", [1, 3])
def test_replica_kernels_pinned(workers):
    ab = cv.ab_scan(0.5, 6, 40, RngSpec(17), budget=8, workers=workers)
    coupling = cv.coupling_check(3, 2, 12, 60, RngSpec(14), workers=workers)
    mu = FiniteDistribution.parse("0.4:1/2,0.8:1/2")
    got = {
        "embed_prob_mc": _successes(cv.embed_prob_mc(
            cv.alternating_word(6), 2, 200, RngSpec(11), workers=workers)),
        "embed_survival_mc": _successes(cv.embed_survival_mc(
            2, 6, 0.5, 0.5, 200, RngSpec(12), workers=workers)),
        "survival_curve_mc": [_successes(e) for e in cv.survival_curve_mc(
            3, [0, 3, 6, 12, 24], 100, RngSpec(13), workers=workers)],
        "coupling_check": (coupling.reduced_survivals,
                           coupling.big_survivals),
        "undirected_mc": _successes(cv.undirected_mc(
            3, 5, 100, RngSpec(15), workers=workers)),
        "psi_mc": _successes(cv.psi_mc(0.5, 20, 200, RngSpec(16),
                                       workers=workers)),
        "ab_scan": (_successes(ab.alternating), _successes(ab.constant),
                    ab.alternating_exhausted, ab.constant_exhausted),
        "block_good_mc": _successes(cv.block_good_mc(
            0.5, 2, 300, RngSpec(18), workers=workers)),
        "column_percolation_mc": _successes(cv.column_percolation_mc(
            mu, 6, 100, RngSpec(19), workers=workers)),
    }
    assert got == PINNED
