import os
import pickle
import signal
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

import clairvoyant as cv
from clairvoyant import cli, compatibility, rng, scheduling
from clairvoyant.errors import BudgetError, PropertyViolation
from clairvoyant.environment import FiniteDistribution
from clairvoyant.rng import RngSpec
from clairvoyant.runner import (BLOCK_LETTERS, PerBlock, PerReplica,
                                chunk_bounds, run_chunked, workers_used)
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
    with pytest.raises(ValueError):
        next(RngSpec(1).generators(-1, 2))
    with pytest.raises(ValueError):
        next(RngSpec(1).generators(0, 2, streams=0))
    assert list(RngSpec(1).generators(3, 3)) == []


def _fresh(seed, k):
    key = np.array([seed % 2**64, k], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


_DRAWS = (
    lambda g: g.random(7),
    lambda g: g.integers(0, 10, size=9),
    lambda g: g.integers(-5, 300, size=6, dtype=np.int32),
    lambda g: g.random((3, 4)),
    lambda g: g.uniform(2.0, 5.0, size=5),
)


@pytest.mark.parametrize("seed", [1, 2**64 - 1, -3])
def test_reused_generator_draws_equal_fresh_philox(seed):
    for k in range(200):
        for draw in _DRAWS:
            assert (draw(RngSpec(seed, k).generator())
                    == draw(_fresh(seed, k))).all()


def test_held_generator_keeps_its_stream():
    held = RngSpec(5, 1).generator()
    first = held.random(3)
    other = RngSpec(5, 2).generator()
    assert other is not held
    other.random(10)
    del other
    RngSpec(5, 3).generator().random(10)
    ref = _fresh(5, 1)
    assert (first == ref.random(3)).all()
    assert (held.random(4) == ref.random(4)).all()


def test_held_bit_generator_keeps_its_stream():
    bits = RngSpec(5, 4).generator().bit_generator
    first = bits.random_raw(2)
    RngSpec(5, 6).generator().random(10)
    RngSpec(5, 7).generator().random(10)
    ref = _fresh(5, 4).bit_generator
    assert (first == ref.random_raw(2)).all()
    assert (bits.random_raw(3) == ref.random_raw(3)).all()


def _one_off(offset):
    for k in range(offset, 400, 4):
        yield k, RngSpec(9, k).generator()


def _rewound(offset):
    lo = 100 * offset
    for k, (g,) in enumerate(RngSpec(9).generators(lo, lo + 100), lo):
        yield k, g


def test_generator_reuse_across_threads():
    # four threads ask for streams at a fine switch interval; a generator
    # rewound under a thread that holds it would give that thread wrong draws
    want = {k: _fresh(9, k).random(6) for k in range(400)}
    bad = []

    def work(offset):
        for draws in (_one_off, _rewound):
            for k, g in draws(offset):
                first = g.random(3)
                if not ((first == want[k][:3]).all()
                        and (g.random(3) == want[k][3:]).all()):
                    bad.append((draws.__name__, k))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


@pytest.mark.parametrize("seed", [1, 2**64 - 1, -3])
def test_bernoulli_rows_equal_per_stream_draws(seed):
    probs = np.array([[0.0, 0.3], [0.7, 1.0], [0.5, 0.5]])
    rows = RngSpec(seed).bernoulli_rows(3, 40, probs)
    assert rows.shape == (37, 3, 2) and rows.dtype == bool
    for i, row in enumerate(rows):
        assert (row == (_fresh(seed, 3 + i).random((3, 2)) < probs)).all()
    assert RngSpec(seed).bernoulli_rows(4, 4, probs).shape == (0, 3, 2)
    assert RngSpec(seed).bernoulli_rows(0, 3, np.ones(0)).shape == (3, 0)
    odd = np.array([np.nan, -0.5, 1.5, np.inf, -np.inf, 5e-324])
    for i, row in enumerate(RngSpec(seed).bernoulli_rows(0, 20, odd)):
        assert (row == (_fresh(seed, i).random(6) < odd)).all()
    with pytest.raises(ValueError):
        RngSpec(seed).bernoulli_rows(-1, 2, probs)


def _edge_probs(seed, k, letters):
    # 0, 1, stream k's own uniforms and the next double above them, in turn:
    # row k is false, true, false (u < u) and true (u < nextafter(u))
    u = _fresh(seed, k).random(letters)
    probs = u.copy()
    probs[0::4] = 0.0
    probs[1::4] = 1.0
    probs[3::4] = np.nextafter(u[3::4], np.inf)
    return probs


@pytest.mark.parametrize("seed", [1, 2**64 - 1, -3])
@pytest.mark.parametrize("letters", [0, 1, 3, 4, 5, 60, 5000,
                                     rng.BATCHED_LETTERS,
                                     rng.BATCHED_LETTERS + 1])
def test_bernoulli_rows_equal_fresh_philox(seed, letters):
    for lo in (0, 2**64 - 6):           # stream ids up to 2^64 - 1
        probs = _edge_probs(seed, lo + 2, letters)
        rows = RngSpec(seed).bernoulli_rows(lo, lo + 6, probs)
        assert rows.shape == (6, letters)
        for i, row in enumerate(rows):
            assert (row == (_fresh(seed, lo + i).random(letters)
                            < probs)).all()
        want = [False, True, False, True] * (letters // 4 + 1)
        assert rows[2].tolist() == want[:letters]


def test_bernoulli_rows_of_many_short_streams_equal_fresh_philox():
    # 10^5 rows of 9 letters: 3 lanes a row, so several passes of _LANES
    probs = np.linspace(0.05, 0.95, 9)
    assert 10**5 * 3 > 4 * rng._LANES
    rows = RngSpec(7).bernoulli_rows(0, 10**5, probs)
    want = np.array([_fresh(7, k).random(9) for k in range(10**5)]) < probs
    assert np.array_equal(rows, want)


def _int32_then_buffer_crossing(*gens):
    # 3 int32 draws leave a spare half-word (has_uint32 set), then 7
    # uniforms cross the 4-word output buffer.  The range is a power of 2,
    # where Lemire's method keeps every 32-bit draw, a stale zero included
    return tuple(np.concatenate([g.integers(0, 2**20, size=3,
                                            dtype=np.int32),
                                 g.random(7)]) for g in gens)


@pytest.mark.parametrize("streams", [1, 2])
def test_generators_rewind_after_int32_and_buffer_crossing(streams):
    for lo, hi in ((0, 6), (2**64 // streams - 4, 2**64 // streams)):
        got = [_int32_then_buffer_crossing(*gens)
               for gens in RngSpec(3).generators(lo, hi, streams=streams)]
        want = [_int32_then_buffer_crossing(*(_fresh(3, streams * k + i)
                                              for i in range(streams)))
                for k in range(lo, hi)]
        for g, w in zip(got, want):
            assert all(np.array_equal(a, b) for a, b in zip(g, w))
        assert len(got) == hi - lo


def test_bernoulli_rows_rewind_no_other_generator():
    held = RngSpec(5, 1).generator()
    first = held.random(3)
    RngSpec(5).bernoulli_rows(0, 50, np.full(8, 0.5))
    ref = _fresh(5, 1)
    assert (first == ref.random(3)).all()
    assert (held.random(4) == ref.random(4)).all()


def test_bernoulli_rows_across_threads():
    # four threads draw blocks at a fine switch interval; a Philox shared
    # by two calls at once would give one of them another stream's draws
    probs = np.full(6, 0.5)
    want = {k: _fresh(9, k).random(6) < probs for k in range(400)}
    bad = []

    def work(offset):
        for lo in range(offset * 5, 400, 20):
            rows = RngSpec(9).bernoulli_rows(lo, lo + 5, probs)
            if any((row != want[lo + i]).any() for i, row in enumerate(rows)):
                bad.append(lo)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def _uniforms(*gens):
    return tuple(g.random() for g in gens)


@pytest.mark.parametrize("streams", [1, 2])
def test_per_replica_row_k_is_its_streams(streams):
    want = [tuple(_fresh(8, streams * k + i).random() for i in range(streams))
            for k in range(40)]
    for workers in (1, 2, 3):
        fn = PerReplica(_uniforms, RngSpec(8), streams=streams)
        got = run_chunked(fn, 40, workers)
        assert list(map(tuple, got.tolist())) == want


def _row_sums(rows):
    return rows.reshape(len(rows), -1).sum(axis=1)


def _bernoulli_block(seed, probs):
    draw = partial(RngSpec(seed).bernoulli_rows, probs=probs)
    return PerBlock(_row_sums, draw, probs.size)


def test_per_block_row_k_is_stream_k():
    probs = np.linspace(0.0, 1.0, 5000)
    assert BLOCK_LETTERS // probs.size < 40      # several blocks a chunk
    want = [(_fresh(8, k).random(5000) < probs).sum() for k in range(40)]
    for workers in (1, 2, 3):
        got = run_chunked(_bernoulli_block(8, probs), 40, workers)
        assert got.tolist() == want


def _integer_draws(g, size):
    return g.integers(0, 1000, size=size)


def _per_replica_block(seed, size):
    return PerBlock(_row_sums, PerReplica(_integer_draws, RngSpec(seed),
                                          size=size), size)


def test_per_block_of_generator_draws_row_k_is_stream_k():
    size = 3000
    assert BLOCK_LETTERS // size < 40            # several blocks a chunk
    want = [_fresh(4, k).integers(0, 1000, size=size).sum()
            for k in range(40)]
    fn = _per_replica_block(4, size)
    for workers in (1, 2, 3):
        assert run_chunked(fn, 40, workers).tolist() == want
    cuts = (0, 1, 4, 25, 40)       # uneven chunks, some inside one block
    assert np.concatenate([fn(a, b) for a, b in zip(cuts, cuts[1:])
                           ]).tolist() == want


def test_chunk_functions_survive_pickling():
    # chunk functions no longer cross a process boundary, since forked
    # children inherit them; the rows and exceptions they give back do.
    # The chunk functions themselves still pickle, kernels and state alike
    probs = np.linspace(0.0, 1.0, 5000)
    for fn in (_bernoulli_block(8, probs), _per_replica_block(4, 3000),
               PerReplica(_uniforms, RngSpec(8), streams=2),
               scheduling._curve_chunk_fn(4, [40, 0, 7], RngSpec(2)),
               scheduling._coupling_chunk_fn(2, 3, 40, RngSpec(2))):
        again = pickle.loads(pickle.dumps(fn))
        assert np.array_equal(again(3, 30), fn(3, 30))


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
    _no_child_left()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raise_in_child(lo, hi, caller, exc):
    if os.getpid() != caller:
        raise exc("chunk %d..%d" % (lo, hi))
    return np.arange(lo, hi)


def _raise_by_chunk(lo, hi):
    if lo > 0:
        raise (ValueError if lo < 20 else PropertyViolation)("from %d" % lo)
    return np.arange(lo, hi)


def _killed_in_child(lo, hi, caller):
    if os.getpid() != caller:
        os.kill(os.getpid(), signal.SIGKILL)
    return np.arange(lo, hi)


def _slow_unless_first(lo, hi):
    if lo == 0:
        raise ValueError("chunk 0")
    time.sleep(60)
    return np.arange(lo, hi)


class _TwoArgError(Exception):
    def __init__(self, what, where):
        super().__init__("%s at %s" % (what, where))


def _unpicklable_in_child(lo, hi, caller, raises):
    if os.getpid() != caller:
        if raises:
            raise _TwoArgError("bad", lo)   # pickles, does not unpickle
        return threading.Lock()
    return np.arange(lo, hi)


@pytest.mark.parametrize("exc", [ValueError, BudgetError, MemoryError,
                                 PropertyViolation, ZeroDivisionError])
def test_child_exception_reaches_caller_with_its_type(exc):
    fn = partial(_raise_in_child, caller=os.getpid(), exc=exc)
    with pytest.raises(exc, match="chunk 20..40"):
        run_chunked(fn, 40, 2)
    _no_child_left()


def test_first_failing_chunk_is_raised():
    with pytest.raises(ValueError, match="from 10"):
        run_chunked(_raise_by_chunk, 40, 4)
    _no_child_left()


def test_child_killed_by_signal_raises_child_process_error():
    fn = partial(_killed_in_child, caller=os.getpid())
    with pytest.raises(ChildProcessError, match=r"chunk 1 \(replicas "
                       r"20..39\) was killed by SIGKILL without sending"):
        run_chunked(fn, 60, 3)
    _no_child_left()


def test_children_killed_when_caller_chunk_raises():
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="chunk 0"):
        run_chunked(_slow_unless_first, 30, 3)
    assert time.monotonic() - t0 < 30
    _no_child_left()


@pytest.mark.parametrize("raises", [False, True])
def test_result_that_does_not_pickle_raises(raises):
    fn = partial(_unpicklable_in_child, caller=os.getpid(), raises=raises)
    with pytest.raises(TypeError, match="replicas 5..9 gave what does not"):
        run_chunked(fn, 10, 2)
    _no_child_left()


@pytest.mark.parametrize("exc, code", [(ValueError, 2), (BudgetError, 2),
                                       (MemoryError, 2),
                                       (PropertyViolation, 1)])
def test_cli_exit_code_of_child_failure_matches_one_worker(
        monkeypatch, capsys, exc, code):
    caller = os.getpid()

    def kernel(*gens, pid, **params):
        if os.getpid() != pid:
            raise exc("replica failed")
        return 0

    argv = ["compat", "mc", "--p", "1/2", "--n", "5", "--replicas", "20",
            "--seed", "1", "--workers"]
    monkeypatch.setattr(compatibility, "_horizon_replica",
                        partial(kernel, pid=None))     # fails everywhere
    assert cli.main(argv + ["1"]) == code
    monkeypatch.setattr(compatibility, "_horizon_replica",
                        partial(kernel, pid=caller))   # fails in children
    assert cli.main(argv + ["2"]) == code
    assert "replica failed" in capsys.readouterr().err
    _no_child_left()


def test_cli_exit_code_of_killed_child(monkeypatch, capsys):
    caller = os.getpid()

    def kernel(*gens, **params):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return 0

    monkeypatch.setattr(compatibility, "_horizon_replica", kernel)
    assert cli.main(["compat", "mc", "--p", "1/2", "--n", "5", "--replicas",
                     "20", "--seed", "1", "--workers", "2"]) == 2
    assert "SIGKILL" in capsys.readouterr().err
    _no_child_left()


def test_without_fork_every_replica_runs_in_caller(monkeypatch):
    fn = PerReplica(_uniforms, RngSpec(8), streams=2)
    want = run_chunked(fn, 40, 3)
    assert workers_used(40, 3) == 3 and workers_used(2, 3) == 2
    monkeypatch.delattr(os, "fork")
    assert workers_used(40, 3) == 1
    assert np.array_equal(run_chunked(fn, 40, 3), want)
    with pytest.raises(ValueError):
        workers_used(0, 3)


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


@pytest.mark.parametrize("workers", [1, 2])
def test_ab_scan_pinned_at_benchmark_shape(workers):
    # box 60 and budget 5000, as the benchmark's abscan runs it: about a
    # fifth of the constant searches back-track until the budget runs out
    ab = cv.ab_scan(0.5, 60, 80, RngSpec(1), budget=5000, workers=workers)
    assert (_successes(ab.alternating), _successes(ab.constant),
            ab.alternating_exhausted, ab.constant_exhausted) == (79, 49, 0, 18)
