import os
import signal
import sys
import threading
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

import clairvoyant as cv
from clairvoyant import (cli, compatibility, environment, lattice, rng,
                         scheduling)
from clairvoyant.errors import BudgetError, PropertyViolation
from clairvoyant.environment import FiniteDistribution
from clairvoyant.rng import RngSpec
from clairvoyant.runner import (BLOCK_LETTERS, PerBlock, chunk_bounds,
                                run_chunked, workers_used)
from clairvoyant.stats import Estimate

from oracles import (ab_replica, column_replica, coupling_replica,
                     escape_replica)


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
        RngSpec(1).uniform_rows(range(-1, 2), rng.BATCHED_LETTERS + 1)
    assert list(rng._rewound(1, rng._id_array(range(3, 3)))) == []


def _fresh(seed, k):
    key = np.array([seed % 2**64, k], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Philox keys a stream by a 64-bit word: every way of drawing stream 2^64
# refuses it, where some once drew stream 0 and others overflowed in numpy

def test_generator_refuses_stream_ids_past_64_bits():
    last = 2**64 - 1
    assert RngSpec(1, last).generator().random() == _fresh(1, last).random()
    with pytest.raises(ValueError, match=r"2\^64"):
        RngSpec(1, 2**64)
    with pytest.raises(ValueError, match=r"2\^64"):
        RngSpec(1).stream(2**64)


def test_generators_refuse_stream_ids_past_64_bits():
    # the rewound rows: ids up to 2^64 - 1 drawn, and 2^64 refused
    letters = rng.BATCHED_LETTERS + 1
    last = range(2**64 - 2, 2**64)
    assert [g.random() for g in rng._rewound(1, rng._id_array(last))] \
        == [_fresh(1, k).random() for k in last]
    for ids in (range(2**64, 2**64 + 1), range(2**64 - 1, 2**64 + 1)):
        with pytest.raises(ValueError, match=r"2\^64"):
            RngSpec(1).uniform_rows(ids, letters)


@pytest.mark.parametrize("letters", [3, rng.BATCHED_LETTERS + 1])
def test_bernoulli_rows_refuse_stream_ids_past_64_bits(letters):
    probs = np.full(letters, 0.5)
    row, = RngSpec(1).bernoulli_rows(range(2**64 - 1, 2**64), probs)
    assert (row == (_fresh(1, 2**64 - 1).random(letters) < 0.5)).all()
    for lo, hi in ((2**64, 2**64 + 1), (2**64 - 1, 2**64 + 1)):
        with pytest.raises(ValueError, match=r"2\^64"):
            RngSpec(1).bernoulli_rows(range(lo, hi), probs)


def test_rng_refuses_seeds_past_64_bits():
    # the seed is the other word of the Philox key: -1 once meant 2^64 - 1
    # and 2^64 meant 0, so two recorded seeds shared their streams
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"master_seed .*2\^64"):
            RngSpec(seed)
    assert RngSpec(2**64 - 1).generator().random() \
        == _fresh(2**64 - 1, 0).random()
    assert RngSpec(1).stream(0) == RngSpec(1, 0) == RngSpec(1)
    assert RngSpec(1).stream(0).generator().random() == _fresh(1, 0).random()


_BIG_M = 3 * 2**30       # integer_rows redraws rows numpy would reject
_MU = FiniteDistribution.parse("1/4:1/3,3/4:1/2,1:1/6")


def _walks(spec, M, depth):
    grid = scheduling.sample_grid(M, depth, spec)
    return grid.x, grid.y


def _walks_ref(g, M, depth):
    return tuple(g.integers(1, M + 1, size=depth + 1) for _ in "xy")


def _environment(spec, n):
    env = environment.sample_environment(_MU, n, spec)
    return env.densities, env.config


def _environment_ref(g, n):
    dens, config = environment._environments(_MU, n,
                                             g.random((1, n + n * n)))
    return dens[0], config[0]


def _field(spec, p, width, height):
    return (lattice.sample_field(p, width, height, spec).cells,)


def _field_ref(g, p, width, height):
    return ((g.random((width, height)) < p).astype(np.uint8),)


def _word(spec, n, p):
    return (cv.bernoulli_word(n, p, spec).bits,)


def _word_ref(g, n, p):
    return (cv.Word.from_letters((g.random(n) < p).astype(int)).bits,)


_N = rng.BATCHED_LETTERS
# walks of depth + 1 raw words and environments of n + n^2 letters on both
# sides of the batched pass, fields and words of 0 to 3240 letters
_ONE_OFF_CASES = (
    [(_walks, _walks_ref, (M, depth)) for M in (4, 6, _BIG_M)
     for depth in (0, 8, _N - 2, _N - 1, _N, 300)]
    + [(_environment, _environment_ref, (n,)) for n in (1, 6, 7, 8, 30)]
    + [(_field, _field_ref, (0.4, w, h))
       for w, h in ((0, 3), (1, _N - 1), (1, _N), (1, _N + 1), (40, 81))]
    + [(_word, _word_ref, (n, 0.3)) for n in (0, 1, _N - 1, _N, _N + 1, 200)])


@pytest.mark.parametrize("seed, k", [(1, 0), (2**64 - 1, 2**64 - 1)])
@pytest.mark.parametrize("draw, reference, args", _ONE_OFF_CASES)
def test_one_off_draws_equal_fresh_generator(draw, reference, args, seed, k):
    # each one-off draw is row 0 of a row method for its own stream: what
    # a fresh numpy generator of that stream gives, value for value
    got = draw(RngSpec(seed).stream(k), *args)
    want = reference(RngSpec(seed).stream(k).generator(), *args)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.shape(a) == np.shape(b)
        assert np.array_equal(a, b)


_IDS = [9, 2, 2**64 - 1, 9, 0, 40, 2**64 - 1, 7, 2**63]


@pytest.mark.parametrize("letters", [0, 1, 3, rng.BATCHED_LETTERS - 1,
                                     rng.BATCHED_LETTERS,
                                     rng.BATCHED_LETTERS + 1, 200])
@pytest.mark.parametrize("seed", [1, 2**64 - 1])
def test_bernoulli_rows_of_id_arrays_equal_fresh_philox(seed, letters):
    # unsorted, repeated and non-contiguous ids, up to 2^64 - 1, as a list
    # and as a uint64 array; the small ones also as int64.  The uniform
    # rows the Bernoulli rows compare are numpy's random(), bit for bit
    probs = np.linspace(0.0, 1.0, letters)
    small = [k for k in _IDS if k < 2**63]
    for ids in (_IDS, np.array(_IDS, dtype=np.uint64),
                np.array(small, dtype=np.int64)):
        rows = RngSpec(seed).bernoulli_rows(ids, probs)
        uniforms = RngSpec(seed).uniform_rows(ids, letters)
        assert rows.shape == (len(ids), letters) and rows.dtype == bool
        assert uniforms.shape == (len(ids), letters)
        assert uniforms.dtype == np.float64
        for row, u, k in zip(rows, uniforms, ids):
            want = RngSpec(seed, int(k)).generator().random(letters)
            assert np.array_equal(u, want), (k, letters)
            assert (row == (want < probs)).all(), (k, letters)
    for empty in ([], np.zeros(0, dtype=np.uint64)):
        assert RngSpec(seed).bernoulli_rows(empty, probs).shape \
            == (0, letters)
        assert RngSpec(seed).uniform_rows(empty, letters).shape \
            == (0, letters)


@pytest.mark.parametrize("letters", [3, rng.BATCHED_LETTERS + 1])
def test_bernoulli_rows_refuse_ids_outside_64_bits(letters):
    # the row methods refuse the same ids, in the same words, on batched
    # and rewound rows
    probs = np.full(letters, 0.5)
    for ids in ([2**64], [3, 2**64 + 5], [-1], [2**64 - 1, -1],
                np.array([5, -2]), (2**70,)):
        with pytest.raises(ValueError, match=r"2\^64"):
            RngSpec(1).bernoulli_rows(ids, probs)
        with pytest.raises(ValueError, match=r"2\^64"):
            RngSpec(1).uniform_rows(ids, letters)
        with pytest.raises(ValueError, match=r"2\^64"):
            RngSpec(1).integer_rows(ids, 4, letters)


# M = 3 * 2^30 rejects a uint32 u when (u M) mod 2^32 < 2^30, one u in
# four; 2^31 + 1 about one in two, and 3, 6 and 7 almost never
_REJECTING = 3 * 2**30


def _integers(seed, k, M, count):
    return _fresh(seed, k).integers(1, M + 1, size=count)


@pytest.mark.parametrize("M", [2, 3, 4, 6, 7, 2**31 + 1, _REJECTING, 2**32,
                               2**32 + 1])
def test_integer_rows_equal_fresh_philox(monkeypatch, M):
    # counts 1 and 2, then odd and even counts on both sides of the
    # 2 BATCHED_LETTERS uint32 halves the batched pass serves
    two = 2 * rng.BATCHED_LETTERS
    ids = [0, 2**64 - 1, 5, 0]
    for count in (0, 1, 2, two - 1, two, two + 1, two + 2, 301):
        for seed in (1, 2**64 - 1):
            rows = RngSpec(seed).integer_rows(ids, M, count)
            assert rows.shape == (len(ids), count)
            assert rows.dtype == np.int64
            for row, k in zip(rows, ids):
                assert np.array_equal(row, _integers(seed, k, M, count)), \
                    (k, count)
    for empty in ([], np.zeros(0, dtype=np.uint64)):
        assert RngSpec(1).integer_rows(empty, M, 3).shape == (0, 3)
    # only the rows numpy draws again go back to numpy, through
    # _rewound, and past 2^32 every row does
    redrawn = []
    rewound = rng._rewound

    def spy(seed, ids):
        redrawn.extend(ids.tolist())
        return rewound(seed, ids)
    monkeypatch.setattr(rng, "_rewound", spy)
    RngSpec(1).integer_rows(range(200), M, 3)
    if M > 2**32:
        assert redrawn == list(range(200))
    elif M in (2, 4, 2**32):
        assert redrawn == []


@pytest.mark.parametrize("M, count", [
    (_REJECTING, 2), (_REJECTING, 3),
    # rejects u iff u = 0 mod 256, so that a long row is often kept
    (2**32 - 2**24, 2 * rng.BATCHED_LETTERS + 2)])
def test_integer_rows_redraw_exactly_the_rows_numpy_rejects(M, count):
    # Lemire's map of a stream's raw words gives numpy's row iff numpy
    # rejects no value in it, so a draw that skipped the rejection test
    # would return the flagged rows wrong; some rows are flagged, and some
    # are not
    ids = range(300)
    want = np.array([_integers(2, k, M, count) for k in ids])
    assert np.array_equal(RngSpec(2).integer_rows(ids, M, count), want)
    raw = np.array([_fresh(2, k).bit_generator.random_raw(-(-count // 2))
                    for k in ids])
    mapped = np.empty((len(ids), count), np.int64)
    flagged = rng._bounded(raw, M, mapped)
    assert 0 < flagged.sum() < len(ids)
    assert not (mapped[flagged] == want[flagged]).all(axis=1).any()
    assert (mapped[~flagged] == want[~flagged]).all()


def test_integer_rows_refuse_M_numpy_cannot_draw():
    for M in (0, -3, 2**63, 2**70):
        with pytest.raises(ValueError, match=r"M must lie in \[1, 2\^63\)"):
            RngSpec(1).integer_rows([0, 1], M, 4)
    row, = RngSpec(1).integer_rows([3], 2**63 - 1, 5)
    assert np.array_equal(row, _integers(1, 3, 2**63 - 1, 5))
    assert RngSpec(1).integer_rows([3, 4], 1, 5).tolist() == [[1] * 5] * 2


# 2^64 - 3 is the seed RngSpec made of -3 when it reduced seeds mod 2^64;
# it refuses -3 now, and the id keeps these tests' names
_SEEDS = [1, 2**64 - 1, pytest.param(2**64 - 3, id="-3")]

_DRAWS = (
    lambda g: g.random(7),
    lambda g: g.integers(0, 10, size=9),
    lambda g: g.integers(-5, 300, size=6, dtype=np.int32),
    lambda g: g.random((3, 4)),
    lambda g: g.uniform(2.0, 5.0, size=5),
)


@pytest.mark.parametrize("seed", _SEEDS)
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
    ids = range(100 * offset, 100 * offset + 100)
    yield from zip(ids, rng._rewound(9, rng._id_array(ids)))


def test_generator_reuse_across_threads():
    # four threads ask for streams at a fine switch interval; a generator
    # rewound under a thread that holds it would give that thread wrong draws
    want = {k: _fresh(9, k).random(6) for k in range(400)}
    bad = []

    def work(offset):
        # an exception would end only this thread, so it is recorded
        try:
            for draws in (_one_off, _rewound):
                for k, g in draws(offset):
                    first = g.random(3)
                    if not ((first == want[k][:3]).all()
                            and (g.random(3) == want[k][3:]).all()):
                        bad.append((draws.__name__, k))
        except Exception as exc:
            bad.append(repr(exc))

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


@pytest.mark.parametrize("seed", _SEEDS)
def test_bernoulli_rows_equal_per_stream_draws(seed):
    probs = np.array([[0.0, 0.3], [0.7, 1.0], [0.5, 0.5]])
    rows = RngSpec(seed).bernoulli_rows(range(3, 40), probs)
    assert rows.shape == (37, 3, 2) and rows.dtype == bool
    for i, row in enumerate(rows):
        assert (row == (_fresh(seed, 3 + i).random((3, 2)) < probs)).all()
    assert RngSpec(seed).bernoulli_rows(range(4, 4), probs).shape \
        == (0, 3, 2)
    assert RngSpec(seed).bernoulli_rows(range(3), np.ones(0)).shape \
        == (3, 0)
    odd = np.array([np.nan, -0.5, 1.5, np.inf, -np.inf, 5e-324])
    for i, row in enumerate(RngSpec(seed).bernoulli_rows(range(20), odd)):
        assert (row == (_fresh(seed, i).random(6) < odd)).all()
    with pytest.raises(ValueError):
        RngSpec(seed).bernoulli_rows(range(-1, 2), probs)


def _edge_probs(seed, k, letters):
    # 0, 1, stream k's own uniforms and the next double above them, in turn:
    # row k is false, true, false (u < u) and true (u < nextafter(u))
    u = _fresh(seed, k).random(letters)
    probs = u.copy()
    probs[0::4] = 0.0
    probs[1::4] = 1.0
    probs[3::4] = np.nextafter(u[3::4], np.inf)
    return probs


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("letters", [0, 1, 3, 4, 5, 60, 5000,
                                     rng.BATCHED_LETTERS,
                                     rng.BATCHED_LETTERS + 1])
def test_bernoulli_rows_equal_fresh_philox(seed, letters):
    for lo in (0, 2**64 - 6):           # stream ids up to 2^64 - 1
        probs = _edge_probs(seed, lo + 2, letters)
        rows = RngSpec(seed).bernoulli_rows(range(lo, lo + 6), probs)
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
    rows = RngSpec(7).bernoulli_rows(range(10**5), probs)
    want = np.array([_fresh(7, k).random(9) for k in range(10**5)]) < probs
    assert np.array_equal(rows, want)


def test_bernoulli_rows_of_long_rows_hold_a_byte_a_letter():
    # rows past BLOCK_LETTERS are drawn in consecutive slices of one
    # float64 scratch, the last slice partial, and compared into the bool
    # rows; the draw's peak is then the rows' byte a letter plus that
    # 512 KiB scratch, where a float64 row alone would be 8 bytes a letter
    letters = 200_000
    assert letters % BLOCK_LETTERS
    probs = np.linspace(0, 1, letters)
    ids = [11, 2**64 - 1]
    rows = RngSpec(3).bernoulli_rows(ids, probs)
    for row, k in zip(rows, ids):
        assert np.array_equal(row, _fresh(3, k).random(letters) < probs)
    letters = 1_000_000
    probs = np.full(letters, 0.3)
    want = _fresh(3, 11).random(letters) < probs
    tracemalloc.start()
    try:
        row, = RngSpec(3).bernoulli_rows([11], probs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(row, want)
    assert peak < 2 * letters


def test_bernoulli_rows_of_a_block_past_block_letters_hold_one_row():
    # two rows of 40000 letters, compat mc's replica block at n 40000, fit
    # BLOCK_LETTERS one row at a time but not together: held as one
    # float64 matrix they peak at 0.72 MB, drawn a row at a time at 0.40
    letters = 40_000
    assert letters <= BLOCK_LETTERS < 2 * letters
    probs = np.full(letters, 0.2)
    want = [_fresh(1, k).random(letters) < probs for k in (0, 1)]
    tracemalloc.start()
    try:
        rows = RngSpec(1).bernoulli_rows([0, 1], probs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(rows, want)
    assert peak < 500_000


def _int32_then_buffer_crossing(g):
    # 3 int32 draws leave a spare half-word (has_uint32 set), then 7
    # uniforms cross the 4-word output buffer.  The range is a power of 2,
    # where Lemire's method keeps every 32-bit draw, a stale zero included
    return np.concatenate([g.integers(0, 2**20, size=3, dtype=np.int32),
                           g.random(7)])


def test_generators_rewind_after_int32_and_buffer_crossing():
    for ids in (range(6), range(2**64 - 4, 2**64), [5, 2**64 - 1, 5, 0]):
        got = [_int32_then_buffer_crossing(g)
               for g in rng._rewound(3, rng._id_array(ids))]
        want = [_int32_then_buffer_crossing(_fresh(3, k)) for k in ids]
        assert len(got) == len(ids)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_bernoulli_rows_rewind_no_other_generator():
    held = RngSpec(5, 1).generator()
    first = held.random(3)
    RngSpec(5).bernoulli_rows(range(50), np.full(8, 0.5))
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
            rows = RngSpec(9).bernoulli_rows(range(lo, lo + 5), probs)
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


def _uniform_block(seed, letters):
    # the identity kernel: row k is what stream k's random(letters) gives
    draw = partial(RngSpec(seed).uniform_rows, letters=letters)
    return PerBlock(np.asarray, draw, letters)


def test_per_block_of_uniform_rows_row_k_is_its_stream():
    want = [tuple(_fresh(8, k).random(2)) for k in range(40)]
    for workers in (1, 2, 3):
        got = run_chunked(_uniform_block(8, 2), 40, workers)
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


def _integer_rows(ids, seed, size):
    return np.array([g.integers(0, 1000, size=size)
                     for g in rng._rewound(seed, rng._id_array(ids))])


def test_per_block_of_generator_draws_row_k_is_stream_k():
    size = 3000
    assert BLOCK_LETTERS // size < 40            # several blocks a chunk
    want = [_fresh(4, k).integers(0, 1000, size=size).sum()
            for k in range(40)]
    fn = PerBlock(_row_sums, partial(_integer_rows, seed=4, size=size),
                  size)
    for workers in (1, 2, 3):
        assert run_chunked(fn, 40, workers).tolist() == want
    cuts = (0, 1, 4, 25, 40)       # uneven chunks, some inside one block
    assert np.concatenate([fn(a, b) for a, b in zip(cuts, cuts[1:])
                           ]).tolist() == want


def test_per_block_hands_draw_the_block_ids():
    # a draw sees int arrays of replica ids, consecutive and at most
    # BLOCK_LETTERS // letters long, which cover the chunk in order
    seen = []

    def draw(ids):
        seen.append(ids)
        return np.zeros((len(ids), 1))
    letters = BLOCK_LETTERS // 8
    assert len(PerBlock(_row_sums, draw, letters)(3, 30)) == 27
    assert [len(ids) for ids in seen] == [8, 8, 8, 3]
    assert all(ids.dtype.kind == "i" for ids in seen)
    assert np.concatenate(seen).tolist() == list(range(3, 30))


def test_closures_serve_as_draws_and_kernels():
    # forked children inherit the chunk function, so nothing has to pickle:
    # a lambda draw over two streams a replica, as compat mc's is, and a
    # kernel that closes over a local
    spec, probs, scale = RngSpec(6), np.linspace(0.1, 0.9, 9), 7.0
    block = PerBlock(_row_sums, lambda ids: spec.bernoulli_rows(
        np.stack((2 * ids, 2 * ids + 1), axis=1).ravel(), probs
    ).reshape(len(ids), 2, -1), 2 * probs.size)
    replica = PerBlock(lambda rows: scale * rows[:, 0],
                       lambda ids: spec.uniform_rows(ids, 1), 1)
    want_block = [(_fresh(6, 2 * k).random(9) < probs).sum()
                  + (_fresh(6, 2 * k + 1).random(9) < probs).sum()
                  for k in range(40)]
    want_replica = [scale * _fresh(6, k).random() for k in range(40)]
    for workers in (1, 2, 3):
        assert run_chunked(block, 40, workers).tolist() == want_block
        assert run_chunked(replica, 40, workers).tolist() == want_replica
    _no_child_left()


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

    def chunk(lo, hi, pid, **params):
        if os.getpid() != pid:
            raise exc("replica failed")
        return np.zeros(hi - lo, dtype=np.int64)

    argv = ["compat", "mc", "--p", "1/2", "--n", "5", "--replicas", "20",
            "--seed", "1", "--workers"]
    monkeypatch.setattr(compatibility, "_horizon_chunk",
                        partial(chunk, pid=None))      # fails everywhere
    assert cli.main(argv + ["1"]) == code
    monkeypatch.setattr(compatibility, "_horizon_chunk",
                        partial(chunk, pid=caller))    # fails in children
    assert cli.main(argv + ["2"]) == code
    assert "replica failed" in capsys.readouterr().err
    _no_child_left()


def test_cli_exit_code_of_killed_child(monkeypatch, capsys):
    caller = os.getpid()

    def chunk(lo, hi, **params):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return np.zeros(hi - lo, dtype=np.int64)

    monkeypatch.setattr(compatibility, "_horizon_chunk", chunk)
    assert cli.main(["compat", "mc", "--p", "1/2", "--n", "5", "--replicas",
                     "20", "--seed", "1", "--workers", "2"]) == 2
    assert "SIGKILL" in capsys.readouterr().err
    _no_child_left()


def test_without_fork_every_replica_runs_in_caller(monkeypatch):
    fn = _uniform_block(8, 2)
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


_MU = FiniteDistribution.parse("0.4:1/2,0.8:1/2")

# (module, entry point run on a replica count and a spec, the oracle of
# one replica, letters a replica draws): abscan's box 3 field is batched
# and its box 6 one is not, env column's box 7 sits on BATCHED_LETTERS
_MODELS = {
    "abscan-box3": (lattice, partial(cv.ab_scan, 0.5, 3, budget=20),
                    partial(ab_replica, p=0.5, box=3, budget=20), 7 * 7),
    "abscan-box6": (lattice, partial(cv.ab_scan, 0.5, 6, budget=20),
                    partial(ab_replica, p=0.5, box=6, budget=20), 13 * 13),
    "column-box6": (environment, partial(cv.column_percolation_mc, _MU, 6),
                    partial(column_replica, mu=_MU, n=6), 6 + 6 * 6),
    "column-box7": (environment, partial(cv.column_percolation_mc, _MU, 7),
                    partial(column_replica, mu=_MU, n=7), 7 + 7 * 7),
    "column-box8": (environment, partial(cv.column_percolation_mc, _MU, 8),
                    partial(column_replica, mu=_MU, n=8), 8 + 8 * 8),
    "undirected": (scheduling, partial(cv.undirected_mc, 3, 30),
                   partial(escape_replica, M=3, box=30), 2 * 31),
    "coupling": (scheduling, partial(cv.coupling_check, 3, 2, 25),
                 partial(coupling_replica, M=3, k=2, depth=25), 2 * 26),
}


# every Monte Carlo entry point, run on a spec at a size where most of
# its draws are blocks of many replicas
_ENTRY_POINTS = {
    "psi_curve_mc": partial(cv.psi_curve_mc, 0.5, [5, 300], 500),
    "psi_mc": partial(cv.psi_mc, 0.3, 20, 2000),
    "embed_prob_mc": partial(cv.embed_prob_mc, cv.alternating_word(8), 3,
                             1000),
    "embed_survival_mc": partial(cv.embed_survival_mc, 2, 8, 0.5, 0.5, 1000),
    "ab_scan": partial(cv.ab_scan, 0.5, 3, 1500, budget=20),
    "block_good_mc": partial(cv.block_good_mc, 0.5, 2, 20000),
    "column_percolation_mc": partial(cv.column_percolation_mc, _MU, 8, 1000),
    "survival_curve_mc": partial(cv.survival_curve_mc, 3, [10, 100], 400),
    "coupling_check": partial(cv.coupling_check, 3, 2, 100, 400),
    "undirected_mc": partial(cv.undirected_mc, 3, 30, 1200),
}
_ROW_METHODS = ("uniform_rows", "bernoulli_rows", "integer_rows")


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_row_methods_get_one_row_or_one_block(monkeypatch, name):
    # the row methods draw every id they are handed at once, so each
    # caller hands them one row or a block of at most BLOCK_LETTERS letters
    shapes = []

    def spy(method):
        def draw(self, *args, **kwargs):
            rows = method(self, *args, **kwargs)
            shapes.append(rows.shape)
            return rows
        return draw
    for attr in _ROW_METHODS:
        monkeypatch.setattr(RngSpec, attr, spy(getattr(RngSpec, attr)))
    _ENTRY_POINTS[name](RngSpec(5))
    assert max(shape[0] for shape in shapes) > 1
    assert all(shape[0] == 1 or np.prod(shape) <= BLOCK_LETTERS
               for shape in shapes), shapes


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_entry_points_refuse_a_stream_id(monkeypatch, name):
    # replica k draws from streams of the master seed alone, so a stream id
    # would be recorded in the estimate and not used: two specs that differ
    # only in it gave the same estimate.  It is refused before any draw
    def no_draw(*args, **kwargs):
        raise AssertionError("drawn before the refusal")
    for attr in _ROW_METHODS:
        monkeypatch.setattr(RngSpec, attr, no_draw)
    with pytest.raises(ValueError, match="stream id 7 refused"):
        _ENTRY_POINTS[name](RngSpec(1, 7))


@pytest.mark.parametrize("model", sorted(_MODELS))
def test_chunk_functions_equal_per_replica_oracles(monkeypatch, model):
    # the entry point's chunk function, run on uneven cuts of the replica
    # range: one inside the first block, one across a block boundary, one
    # ending inside the second block
    module, run, replica, letters = _MODELS[model]
    rows = BLOCK_LETTERS // letters                # replicas in one block
    cuts = (0, 3, rows + 5, rows + 40)
    got = []

    def chunked(fn, replicas, workers=1):
        assert isinstance(fn, PerBlock) and replicas == cuts[-1]
        got.append(np.concatenate([fn(a, b) for a, b
                                   in zip(cuts, cuts[1:])]))
        return got[-1]
    monkeypatch.setattr(module, "run_chunked", chunked)
    spec = RngSpec(23)
    run(cuts[-1], spec)
    want = [replica(spec.stream(k)) for k in range(cuts[-1])]
    assert got[0].tolist() == [list(w) if isinstance(w, tuple) else w
                               for w in want]
    assert len(set(want)) > 1                      # not one outcome only
