import hashlib
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clairvoyant import cli, compatibility
from clairvoyant.compatibility import (
    DeletionWitness,
    _horizon_chunk,
    _horizon_lanes,
    compatible,
    compatible_prefix,
    majority_certificate,
    psi_curve_mc,
    psi_mc,
    validate_deletion,
)
from clairvoyant.rng import RngSpec
from clairvoyant.runner import BLOCK_LETTERS, run_chunked
from clairvoyant.words import Word, pack_mask

from oracles import (brute_compatible, deletion_compatible, horizon_bits,
                     horizon_replica)

word_letters = st.lists(st.integers(0, 1), min_size=1, max_size=8)


def W(s):
    return Word.from_string(s)


def test_single_letter_cases():
    assert not compatible(W("1"), W("1"))
    assert compatible(W("1"), W("0"))
    assert compatible(W("0"), W("1"))
    assert compatible(W("0"), W("0"))


def test_all_ones_never_compatible():
    for nx in range(1, 6):
        for ny in range(1, 6):
            assert not compatible(W("1" * nx), W("1" * ny))


def test_known_pairs():
    assert compatible(W("0110"), W("1001"))
    assert not compatible(W("11"), W("101"))
    assert compatible(W("10"), W("01"))
    # a long run of 1s can wait while the other side spends its 0s
    assert compatible(W("1111"), W("0000"))


def test_empty_words_rejected():
    with pytest.raises(ValueError):
        compatible(W(""), W("0"))
    with pytest.raises(ValueError):
        compatible_prefix(W("0"), W(""))


@given(word_letters, word_letters)
def test_dp_matches_recursive_oracle(xl, yl):
    x, y = Word.from_letters(xl), Word.from_letters(yl)
    assert compatible(x, y) == brute_compatible(xl, yl)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=6),
       st.lists(st.integers(0, 1), min_size=1, max_size=6))
def test_dp_matches_deletion_enumeration(xl, yl):
    x, y = Word.from_letters(xl), Word.from_letters(yl)
    assert compatible(x, y) == deletion_compatible(xl, yl)


@given(word_letters, word_letters)
def test_witness_agrees_with_decision(xl, yl):
    x, y = Word.from_letters(xl), Word.from_letters(yl)
    wit = compatible_prefix(x, y)
    assert (wit is not None) == compatible(x, y)
    if wit is not None:
        assert validate_deletion(wit, x, y)


def test_one_sweep_on_every_pair_up_to_length_7():
    # decision, witness and horizon against the recursion on all 64516
    # pairs; the horizon reads its prefixes' answers from the same table
    table = {}
    for nx in range(1, 8):
        for ny in range(1, 8):
            for xb in range(1 << nx):
                x = Word(xb, nx)
                xl = list(x)
                for yb in range(1 << ny):
                    y = Word(yb, ny)
                    ok = table[xb, nx, yb, ny] = brute_compatible(xl, list(y))
                    assert compatible(x, y) == ok, (x, y)
                    wit = compatible_prefix(x, y)
                    assert (wit is not None) == ok, (x, y)
                    if wit is not None:
                        assert validate_deletion(wit, x, y), (x, y, wit)
    for N in range(1, 8):
        # every pair of length-N words is one lane of a single call
        letters = (np.arange(1 << N)[:, None] >> np.arange(N)) & 1 == 1
        x = np.repeat(letters, 1 << N, axis=0)
        y = np.tile(letters, (1 << N, 1))
        got = iter(_horizon_lanes(x, y))
        for xb in range(1 << N):
            for yb in range(1 << N):
                best = max([n for n in range(1, N + 1) if table[
                    xb & ((1 << n) - 1), n, yb & ((1 << n) - 1), n]],
                    default=0)
                assert next(got) == best, (xb, yb, N)
                assert horizon_bits(xb, yb, N) == best, (xb, yb, N)


def test_witness_in_linear_memory():
    # a search keyed on every (i, j) state peaked near 118 MB on this pair
    g = RngSpec(63).generator()
    x = Word.from_letters((g.random(2000) < 0.3).astype(int))
    y = Word.from_letters((g.random(2000) < 0.3).astype(int))
    tracemalloc.start()
    try:
        wit = compatible_prefix(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert wit is not None and validate_deletion(wit, x, y)
    # both words all 0s: every state is reachable
    zeros = W("0" * 3000)
    assert validate_deletion(compatible_prefix(zeros, zeros), zeros, zeros)


@given(word_letters, word_letters, st.data())
def test_lowering_a_letter_preserves_compatibility(xl, yl, data):
    x, y = Word.from_letters(xl), Word.from_letters(yl)
    if not compatible(x, y):
        return
    i = data.draw(st.integers(0, len(xl) - 1))
    xl2 = list(xl)
    xl2[i] = 0
    assert compatible(Word.from_letters(xl2), y)


@given(word_letters, word_letters, st.data())
def test_compatibility_passes_to_prefixes(xl, yl, data):
    x, y = Word.from_letters(xl), Word.from_letters(yl)
    if not compatible(x, y):
        return
    kx = data.draw(st.integers(1, len(xl)))
    ky = data.draw(st.integers(1, len(yl)))
    assert compatible(x.prefix(kx), y.prefix(ky))


def test_validate_deletion_rejections():
    x, y = W("0110"), W("1001")
    assert not validate_deletion(DeletionWitness((2, 1), (1,)), x, y)
    assert not validate_deletion(DeletionWitness((5,), (1,)), x, y)
    # skipping a 1 is not a deletion of 0s
    assert not validate_deletion(DeletionWitness((1, 4), (1, 2, 3, 4)), x, y)
    # overlapping 1s
    assert not validate_deletion(
        DeletionWitness((2, 3), (1, 4)), W("0110"), W("1001"))


def test_majority_certificate_examples():
    assert majority_certificate(W("111"), W("111")).N == 1
    assert majority_certificate(W("0111"), W("1011")).N == 3
    assert majority_certificate(W("0101"), W("0011")) is None
    with pytest.raises(ValueError):
        majority_certificate(W("01"), W("011"))


def test_majority_certificate_sound():
    rng = RngSpec(40).generator()
    found = 0
    for _ in range(400):
        xl = (rng.random(9) < 0.65).astype(int).tolist()
        yl = (rng.random(9) < 0.65).astype(int).tolist()
        x, y = Word.from_letters(xl), Word.from_letters(yl)
        cert = majority_certificate(x, y)
        if cert is not None:
            found += 1
            # the certified prefixes are already incompatible
            assert not compatible(x.prefix(cert.N), y.prefix(cert.N))
            assert not compatible(x, y)
    assert found > 0


def test_psi_mc_deterministic_and_coupled():
    rng = RngSpec(60)
    a = psi_mc(0.5, 20, 800, rng)
    b = psi_mc(0.5, 20, 800, rng, workers=3)
    assert a == b
    # same streams, longer horizon: per-sample implication, not just means
    longer = psi_mc(0.5, 40, 800, rng)
    assert longer.mean <= a.mean
    # same streams, higher density: 0s flip to 1s in place
    denser = psi_mc(0.8, 20, 800, rng)
    assert denser.mean <= a.mean
    with pytest.raises(ValueError):
        psi_mc(1.2, 20, 10, rng)
    with pytest.raises(ValueError):
        psi_mc(0.5, 0, 10, rng)


def test_horizon_matches_every_prefix_of_random_pairs():
    # 3000 pairs of 79 letters, each of its own density, as the lanes of
    # one call; pair b is checked on its prefixes up to its own N
    g = RngSpec(61).generator()
    pairs, K = 3000, 79
    Ns = g.integers(1, K + 1, size=pairs)
    ps = g.random(pairs)[:, None]
    x = g.random((pairs, K)) < ps
    y = g.random((pairs, K)) < ps
    for xl, yl, N, T in zip(x, y, Ns.tolist(), _horizon_lanes(x, y)):
        xbits, ybits = pack_mask(xl[:N]), pack_mask(yl[:N])
        assert horizon_bits(xbits, ybits, N) == min(T, N), (xbits, ybits, N)
        for n in range(1, N + 1):
            m = (1 << n) - 1
            assert (T >= n) == compatible(Word(xbits & m, n),
                                          Word(ybits & m, n)), \
                (xbits, ybits, N, n, T)


def test_psi_curve_equals_psi_mc_per_horizon():
    rng = RngSpec(62)
    ns = [40, 5, 20, 1]
    for p in (0.3, 0.5, 0.7):
        curve = psi_curve_mc(p, ns, 300, rng)
        assert curve == [psi_mc(p, n, 300, rng) for n in ns]
    assert psi_curve_mc(0.5, ns, 300, rng, workers=3) \
        == psi_curve_mc(0.5, ns, 300, rng)
    with pytest.raises(ValueError):
        psi_curve_mc(0.5, [], 10, rng)
    with pytest.raises(ValueError):
        psi_curve_mc(0.5, [3, 0], 10, rng)


def test_staged_horizons_match_fresh_stream_oracle():
    # 162 cells, each at one and three workers: densities with no, few and
    # most replicas reaching a stage's end, horizons on both sides of every
    # stage length, and stream ids up to 2^64 - 1 under the largest seed
    replicas = 60
    for seed in (1, 5, 2**64 - 1):
        for p in (0.0, 0.05, 0.3, 0.5, 0.9, 1.0):
            for N in (1, 2, 15, 16, 17, 63, 64, 65, 257):
                want = [horizon_replica(RngSpec(seed, k), p, N)
                        for k in range(replicas)]
                fn = partial(_horizon_chunk, rng=RngSpec(seed), p=p, N=N)
                for workers in (1, 3):
                    got = run_chunked(fn, replicas, workers)
                    assert got.tolist() == want, (seed, p, N, workers)


def _stages(monkeypatch, p, N, replicas, seed):
    """(K, replicas) of each stage of one chunk, from its sweeps' shapes."""
    shapes = []
    sweep = compatibility._horizon_lanes

    def recorded(x, y):
        shapes.append(x.shape)
        return sweep(x, y)

    monkeypatch.setattr(compatibility, "_horizon_lanes", recorded)
    T = _horizon_chunk(0, replicas, RngSpec(seed), p, N)
    assert T.tolist() == [horizon_replica(RngSpec(seed, k), p, N)
                          for k in range(replicas)]
    stages = {}
    for lanes, K in shapes:
        assert lanes == 1 or 2 * lanes * K <= BLOCK_LETTERS
        stages[K] = stages.get(K, 0) + lanes
    return list(stages.items())


def test_stage_schedule(monkeypatch):
    # a later stage takes 4 times the letters, or N at once when over half
    # of the last stage reached its end
    assert _stages(monkeypatch, 0.4, 1000, 1500, 7) == [
        (16, 1500), (64, 649), (256, 192), (1000, 1)]
    assert _stages(monkeypatch, 0.0, 1000, 100, 1) == [(16, 100), (1000, 100)]
    assert _stages(monkeypatch, 0.35, 300, 400, 7) == [(16, 400), (300, 244)]
    assert _stages(monkeypatch, 1.0, 1000, 100, 1) == [(16, 100)]
    assert _stages(monkeypatch, 0.0, 10, 100, 1) == [(10, 100)]


def test_payload_pinned_at_benchmark_shape(tmp_path):
    argv = ("compat mc --p 1/2,0.6 --n 25,50,100,200 --replicas 2500 "
            "--seed 1").split()
    for workers in (1, 2):
        out = tmp_path / ("w%d.csv" % workers)
        assert cli.main(argv + ["--workers", str(workers),
                                "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "fc3b77b5a8d63e8d8280db6d9bc045f81626c71397390ae85250f525209509ab")


# Recorded while each replica was still swept on its own from 1000 letters
# a stream.  At p = 0.4 the stragglers reach every stage (16, 64, 256 and
# 1000 letters); at p = 0.35 over half pass 16 letters and go to N at once.
_LONG_BYTES = (
    b"p,n,estimate,stderr\n"
    b"3.50000000000e-01,1,8.86000000000e-01,8.20858822294e-03\n"
    b"3.50000000000e-01,16,6.14666666667e-01,1.25700586562e-02\n"
    b"3.50000000000e-01,17,6.05333333333e-01,1.26244277775e-02\n"
    b"3.50000000000e-01,64,3.95333333333e-01,1.26281262390e-02\n"
    b"3.50000000000e-01,65,3.92666666667e-01,1.26131848473e-02\n"
    b"3.50000000000e-01,256,1.35333333333e-01,8.83539421543e-03\n"
    b"3.50000000000e-01,257,1.34666666667e-01,8.81700232829e-03\n"
    b"3.50000000000e-01,1000,6.00000000000e-03,1.99465596907e-03\n"
    b"4.00000000000e-01,1,8.43333333333e-01,9.38830344858e-03\n"
    b"4.00000000000e-01,16,4.32666666667e-01,1.27966134984e-02\n"
    b"4.00000000000e-01,17,4.21333333333e-01,1.27534101329e-02\n"
    b"4.00000000000e-01,64,1.28000000000e-01,8.62903858325e-03\n"
    b"4.00000000000e-01,65,1.25333333333e-01,8.55172578695e-03\n"
    b"4.00000000000e-01,256,6.66666666667e-04,6.66666666667e-04\n"
    b"4.00000000000e-01,257,6.66666666667e-04,6.66666666667e-04\n"
    b"4.00000000000e-01,1000,0.00000000000e+00,0.00000000000e+00\n")


def test_payload_pinned_at_long_horizons(tmp_path):
    argv = ("compat mc --p 0.35,0.4 --n 1,16,17,64,65,256,257,1000 "
            "--replicas 1500 --seed 7").split()
    for workers in (1, 2, 3):
        out = tmp_path / ("w%d.csv" % workers)
        assert cli.main(argv + ["--workers", str(workers),
                                "--out", str(out)]) == 0
        assert out.read_bytes() == _LONG_BYTES, workers
