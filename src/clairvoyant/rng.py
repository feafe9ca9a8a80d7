"""Counter-based random streams.

Every Monte Carlo entry point in the package takes an :class:`RngSpec`
instead of a bare seed; replica kernels, and the samplers they call, take
the ``numpy.random.Generator`` they draw from.  The pair ``(master_seed,
stream_id)`` keys a Philox generator, so each replica draws from streams
of its own, independent of every other replica's and of how the replicas
are distributed over worker processes.

Philox is counter-based: its whole state is the key, a counter and a small
output buffer.  Setting the key and zeroing the rest therefore gives the
stream a freshly built ``Philox(key)`` gives, draw for draw, at a
twentieth of the cost.  :meth:`RngSpec.generators` rewinds the generators
it builds once per call to each replica's streams in turn.
:meth:`RngSpec.bernoulli_rows` draws a whole block of replicas into one
matrix, row i holding what stream ``lo + i`` would draw.  Short rows come
from one numpy pass of Philox4x64-10 over every (stream, counter) pair of
the block, bit for bit numpy's own Philox; rows longer than
``BATCHED_LETTERS`` come from a Philox rewound per stream, since past that
length numpy's C Philox costs less than the pass.
:meth:`RngSpec.generator` builds a fresh generator for one-off draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1
_ZEROS = (0, 0, 0, 0)

# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as
# 1, 2, 3", SC 2011) as numpy implements it: round multipliers, key bumps
# and rounds
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10

# Rows of at most this many letters come from the batched pass.  On a
# 2-vCPU x86 VM (best of 25 to 30, blocks of 2^16 letters, four runs) the
# pass costs about 35 ns a letter, and numpy's C Philox rewound per stream
# about 1.5 us a stream plus 6 to 10 ns a letter: they meet between 52 and
# 60 letters, where the two differ by under 0.1 us a stream.
BATCHED_LETTERS = 56

# The most (stream, 4-word block) lanes one batched pass holds: 2^16
# letters when rows fill whole blocks, in eight uint64 arrays of 128 KiB.
_LANES = 1 << 14


def _mulhilo(a: np.ndarray, m: int, lo: np.ndarray, hi: np.ndarray,
             t1: np.ndarray, t2: np.ndarray) -> None:
    """Set lo and hi to the low and high words of the 128-bit a * m.

    numpy has no 128-bit product, so the high word is summed from the four
    32-bit partial products, none of whose sums can overflow; t1 and t2
    are scratch.  Every operand is uint64, also under numpy's value-based
    promotion before NEP 50.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    half, mask = np.uint64(32), np.uint64(0xFFFFFFFF)
    np.bitwise_and(a, mask, out=t1)          # a_lo
    np.right_shift(a, half, out=t2)          # a_hi
    np.multiply(t2, m_hi, out=hi)
    np.multiply(t2, m_lo, out=t2)
    np.multiply(t1, m_hi, out=lo)
    np.multiply(t1, m_lo, out=t1)
    np.right_shift(t1, half, out=t1)
    t1 += t2                                 # a_hi m_lo + (a_lo m_lo >> 32)
    np.right_shift(lo, half, out=t2)
    hi += t2
    lo &= mask
    t1 += lo
    t1 >>= half
    hi += t1
    np.multiply(a, np.uint64(m), out=lo)


def _philox_words(seed: int, first: int, count: int,
                  blocks: int) -> np.ndarray:
    """Raw words of streams first <= k < first + count, one row per stream.

    Row i equals ``Philox(key=(seed, first + i)).random_raw(4 * blocks)``.
    Each (stream, block) pair is one uint64 lane: block j enciphers the
    counter (j + 1, 0, 0, 0), since numpy's Philox increments its counter
    before it generates, under the key (seed, stream).
    """
    shape = (count, blocks)
    c0 = np.empty(shape, np.uint64)
    c0[:] = np.arange(1, blocks + 1, dtype=np.uint64)
    c1, c2, c3, a, b, t1, t2 = (np.zeros(shape, np.uint64) for _ in range(7))
    k0 = seed
    k1 = np.arange(count, dtype=np.uint64).reshape(count, 1)
    k1 += np.uint64(first & _MASK64)
    for r in range(_ROUNDS):
        if r:
            k0 = (k0 + _W0) & _MASK64
            k1 += np.uint64(_W1)
        # (c0, c1, c2, c3) -> (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0),
        # with (lo0, hi0) = c0 * M0 and (lo1, hi1) = c2 * M1
        _mulhilo(c0, _M0, a, b, t1, t2)
        b ^= c3
        b ^= k1
        _mulhilo(c2, _M1, c3, c0, t1, t2)
        c0 ^= c1
        c0 ^= np.uint64(k0)
        c0, c1, c2, c3, a, b = c0, c3, b, a, c1, c2
    # free the scratch lanes before the words are copied out, so a pass
    # holds at most eight lane arrays, not twelve: 0.4 MB less peak RSS
    # over the three commands of the benchmark's mc_streams workload
    del a, b, t1, t2
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(count, 4 * blocks)


@dataclass(frozen=True)
class RngSpec:
    """A reproducible random stream: master seed plus stream id."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.stream_id < 0:
            raise ValueError("stream_id must be >= 0")

    def stream(self, k: int) -> "RngSpec":
        """The k-th derived stream under the same master seed."""
        return RngSpec(self.master_seed, k)

    def generator(self) -> np.random.Generator:
        """``Generator(Philox(key=[seed, stream]))``, built fresh."""
        key = (self.master_seed & _MASK64, self.stream_id & _MASK64)
        return np.random.Generator(
            np.random.Philox(key=np.array(key, dtype=np.uint64)))

    def generators(self, lo: int, hi: int, streams: int = 1
                   ) -> Iterator[tuple[np.random.Generator, ...]]:
        """Per replica lo <= k < hi, a tuple of ``streams`` generators.

        Replica k's tuple holds generators at the start of streams
        ``streams * k + i`` for i < streams, draw for draw those of
        ``self.stream(streams * k + i).generator()``.  The same generators
        are rewound for every replica, so a tuple is valid only until the
        next one is yielded.
        """
        if not 0 <= lo <= hi:
            raise ValueError("need 0 <= lo <= hi")
        if streams < 1:
            raise ValueError("streams must be >= 1")
        gens = tuple(np.random.Generator(np.random.Philox())
                     for _ in range(streams))
        bits = [(g.bit_generator, i) for i, g in enumerate(gens)]
        # assigning this dict, its key set to (seed, k), rewinds a Philox to
        # the start of stream k: counter, buffer and the spare half-word of
        # an int32 draw are all reset.  numpy copies the values, so one dict
        # serves every rewind
        start = {"bit_generator": "Philox",
                 "state": {"counter": _ZEROS, "key": None},
                 "buffer": _ZEROS, "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        state = start["state"]
        seed = self.master_seed & _MASK64
        for k in range(lo * streams, hi * streams, streams):
            for b, i in bits:
                state["key"] = (seed, k + i)
                b.state = start
            yield gens

    def bernoulli_rows(self, lo: int, hi: int,
                       probs: np.ndarray) -> np.ndarray:
        """Bernoulli draws of streams lo <= k < hi, one bool row per stream.

        Row i equals ``self.stream(lo + i).generator().random(probs.shape)
        < probs``, in a matrix of shape ``(hi - lo,) + probs.shape``.

        Rows of at most ``BATCHED_LETTERS`` letters come from
        `_philox_words`, at most ``_LANES`` lanes a pass, and compare in
        integers: a uniform is ``u = (x >> 11) 2^-53`` for the raw word x,
        so ``u < p`` exactly when ``x >> 11 < ceil(p 2^53)``.  The pass
        costs about 35 ns a letter, so longer rows come from numpy's
        ``random`` on the Philox `generators` rewinds per stream, at about
        1.5 us a stream plus 8 ns a letter.
        """
        if not 0 <= lo <= hi:
            raise ValueError("need 0 <= lo <= hi")
        probs = np.asarray(probs, dtype=float)
        shape = (hi - lo,) + probs.shape
        if probs.size > BATCHED_LETTERS:
            u = np.empty((hi - lo, probs.size))
            for row, (gen,) in zip(u, self.generators(lo, hi)):
                gen.random(out=row)
            return u.reshape(shape) < probs
        seed = self.master_seed & _MASK64
        # fmax and fmin send a NaN density to 0: u < NaN is false
        unit = np.fmin(np.fmax(probs.ravel(), 0.0), 1.0)
        thresholds = np.ceil(unit * 2.0 ** 53).astype(np.uint64)
        blocks = -(-probs.size // 4)
        step = _LANES // max(1, blocks)
        rows = np.empty((hi - lo, probs.size), dtype=bool)
        for a in range(0, hi - lo, step):
            b = min(a + step, hi - lo)
            words = _philox_words(seed, lo + a, b - a, blocks)
            words >>= np.uint64(11)
            np.less(words[:, :probs.size], thresholds, out=rows[a:b])
        return rows.reshape(shape)
