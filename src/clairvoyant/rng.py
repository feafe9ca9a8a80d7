"""Counter-based random streams.

Every Monte Carlo entry point in the package takes an :class:`RngSpec`
instead of a bare seed, and draws each replica from streams of its own:
the pair ``(master_seed, stream_id)`` keys a Philox generator, so what a
replica draws is independent of every other replica's and of how the
replicas are distributed over worker processes.

Philox is counter-based: its whole state is the key, a counter and a small
output buffer.  Setting the key and zeroing the rest therefore gives the
stream a freshly built ``Philox(key)`` gives, draw for draw, at a
twentieth of the cost.  Stream ids cross this module's boundary in one
form, an array of ids (any iterable of ints, in any order and with
repeats), and every way of drawing a stream refuses an id outside [0,
2^64) alike.  :meth:`RngSpec.uniform_rows` draws the streams' uniforms
into one matrix, row i holding what the i-th stream's ``random`` would
give; the first letters of a stream do not depend on how many follow, so
a kernel can redraw a few of its streams longer.  Short rows come from one
numpy pass of Philox4x64-10 over every (stream, counter) pair, bit for
bit numpy's own Philox; rows longer than ``BATCHED_LETTERS`` come from
`_rewound`, which rewinds one generator to each stream of the array in
turn.  :meth:`RngSpec.bernoulli_rows` compares uniform rows with
densities.  :meth:`RngSpec.integer_rows` draws what each stream's
``integers(1, M + 1)`` gives: it maps the rows' raw words in one pass, as
numpy does by Lemire's multiply-and-shift ``((u M) >> 32) + 1``, and
hands back to numpy only the rows where it would reject a value and draw
again.  A one-off draw is row 0 of a row method for ``[stream_id]``, so
this module alone turns streams into values; :meth:`RngSpec.generator`,
numpy's own ``Generator(Philox(key))``, is the reference they all equal,
and nothing in the package calls it.  Seeds, like stream ids, must lie in
[0, 2^64): none is reduced, so two recorded seeds never share streams.
"""

from __future__ import annotations

import operator
import sys
from typing import Iterator

from ._lazy import np
from ._record import Record

_MASK64 = (1 << 64) - 1
# seeds and stream ids are the two 64-bit words of a Philox key
_KEY_WORDS = 1 << 64
_ZEROS = (0, 0, 0, 0)

# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as
# 1, 2, 3", SC 2011) as numpy implements it: round multipliers, key bumps
# and rounds
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10

# Rows of at most this many letters, or raw words for integer_rows, come
# from the batched pass.  On a
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


def _philox_words(seed: int, ids: np.ndarray, blocks: int) -> np.ndarray:
    """Raw words of the streams in the uint64 array ids, one row per id.

    Row i equals ``Philox(key=(seed, ids[i])).random_raw(4 * blocks)``.
    Each (stream, block) pair is one uint64 lane: block j enciphers the
    counter (j + 1, 0, 0, 0), since numpy's Philox increments its counter
    before it generates, under the key (seed, stream).
    """
    count = len(ids)
    shape = (count, blocks)
    c0 = np.empty(shape, np.uint64)
    c0[:] = np.arange(1, blocks + 1, dtype=np.uint64)
    c1, c2, c3, a, b, t1, t2 = (np.zeros(shape, np.uint64) for _ in range(7))
    k0 = seed
    k1 = ids.reshape(count, 1).copy()
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


def _batched_words(seed: int, ids: np.ndarray, words: int):
    """(a, raw) per pass of `_philox_words`, at most ``_LANES`` lanes a
    pass: raw holds at least words raw words of ids[a], ids[a + 1], ..."""
    blocks = -(-words // 4)
    step = _LANES // max(1, blocks)
    for a in range(0, len(ids), step):
        yield a, _philox_words(seed, ids[a:a + step], blocks)


def _bounded(raw: np.ndarray, M: int, out: np.ndarray) -> np.ndarray:
    """Fill out with what numpy's ``integers(1, M + 1)``, 1 <= M <= 2^32,
    makes of the uint32 halves of raw, row by row and low half first,
    were it never to draw again; return, per row, whether it would."""
    # as little-endian words, the halves come out low first on any host
    half = raw.astype("<u8", copy=False).view("<u4")[:, :out.shape[1]]
    # the products u M < 2^64, and the values, in out's own memory
    m = out.view(np.uint64)
    np.multiply(half, np.uint64(M), out=m, dtype=np.uint64)
    threshold = (2**32 - M) % M
    if threshold:
        # the products' low halves, read in place: a copy of them would
        # cost a page fault per 4 KiB whenever malloc has just trimmed
        low = m.view(np.uint32)[:, int(sys.byteorder == "big")::2]
        again = (low < np.uint32(threshold)).any(axis=1)
    else:
        again = np.zeros(len(m), bool)
    m >>= np.uint64(32)
    m += np.uint64(1)
    return again


class RngSpec(Record):
    """A reproducible random stream: master seed plus stream id."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < _KEY_WORDS:
            raise ValueError("master_seed must lie in [0, 2^64)")
        if not 0 <= self.stream_id < _KEY_WORDS:
            raise ValueError("stream_id must lie in [0, 2^64)")

    def stream(self, k: int) -> "RngSpec":
        """The k-th derived stream under the same master seed."""
        return RngSpec(self.master_seed, k)

    def generator(self) -> np.random.Generator:
        """``Generator(Philox(key=[seed, stream]))``, built fresh: numpy's
        own stream, the reference for the row methods."""
        key = (self.master_seed, self.stream_id)
        return np.random.Generator(
            np.random.Philox(key=np.array(key, dtype=np.uint64)))

    def uniform_rows(self, ids, letters: int) -> np.ndarray:
        """Uniforms on [0, 1), one float64 row of letters per stream id.

        Row i equals ``self.stream(k_i).generator().random(letters)`` for
        the i-th id k_i.  Rows of at most ``BATCHED_LETTERS`` letters come
        from `_philox_words`, at most ``_LANES`` lanes a pass, as numpy
        makes a uniform of a raw word x: ``(x >> 11) 2^-53``.  Longer rows
        come from numpy's ``random`` on `_rewound`.
        """
        ids = _id_array(ids)
        u = np.empty((len(ids), letters))
        if letters > BATCHED_LETTERS:
            for row, gen in zip(u, _rewound(self.master_seed, ids)):
                gen.random(out=row)
            return u
        for a, words in _batched_words(self.master_seed, ids, letters):
            words >>= np.uint64(11)
            np.multiply(words[:, :letters], 2.0 ** -53,
                        out=u[a:a + len(words)])
        return u

    def integer_rows(self, ids, M: int, count: int) -> np.ndarray:
        """Integers on {1..M}, one int64 row of count per stream id.

        Row i equals ``self.stream(k_i).generator().integers(1, M + 1,
        size=count)`` for the i-th id k_i, for 1 <= M < 2^63.  For M up
        to 2^32 numpy maps each uint32 u of the stream, the low half of a
        raw word first, to ``((u M) >> 32) + 1`` (Lemire, "Fast random
        integer generation in an interval", TOMACS 2019), and draws u
        again when ``(u M) mod 2^32 < (2^32 - M) mod M``.  Here each row's
        ceil(count / 2) raw words come from `_philox_words` when there are
        at most ``BATCHED_LETTERS`` of them and from the rewound Philox
        otherwise, every value is mapped in one pass, and only a row where
        some value would be drawn again is redrawn by numpy's own
        ``integers``, as is every row for M past 2^32.
        """
        ids = _id_array(ids)
        M = operator.index(M)
        if not 1 <= M < 1 << 63:
            raise ValueError("M must lie in [1, 2^63)")
        rows = np.empty((len(ids), count), np.int64)
        redraw = np.ones(len(ids), bool)
        if M <= 1 << 32:
            words = -(-count // 2)
            if words > BATCHED_LETTERS:
                raw = np.empty((len(ids), words), np.uint64)
                for row, gen in zip(raw, _rewound(self.master_seed, ids)):
                    row[:] = gen.bit_generator.random_raw(words)
                chunks = [(0, raw)]
            else:
                chunks = _batched_words(self.master_seed, ids, words)
            for a, raw in chunks:
                b = a + len(raw)
                redraw[a:b] = _bounded(raw, M, rows[a:b])
        if redraw.any():
            for i, gen in zip(np.flatnonzero(redraw),
                              _rewound(self.master_seed, ids[redraw])):
                rows[i] = gen.integers(1, M + 1, size=count)
        return rows

    def bernoulli_rows(self, ids, probs) -> np.ndarray:
        """Bernoulli draws, one bool row per stream id in ids.

        Row i equals ``self.stream(k_i).generator().random(probs.shape) <
        probs`` for the i-th id k_i, in a matrix of shape ``(len(ids),) +
        probs.shape``.  A NaN density gives false, as ``u < NaN`` does.
        """
        probs = np.asarray(probs, dtype=float)
        u = self.uniform_rows(ids, probs.size)
        return u.reshape((len(u),) + probs.shape) < probs


def _rewound(seed: int, ids: np.ndarray) -> Iterator[np.random.Generator]:
    """Per id of the checked uint64 array ids, a generator at the start of
    stream (seed, id): it draws what ``RngSpec(seed, id).generator()``
    draws.  One generator is rewound for every id, so it is valid only
    until the next one is yielded.
    """
    # a fixed key: every yield rewinds it, and seeding from OS entropy
    # would only cost time
    gen = np.random.Generator(np.random.Philox(key=0))
    bits = gen.bit_generator
    # assigning this dict, its key set to (seed, k), rewinds a Philox to
    # the start of stream k: counter, buffer and the spare half-word of
    # an int32 draw are all reset.  numpy copies the values, so one dict
    # serves every rewind
    start = {"bit_generator": "Philox",
             "state": {"counter": _ZEROS, "key": None},
             "buffer": _ZEROS, "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    state = start["state"]
    for k in ids.tolist():
        state["key"] = (seed, k)
        bits.state = start
        yield gen


def _id_array(ids) -> np.ndarray:
    """Stream ids as a 1-D uint64 array; ids outside [0, 2^64) refused."""
    if isinstance(ids, np.ndarray) and ids.dtype.kind in "iu":
        if ids.ndim != 1:
            raise ValueError("stream ids must form a 1-D array")
        if ids.dtype.kind == "i" and ids.size and ids.min() < 0:
            raise ValueError("stream ids must lie in [0, 2^64)")
        return ids.astype(np.uint64, copy=False)
    # through Python ints: numpy would hold 2^64 - 1 beside a small id,
    # or -1 beside a large one, as float64
    ids = [operator.index(k) for k in ids]
    if ids and not (0 <= min(ids) and max(ids) < _KEY_WORDS):
        raise ValueError("stream ids must lie in [0, 2^64)")
    return np.array(ids, dtype=np.uint64)
