"""Binary words, and the bitset primitives the models share.

Letters are ints in {0, 1}.  A :class:`Word` packs its letters LSB-first
into a Python int, so whole-alphabet scans and frontier DPs elsewhere in the
package can work on machine words; index ``i`` of the word is bit ``i`` of
``bits``.

`pack_rows` and `unpack_rows` give the lane layout of the block kernels:
row b of a bool array at bits b*stride and up of one int.  `gap_frontiers`
is the forward sweep of gap-bounded embedding, which block percolation
runs with gaps 1..2.  `pack_box` packs a 2-D box with one empty column, and
`flood` grows a cluster in it one BFS layer at a time, for the lattice
walks, the environment crossing and the undirected scheduling escape.
"""

from __future__ import annotations

from typing import Iterator

from ._lazy import np
from ._record import Record
from .rng import RngSpec


_DIGITS = {0: "0", 1: "1"}
_LETTER_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class Word(Record):
    """A finite word over {0, 1}, packed LSB-first into an int."""

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("word length must be >= 0")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError("bits out of range for length %d" % self.n)

    @classmethod
    def from_letters(cls, letters) -> "Word":
        try:
            # 0, 1, bools and numpy ints hash and compare equal to 0 or 1
            digits = [_DIGITS[a] for a in letters]
        except (KeyError, TypeError):
            raise ValueError("letters must be 0 or 1") from None
        return cls.from_string("".join(digits))

    @classmethod
    def from_string(cls, s: str) -> "Word":
        if not set(s) <= {"0", "1"}:
            raise ValueError("word literals use characters 0 and 1 only")
        # int(text, 2) reads the highest bit first; letter 0 is bit 0
        return cls(int(s[::-1], 2) if s else 0, len(s))

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters())

    def __str__(self) -> str:
        return format(self.bits, "0%db" % self.n)[::-1] if self.n else ""

    def __repr__(self) -> str:
        return "Word(%r)" % str(self)

    def letters(self) -> tuple[int, ...]:
        return tuple(str(self).encode("ascii").translate(_LETTER_BYTES))

    def complement(self) -> "Word":
        mask = (1 << self.n) - 1
        return Word(self.bits ^ mask, self.n)

    def prefix(self, k: int) -> "Word":
        if not 0 <= k <= self.n:
            raise ValueError("prefix length out of range")
        return Word(self.bits & ((1 << k) - 1), k)


def pack_mask(mask: np.ndarray) -> int:
    """A bool array, read in C order, packed LSB-first into an int: the
    layout of Word.bits."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(),
                          "little")


def pack_rows(rows: np.ndarray, stride: int) -> int:
    """Row b of a 2-D bool array at bits b*stride .. b*stride + width - 1
    of one int; the bits up to the next row are 0."""
    count, width = rows.shape
    buf = np.zeros((count, stride), dtype=bool)
    buf[:, :width] = rows
    return pack_mask(buf)


def unpack_rows(bits: int, count: int, stride: int) -> np.ndarray:
    """The inverse of `pack_rows`: bits 0 .. count*stride - 1 of bits as a
    (count, stride) bool array."""
    size = count * stride
    raw = np.frombuffer(bits.to_bytes((size + 7) // 8, "little"), np.uint8)
    bools = np.unpackbits(raw, count=size, bitorder="little").view(bool)
    return bools.reshape(count, stride)


def gap_frontiers(r: int, masks, M: int):
    """Yield the forward sweep's frontiers from r, one more per mask.

    Each step spreads every set bit of the frontier forward by 1..M and
    keeps those in the next letter's mask; a mask is read only when the
    sweep reaches it, and the sweep stops after the first empty frontier.
    The spread doubles: from s = r << 1, which covers gaps 1..1,
    s |= s << k covers gaps 1..span + k for k <= span, so about log2 M
    shifts reach M.  For a word v into y, r = 1 is the virtual start
    m_0 = 0 and mask i has bit m set iff y_m = v_i, so frontier i has bit
    m set iff v_1..v_i M-embeds into y with v_i at 1-based position m.
    """
    yield r
    for mask in masks:
        s, span = r << 1, 1
        while span < M:
            k = min(span, M - span)
            s |= s << k
            span += k
        r = s & mask
        yield r
        if not r:
            return


def pack_box(cells: np.ndarray) -> tuple[int, int]:
    """(bits, stride): cell (i, j) of an H x W 0/1 array is bit i*stride + j.

    stride = W + 1 leaves column W empty, so no lattice step wraps a row.
    """
    stride = cells.shape[1] + 1
    return pack_rows(cells, stride), stride


# The 4-neighbour steps (di, dj) of the square lattice
SQUARE_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def flood(bits: int, stride: int, steps, seed: int):
    """Yield the cells of bits reached from seed & bits, one BFS layer more
    each time: front = OR_s(front << s) & bits & ~seen, s = di*stride + dj
    for each step (di, dj).
    """
    shifts = [di * stride + dj for di, dj in steps]
    seen = front = seed & bits
    unseen = bits ^ front
    while front:
        yield seen
        grown = 0
        for s in shifts:
            grown |= front << s if s > 0 else front >> -s
        front = grown & unseen
        unseen ^= front
        seen |= front


def alternating_word(n: int) -> Word:
    """0101... of length n (starts with 0)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Word.from_string(("01" * (n // 2 + 1))[:n])


def constant_word(n: int, letter: int = 1) -> Word:
    if letter not in (0, 1):
        raise ValueError("letter must be 0 or 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    return Word(((1 << n) - 1) if letter else 0, n)


def bernoulli_word(n: int, p: float, rng: RngSpec) -> Word:
    """n iid letters, P(letter = 1) = p."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return Word(pack_mask(rng.bernoulli_rows([rng.stream_id],
                                             np.full(n, p))[0]), n)
