"""Binary words, gap encodings, and uniform walk sequences.

Letters are ints in {0, 1}.  A :class:`Word` packs its letters LSB-first
into a Python int, so whole-alphabet scans and frontier DPs elsewhere in the
package can work on machine words; index ``i`` of the word is bit ``i`` of
``bits``.

A word is equivalently described by its gap encoding: the run lengths of 0s
before, between and after its 1s.  Removing 0s from a word only shrinks
gaps, which is why several reachability questions reduce to componentwise
comparisons of gap vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .rng import RngSpec


@dataclass(frozen=True)
class Word:
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
        bits = 0
        n = 0
        for a in letters:
            if a not in (0, 1):
                raise ValueError("letters must be 0 or 1")
            # int() keeps numpy scalars from overflowing the shift
            bits |= int(a) << n
            n += 1
        return cls(bits, n)

    @classmethod
    def from_string(cls, s: str) -> "Word":
        if any(ch not in "01" for ch in s):
            raise ValueError("word literals use characters 0 and 1 only")
        return cls.from_letters(int(ch) for ch in s)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __iter__(self) -> Iterator[int]:
        return ((self.bits >> i) & 1 for i in range(self.n))

    def __str__(self) -> str:
        return "".join(str(a) for a in self)

    def __repr__(self) -> str:
        return "Word(%r)" % str(self)

    def letters(self) -> tuple[int, ...]:
        return tuple(self)

    def ones(self) -> int:
        return bin(self.bits).count("1")

    def complement(self) -> "Word":
        mask = (1 << self.n) - 1
        return Word(self.bits ^ mask, self.n)

    def prefix(self, k: int) -> "Word":
        if not 0 <= k <= self.n:
            raise ValueError("prefix length out of range")
        return Word(self.bits & ((1 << k) - 1), k)


def pack_mask(mask: np.ndarray) -> int:
    """A 1-D bool array packed LSB-first into an int, the layout of Word.bits."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(),
                          "little")


def unpack_mask(bits: int, size: int) -> np.ndarray:
    """The inverse of `pack_mask`: bits 0 .. size-1 of bits as bools."""
    raw = bits.to_bytes((size + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=size,
                         bitorder="little").view(bool)


@dataclass(frozen=True)
class GapEncoding:
    """Run lengths of 0s around the 1s of a word.

    ``gaps[j]`` counts the 0s immediately before the (j+1)-th 1;
    ``trailing`` counts the 0s after the last 1.  A word with no 1s has
    empty ``gaps`` and ``trailing`` equal to its length.
    """

    gaps: tuple[int, ...]
    trailing: int

    def __post_init__(self):
        if self.trailing < 0 or any(g < 0 for g in self.gaps):
            raise ValueError("gap lengths must be >= 0")

    def decode(self) -> Word:
        letters: list[int] = []
        for g in self.gaps:
            letters.extend([0] * g)
            letters.append(1)
        letters.extend([0] * self.trailing)
        return Word.from_letters(letters)


def gap_encode(w: Word) -> GapEncoding:
    gaps = []
    run = 0
    for a in w:
        if a:
            gaps.append(run)
            run = 0
        else:
            run += 1
    return GapEncoding(tuple(gaps), run)


def reduces_to(x: Word, y: Word) -> bool:
    """True iff y can be obtained from x by deleting some of x's 0s.

    Equivalent to: same number of 1s, and every gap of y is at most the
    corresponding gap of x (trailing gap included).
    """
    gx = gap_encode(x)
    gy = gap_encode(y)
    if len(gx.gaps) != len(gy.gaps):
        return False
    if gy.trailing > gx.trailing:
        return False
    return all(b <= a for a, b in zip(gx.gaps, gy.gaps))


def alternating_word(n: int) -> Word:
    """0101... of length n (starts with 0)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Word.from_letters((i & 1) for i in range(n))


def constant_word(n: int, letter: int = 1) -> Word:
    if letter not in (0, 1):
        raise ValueError("letter must be 0 or 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    return Word(((1 << n) - 1) if letter else 0, n)


def periodic_word(pattern: Word, n: int) -> Word:
    """The length-n prefix of pattern repeated forever."""
    if len(pattern) == 0:
        raise ValueError("pattern must be nonempty")
    if n < 0:
        raise ValueError("n must be >= 0")
    return Word.from_letters(pattern[i % len(pattern)] for i in range(n))


def bernoulli_word(n: int, p: float, rng: RngSpec) -> Word:
    """n iid letters, P(letter = 1) = p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return Word(pack_mask(rng.generator().random(n) < p), n)


def make_word(kind: str, n: int, *, pattern: str | None = None,
              p: float | None = None, rng: RngSpec | None = None) -> Word:
    """Factory used by the command line: kind names a word family."""
    if kind == "alternating":
        return alternating_word(n)
    if kind == "constant":
        return constant_word(n)
    if kind == "zeros":
        return constant_word(n, letter=0)
    if kind == "periodic":
        if pattern is None:
            raise ValueError("periodic words need a pattern")
        return periodic_word(Word.from_string(pattern), n)
    if kind == "bernoulli":
        if p is None or rng is None:
            raise ValueError("bernoulli words need p and an RngSpec")
        return bernoulli_word(n, p, rng)
    raise ValueError("unknown word kind %r" % kind)


@dataclass(frozen=True)
class IntSequence:
    """A finite sequence of letters from {1, ..., M}."""

    values: tuple[int, ...]
    M: int

    def __post_init__(self):
        if self.M < 2:
            raise ValueError("alphabet size M must be >= 2")
        if self.values and (min(self.values) < 1
                            or max(self.values) > self.M):
            raise ValueError("values must lie in 1..M")

    @classmethod
    def from_string(cls, s: str, M: int) -> "IntSequence":
        vals = tuple(int(t) for t in s.split(",")) if s else ()
        return cls(vals, M)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.values)


def sample_uniform_sequence(M: int, n: int,
                            g: np.random.Generator) -> IntSequence:
    """n iid letters from g, uniform on {1, ..., M}."""
    if M < 2:
        raise ValueError("alphabet size M must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    return IntSequence(tuple(g.integers(1, M + 1, size=n).tolist()), M)
