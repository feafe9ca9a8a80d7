"""Counter-based random streams.

Every stochastic routine in the package takes an :class:`RngSpec` instead of
a bare seed.  The pair ``(master_seed, stream_id)`` keys a Philox generator,
so replica ``k`` of an experiment can draw from ``spec.stream(k)`` and get a
stream that is independent of every other replica and independent of how the
replicas are distributed over worker processes.

Philox is counter-based: its whole state is the key, a counter and a small
output buffer.  Setting the key and zeroing the rest therefore gives the
stream a freshly built ``Philox(key)`` gives, draw for draw, at a fifth of
the cost.  :meth:`RngSpec.generator` uses this to reuse one generator per
process; see its docstring for when it may.  :meth:`RngSpec.bernoulli_rows`
rewinds a Philox of its own once per stream to draw a whole block of
replicas into one matrix: row i holds what stream ``lo + i`` would draw.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_ZEROS = (0, 0, 0, 0)

# The generator that RngSpec.generator returned last, reused while no one
# else holds it.
_last: np.random.Generator | None = None
# Generators only RngSpec.bernoulli_rows uses; one is popped while a call
# runs, so a call in another thread builds its own instead of sharing it.
_spare_rows: list[np.random.Generator] = []


def _rewind(bits: np.random.Philox, key: tuple[int, int]) -> None:
    """Set a Philox to the start of the stream keyed by key."""
    bits.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


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
        """A generator at the start of this spec's Philox stream.

        The draws are those of ``Generator(Philox(key=[seed, stream]))``
        built fresh.  When nothing outside this module still refers to the
        generator returned last, nor to its ``bit_generator``, that
        generator is rewound to this stream and returned again instead.
        A generator or bit generator a caller holds is never reset: the
        caller gets a new one, which becomes the one kept for reuse.  (A
        caller that keeps only a raw pointer, such as
        ``bit_generator.ctypes``, holds no reference and is not protected.)
        Under the GIL this is thread-safe: a thread reading the kept
        generator holds a reference to it while it checks, so no two
        threads both pass the check.
        """
        global _last
        key = (self.master_seed & _MASK64, self.stream_id & _MASK64)
        gen = _last
        if gen is not None:
            bits = gen.bit_generator
            # referrers: _last, gen and the argument; bits: gen's own
            # reference, bits and the argument
            if sys.getrefcount(gen) == 3 and sys.getrefcount(bits) == 3:
                _rewind(bits, key)
                return gen
        gen = np.random.Generator(
            np.random.Philox(key=np.array(key, dtype=np.uint64)))
        _last = gen
        return gen

    def bernoulli_rows(self, lo: int, hi: int,
                       probs: np.ndarray) -> np.ndarray:
        """Bernoulli draws of streams lo <= k < hi, one bool row per stream.

        Row i equals ``self.stream(lo + i).generator().random(probs.shape)
        < probs``: each stream's uniforms go straight into one matrix of
        shape ``(hi - lo,) + probs.shape`` from a Philox this method keeps
        to itself and rewinds per stream.  It never touches the generator
        `generator` keeps, nor one a caller holds.
        """
        if not 0 <= lo <= hi:
            raise ValueError("need 0 <= lo <= hi")
        probs = np.asarray(probs, dtype=float)
        u = np.empty((hi - lo, probs.size))
        try:
            gen = _spare_rows.pop()
        except IndexError:
            gen = np.random.Generator(np.random.Philox())
        bits = gen.bit_generator
        seed = self.master_seed & _MASK64
        for i in range(hi - lo):
            _rewind(bits, (seed, lo + i))
            gen.random(out=u[i])
        _spare_rows.append(gen)
        return u.reshape((hi - lo,) + probs.shape) < probs
