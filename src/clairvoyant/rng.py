"""Counter-based random streams.

Every Monte Carlo entry point in the package takes an :class:`RngSpec`
instead of a bare seed; replica kernels, and the samplers they call, take
the ``numpy.random.Generator`` they draw from.  The pair ``(master_seed,
stream_id)`` keys a Philox generator, so each replica draws from streams
of its own, independent of every other replica's and of how the replicas
are distributed over worker processes.

Philox is counter-based: its whole state is the key, a counter and a small
output buffer.  Setting the key and zeroing the rest therefore gives the
stream a freshly built ``Philox(key)`` gives, draw for draw, at a fifth of
the cost.  :meth:`RngSpec.generators` rewinds the generators it builds once
per call to each replica's streams in turn, and
:meth:`RngSpec.bernoulli_rows` rewinds a Philox of its own once per stream
to draw a whole block of replicas into one matrix: row i holds what stream
``lo + i`` would draw.
:meth:`RngSpec.generator` builds a fresh generator for one-off draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1
_ZEROS = (0, 0, 0, 0)


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
        seed = self.master_seed & _MASK64
        for k in range(lo * streams, hi * streams, streams):
            for b, i in bits:
                _rewind(b, (seed, k + i))
            yield gens

    def bernoulli_rows(self, lo: int, hi: int,
                       probs: np.ndarray) -> np.ndarray:
        """Bernoulli draws of streams lo <= k < hi, one bool row per stream.

        Row i equals ``self.stream(lo + i).generator().random(probs.shape)
        < probs``: each stream's uniforms go straight into one matrix of
        shape ``(hi - lo,) + probs.shape`` from a Philox built once per
        call and rewound per stream.
        """
        if not 0 <= lo <= hi:
            raise ValueError("need 0 <= lo <= hi")
        probs = np.asarray(probs, dtype=float)
        u = np.empty((hi - lo, probs.size))
        gen = np.random.Generator(np.random.Philox())
        bits = gen.bit_generator
        seed = self.master_seed & _MASK64
        for i in range(hi - lo):
            _rewind(bits, (seed, lo + i))
            gen.random(out=u[i])
        return u.reshape((hi - lo,) + probs.shape) < probs
