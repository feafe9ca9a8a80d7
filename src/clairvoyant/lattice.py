"""Two-dimensional embedding via good blocks, and visible-word probes.

The block construction coarse-grains a random binary field into R x R
blocks; a block is good when it contains both letters.  Good blocks form a
directed relation (i, j) -> (i+1, j+1) or (i+1, j+2) that is a copy of
directed N^2, and any directed path of good blocks lets every word embed
two-dimensionally with L1 gaps at most 5R.  A path is found by the gap
sweep `words.gap_frontiers` with gaps 1..2, one block row a letter.

Visible words are read along self-avoiding walks on a site configuration
over one of three planar lattices (square, triangular, close-packed).  The
search is exact DFS; a node-expansion budget turns long searches into an
explicit third outcome instead of a silent wrong answer.  It tries each
neighbour with one byte lookup in the mask of the letter the next step
needs, a mask that also drops the cells on the path, so the letter test
and the self-avoidance test cost one read.  The constant word
is pruned first: it needs a letter-cluster of n cells next to the origin.
`words.flood`, on a box `words.pack_box` packs into one int, finds that
cluster.
"""

from __future__ import annotations

import sys
from enum import Enum
from functools import lru_cache, partial

from ._lazy import np
from ._record import Record
from .errors import PropertyViolation
from .rng import RngSpec
from .runner import PerBlock, run_chunked
from .stats import Estimate
from .words import (SQUARE_STEPS, Word, alternating_word, constant_word,
                    flood, gap_frontiers, pack_box, pack_mask)


class LatticeKind(Enum):
    SQUARE = "square"
    TRIANGULAR = "triangular"
    CLOSE_PACKED = "close-packed"

    @property
    def offsets(self) -> tuple[tuple[int, int], ...]:
        return _OFFSETS[self]


# triangular = square plus one fixed diagonal per face; close-packed both
_DIAGONAL = ((1, 1), (-1, -1))
_OFFSETS = {
    LatticeKind.SQUARE: SQUARE_STEPS,
    LatticeKind.TRIANGULAR: SQUARE_STEPS + _DIAGONAL,
    LatticeKind.CLOSE_PACKED: SQUARE_STEPS + _DIAGONAL + ((1, -1), (-1, 1)),
}


class Field2D(Record):
    """Binary array Y[i, j], 1 <= i <= W, 1 <= j <= H, at cells[i-1, j-1]."""

    cells: np.ndarray
    p: float | None

    def __post_init__(self):
        if self.cells.ndim != 2:
            raise ValueError("field must be two-dimensional")
        if not np.isin(self.cells, (0, 1)).all():
            raise ValueError("field entries must be 0 or 1")

    @property
    def width(self) -> int:
        return self.cells.shape[0]

    @property
    def height(self) -> int:
        return self.cells.shape[1]


def sample_field(p: float, width: int, height: int, rng: RngSpec) -> Field2D:
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if width < 0 or height < 0:
        raise ValueError("field width and height must be >= 0")
    cells = rng.bernoulli_rows([rng.stream_id], np.full((width, height), p))
    return Field2D(cells=cells[0].astype(np.uint8), p=p)


def field_to_text(field: Field2D) -> str:
    """Line i holds Y_{i, 1..H} as 0/1 characters."""
    return "\n".join("".join(str(int(c)) for c in row) for row in field.cells)


def field_from_text(text: str) -> Field2D:
    rows = [line.strip() for line in text.splitlines() if line.strip()]
    if not rows or len({len(r) for r in rows}) != 1:
        raise ValueError("field text needs equal-length rows of 0/1")
    cells = np.array([[int(ch) for ch in row] for row in rows], dtype=np.uint8)
    return Field2D(cells=cells, p=None)


# Directed site percolation threshold on Z^2 (numerical value from the
# percolation literature).  Diagnostic only: a block-goodness density above
# this suggests the directed block process percolates, it proves nothing.
DIRECTED_SITE_THRESHOLD = 0.705489


def block_good_prob(p, R: int):
    """P(an R x R block contains both letters) = 1 - p^(R^2) - (1-p)^(R^2).

    Exact when p is a Fraction, float when p is a float.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    area = R * R
    return 1 - p**area - (1 - p) ** area


class BlockGrid(Record):
    """Goodness of R x R blocks; block (I, J) is good[I-1, J-1]."""

    R: int
    good: np.ndarray


def _good_blocks(rows: np.ndarray) -> np.ndarray:
    """Does each R x R block of rows hold both letters?"""
    return rows.any((1, 2)) & ~rows.all((1, 2))


def block_grid(field: Field2D, R: int) -> BlockGrid:
    if R < 1:
        raise ValueError("R must be >= 1")
    nbi = field.width // R
    nbj = field.height // R
    if nbi == 0 or nbj == 0:
        raise ValueError("field smaller than one block")
    view = field.cells[: nbi * R, : nbj * R].reshape(nbi, R, nbj, R)
    blocks = view.swapaxes(1, 2).reshape(-1, R, R)
    return BlockGrid(R=R, good=_good_blocks(blocks).reshape(nbi, nbj))


def block_relation_targets(block: tuple[int, int]) -> tuple[tuple[int, int], tuple[int, int]]:
    i, j = block
    return ((i + 1, j + 1), (i + 1, j + 2))


def block_percolation(field: Field2D, R: int,
                      depth: int) -> tuple[tuple[int, int], ...] | None:
    """A depth-step directed path of good blocks from block (1,1), or None."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    bg = block_grid(field, R)
    nbi, nbj = bg.good.shape
    if nbi < depth + 1 or nbj < 2 * depth + 1:
        raise ValueError(
            "field holds %dx%d blocks, too small for depth %d"
            % (nbi, nbj, depth)
        )
    if not bg.good[0, 0]:
        return None
    # bit j of frontier t: block (t + 1, j) ends a good path from (1, 1)
    frontiers = list(gap_frontiers(1 << 1, (pack_mask(row) << 1 for row
                                            in bg.good[1:depth + 1]), 2))
    f = frontiers[-1]
    if not f:
        return None
    j = (f & -f).bit_length() - 1
    path = [(depth + 1, j)]
    for t in range(depth - 1, -1, -1):
        j -= 1 if (frontiers[t] >> (j - 1)) & 1 else 2
        path.append((t + 1, j))
    path.reverse()
    return tuple(path)


class Embedding2DWitness(Record):
    """Strictly increasing rows (m_i) and columns (n_i) with L1 gap bound."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    gap_bound: int


def validate_embedding_2d(witness: Embedding2DWitness, w: Word,
                          field: Field2D) -> bool:
    m, n = witness.rows, witness.cols
    M = witness.gap_bound
    if len(m) != len(w) or len(n) != len(w):
        return False
    pm, pn = 0, 0
    for k in range(len(w)):
        if m[k] <= pm or n[k] <= pn:
            return False
        if not 1 <= (m[k] - pm) + (n[k] - pn) <= M:
            return False
        if m[k] > field.width or n[k] > field.height:
            return False
        if int(field.cells[m[k] - 1, n[k] - 1]) != w[k]:
            return False
        pm, pn = m[k], n[k]
    return True


def embed_word_2d(w: Word, field: Field2D, R: int,
                  block_path) -> Embedding2DWitness:
    """Embed w along a good-block path, one letter per block, M = 5R.

    Within block k the lexicographically smallest cell carrying w_k is
    taken, so witnesses are reproducible.
    """
    path = tuple((int(i), int(j)) for i, j in block_path)
    if len(path) < len(w):
        raise ValueError("block path shorter than the word")
    if path and path[0] != (1, 1):
        raise ValueError("block path must start at block (1,1)")
    for a, b in zip(path, path[1:]):
        if b not in block_relation_targets(a):
            raise ValueError("block path must step by (1,1) or (1,2)")
    rows = []
    cols = []
    for k in range(len(w)):
        bi, bj = path[k]
        sub = field.cells[(bi - 1) * R: bi * R, (bj - 1) * R: bj * R]
        if sub.shape != (R, R):
            raise ValueError("block (%d,%d) exceeds the field" % (bi, bj))
        if not _good_blocks(sub[None])[0]:
            raise ValueError("block (%d,%d) is not good" % (bi, bj))
        hits = np.argwhere(sub == w[k])
        li, lj = hits[0]
        rows.append((bi - 1) * R + int(li) + 1)
        cols.append((bj - 1) * R + int(lj) + 1)
    witness = Embedding2DWitness(tuple(rows), tuple(cols), 5 * R)
    if not validate_embedding_2d(witness, w, field):
        raise PropertyViolation("block embedding produced an invalid witness")
    return witness


class Visibility(Enum):
    FOUND = "found"
    ABSENT = "absent"
    EXHAUSTED = "budget-exhausted"


@lru_cache(maxsize=8)
def _adjacency(shape: tuple[int, int],
               kind: LatticeKind) -> tuple[tuple[int, ...], ...]:
    h, w = shape
    offs = kind.offsets
    ids = list(range(h * w))  # one int object per cell, shared by its tuples
    adj = []
    for i in range(h):
        for j in range(w):
            nbrs = []
            for di, dj in offs:
                a, b = i + di, j + dj
                if 0 <= a < h and 0 <= b < w:
                    nbrs.append(ids[a * w + b])
            adj.append(tuple(nbrs))
    return tuple(adj)


def _constant_prune(cells: np.ndarray, kind: LatticeKind,
                    origin: tuple[int, int], letter: int, n: int) -> bool:
    """True if no letter-cluster next to the origin can hold an n-path.

    Each cluster found smaller than n leaves bits, so it is flooded once.
    """
    bits, stride = pack_box(cells == letter)
    h, w = cells.shape
    i, j = origin
    for di, dj in kind.offsets:
        a, b = i + di, j + dj
        if 0 <= a < h and 0 <= b < w and bits >> (a * stride + b) & 1:
            for seen in flood(bits, stride, kind.offsets,
                              1 << (a * stride + b)):
                if seen.bit_count() >= n:
                    return False
            bits ^= seen
    return True


def visible_word(cells: np.ndarray, kind: LatticeKind, origin: tuple[int, int],
                 w: Word, budget: int | None = None) -> Visibility:
    """Is w readable along some self-avoiding walk from the origin?

    The origin's own letter is unconstrained; step k must land on letter
    w_k.  DFS expands nodes in a fixed order; with a budget the search may
    stop early with the explicit EXHAUSTED outcome.
    """
    h, wd = cells.shape
    if not (0 <= origin[0] < h and 0 <= origin[1] < wd):
        raise ValueError("origin outside the box")
    if budget is not None and budget < 0:
        raise ValueError("budget must be >= 0")
    n = len(w)
    if n == 0:
        return Visibility.FOUND
    letters = w.letters()
    if len(set(letters)) == 1 and _constant_prune(cells, kind, origin,
                                                  letters[0], n):
        return Visibility.ABSENT
    cap = sys.maxsize if budget is None else budget
    if cap < 1:  # the origin is the first expansion
        return Visibility.EXHAUSTED
    adj = _adjacency(cells.shape, kind)
    start = origin[0] * wd + origin[1]
    # free[a][u] == 1: cell u reads letter a and is off the path
    u8 = cells.astype(np.uint8, copy=False)
    free = [bytearray((u8 == a).tobytes()) for a in (0, 1)]
    free[0][start] = free[1][start] = 0
    steps = [free[a] for a in letters]  # step k lands on a cell of steps[k]
    path = [start] * n  # path[k]: the cell reached after k steps
    untried = [None] * n  # untried[k]: neighbors path[k] has yet to try
    k = 0  # letters matched so far
    last = n - 1
    cur = steps[0]
    it = iter(adj[start])
    expansions = 1
    while True:
        for u in it:
            if cur[u]:
                if k == last:
                    return Visibility.FOUND
                expansions += 1
                if expansions > cap:
                    return Visibility.EXHAUSTED
                cur[u] = 0
                untried[k] = it
                k += 1
                path[k] = u
                cur = steps[k]
                it = iter(adj[u])
                break
        else:
            if not k:
                return Visibility.ABSENT
            k -= 1
            cur = steps[k]
            cur[path[k + 1]] = 1
            it = untried[k]


class AbScanReport(Record):
    """Visibility frequencies of the two extremal words at one density."""

    p: float
    box: int
    budget: int
    alternating: Estimate
    constant: Estimate
    alternating_exhausted: int
    constant_exhausted: int


_AB_CODE = {Visibility.ABSENT: 0, Visibility.FOUND: 1, Visibility.EXHAUSTED: 2}


def _ab_block(fields: np.ndarray, box: int, budget: int,
              words: tuple[Word, ...]) -> np.ndarray:
    """Block kernel: row b holds the `_AB_CODE` of each word on field b."""
    # uint8 cells, so that visible_word reads them without a copy
    return np.array([
        [_AB_CODE[visible_word(cells, LatticeKind.TRIANGULAR, (box, box), w,
                               budget)] for w in words]
        for cells in fields.view(np.uint8)])


def ab_scan(p: float, box: int, replicas: int, rng: RngSpec,
            budget: int = 1_000_000, workers: int = 1) -> AbScanReport:
    """Visibility of the alternating vs constant word on the triangular box.

    Word length equals the box radius.  Budget-exhausted searches count as
    not visible in the estimates and are tallied separately, so each
    estimate is a lower bound on its word's visibility whenever its
    exhausted tally is above 0.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if box < 1:
        raise ValueError("box radius must be >= 1")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    side = 2 * box + 1
    probs = np.full((side, side), p)
    fn = PerBlock(_ab_block, partial(rng.bernoulli_rows, probs=probs),
                  probs.size, box=box, budget=budget,
                  words=(alternating_word(box), constant_word(box)))
    codes = run_chunked(fn, replicas, workers)
    return AbScanReport(
        p=p,
        box=box,
        budget=budget,
        alternating=Estimate.from_samples(codes[:, 0] == 1, rng),
        constant=Estimate.from_samples(codes[:, 1] == 1, rng),
        alternating_exhausted=int((codes[:, 0] == 2).sum()),
        constant_exhausted=int((codes[:, 1] == 2).sum()),
    )


def block_good_mc(p: float, R: int, replicas: int, rng: RngSpec,
                  workers: int = 1) -> Estimate:
    """Empirical frequency of good blocks among freshly sampled R x R blocks."""
    if R < 1:
        raise ValueError("R must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    probs = np.full((R, R), p)
    fn = PerBlock(_good_blocks, partial(rng.bernoulli_rows, probs=probs),
                  probs.size)
    samples = run_chunked(fn, replicas, workers)
    return Estimate.from_samples(samples, rng)
