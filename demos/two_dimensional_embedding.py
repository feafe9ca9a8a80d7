"""
Reading words out of a random two-dimensional field
===================================================

Instead of embedding into a random sequence, fix a field of 0/1 cells on
the grid.  Group cells into R x R blocks; a block is good when it contains
both letters.  Good blocks percolate directedly once their density beats
the directed-site threshold, and any word can then be read along the block
path with gaps at most 5R.  On the triangular lattice one can also ask
which words are visible along self-avoiding walks from a fixed origin.
"""

import sys
from fractions import Fraction

from clairvoyant import (
    DIRECTED_SITE_THRESHOLD,
    LatticeKind,
    RngSpec,
    Visibility,
    Word,
    ab_scan,
    bernoulli_word,
    block_good_prob,
    block_percolation,
    embed_word_2d,
    field_from_text,
    sample_field,
    validate_embedding_2d,
    visible_word,
)

# block goodness density: 1 - p^(R^2) - (1-p)^(R^2), exact in p
print("R x R block is good with probability (p = 1/2):")
for R in (1, 2, 3):
    dens = block_good_prob(Fraction(1, 2), R)
    mark = ">" if float(dens) > DIRECTED_SITE_THRESHOLD else "<"
    print("  R = %d: %-8s ~ %.5f  %s %.6f (directed-site threshold)" %
          (R, dens, float(dens), mark, DIRECTED_SITE_THRESHOLD))
print()

# sample a field, find a directed path of good blocks, read a word along it
field = sample_field(0.5, width=90, height=150, rng=RngSpec(3))
R, depth = 3, 20
path = block_percolation(field, R, depth)
print("block path to depth %d: %s ..." %
      (depth, " ".join("(%d,%d)" % b for b in path[:6])))

w = bernoulli_word(20, 0.5, RngSpec(4))
witness = embed_word_2d(w, field, R, path)
if witness.gap_bound != 5 * R or not validate_embedding_2d(witness, w, field):
    sys.exit("the block embedding gave an invalid witness")
cells = list(zip(witness.rows, witness.cols))
print("word %s read at cells %s ..." %
      (w, " ".join("(%d,%d)" % c for c in cells[:5])))
steps = [abs(a - c) + abs(b - d) for (a, b), (c, d) in zip(cells, cells[1:])]
print("L1 gaps between consecutive letters: %s (bound 5R = %d)" %
      (steps, 5 * R))
print()

# visibility from a fixed origin: which words start a self-avoiding walk?
text = """
10110
01011
11001
01110
10101
"""
cfg = field_from_text(text).cells
print("visible from the center of a 5x5 patch:")
for word in ("101", "111", "0000"):
    w = Word.from_string(word)
    row = []
    for kind in LatticeKind:
        res = visible_word(cfg, kind, (2, 2), w)
        row.append("%s %s" % (kind.value, "yes" if res is Visibility.FOUND else "no"))
    print("  %-5s  %s" % (word, "   ".join(row)))
print()

# the alternating word beats the constant word on the triangular lattice
# at p = 1/2: AB-percolation occurs there while ordinary percolation is
# critical (tiny run; the acceptance test does this at scale)
rep = ab_scan(0.5, box=12, replicas=150, rng=RngSpec(0), budget=50_000)
print("triangular lattice, p = 1/2, %d-step words, %d replicas:" %
      (rep.box, rep.alternating.replicas))
print("  alternating visible %.3f +- %.3f" %
      (rep.alternating.mean, rep.alternating.stderr))
print("  constant    visible %.3f +- %.3f" %
      (rep.constant.mean, rep.constant.stderr))
print("  searches stopped by budget: %d / %d" %
      (rep.alternating_exhausted, rep.constant_exhausted))
