from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from clairvoyant import lattice
from clairvoyant.lattice import (
    DIRECTED_SITE_THRESHOLD,
    Embedding2DWitness,
    Field2D,
    LatticeKind,
    Visibility,
    ab_scan,
    block_good_mc,
    block_good_prob,
    block_grid,
    block_percolation,
    block_relation_targets,
    embed_word_2d,
    field_from_text,
    field_to_text,
    sample_field,
    validate_embedding_2d,
    visible_word,
)
from clairvoyant.rng import RngSpec
from clairvoyant.runner import BLOCK_LETTERS
from clairvoyant.stats import Estimate
from clairvoyant.words import Word, alternating_word, constant_word

from oracles import (
    brute_block_reachable,
    brute_cluster,
    brute_visible_words,
    budgeted_visible_word,
    flood_prune,
    good_block_replica,
)


def test_block_good_prob_values():
    assert block_good_prob(Fraction(1, 2), 2) == Fraction(7, 8)
    assert block_good_prob(Fraction(1, 4), 2) == \
        1 - Fraction(1, 4) ** 4 - Fraction(3, 4) ** 4
    # a single cell never holds both letters
    for p in (Fraction(0), Fraction(1, 3), Fraction(1)):
        assert block_good_prob(p, 1) == 0
    assert block_good_prob(Fraction(0), 3) == 0
    with pytest.raises(ValueError):
        block_good_prob(Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        block_good_prob(2, 2)
    # the Monte Carlo side refuses the same inputs instead of estimating 0
    with pytest.raises(ValueError):
        block_good_mc(0.5, 0, 10, RngSpec(0))
    with pytest.raises(ValueError):
        block_good_mc(2.0, 2, 10, RngSpec(0))


def test_block_density_beats_directed_site_threshold():
    # the diagnostic comparison driving the choice R=3 at p=1/2
    dens = block_good_prob(Fraction(1, 2), 3)
    assert dens == Fraction(255, 256)
    assert float(dens) > DIRECTED_SITE_THRESHOLD > float(block_good_prob(Fraction(1, 2), 1))


def test_block_grid_partition():
    cells = np.array(
        [[1, 0, 1, 1],
         [0, 0, 1, 1],
         [0, 0, 0, 1],
         [0, 0, 1, 0]], dtype=np.uint8)
    bg = block_grid(Field2D(cells, None), 2)
    assert bg.good.shape == (2, 2)
    assert bg.good[0, 0] and not bg.good[0, 1]
    assert not bg.good[1, 0] and bg.good[1, 1]
    with pytest.raises(ValueError):
        block_grid(Field2D(cells, None), 5)


def test_block_relation_targets():
    assert block_relation_targets((3, 4)) == ((4, 5), (4, 6))


def field_from_goodness(good, R=2):
    """A field whose R x R blocks are good exactly where requested."""
    nbi, nbj = good.shape
    cells = np.zeros((nbi * R, nbj * R), dtype=np.uint8)
    for i in range(nbi):
        for j in range(nbj):
            if good[i, j]:
                cells[i * R, j * R] = 1
    return Field2D(cells, None)


def test_block_percolation_matches_reachability():
    rng = RngSpec(88).generator()
    for depth in (1, 2, 3, 4):
        for _ in range(40):
            good = rng.random((depth + 1, 2 * depth + 1)) < 0.75
            field = field_from_goodness(good)
            path = block_percolation(field, 2, depth)
            assert (path is not None) == brute_block_reachable(good, depth)
            if path is not None:
                assert path[0] == (1, 1)
                assert len(path) == depth + 1
                for a, b in zip(path, path[1:]):
                    assert b in block_relation_targets(a)
                bg = block_grid(field, 2)
                assert all(bg.good[i - 1, j - 1] for i, j in path)


def test_block_percolation_preconditions():
    field = field_from_goodness(np.ones((3, 5), dtype=bool))
    assert block_percolation(field, 2, 2) is not None
    with pytest.raises(ValueError):
        block_percolation(field, 2, 3)
    dead = field_from_goodness(np.zeros((2, 3), dtype=bool))
    assert block_percolation(dead, 2, 1) is None


def test_adjacent_block_gaps_within_bound():
    # any cell of a block to any cell of either successor block stays
    # within L1 distance 5R, and both coordinates strictly increase
    for R in (1, 2, 3):
        for ti, tj in block_relation_targets((1, 1)):
            for a, b, c, d in product(range(1, R + 1), repeat=4):
                m0, n0 = a, b
                m1 = (ti - 1) * R + c
                n1 = (tj - 1) * R + d
                assert m1 > m0 and n1 > n0
                assert (m1 - m0) + (n1 - n0) <= 5 * R


def test_embed_word_2d_round_trip():
    rng = RngSpec(17)
    field = sample_field(0.5, 26, 50, rng.stream(0))
    path = block_percolation(field, 2, 12)
    assert path is not None
    w = Word.from_string("0110101001")
    wit = embed_word_2d(w, field, 2, path)
    assert validate_embedding_2d(wit, w, field)
    assert wit.gap_bound == 10
    # reproducible: the same call returns the same cells
    assert embed_word_2d(w, field, 2, path) == wit


def test_embed_word_2d_rejections():
    good = np.ones((4, 7), dtype=bool)
    field = field_from_goodness(good)
    path = block_percolation(field, 2, 3)
    with pytest.raises(ValueError):
        embed_word_2d(constant_word(9), field, 2, path)   # path too short
    with pytest.raises(ValueError):
        embed_word_2d(constant_word(2), field, 2, ((2, 2), (3, 3)))
    with pytest.raises(ValueError):
        embed_word_2d(constant_word(2), field, 2, ((1, 1), (2, 4)))
    bad = field_from_goodness(np.zeros((2, 3), dtype=bool))
    with pytest.raises(ValueError):
        embed_word_2d(constant_word(1), bad, 2, ((1, 1),))


def test_validate_embedding_2d_rejections():
    field = Field2D(np.array([[1, 0], [0, 1]], dtype=np.uint8), None)
    w = Word.from_string("11")
    ok = Embedding2DWitness((1, 2), (1, 2), 5)
    assert validate_embedding_2d(ok, w, field)
    assert not validate_embedding_2d(Embedding2DWitness((1, 2), (1, 2), 1), w, field)
    assert not validate_embedding_2d(Embedding2DWitness((2, 1), (1, 2), 5), w, field)
    assert not validate_embedding_2d(Embedding2DWitness((1, 2), (1, 1), 5), w, field)
    assert not validate_embedding_2d(Embedding2DWitness((1, 3), (1, 2), 5), w, field)
    assert not validate_embedding_2d(
        Embedding2DWitness((1,), (1,), 5), w, field)


def test_field_text_round_trip():
    rng = RngSpec(140)
    field = sample_field(0.3, 7, 11, rng)
    back = field_from_text(field_to_text(field))
    assert (back.cells == field.cells).all()
    with pytest.raises(ValueError):
        field_from_text("01\n011")
    with pytest.raises(ValueError):
        field_from_text("")


def test_lattice_kinds():
    assert LatticeKind("square") is LatticeKind.SQUARE
    assert LatticeKind("close-packed") is LatticeKind.CLOSE_PACKED
    with pytest.raises(ValueError):
        LatticeKind("hex")
    assert len(LatticeKind.SQUARE.offsets) == 4
    assert len(LatticeKind.TRIANGULAR.offsets) == 6
    assert len(LatticeKind.CLOSE_PACKED.offsets) == 8


def test_adjacency_shares_one_int_per_cell():
    h, w = 30, 40
    for kind in LatticeKind:
        adj = lattice._adjacency((h, w), kind)
        assert len(adj) == h * w
        u = 20 * w + 25                        # above the small-int cache
        named = [nbrs[nbrs.index(u)] for nbrs in adj if u in nbrs]
        assert len(named) == len(kind.offsets)
        assert all(x is named[0] for x in named)
        for v, nbrs in enumerate(adj):
            i, j = divmod(v, w)
            assert nbrs == tuple((i + a) * w + j + b
                                 for a, b in kind.offsets
                                 if 0 <= i + a < h and 0 <= j + b < w)


def test_visible_word_tiny_examples():
    cells = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.uint8)
    mid = (1, 1)
    assert visible_word(cells, LatticeKind.SQUARE, mid, Word.from_string("1010")) \
        is Visibility.FOUND
    assert visible_word(cells, LatticeKind.SQUARE, mid, Word.from_string("11")) \
        is Visibility.ABSENT
    assert visible_word(cells, LatticeKind.SQUARE, mid, Word.from_string("")) \
        is Visibility.FOUND
    # the extra diagonal neighbors open a 0-start route
    assert visible_word(cells, LatticeKind.TRIANGULAR, mid, Word.from_string("01")) \
        is Visibility.FOUND
    with pytest.raises(ValueError):
        visible_word(cells, LatticeKind.SQUARE, (3, 0), Word.from_string("1"))


def test_visible_word_matches_brute_force():
    rng = RngSpec(250).generator()
    for trial in range(25):
        cells = (rng.random((4, 4)) < 0.5).astype(np.uint8)
        origin = (int(rng.integers(0, 4)), int(rng.integers(0, 4)))
        for kind in LatticeKind:
            seen = brute_visible_words(cells, kind.offsets, origin, 4)
            for n in range(1, 5):
                for wl in product((0, 1), repeat=n):
                    expect = Visibility.FOUND if wl in seen else Visibility.ABSENT
                    got = visible_word(cells, kind, origin, Word.from_letters(wl))
                    assert got is expect, (trial, kind, origin, wl)


def test_constant_word_prune_is_the_cluster_size():
    # with budget 0 the DFS stops at once, so only the cluster-size prune
    # can answer ABSENT: exactly when no letter-cluster touching the origin
    # (through a neighbor carrying the letter) has n cells
    rng = RngSpec(260).generator()
    for trial in range(300):
        h, w = (int(v) for v in rng.integers(1, 12, size=2))
        cells = (rng.random((h, w)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
        origin = (int(rng.integers(0, h)), int(rng.integers(0, w)))
        letter = int(rng.integers(0, 2))
        n = int(rng.integers(1, h * w + 2))
        for kind in LatticeKind:
            sizes = [
                len(brute_cluster(cells == letter, kind.offsets, (a, b)))
                for a, b in ((origin[0] + di, origin[1] + dj)
                             for di, dj in kind.offsets)
                if 0 <= a < h and 0 <= b < w and cells[a, b] == letter
            ]
            expect = Visibility.EXHAUSTED if any(s >= n for s in sizes) \
                else Visibility.ABSENT
            got = visible_word(cells, kind, origin,
                               constant_word(n, letter=letter), budget=0)
            assert got is expect, (trial, kind, origin, letter, n)


def test_cluster_prune_equals_flood_prune():
    # the walk on a letter's byte mask, the origin's cell included when it
    # holds the letter, answers as the big-int flood of the packed box
    rng = RngSpec(280).generator()
    held, answers = set(), set()
    for trial in range(150):
        h, w = (int(v) for v in rng.integers(1, 12, size=2))
        cells = (rng.random((h, w)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
        origin = (int(rng.integers(0, h)), int(rng.integers(0, w)))
        masks = lattice._letter_masks(cells)
        start = origin[0] * w + origin[1]
        for kind in LatticeKind:
            adj = lattice._adjacency((h, w), kind)
            for letter in (0, 1):
                held.add(int(cells[origin]) == letter)
                for n in range(1, h * w + 2):
                    got = lattice._cluster_prune(bytearray(masks[letter]),
                                                 adj, start, n)
                    assert got == flood_prune(cells, kind, origin, letter,
                                              n), (trial, kind, letter, n)
                    answers.add(got)
    assert held == answers == {False, True}


def test_ab_block_equals_separate_searches_in_either_order():
    # each search copies the field's letter masks, so neither word's path
    # marks reach the other word's search, whichever runs first
    box = 5
    side = 2 * box + 1
    fields = RngSpec(290).bernoulli_rows(range(40),
                                         np.full((side, side), 0.5))
    words = (alternating_word(box), constant_word(box),
             constant_word(box, letter=0), Word.from_string("01101"))
    codes = set()
    for budget in (0, 3, 30, 10**6):
        want = [[lattice._AB_CODE[visible_word(
            cells.astype(np.uint8), LatticeKind.TRIANGULAR, (box, box), w,
            budget)] for w in words] for cells in fields]
        for order in (words, words[::-1]):
            got = lattice._ab_block(fields, box, budget,
                                    tuple(lattice._plan(w) for w in order))
            assert got.tolist() == [row if order is words else row[::-1]
                                    for row in want], budget
        codes.update(c for row in want for c in row)
    assert codes == {0, 1, 2}


def test_visible_word_budget():
    cells = np.zeros((9, 9), dtype=np.uint8)
    w = constant_word(70, letter=0)
    assert visible_word(cells, LatticeKind.SQUARE, (4, 4), w, budget=5) \
        is Visibility.EXHAUSTED
    # 0^16 from a corner of an all-zero 4x4 needs 16 fresh cells out of 15;
    # the cluster prune cannot see that, so the DFS itself proves absence
    tiny = np.zeros((4, 4), dtype=np.uint8)
    assert visible_word(tiny, LatticeKind.SQUARE, (0, 0),
                        constant_word(16, letter=0)) is Visibility.ABSENT
    assert visible_word(tiny, LatticeKind.SQUARE, (0, 0),
                        constant_word(15, letter=0)) is Visibility.FOUND
    # a budget large enough for the answer leaves the answer unchanged
    small = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    for b in (1000, None):
        assert visible_word(small, LatticeKind.SQUARE, (0, 0), Word.from_string("11"),
                            budget=b) is Visibility.ABSENT


def test_constant_word_prune_agrees():
    # constant words take the cluster-size shortcut; cross-check it
    rng = RngSpec(260).generator()
    for _ in range(30):
        cells = (rng.random((4, 4)) < 0.6).astype(np.uint8)
        origin = (int(rng.integers(0, 4)), int(rng.integers(0, 4)))
        for kind in LatticeKind:
            seen = brute_visible_words(cells, kind.offsets, origin, 4)
            for letter in (0, 1):
                for n in (2, 4):
                    w = constant_word(n, letter=letter)
                    expect = Visibility.FOUND if w.letters() in seen \
                        else Visibility.ABSENT
                    assert visible_word(cells, kind, origin, w) is expect


def test_visible_word_matches_budgeted_reference():
    # the reference needs `need` expansions, so any budget below that gives
    # up and any other budget gets its outcome; budgets next to need make
    # an off-by-one in the EXHAUSTED test show
    rng = RngSpec(270).generator()
    near_misses = 0
    for trial in range(40):
        h, w = (int(v) for v in rng.integers(4, 9, size=2))
        cells = (rng.random((h, w)) < rng.uniform(0.3, 0.7)).astype(np.uint8)
        origins = {(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1),
                   (0, w // 2), (h // 2, 0), (h - 1, w // 2), (h // 2, w - 1),
                   (h // 2, w // 2)}
        n = int(rng.integers(1, 11))
        words = (constant_word(n, letter=0), constant_word(n, letter=1),
                 alternating_word(n), Word.from_letters(rng.random(n) < 0.5))
        for kind in LatticeKind:
            for origin in origins:
                for word in words:
                    ref, need = budgeted_visible_word(
                        cells, kind.offsets, origin, word.letters())
                    budgets = {0, 1, 2, 7, 50, 5000, None}
                    budgets.update(range(max(need - 2, 0), need + 3))
                    for budget in budgets:
                        want = ref if budget is None or budget >= need \
                            else "budget-exhausted"
                        got = visible_word(cells, kind, origin, word, budget)
                        assert got.value == want, (trial, kind, origin,
                                                   word, budget)
                    near_misses += need > 0
                    if need > 0:
                        # the reference's own budget test stops there too
                        assert budgeted_visible_word(
                            cells, kind.offsets, origin, word.letters(),
                            need - 1) == ("budget-exhausted", need)
    assert near_misses > 3000


def test_ab_scan_deterministic():
    rng = RngSpec(33)
    rep = ab_scan(0.5, 4, 60, rng)
    again = ab_scan(0.5, 4, 60, rng, workers=2)
    assert rep == again
    assert rep.alternating.replicas == 60
    assert 0 <= rep.alternating_exhausted <= 60
    with pytest.raises(ValueError):
        ab_scan(0.5, 0, 10, rng)


def test_ab_scan_counts_exhaustion_as_invisible():
    # with a 2-expansion budget almost every search gives up; the handful
    # that finish are origins with no open step at all, which are ABSENT
    rng = RngSpec(34)
    rep = ab_scan(0.5, 4, 80, rng, budget=2)
    assert rep.alternating_exhausted >= 70
    assert rep.constant_exhausted >= 70
    assert rep.alternating.mean == 0.0
    assert rep.constant.mean == 0.0


def test_block_good_mc_agrees_with_formula():
    rng = RngSpec(35)
    est = block_good_mc(0.5, 2, 8000, rng)
    assert abs(est.mean - 7 / 8) <= 4 * est.stderr
    assert est == block_good_mc(0.5, 2, 8000, rng, workers=3)


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_block_good_mc_equals_per_replica_oracle(p):
    rng = RngSpec(36)
    for R in (1, 3, 100):
        rows = BLOCK_LETTERS // (R * R)       # replicas in one block
        counts = (1, 7) if R == 1 else (rows, rows + 1, 2 * rows + 1)
        for replicas in counts:
            want = Estimate.from_samples(
                [good_block_replica(rng.stream(k), p, R)
                 for k in range(replicas)], rng)
            if p == 0.3 and R == 3:
                assert 0 < want.mean < 1        # both outcomes occur
            for workers in (1, 2, 3):
                assert block_good_mc(p, R, replicas, rng,
                                     workers=workers) == want
