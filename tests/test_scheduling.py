import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from clairvoyant import scheduling
from clairvoyant.errors import BudgetError, PropertyViolation
from clairvoyant.rng import RngSpec
from clairvoyant.runner import BLOCK_LETTERS, run_chunked
from clairvoyant.environment import kwise_test
from clairvoyant.scheduling import (
    PathWitness,
    ScheduleGrid,
    coupling_check,
    directed_survival,
    kwise_joint,
    reduce_value,
    sample_grid,
    survival_curve_mc,
    survival_depth,
    undirected_escape,
    undirected_mc,
    validate_path,
)

from oracles import (
    antidiagonal_survival_depth,
    brute_escape,
    brute_kwise_joint,
    brute_path_survives,
    curve_replica,
    escape_replica,
    superset_broken,
)


def grid_of(xv, yv, M):
    return ScheduleGrid(np.array(xv), np.array(yv), M)


def test_openness_semantics():
    g = grid_of((1, 2), (1, 1), 2)
    assert g.is_open(0, 0)          # origin is declared open
    assert not g.is_open(0, 1)      # x[0] == y[1]
    assert g.is_open(1, 0)          # x[1] != y[0]
    assert g.M == 2 and g.depth == 1


def test_schedule_grid_validation():
    g = grid_of((1, 3, 2), (2, 2), 3)
    assert g.depth == 1 and g.x[1] == 3
    for xv, yv, M in (((0, 1), (1,), 2), ((1, 4), (1,), 3),
                      ((1,), (3,), 2), ((1,), (1,), 1)):
        with pytest.raises(ValueError):
            grid_of(xv, yv, M)
    with pytest.raises(ValueError, match="M must be >= 2"):
        sample_grid(1, 3, RngSpec(1))


def test_sample_grid_range_and_determinism():
    rng = RngSpec(9)
    g = sample_grid(4, 199, rng)
    assert len(g.x) == len(g.y) == 200
    assert set(g.x.tolist()) == set(g.y.tolist()) == {1, 2, 3, 4}
    # x first: two consecutive draws of depth+1 values from one generator
    gen = rng.generator()
    for walk in (g.x, g.y):
        assert np.array_equal(walk, gen.integers(1, 5, size=200))


def test_equal_walks_die_immediately():
    g = grid_of((1, 1, 1), (1, 1, 1), 2)
    assert survival_depth(g) == 0
    assert directed_survival(g, 1) is None
    assert directed_survival(g, 0) is not None


def test_distinct_constants_survive():
    g = grid_of((1,) * 6, (2,) * 6, 2)
    wit = directed_survival(g, 5)
    assert wit is not None
    assert validate_path(wit, g)
    assert len(wit.steps) == 6
    assert survival_depth(g) == 5


def test_validate_path_rejections():
    g = grid_of((1, 2), (2, 1), 2)
    assert not validate_path(PathWitness(()), g)
    assert not validate_path(PathWitness(((1, 0),)), g)
    assert not validate_path(PathWitness(((0, 0), (1, 1))), g)   # diagonal step
    assert not validate_path(PathWitness(((0, 0), (0, 1), (0, 0))), g)


def test_survival_matches_brute_force():
    rng = RngSpec(314)
    for k in range(60):
        M = 2 + k % 3
        depth = 1 + k % 9
        g = sample_grid(M, depth, rng.stream(k))
        got = directed_survival(g, depth)
        assert (got is not None) == brute_path_survives(g, depth)
        if got is not None:
            assert validate_path(got, g)


def test_survival_depth_is_the_frontier_edge():
    rng = RngSpec(55)
    for k in range(25):
        g = sample_grid(2, 14, rng.stream(k))
        d = survival_depth(g)
        assert directed_survival(g, d) is not None
        if d < g.depth:
            assert directed_survival(g, d + 1) is None
    with pytest.raises(ValueError):
        directed_survival(g, 15)


def test_survival_depth_rejects_a_negative_cap():
    g = sample_grid(4, 10, RngSpec(1))
    assert survival_depth(g, 0) == 0
    with pytest.raises(ValueError):
        survival_depth(g, -5)


def test_bitset_sweep_matches_antidiagonal_oracle():
    g = np.random.default_rng(2011)
    for k in range(2400):
        M = 2 + k % 7
        nx, ny = g.integers(0, 301, size=2)
        if k % 3 == 0:
            ny = nx
        grid = ScheduleGrid(g.integers(1, M + 1, size=nx + 1),
                            g.integers(1, M + 1, size=ny + 1), M)
        cap = None if k % 4 else int(g.integers(0, 320))
        assert survival_depth(grid, cap) == \
            antidiagonal_survival_depth(grid, cap), (k, cap)
    rng = RngSpec(2000)
    for k in range(30):
        grid = sample_grid(4 + k % 3, 200, rng.stream(k))
        wit = directed_survival(grid, 200)
        assert (wit is not None) == (antidiagonal_survival_depth(grid) == 200)
        if wit is not None:
            assert validate_path(wit, grid)


def test_deep_kernels_run_in_linear_memory():
    # an O(depth^2) grid would need ~400 MB at depth 20000
    rng = RngSpec(9)
    tracemalloc.start()
    try:
        survival_curve_mc(2, [20000], 1, rng)
        coupling_check(2, 2, 20000, 1, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_undirected_escape_border_needs_no_int64_matrix():
    # the open field and its packed copies take ~13 MB at box 2000; an
    # int64 (box+1)^2 border temporary would add 32 MB more
    g = np.random.default_rng(5)
    x, y = (g.integers(1, 3, size=2001) for _ in range(2))
    tracemalloc.start()
    try:
        undirected_escape(ScheduleGrid(x, y, 2), 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_curve_monotone_and_deterministic():
    rng = RngSpec(77)
    ests = survival_curve_mc(2, [1, 3, 7, 12], 400, rng)
    means = [e.mean for e in ests]
    assert all(a >= b for a, b in zip(means, means[1:]))
    again = survival_curve_mc(2, [1, 3, 7, 12], 400, rng, workers=3)
    assert ests == again


def test_reduce_value():
    assert [reduce_value(v, 3) for v in range(1, 7)] == [1, 2, 3, 1, 2, 3]


def test_coupling_check_small():
    rng = RngSpec(5)
    rep = coupling_check(2, 3, 15, 150, rng)
    assert rep.samples == 150
    assert rep.reduced_survivals <= rep.big_survivals
    again = coupling_check(2, 3, 15, 150, rng, workers=2)
    assert rep == again


def test_kwise_singletons_and_pairs():
    for M in (2, 3, 4):
        pmf = kwise_joint([(1, 1)], M)
        assert pmf.probs[(1,)] == Fraction(M - 1, M)
        pair = kwise_joint([(1, 1), (1, 2)], M)
        assert pair.probs[(1, 1)] == Fraction(M - 1, M) ** 2


def test_kwise_rejects_bad_vertices():
    with pytest.raises(ValueError):
        kwise_joint([], 2)
    with pytest.raises(ValueError):
        kwise_joint([(0, 1)], 2)
    with pytest.raises(ValueError):
        kwise_joint([(1, 1), (1, 1)], 2)
    with pytest.raises(BudgetError):
        kwise_joint([(i, i) for i in range(1, 9)], 10, max_terms=1000)
    for M in (1, 0):
        with pytest.raises(ValueError, match="M must be >= 2"):
            kwise_joint([(1, 1)], M)


_RECT = [(1, 1), (1, 2), (2, 1), (2, 2)]
_WINDOW = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]


@pytest.mark.parametrize("verts", [
    [(1, 1)], [(1, 1), (1, 2)], _RECT, [(1, 1), (1, 2), (1, 3), (2, 1),
                                        (2, 2), (2, 3)], _WINDOW,
    [(1, 1), (2, 2)], [(1, 1), (2, 2), (3, 3)],
    [(2, 1), (2, 2), (2, 4), (2, 5), (2, 7)],
    [(1, 3), (2, 3), (4, 3), (5, 3), (6, 3)],
    [(1, 1), (1, 2), (2, 2), (3, 2)],
])
def test_kwise_matches_enumeration(verts):
    # rectangles, diagonals, a shared row, a shared column and a mix, each
    # with a + b <= 6 walk letters
    for M in range(2, 7):
        pmf = kwise_joint(verts, M)
        assert pmf.labels == tuple("%d,%d" % v for v in verts)
        assert pmf.probs == brute_kwise_joint(verts, M), M


def test_kwise_rectangle_closed_form():
    # all four vertices of a 2x2 rectangle open: x1 != y1, x1 != y2,
    # x2 != y1, x2 != y2, summed over y1 = y2 and y1 != y2
    for M in (4, 10, 10**6, 2**64 + 1):
        pmf = kwise_joint(_RECT, M)
        assert pmf.probs[(1, 1, 1, 1)] == Fraction(
            (M - 1) * (M * M - 3 * M + 3), M**3), M
    assert kwise_joint(_RECT, 4).probs[(1, 1, 1, 1)] == Fraction(21, 64)


def test_kwise_at_large_M():
    pmf = kwise_joint(_RECT, 10**6)
    assert kwise_test(pmf, 3).independent
    assert not kwise_test(pmf, 4).independent
    # M**6 = 10**36 assignments; 203 equality patterns
    window = kwise_joint(_WINDOW, 10**6)
    assert kwise_test(window, 3).independent


def test_kwise_budget_counts_equality_patterns():
    # 4 letters fall into 15 set partitions once M >= 4, and into 8 with
    # at most 2 blocks at M = 2
    for M in (4, 10**6):
        assert kwise_joint(_RECT, M, max_terms=15).probs
        with pytest.raises(BudgetError, match="equality patterns"):
            kwise_joint(_RECT, M, max_terms=14)
    assert kwise_joint(_RECT, 2, max_terms=8).probs
    with pytest.raises(BudgetError):
        kwise_joint(_RECT, 2, max_terms=7)
    with pytest.raises(ValueError, match="max_terms must be >= 0"):
        kwise_joint(_RECT, 4, max_terms=-1)


def test_undirected_escape_examples():
    open_grid = grid_of((1,) * 4, (2,) * 4, 2)
    assert undirected_escape(open_grid, 3)
    closed = grid_of((1,) * 4, (1,) * 4, 2)
    assert not undirected_escape(closed, 3)
    assert undirected_escape(closed, 0)
    with pytest.raises(ValueError):
        undirected_escape(open_grid, 4)


def test_undirected_escape_needs_a_connected_route():
    # x = (1,2,1), y = (1,1,1): only (1,j) vertices are open, and they touch
    # the boundary of the box, so the origin escapes through row 1
    g = grid_of((1, 2, 1), (1, 1, 1), 2)
    assert undirected_escape(g, 2)
    # shrinking to value-equal walks removes every route
    assert not undirected_escape(grid_of((1, 1, 1), (1, 1, 1), 2), 2)


def test_undirected_escape_matches_brute_force():
    rng = RngSpec(22)
    pick = np.random.default_rng(22)
    for k in range(400):
        M = int(pick.integers(2, 5))
        box = int(pick.integers(0, 15))
        grid = sample_grid(M, box, rng.stream(k))
        assert undirected_escape(grid, box) == brute_escape(grid, box), \
            (k, M, box)


def test_undirected_mc_deterministic():
    rng = RngSpec(21)
    a = undirected_mc(2, 6, 300, rng)
    b = undirected_mc(2, 6, 300, rng, workers=4)
    assert a == b
    assert 0.0 <= a.mean <= 1.0


def test_undirected_bound_lies_between_box_1624_and_1625(monkeypatch):
    # box (box + 1)(box + 2) bit-steps: 4291014000 at box 1624, under 2^32,
    # and 4298940750 at box 1625
    monkeypatch.setattr(scheduling, "run_chunked",
                        lambda fn, replicas, workers=1: np.zeros(replicas))
    undirected_mc(2, 1624, 1, RngSpec(1))
    with pytest.raises(BudgetError, match="sweeps 4298940750 bit-steps"):
        undirected_mc(2, 1625, 1, RngSpec(1))


def _curve_rows(M, depths, replicas, rng):
    fn = scheduling._walk_pairs(scheduling._survival_block, rng, M,
                                max(depths),
                                scheduling._sweep_steps(max(depths), M),
                                depths=tuple(depths))
    return run_chunked(fn, replicas)


@pytest.mark.parametrize("M", range(2, 9))
def test_block_sweep_matches_curve_replica_oracle(M):
    # depth 0, repeats and unsorted depths; 850 replicas are one block of
    # 799 rows and one of 51, where dead and surviving pairs sit together
    rng = RngSpec(40 + M)
    depths = (40, 0, 13, 40, 5, 2)
    rows = BLOCK_LETTERS // (2 * (max(depths) + 1))
    assert rows == 799
    got = _curve_rows(M, depths, 850, rng)
    reached = np.array([curve_replica(rng.stream(k), M, max(depths))
                        for k in range(850)])
    assert got.shape == (850, len(depths))
    assert np.array_equal(got, reached[:, None] >= np.array(depths))
    first = got[:rows]
    assert any(col.any() and not col.all() for col in first.T)


def test_one_row_blocks_match_curve_replica_oracle():
    # at depth BLOCK_LETTERS / 2 - 1 one pair's walks fill a block
    depth = BLOCK_LETTERS // 2 - 1
    depths = (depth, 0, 15, 5)
    rng = RngSpec(3)
    got = _curve_rows(3, depths, 5, rng)
    reached = np.array([curve_replica(rng.stream(k), 3, depth)
                        for k in range(5)])
    assert np.array_equal(got, reached[:, None] >= np.array(depths))
    assert 0 < got[:, 2].sum() < 5


def test_replica_oracles_at_a_rejecting_M(monkeypatch):
    # at M = 3 * 2^30 numpy draws about one uint32 in four again, so the
    # walks of nearly every replica go back to numpy's own integers; the
    # curve and escape rows must still be the oracles' (all survive)
    M, depth, replicas = 3 * 2**30, 20, 40
    depths = (depth, 0, 7)
    rng = RngSpec(44)
    got = _curve_rows(M, depths, replicas, rng)
    reached = np.array([curve_replica(rng.stream(k), M, depth)
                        for k in range(replicas)])
    assert np.array_equal(got, reached[:, None] >= np.array(depths))
    rows = []

    def chunked(fn, n, workers=1):
        rows.append(fn(0, n))
        return rows[-1]
    monkeypatch.setattr(scheduling, "run_chunked", chunked)
    undirected_mc(M, depth, replicas, rng)
    assert rows[0].tolist() == [escape_replica(rng.stream(k), M, depth)
                                for k in range(replicas)]


def _reached(x, y, depth):
    return antidiagonal_survival_depth(SimpleNamespace(x=x, y=y, depth=depth))


def _survives(x, y, depth):
    return _reached(x, y, depth) == depth


def test_block_sweep_relabels_each_pairs_own_letters():
    # each pair draws from its own band of 3 letters, so no two pairs share
    # a letter; pair 5's y comes from a band its x never meets
    g = np.random.default_rng(8)
    depth, rows = 30, 12
    walks = (g.integers(1, 4, size=(rows, 2, depth + 1))
             + 1000 * np.arange(rows)[:, None, None])
    walks[5, 1] += 500
    depths = (depth, 0, 3, 10)
    got = scheduling._survival_block(walks, depths)
    reached = np.array([_reached(x, y, depth) for x, y in walks])
    assert np.array_equal(got, reached[:, None] >= np.array(depths))
    assert got[5].all() and not got[:, 0].all()


def test_shared_ranks_number_only_each_pairs_shared_letters():
    # pair 0 shares 5 and 7, pair 1 shares nothing: two masks, not the
    # seven letters of the block
    x = np.array([[5, 9, 7, 5], [2, 2, 3, 8]])
    y = np.array([[7, 5, 1, 1], [4, 4, 4, 4]])
    xr, yr = scheduling._shared_ranks(x, y)
    assert xr.tolist() == [[1, 0, 2, 1], [0, 0, 0, 0]]
    assert yr.tolist() == [[2, 1, 0, 0], [0, 0, 0, 0]]


@pytest.mark.parametrize("pool", [range(1, 4), range(1, 41), range(1, 301),
                                  range(2**70, 2**70 + 8)])
def test_shared_ranks_match_per_row_oracle(pool):
    # letters up to 40 fill a table of (row, letter); 1..300 and the
    # object arrays of ints past int64 are sorted row by row
    rnd = random.Random(len(pool))
    x, y = (np.array([[rnd.choice(pool) for _ in range(30)]
                      for _ in range(40)], dtype=object) for _ in "xy")
    if pool[-1] < 2**63:
        x, y = x.astype(np.int64), y.astype(np.int64)
    xr, yr = scheduling._shared_ranks(x, y)
    for row_x, row_y, got_x, got_y in zip(x, y, xr, yr):
        rank = {a: r + 1 for r, a in
                enumerate(sorted(set(row_x.tolist()) & set(row_y.tolist())))}
        assert got_x.tolist() == [rank.get(a, 0) for a in row_x.tolist()]
        assert got_y.tolist() == [rank.get(a, 0) for a in row_y.tolist()]


def test_superset_check_flags_only_pairs_that_break_it():
    # pair 1 carries reduced letters 1 (on x) and 2 (on y[0]) for big
    # letter 4; pair 2 carries two for big letter 5, but only on x, where
    # no cell compares them with y; the 7s that end pair 3 and start pair
    # 4 carry different reduced letters, but in different pairs
    big = np.array([[[1, 2, 3], [3, 2, 2]],
                    [[4, 1, 2], [4, 3, 3]],
                    [[5, 5, 2], [2, 2, 1]],
                    [[6, 6, 6], [7, 7, 7]],
                    [[7, 7, 7], [8, 8, 8]]])
    red = np.array([[[1, 2, 1], [1, 2, 2]],
                    [[1, 1, 2], [2, 1, 1]],
                    [[1, 2, 2], [2, 2, 1]],
                    [[1, 1, 1], [1, 1, 1]],
                    [[2, 2, 2], [1, 1, 1]]])
    assert scheduling._superset_broken(big, red).tolist() == \
        [False, True, False, False, False]


@pytest.mark.parametrize("pool", [range(1, 4), range(1, 41), range(1, 301),
                                  range(2**70, 2**70 + 8)])
def test_superset_check_matches_per_cell_oracle(pool):
    # the reduced letters are the walks' own reductions but for a few cells
    # set at random, so pairs where such a cell meets an equal big letter
    # break the superset; pools as in the _shared_ranks oracle test
    rnd = random.Random(len(pool))
    rows, width = 200, 12
    big = np.array([[[rnd.choice(pool) for _ in range(width)] for _ in "xy"]
                    for _ in range(rows)], dtype=object)
    red = reduce_value(big, 3)
    for _ in range(150):
        red[rnd.randrange(rows), rnd.randrange(2),
            rnd.randrange(width)] = rnd.randrange(1, 5)
    if pool[-1] < 2**63:
        big, red = big.astype(np.int64), red.astype(np.int64)
    got = scheduling._superset_broken(big, red).tolist()
    assert got == superset_broken(big, red)
    assert 0 < sum(got) < rows


def test_coupling_counts_match_per_replica_oracle():
    rng = RngSpec(61)
    M, k, depth, samples = 3, 2, 25, 400
    rep = coupling_check(M, k, depth, samples, rng)
    red = big = 0
    for j in range(samples):
        g = rng.stream(j).generator()
        x = g.integers(1, k * M + 1, size=depth + 1)
        y = g.integers(1, k * M + 1, size=depth + 1)
        big += _survives(x, y, depth)
        red += _survives(reduce_value(x, M), reduce_value(y, M), depth)
    assert (rep.reduced_survivals, rep.big_survivals) == (red, big)
    assert 0 < red < big < samples
