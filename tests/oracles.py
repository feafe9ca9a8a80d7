"""Brute-force reference implementations used to pin test expectations.

Everything here favors obviousness over speed: plain recursion, explicit
enumeration, no bit tricks.  The exceptions are ``enum_embed_counts``,
which runs the frontier sweep on every target at once with numpy so full
scans stay affordable, and ``antidiagonal_survival_depth``, the numpy
antidiagonal sweep, in linear memory, that checks the package's bitset
sweep on grids far deeper than ``brute_path_survives`` can try, and
``flood_prune``, the constant-word prune of the visibility search as the
package once ran it, by big-int floods of the packed box.  The
package must agree with these on every instance small enough to
enumerate.
"""

from fractions import Fraction
from itertools import accumulate, product
from types import SimpleNamespace

import numpy as np

from clairvoyant.words import flood, pack_box

_ENUM_CHUNK_BITS = 22


def all_zero_deletions(letters):
    """Every word obtainable by deleting some 0s, as letter tuples."""
    out = {()}
    for a in letters:
        if a == 1:
            out = {w + (1,) for w in out}
        else:
            out = out | {w + (0,) for w in out}
    return out


def brute_embeddings(v_letters, y_letters, M):
    """All 1-based position tuples m_1 < ... < m_n with gaps in 1..M."""
    n = len(v_letters)
    L = len(y_letters)
    found = []

    def rec(i, prev, acc):
        if i == n:
            found.append(tuple(acc))
            return
        for pos in range(prev + 1, min(prev + M, L) + 1):
            if y_letters[pos - 1] == v_letters[i]:
                rec(i + 1, pos, acc + [pos])

    rec(0, 0, [])
    return found


def embeds(v_letters, y_letters, M):
    """Does v M-embed into y?  ends[m]: v_1..v_i can end at position m."""
    match = np.asarray(y_letters, dtype=int)
    ends = np.zeros(len(match) + 1, dtype=bool)
    ends[0] = True
    for a in v_letters:
        nxt = np.zeros_like(ends)
        for d in range(1, min(M, len(match)) + 1):
            nxt[d:] |= ends[:len(ends) - d]
        nxt[1:] &= match == a
        if not nxt.any():
            return False
        ends = nxt
    return True


def brute_embed_prob(v_letters, M):
    n = len(v_letters)
    L = M * n
    hits = 0
    for y in product((0, 1), repeat=L):
        if brute_embeddings(v_letters, y, M):
            hits += 1
    return Fraction(hits, 2**L)


def enum_embed_counts(words_bits: list[int], n: int, M: int) -> list[int]:
    """For each word, how many y in {0,1}^(M*n) it M-embeds into."""
    L = M * n
    total = 1 << L
    posmask = np.uint64(((1 << (L + 1)) - 1) & ~1)
    counts = [0] * len(words_bits)
    step = 1 << _ENUM_CHUNK_BITS
    for start in range(0, total, step):
        stop = min(start + step, total)
        y = np.arange(start, stop, dtype=np.uint64)
        ones = y << np.uint64(1)
        zeros = (~ones) & posmask
        for wi, wbits in enumerate(words_bits):
            r = np.ones(stop - start, dtype=np.uint64)
            for i in range(n):
                s = r << np.uint64(1)
                for d in range(2, M + 1):
                    s |= r << np.uint64(d)
                r = s & (ones if (wbits >> i) & 1 else zeros)
            counts[wi] += int(np.count_nonzero(r))
    return counts


def shift_frontiers(r, masks, M):
    """The gap sweep's frontiers from r, spreading each by its M shifts
    1..M one at a time; stops after the first empty frontier."""
    out = [r]
    for mask in masks:
        s = 0
        for d in range(1, M + 1):
            s |= r << d
        r = s & mask
        out.append(r)
        if not r:
            break
    return out


def brute_mean_embeddings(n, M):
    total = 0
    for v in product((0, 1), repeat=n):
        for y in product((0, 1), repeat=M * n):
            total += len(brute_embeddings(v, y, M))
    return Fraction(total, 2 ** (n + M * n))


def brute_second_moment_ratio(n, M):
    total = 0
    for v in product((0, 1), repeat=n):
        for y in product((0, 1), repeat=M * n):
            total += len(brute_embeddings(v, y, M)) ** 2
    mean_sq = Fraction(M, 2) ** (2 * n)
    return Fraction(total, 2 ** (n + M * n)) / mean_sq


def brute_path_survives(grid, depth):
    """Try every monotone step sequence of the given length."""
    if depth == 0:
        return True
    for steps in product((0, 1), repeat=depth):
        i = j = 0
        ok = True
        for s in steps:
            i, j = (i + 1, j) if s else (i, j + 1)
            if not grid.in_bounds(i, j) or not grid.is_open(i, j):
                ok = False
                break
        if ok:
            return True
    return False


def antidiagonal_survival_depth(grid, max_depth=None):
    """Survival depth by a numpy sweep over the antidiagonals, comparing
    x[u] with y[d - u] for each cell (u, d - u) of level d."""
    depth = grid.depth if max_depth is None else min(max_depth, grid.depth)
    xv, yv = grid.x, grid.y
    nx = len(xv) - 1
    ny = len(yv) - 1
    f = np.zeros(nx + 1, dtype=bool)
    f[0] = True
    d = 0
    while d < depth:
        d += 1
        nf = f.copy()
        nf[1:] |= f[:-1]
        u0 = max(0, d - ny)
        u1 = min(nx, d)
        ok = np.zeros(nx + 1, dtype=bool)
        us = np.arange(u0, u1 + 1)
        ok[us] = xv[us] != yv[d - us]
        nf &= ok
        if not nf.any():
            return d - 1
        f = nf
    return depth


def brute_compatible(x_letters, y_letters):
    """Memoized three-move recursion; accepts when either word runs out."""
    nx, ny = len(x_letters), len(y_letters)
    seen = {}

    def rec(i, j):
        if i == nx or j == ny:
            return True
        key = (i, j)
        if key in seen:
            return seen[key]
        ok = False
        if x_letters[i] == 0 and rec(i + 1, j):
            ok = True
        elif y_letters[j] == 0 and rec(i, j + 1):
            ok = True
        elif not (x_letters[i] == 1 and y_letters[j] == 1) and rec(i + 1, j + 1):
            ok = True
        seen[key] = ok
        return ok

    return rec(0, 0)


def horizon_bits(xbits, ybits, N):
    """Largest n <= N at which the length-n prefixes of two length-N words,
    packed LSB-first, are compatible: the row sweep one word pair at a time.

    Bit j of row r_i is set iff state (i, j) is reachable, and the answer
    is the largest max(i, j) over reachable states.  A row steps by skip-x
    (x_{i+1} = 0 keeps every j) or emit (j to j + 1 unless x_{i+1} and
    y_{j+1} are both 1), then closes under skip-y: adding r & zy to zy
    carries each run of zy's 1s from its lowest bit in r to one past it.
    """
    zy = ~ybits & ((1 << N) - 1)
    full = (1 << (N + 1)) - 1
    r = 1 | (((1 & zy) + zy) ^ zy)
    top = 0
    for i in range(N + 1):
        if not r or top >= N:
            break
        top = max(top, i, r.bit_length() - 1)
        if i == N:
            break
        if (xbits >> i) & 1:
            r = (r & zy) << 1
        else:
            r |= (r << 1) & full
        r |= ((r & zy) + zy) ^ zy
    return min(top, N)


def deletion_compatible(x_letters, y_letters):
    """Some 0-deletions of x and of y put no 1 in both at one position of
    their overlap, by trying every pair of deletions."""
    ys = all_zero_deletions(tuple(y_letters))
    return any(all(a * b == 0 for a, b in zip(v, w))
               for v in all_zero_deletions(tuple(x_letters)) for w in ys)


def brute_visible_words(cells, offsets, origin, max_len):
    """All words of length <= max_len readable along self-avoiding walks."""
    h, w = cells.shape
    words = {()}
    visited = {origin}

    def rec(pos, word):
        if len(word) == max_len:
            return
        for di, dj in offsets:
            a, b = pos[0] + di, pos[1] + dj
            if 0 <= a < h and 0 <= b < w and (a, b) not in visited:
                nw = word + (int(cells[a, b]),)
                words.add(nw)
                visited.add((a, b))
                rec((a, b), nw)
                visited.discard((a, b))

    rec(origin, ())
    return words


def flood_prune(cells, kind, origin, letter, n):
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


def budgeted_visible_word(cells, offsets, origin, letters, budget=None):
    """(outcome, expansions) of the budgeted DFS for a word, node for node.

    Outcomes are the `Visibility` values "found", "absent" and
    "budget-exhausted"; expansions counts the origin and each cell pushed
    onto the path, and the search gives up once it would pass budget.  A
    constant word first answers "absent" (0 expansions) when no cluster of
    its letter touching the origin holds n cells.  Neighbors are tried in
    the order of offsets, so this is the reference for the expansion count
    as well as the outcome.
    """
    h, wd = cells.shape
    n = len(letters)
    if n == 0:
        return "found", 0
    if len(set(letters)) == 1 and not any(
            len(brute_cluster(cells == letters[0], offsets, (a, b))) >= n
            for a, b in ((origin[0] + di, origin[1] + dj)
                         for di, dj in offsets)
            if 0 <= a < h and 0 <= b < wd and cells[a, b] == letters[0]):
        return "absent", 0
    adj = [tuple(a * wd + b for a, b in ((i + di, j + dj)
                                         for di, dj in offsets)
                 if 0 <= a < h and 0 <= b < wd)
           for i in range(h) for j in range(wd)]
    flat = cells.astype(np.uint8, copy=False).tobytes()
    start = origin[0] * wd + origin[1]
    visited = bytearray(h * wd)
    visited[start] = 1
    path = [start]
    untried = [iter(adj[start])]  # neighbors each path cell has yet to try
    expansions = 1
    if budget is not None and expansions > budget:
        return "budget-exhausted", expansions
    while untried:
        k = len(path) - 1  # letters matched so far
        for u in untried[-1]:
            if not visited[u] and flat[u] == letters[k]:
                if k + 1 == n:
                    return "found", expansions
                expansions += 1
                if budget is not None and expansions > budget:
                    return "budget-exhausted", expansions
                visited[u] = 1
                path.append(u)
                untried.append(iter(adj[u]))
                break
        else:
            visited[path.pop()] = 0
            untried.pop()
    return "absent", expansions


def brute_crossing(config):
    """Left-to-right open crossing by breadth-first search, 4-connected."""
    n, m = config.shape
    frontier = [(0, j) for j in range(m) if config[0, j]]
    seen = set(frontier)
    while frontier:
        i, j = frontier.pop()
        if i == n - 1:
            return True
        for a, b in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if 0 <= a < n and 0 <= b < m and (a, b) not in seen and config[a, b]:
                seen.add((a, b))
                frontier.append((a, b))
    return False


def brute_cluster(open_cells, offsets, start):
    """The cells of the open cluster holding start, by plain graph search."""
    h, w = open_cells.shape
    seen = {start}
    frontier = [start]
    while frontier:
        i, j = frontier.pop()
        for di, dj in offsets:
            a, b = i + di, j + dj
            if 0 <= a < h and 0 <= b < w and (a, b) not in seen \
                    and open_cells[a, b]:
                seen.add((a, b))
                frontier.append((a, b))
    return seen


def brute_escape(grid, box):
    """Whether the origin's 4-connected open cluster in [0, box]^2 touches
    row or column box, by plain graph search on grid.is_open."""
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        i, j = frontier.pop()
        if i == box or j == box:
            return True
        for a, b in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if 0 <= a <= box and 0 <= b <= box and (a, b) not in seen \
                    and grid.is_open(a, b):
                seen.add((a, b))
                frontier.append((a, b))
    return False


def brute_block_reachable(good, depth):
    """Directed reachability over (i+1,j+1)/(i+1,j+2) from block (1,1)."""
    nbi, nbj = good.shape
    if not good[0, 0]:
        return False
    level = {(1, 1)}
    for _ in range(depth):
        nxt = set()
        for i, j in level:
            for a, b in ((i + 1, j + 1), (i + 1, j + 2)):
                if a <= nbi and b <= nbj and good[a - 1, b - 1]:
                    nxt.add((a, b))
        if not nxt:
            return False
        level = nxt
    return True


def brute_kwise_joint(vertices, M):
    """Joint law of the open indicators at grid vertices (i, j >= 1), as
    {outcome: probability}, over all M**(a+b) values of the a X-letters
    and b Y-letters involved."""
    is_ = sorted({i for i, _ in vertices})
    js = sorted({j for _, j in vertices})
    terms = M ** (len(is_) + len(js))
    counts = {}
    for xs in product(range(M), repeat=len(is_)):
        xmap = dict(zip(is_, xs))
        for ys in product(range(M), repeat=len(js)):
            ymap = dict(zip(js, ys))
            o = tuple(int(xmap[i] != ymap[j]) for i, j in vertices)
            counts[o] = counts.get(o, 0) + 1
    return {o: Fraction(c, terms) for o, c in counts.items()}


# One replica of each Monte Carlo model, drawn from a fresh generator of
# that replica's own stream, one draw after another: what the package
# computed per replica before every model drew its replicas in blocks.
# The package's chunk functions must give these rows, however the
# replicas are cut into chunks and blocks.

def fixed_word_replica(spec, v_letters, M, p_y):
    y = spec.generator().random(M * len(v_letters)) < p_y
    return embeds(v_letters, y, M)


def survival_replica(spec, n, M, p_x, p_y):
    draws = spec.generator().random(n + M * n)
    return embeds(draws[:n] < p_x, draws[n:] < p_y, M)


def curve_replica(spec, M, max_depth):
    """Survival depth of two walks on {1..M} with max_depth + 1 values
    each, x drawn first."""
    g = spec.generator()
    x = g.integers(1, M + 1, size=max_depth + 1)
    y = g.integers(1, M + 1, size=max_depth + 1)
    return antidiagonal_survival_depth(SimpleNamespace(x=x, y=y,
                                                       depth=max_depth))


def coupling_replica(spec, M, k, depth):
    """(whether a cell open in the reduced grid is closed in the big one,
    whether the reduced grid survives to depth, whether the big one does)
    for two walks on {1..kM} with depth + 1 values each, x drawn first,
    and their reductions (value - 1) mod M + 1 onto {1..M}."""
    g = spec.generator()
    x = g.integers(1, k * M + 1, size=depth + 1)
    y = g.integers(1, k * M + 1, size=depth + 1)
    rx, ry = (x - 1) % M + 1, (y - 1) % M + 1
    broken = any(x[i] == y[j] and rx[i] != ry[j]
                 for i in range(depth + 1) for j in range(depth + 1))

    def survives(a, b):
        return antidiagonal_survival_depth(
            SimpleNamespace(x=a, y=b, depth=depth)) == depth
    return broken, survives(rx, ry), survives(x, y)


def superset_broken(big, red):
    """Per walk pair b of a block, big[b] = (x, y) and red[b] = (rx, ry):
    whether some cell (i, j) has x_i = y_j, closed in the big grid, but
    rx_i != ry_j, open in the reduced one."""
    return [any(x[i] == y[j] and rx[i] != ry[j]
                for i in range(len(x)) for j in range(len(y)))
            for (x, y), (rx, ry) in zip(big.tolist(), red.tolist())]


def horizon_replica(spec, p, N):
    """Largest compatible horizon <= N of replica k = spec.stream_id: x
    from stream 2k and y from stream 2k + 1, each from a fresh generator."""
    k = spec.stream_id
    x, y = (spec.stream(2 * k + i).generator().random(N) < p for i in (0, 1))
    return horizon_bits(sum(1 << i for i, a in enumerate(x) if a),
                        sum(1 << i for i, a in enumerate(y) if a), N)


def good_block_replica(spec, p, R):
    block = spec.generator().random((R, R)) < p
    return bool(block.any() and (~block).any())


_TRIANGULAR = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))
_AB_CODES = {"absent": 0, "found": 1, "budget-exhausted": 2}


def ab_replica(spec, p, box, budget):
    """Outcome codes (0 absent, 1 found, 2 budget exhausted) of the
    alternating word 0101... and the constant word 11...1, both of length
    box, read from the centre of a (2 box + 1)^2 triangular field."""
    side = 2 * box + 1
    cells = (spec.generator().random((side, side)) < p).astype(np.uint8)
    words = (tuple(i % 2 for i in range(box)), (1,) * box)
    return tuple(_AB_CODES[budgeted_visible_word(
        cells, _TRIANGULAR, (box, box), w, budget)[0]] for w in words)


def column_replica(spec, mu, n):
    """Whether an n x n column environment crosses: n column densities
    drawn from mu by inverting its cumulative weights, as floats, then the
    n^2 cells column by column."""
    g = spec.generator()
    cum = list(accumulate(float(w) for w in mu.weights))
    dens = [float(next((p for p, c in zip(mu.points, cum) if u < c),
                       mu.points[-1])) for u in g.random(n)]
    return brute_crossing(g.random((n, n)) < np.array(dens)[:, None])


def escape_replica(spec, M, box):
    """Whether the origin's open cluster of two walks on {1..M}, box + 1
    values each and x drawn first, reaches row or column box."""
    g = spec.generator()
    x = g.integers(1, M + 1, size=box + 1)
    y = g.integers(1, M + 1, size=box + 1)
    grid = SimpleNamespace(
        is_open=lambda i, j: (i, j) == (0, 0) or x[i] != y[j])
    return brute_escape(grid, box)
