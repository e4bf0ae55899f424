"""Independent brute-force oracles used to check the library's fast paths.

Everything here works on plain edge lists with dict-based BFS and full
product enumeration, sharing no code with the bitmask or union-find
implementations under test.
"""

import functools
import itertools
import random
from fractions import Fraction


def bfs_components(m, n, edges):
    """Components as (frozenset of x, frozenset of y) pairs, plain BFS."""
    adj = {}
    for x, y in edges:
        adj.setdefault(("x", x), []).append(("y", y))
        adj.setdefault(("y", y), []).append(("x", x))
    seen = set()
    comps = []
    for v in sorted(adj):
        if v in seen:
            continue
        stack = [v]
        comp = {v}
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(
            (
                frozenset(i for side, i in comp if side == "x"),
                frozenset(i for side, i in comp if side == "y"),
            )
        )
    return comps


def sample_colors(seed, block, num_edges, r, count):
    """The first ``count`` colorings that sample block ``block`` of a
    random search with ``seed`` draws, byte by byte: the block's generator
    is seeded by the 64-bit mix of (seed, block); each sample reads
    ``getrandbits(8 * num_edges)`` as little-endian bytes, and byte b gives
    color b mod r when b < 256 - 256 mod r.  A rejected byte is replaced by
    ``getrandbits(8)`` draws until one is accepted, position by position
    after the sample's bytes.  For r > 256 each color is ``randrange(r)``."""
    mixed = (seed * 0x9E3779B97F4A7C15 + (block + 1) * 0xBF58476D1CE4E5B9) % (1 << 64)
    rng = random.Random(mixed ^ (mixed >> 31))
    keep = 256 - 256 % r
    samples = []
    for _ in range(count):
        if r > 256:
            samples.append(tuple(rng.randrange(r) for _ in range(num_edges)))
            continue
        colors = []
        for b in rng.getrandbits(8 * num_edges).to_bytes(num_edges, "little"):
            while b >= keep:
                b = rng.getrandbits(8)
            colors.append(b % r)
        samples.append(tuple(colors))
    return samples


def max_mono_order(m, n, edges, colors, r):
    """Largest monochromatic component order of one colored edge list."""
    best = 0
    for c in range(r):
        class_edges = [e for e, col in zip(edges, colors) if col == c]
        for xs, ys in bfs_components(m, n, class_edges):
            best = max(best, len(xs) + len(ys))
    return best


def brute_exists_below(host, r, t):
    """Full r^E enumeration: does a coloring keep all components below t?"""
    edges = host.edges()
    t = Fraction(t)
    for colors in itertools.product(range(r), repeat=len(edges)):
        if max_mono_order(host.m, host.n, edges, colors, r) < t:
            return True
    return False


def brute_minmax(host, r):
    edges = host.edges()
    return min(
        max_mono_order(host.m, host.n, edges, colors, r)
        for colors in itertools.product(range(r), repeat=len(edges))
    )


@functools.lru_cache(maxsize=1 << 16)
def _below(m, n, edges, colors, r, t):
    """Does every component of the colored prefix, found by BFS, stay
    below ``t``, or for ``t`` None, hold fewer than half of either side?"""
    if t is None:
        return not has_half_half(m, n, edges[: len(colors)], colors, r)
    return max_mono_order(m, n, edges[: len(colors)], colors, r) < t


def lex_leader_ok(colors, perm):
    """Does the colored prefix keep ``colors`` lex-at-most its image under
    the edge permutation ``perm`` (position k reads ``colors[perm[k]]``),
    with the image's colors renamed by first appearance, on the positions
    known on both sides?  Position k is known once every j <= k and every
    ``perm[j]`` is colored."""
    names = {}
    for k, p in enumerate(perm):
        if k >= len(colors) or p >= len(colors):
            break
        name = names.setdefault(colors[p], len(names))
        if colors[k] != name:
            return colors[k] < name
    return True


def lex_floor(colors, perm, top):
    """The least color in 0..``top`` that the next position
    (``len(colors)``) may take without breaking the order of ``perm`` (as
    in ``lex_leader_ok``), or top + 1 if none may, when every position known
    so far is tied and the first one not yet known is a colored position k
    whose image is the next position: the next color's name must reach
    ``colors[k]``.  Otherwise 0."""
    names = {}
    d = len(colors)
    for k, p in enumerate(perm):
        if k >= d or p >= d:
            if p == d > k:
                return next((c for c in range(top + 1) if names.get(c, len(names)) >= colors[k]), top + 1)
            return 0
        if colors[k] != names.setdefault(colors[p], len(names)):
            return 0
    return 0


# the depth at which the library's walk splits into tasks (search._PREFIX_DEPTH),
# the most dead states it keeps under one prefix of that depth
# (search._DEAD_STATES) and the most bits of them, each state taking colors
# times vertices with edges squared (search._DEAD_BITS), the newest dead
# states per (depth, top) it tests a state against for refinement
# (search._RECENT), and the widest state for which it keeps dead states
# (search._KEY_BITS)
SPLIT_DEPTH = 4
DEAD_STATES = 1 << 18
DEAD_BITS = 1 << 28
RECENT = 32
KEY_BITS = 1 << 16


@functools.lru_cache(maxsize=1 << 16)
def state_key(m, n, edges, colors, r):
    """What the rest of a canonical walk depends on once ``colors`` has
    colored whole X-rows: the number of edges colored, the highest color
    the next edge may take, and for each color up to it the partition of
    the vertices with edges (X-vertex x as x, Y-vertex y as m + y) into
    components by BFS, as a set of blocks (a vertex without an edge of that
    color is a block of its own)."""
    top = min(r - 1, max(colors) + 1)
    key = [len(colors), top]
    verts = {x for x, _ in edges} | {m + y for _, y in edges}
    for c in range(top + 1):
        comps = bfs_components(m, n, [e for e, col in zip(edges, colors) if col == c])
        blocks = [frozenset(xs | {m + y for y in ys}) for xs, ys in comps]
        covered = set().union(*blocks)
        key.append(frozenset(blocks + [frozenset([v]) for v in verts - covered]))
    return tuple(key)


def refines(finer, coarser):
    """Do two ``state_key`` keys of the same depth and top have, per color,
    every block of ``finer`` inside one block of ``coarser``?"""
    return all(
        all(any(block <= big for big in bigs) for block in blocks)
        for blocks, bigs in zip(finer[2:], coarser[2:])
    )


class DeadStates:
    """The walk's record of dead states (keys of subtrees without a leaf):
    a set of at most ``capacity`` keys, and per (depth, top) a window of
    the ``RECENT`` newest keys, the oldest dropped first.  A state is dead
    if its key is in the set, or if some key of its window refines it."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.keys = set()
        self.windows = {}

    def skips(self, key):
        return key in self.keys or any(refines(old, key) for old in self.windows.get(key[:2], ()))

    def add(self, key):
        if len(self.keys) < self.capacity:
            self.keys.add(key)
        window = self.windows.setdefault(key[:2], [])
        window.append(key)
        del window[:max(0, len(window) - RECENT)]

    def clear(self):
        self.keys.clear()
        self.windows.clear()


def _below_tree(m, n, edges, r, t, canonicalize, prefix, stop, perms=(), dead=None):
    """The below-``t`` search tree under ``prefix`` in lex order: None for
    each color tried, then the colors of ``edges[:stop]`` at each leaf
    whose components all stay below ``t`` (``_below``).  ``perms`` holds
    (edge permutation, limit) pairs, each compared on the first ``limit``
    colors only.  The colors below the ``lex_floor`` of a permutation
    compared on every edge are not tried.  A color whose prefix breaks
    ``lex_leader_ok`` for some permutation is tried, but its subtree is
    not.

    With ``dead`` (``DeadStates``), the walk's dead-state cache: past
    ``SPLIT_DEPTH`` edges, a prefix that ends an X-row and whose
    ``state_key`` ``dead`` skips is tried, but its subtree is not; the
    key of each such prefix whose subtree had no leaf is added.  ``dead``
    is emptied after the subtree of each prefix of ``SPLIT_DEPTH`` edges."""
    if len(prefix) == stop:
        yield prefix
        return
    split = min(SPLIT_DEPTH, len(edges))
    hi = min(r - 1, max(prefix, default=-1) + 1) if canonicalize else r - 1
    lo = max((lex_floor(prefix, perm, hi) for perm, limit in perms if limit == len(edges)), default=0)
    for c in range(lo, hi + 1):
        colors = prefix + (c,)
        yield None
        if not _below(m, n, edges, colors, r, t):
            continue
        if not all(lex_leader_ok(colors[:limit], perm) for perm, limit in perms):
            continue
        d = len(colors)
        subtree = _below_tree(m, n, edges, r, t, canonicalize, colors, stop, perms, dead)
        if dead is None or not (split < d < stop and edges[d][0] != edges[d - 1][0]):
            yield from subtree
            if dead is not None and d == split:
                dead.clear()
            continue
        key = state_key(m, n, edges, colors, r)
        if dead.skips(key):
            continue
        leaf = False
        for item in subtree:
            leaf = leaf or item is not None
            yield item
        if not leaf:
            dead.add(key)


def brute_below_search(host, r, t, canonicalize=True, budget=1 << 62, perms=(), dead_states=False):
    """The search for a coloring keeping every component below ``t`` (for
    ``t`` None: every component short of half of X or of half of Y), as one
    lex-order walk of the whole tree that stops at node ``budget + 1``,
    with the lex-leader cut of ``perms`` ((edge permutation, limit) pairs,
    as ``_below_tree`` reads them) and, with ``dead_states``, the
    dead-state cache, kept when min(r, edges) colors times the vertices
    with edges squared, the bits of a state, is at most ``KEY_BITS``.  Returns (kind, examined,
    colors or None)."""
    m, n, edges = host.m, host.n, tuple(host.edges())
    examined = 0
    t = None if t is None else Fraction(t)
    num_verts = len({x for x, _ in edges}) + len({y for _, y in edges})
    key_bits = min(r, len(edges)) * num_verts**2
    keyed = dead_states and 0 < key_bits <= KEY_BITS
    dead = DeadStates(min(DEAD_STATES, DEAD_BITS // key_bits)) if keyed else None
    tree = _below_tree(m, n, edges, r, t, canonicalize, (), len(edges), perms, dead)
    for leaf in tree:
        if leaf is not None:
            return "Counterexample", examined, leaf
        examined += 1
        if examined > budget:
            return "BudgetExhausted", examined, None
    return "AllSatisfy", examined, None


def brute_automorphisms(host):
    """The distinct edge permutations (edges in sorted (x, y) order) of
    every vertex bijection that keeps the sides, or swaps them when m = n,
    and maps edges onto edges, over all m! n! (twice that) bijections."""
    m, n = host.m, host.n
    edges = host.edges()
    index = {e: i for i, e in enumerate(edges)}
    perms = set()
    for xs in itertools.permutations(range(m)):
        for ys in itertools.permutations(range(n)):
            maps = [lambda x, y: (xs[x], ys[y])]
            if m == n:
                maps.append(lambda x, y: (xs[y], ys[x]))
            for image in maps:
                moved = [image(x, y) for x, y in edges]
                if all(e in index for e in moved):
                    perms.add(tuple(index[e] for e in moved))
    return perms


def enum_assignments(edges, r, canonicalize):
    """All complete color assignments in lex order; with ``canonicalize``
    only those whose colors first appear in increasing order."""
    num_edges = len(edges)
    assign = [0] * num_edges

    def rec(idx, used):
        if idx == num_edges:
            yield tuple(assign)
            return
        hi = min(r - 1, used) if canonicalize else r - 1
        for c in range(hi + 1):
            assign[idx] = c
            yield from rec(idx + 1, used if c < used else c + 1)

    yield from rec(0, 0)


def has_half_half(m, n, edges, colors, r):
    """Does some monochromatic component hold >= m/2 X- and >= n/2
    Y-vertices?"""
    for c in range(r):
        class_edges = [e for e, col in zip(edges, colors) if col == c]
        for xs, ys in bfs_components(m, n, class_edges):
            if 2 * len(xs) >= m and 2 * len(ys) >= n:
                return True
    return False


def half_half_prefix(m, n, edges, colors, r):
    """Length of the shortest prefix of ``colors`` with a half-half
    component, or None."""
    for k in range(1, len(edges) + 1):
        if has_half_half(m, n, edges[:k], colors[:k], r):
            return k
    return None


def brute_half_half_verify(host, r, canonicalize=True, budget=None):
    """Enumerate colorings one by one for the first without a half-half
    component: (kind, examined, colors or None), with ``examined`` and the
    budget stop counted per coloring."""
    edges = host.edges()
    examined = 0
    for colors in enum_assignments(edges, r, canonicalize):
        if budget is not None and examined == budget:
            return "BudgetExhausted", examined, None
        examined += 1
        if not has_half_half(host.m, host.n, edges, colors, r):
            return "Counterexample", examined, colors
    return "AllSatisfy", examined, None


def brute_double_star_order(m, n, edges):
    """Max over edges of deg(x) + deg(y), degrees recounted from the list."""
    best = 0
    for x, y in edges:
        dx = sum(1 for a, _ in edges if a == x)
        dy = sum(1 for _, b in edges if b == y)
        best = max(best, dx + dy)
    return best


def column_degrees(n, edges):
    """deg(y) for y in 0..n-1, one count per edge."""
    degs = [0] * n
    for _, y in edges:
        degs[y] += 1
    return degs


def double_star(m, n, edges):
    """(order, center_x, center_y) maximizing deg(x) + deg(y) over the edges,
    or None without edges.  Edges are scanned in (x, y) order and only a
    strictly larger order replaces the best, so ties go to the first edge."""
    xdeg = [0] * m
    for x, _ in edges:
        xdeg[x] += 1
    ydeg = column_degrees(n, edges)
    best = None
    for x, y in sorted(edges):
        order = xdeg[x] + ydeg[y]
        if best is None or order > best[0]:
            best = (order, x, y)
    return best


def stability_json(m, n, edges, r, delta=None):
    """The stability report's JSON, recomputed vertex by vertex from the
    definitions: e = (1 - delta) mn / r, alpha = (m+n) delta / (r^2 n),
    beta = (m+n) delta / (r^2 m); a vertex is exceptional when its degree
    falls short of the average by more than alpha^(1/3) n (beta^(1/3) m),
    compared by cubing."""

    def rat(q):
        q = Fraction(q)
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    e = len(edges)
    if delta is None:
        delta = max(Fraction(0), 1 - Fraction(r * e, m * n))
    alpha = Fraction(m + n, r * r * n) * delta
    beta = Fraction(m + n, r * r * m) * delta
    xdeg = [0] * m
    for x, _ in edges:
        xdeg[x] += 1
    ydeg = column_degrees(n, edges)

    def short(deg, avg, bound, scale):
        gap = avg - deg
        return gap > 0 and gap**3 > bound * scale**3

    exc_x = [x for x in range(m) if short(xdeg[x], Fraction(e, m), alpha, n)]
    exc_y = [y for y in range(n) if short(ydeg[y], Fraction(e, n), beta, m)]
    star = double_star(m, n, edges)[0]
    case_i = star * r >= m + n
    case_ii = (len(exc_x) == 0 or len(exc_x) ** 3 <= alpha * m**3) and (
        len(exc_y) == 0 or len(exc_y) ** 3 <= beta * n**3
    )
    return {
        "delta": rat(delta),
        "alpha": rat(alpha),
        "beta": rat(beta),
        "exceptional_x": exc_x,
        "exceptional_y": exc_y,
        "k_x": len(exc_x),
        "k_y": len(exc_y),
        "defect_x": rat(sum(xdeg[x] for x in exc_x) - len(exc_x) * Fraction(e, m)),
        "defect_y": rat(sum(ydeg[y] for y in exc_y) - len(exc_y) * Fraction(e, n)),
        "double_star_order": star,
        "case_i": case_i,
        "case_ii": case_ii,
        "dichotomy": case_i or case_ii,
    }


def first_bad_pair(m, n, edges):
    """The per-edge loop over (x, y) pairs in input order: the (error class
    name, message) of the first pair outside [0, m) x [0, n) or seen
    before, or None when every pair is good."""
    seen = set()
    for x, y in edges:
        if not (0 <= x < m) or not (0 <= y < n):
            return "IndexOutOfRange", f"edge ({x}, {y}) outside [0, {m}) x [0, {n})"
        if (x, y) in seen:
            return "DuplicateEdge", f"edge ({x}, {y}) given twice"
        seen.add((x, y))
    return None


def first_bad_triple(m, n, r, triples):
    """As ``first_bad_pair`` for (x, y, color) triples: the color is checked
    first, and an edge repeated in any color is a duplicate."""
    seen = set()
    for x, y, c in triples:
        if not (0 <= c < r):
            return "ColoringMismatch", f"color {c} outside [0, {r})"
        if not (0 <= x < m) or not (0 <= y < n):
            return "IndexOutOfRange", f"edge ({x}, {y}) outside [0, {m}) x [0, {n})"
        if (x, y) in seen:
            return "DuplicateEdge", f"edge ({x}, {y}) given twice"
        seen.add((x, y))
    return None
