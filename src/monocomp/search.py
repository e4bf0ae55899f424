"""Adversarial search over r-colorings of a host graph.

Each search runs one theorem of the registry ``theorems.THEOREMS``; its
``Theorem.needs`` gives the conclusion as the one integer rule that every
kernel here reads.

Every kernel reads one packed instance (``_packed``): an X-vertex weighs 1
and a Y-vertex K, so a component of x X- and y Y-vertices weighs x + K y.
K = 1 for an order target; K = m + 1 for half-half, whose conclusion is one
threshold plus one ``%``.  Exhaustive search is one iterative walk,
``_walk_below``, for both conclusions: it colors the edges in sorted (x, y)
order on one rollback union-find per color (union by weight with no path
compression, so a union is undone in O(1) by resetting the attached root),
keeps the root each depth attached, so backtracking never recomputes
components, and cuts a branch the moment a partial color class meets the
conclusion (components only grow).  It both enumerates the
split prefixes and runs the task under each.  Color canonicalization forces
new colors to appear in increasing order along the edge sequence, cutting
the tree by up to r!, and the walk breaks the host's own symmetry with
lex-leader constraints (Crawford, Ginsberg, Luks, Roy, KR 1996): for each
automorphism of a set (``_lex_elements``), the coloring stays lex-at-most
its image under that automorphism with colors renamed by first
appearance.  The set always holds the generators of the host's
automorphism group (``_automorphisms``, found by individualization and
refinement), compared on every edge.  When that search proves an order
of at most ``_GROUP_CAP`` and the closure costs at most ``_SYMMETRY_WORK``
permutation entries, it holds the whole group, and each element that is
not a generator is compared only on the first ``_EXTRA_SHARE`` of the
edges, near the root, where a cut removes a large subtree (the BreakID
idea of bounding each constraint's length: Devriendt, Bogaerts,
Bruynooghe, Denecker, SAT 2016).  Every automorphism (a side swap too, when
m = n, since then half-half is symmetric) and every color permutation maps
a coloring that keeps all components below the conclusion to one that does
too, so the solutions fall into orbits, and the lex-least solution is the
least of its orbit and meets every such order, and so every prefix of
one: a bounded comparison cuts less, never a solution that the whole
order keeps.  At each depth, a generator whose order is still tied and
next compares an edge colored before with this edge as its image
allows only the colors whose names reach that edge's color, so the walk
starts the depth at the least color every such generator allows, and the
colors below it are never tried.  The walk also skips dead states (subproblem
dominance: Chu, Garcia de la Banda, Stuckey, Constraints 17, 2012; Smith,
CP 2005).  Once an X-row is fully colored, the rest of the walk depends
only on the row, the colors in use and, per color, the partition of the
vertices into components, since the X-vertices still to come are
untouched.  A state whose subtree had no leaf is dead, and a later state
at the same row with the same colors in use is skipped when a dead one
refines it: per color, each block of the dead partition lies inside a
block of the later one (equal partitions are the special case).  Then,
for any coloring of the rest, each component the dead prefix forms lies
inside one the later prefix forms, and the conclusion is monotone in the
X- and Y-counts, so a rest that keeps the later prefix below it keeps the
dead prefix below it too.  The dead prefix is lex-less, so no skipped
subtree holds the lex-least solution.  So no cut changes a decision or a
witness; only the node count moves.

A below search, an exhaustive verify and each min-max probe is one walk
over all edges: ``examined`` is its node count and the budget one cap on
it.  Parallel runs split that walk at a fixed depth (``_prefix_depth``)
into tasks, run on one process pool per search and merged in prefix order
into the serial count, so the outcome is the same for every worker count.
Dead states are kept only past ``_PREFIX_DEPTH`` edges and forgotten at
each backtrack above it, so every task starts from the empty set that the
serial walk has there.
Random sampling is blocked too: block i always draws the same colorings
from its derived seed, whoever executes it, and blocks are generated
lazily, so the default unbounded budget costs no memory.
A sample is one ``randbytes`` call mapped to colors by a byte table, with
exact rejection when r does not divide 256 (``random_search`` has the rule).
A sample is checked bit-parallel (``_sample_meets``), one color at a time
until one holds a component meeting the conclusion: the color's edges are
one E-bit mask, each X-row's Y-mask is read off it in chunks of at most 8
edges through tables built once per search (``_row_chunks``), and rows
whose Y-masks meet merge.  Its memory is O(edges), whatever r.
"""

from __future__ import annotations

import math
import os
import random
from collections import defaultdict, deque
from contextlib import closing, contextmanager
from fractions import Fraction
from itertools import islice

from .bigraph import (
    BipartiteGraph,
    EdgeColoring,
    EmptyGraph,
    Record,
    coloring_from_assignment,
    rat_str,
)
from .constructions import complete_minus_circulant
from .theorems import _UNBOUNDED, Theorem, _ceil_frac, _theorem

_RANDOM_BLOCK = 2048
_PREFIX_DEPTH = 4
_SYMMETRY_WORK = 1 << 16
_GROUP_CAP = 64  # the largest group order whose every element the walk breaks
_EXTRA_SHARE = Fraction(3, 7)  # the share of the edges on which the other elements are compared
_DEAD_STATES = 1 << 18  # dead keys a walk keeps per split prefix (circ(9,9,2) r3: 156 bytes a key)
_DEAD_BITS = 1 << 28  # and keys of at most this many matrix bits in all (2^18 of circ(9,9,2) r3 fit)
_RECENT = 32  # the newest dead keys per (depth, top) a state is tested for refinement against
_KEY_BITS = 1 << 16  # the widest block matrix, r times vertices squared bits, kept for dead states


class SearchConfig(Record):
    """Knobs shared by the search operations."""

    seed: int = 0
    budget: int = _UNBOUNDED

    def _check(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")


class SearchOutcome(Record):
    """Result of one search run."""

    kind: str
    value: int | None
    witness: EdgeColoring | None
    examined: int


def _automorphisms(host: BipartiteGraph) -> tuple[list[list[int]], int | None]:
    """Generators of the host's automorphism group, each as an edge
    permutation ``perm`` over ``_packed``'s ``ends``: the vertex bijection
    sends edge i onto edge ``perm[i]``.  Every bijection keeps X and Y, or
    (only when m = n) swaps them whole, and each one is checked against the
    edge set before it is returned.  With them comes the number of edge
    permutations the group holds, or None when the search stopped early.

    Individualization and refinement (after McKay, J. Algorithms 26, 1998)
    over X and Y, whose vertices are numbered as in ``ends``: refining an
    ordered partition splits its cells by their neighbour counts in one
    splitter cell at a time, and only cells that changed become splitters.
    The first path individualizes the first vertex of the first non-trivial
    cell until the partition is discrete; the leaf ``first`` pairs each
    vertex with its position.  Level by level from the deepest, for each
    vertex w of the level's cell that is not yet in the orbit of the path's
    vertex under the generators that fix the path above it, a depth-first
    search under w looks for a leaf whose pairing with ``first`` is an
    automorphism (nodes whose cell sizes differ from the first path's are
    cut).  Together these generate the side-keeping group; with m = n, one
    search from the partition with the sides in swapped order adds a side
    swap if there is one.  The orbit sizes of the path's vertices multiply
    to the side-keeping group's order (orbit-stabilizer); the permutations
    of isolated vertices move no edge, and a side swap doubles the edge
    permutations unless some swap fixes every edge (only on a matching).
    Transpositions of twin vertices (the same neighbourhood) seed the
    orbits, which spares complete hosts the search.
    The search stops after ``_SYMMETRY_WORK`` vertex steps, and at most
    ``_SYMMETRY_WORK`` permutation entries are returned: on a big host the
    walk breaks the symmetry of the generators found first, which keeps
    it as sound."""
    m, n = host.m, host.n
    num = m + n
    if host.edge_count > _SYMMETRY_WORK:  # no generator would fit
        return [], None
    ends = [(x, m + y) for x, y in host.edges()]
    edge_at = {e: i for i, e in enumerate(ends)}
    adj = [[] for _ in range(num)]
    for a, b in ends:
        adj[a].append(b)
        adj[b].append(a)
    work = _SYMMETRY_WORK

    def refine(lab, cell, end, queue):
        """Refine the partition (``lab`` the vertices in cell order,
        ``cell[v]`` the start of v's cell, ``end[s]`` the end of the cell at
        s) in place until every cell has equal counts in each splitter."""
        queued = set(queue)
        queue = deque(queue)
        while queue:
            s = queue.popleft()
            queued.discard(s)
            count = {}
            for v in lab[s:end[s]]:
                for w in adj[v]:
                    count[w] = count.get(w, 0) + 1
            for c in sorted({cell[w] for w in count}):
                groups = {}
                for w in lab[c:end[c]]:
                    groups.setdefault(count.get(w, 0), []).append(w)
                if len(groups) == 1:
                    continue
                starts, at = [], c
                for key in sorted(groups):
                    group = groups[key]
                    lab[at:at + len(group)] = group
                    for w in group:
                        cell[w] = at
                    end[at] = at + len(group)
                    starts.append(at)
                    at += len(group)
                if c not in queued:  # c's counts are known: one fragment may stay out
                    starts.remove(max(starts, key=lambda f: end[f] - f))
                for f in starts:
                    if f not in queued:
                        queued.add(f)
                        queue.append(f)

    def shape(node):
        """The cell starts of a node's partition, and its first cell of
        two or more vertices (None when the partition is discrete)."""
        end = node[2]
        starts, target, s = [], None, 0
        while s < num:
            starts.append(s)
            if target is None and end[s] - s > 1:
                target = s
            s = end[s]
        return tuple(starts), target

    def child(node, v):
        nonlocal work
        work -= num
        lab, cell, end = node[0][:], node[1][:], node[2][:]
        s = cell[v]
        e = end[s]
        i = lab.index(v, s, e)
        lab[i], lab[s] = lab[s], v
        end[s], end[s + 1] = s + 1, e
        for w in lab[s + 1:e]:
            cell[w] = s + 1
        refine(lab, cell, end, [s])
        return lab, cell, end

    def root(order):
        """The refined partition of the two sides, in ``order``."""
        lab = [v for side in order for v in side]
        k = len(order[0])
        cell = [0] * num
        for v in order[1]:
            cell[v] = k
        end = [0] * num
        end[0], end[k] = k, num
        refine(lab, cell, end, [0, k])
        return lab, cell, end

    def verified(sigma):
        """``sigma`` if it keeps or swaps the sides whole and maps each edge
        at a moved vertex onto an edge (so every edge onto an edge), else
        None."""
        nonlocal work
        work -= num
        swap = sigma[0] >= m
        for v in range(num):
            if (sigma[v] >= m) != (v >= m) ^ swap:
                return None
            if sigma[v] != v or swap:
                for w in adj[v]:
                    a, b = sigma[v], sigma[w]
                    if (min(a, b), max(a, b)) not in edge_at:
                        return None
        return sigma

    x_side, y_side = range(m), range(m, num)
    node = root((x_side, y_side))
    path = []  # (node, shape, target) per level, the leaf last
    while True:
        starts, target = shape(node)
        path.append((node, starts, target))
        if target is None or work < 0:
            break
        node = child(node, node[0][target])
    first = node[0]

    def search(node, level):
        """A leaf under ``node`` (at ``level`` of the first path) whose
        pairing with ``first`` is an automorphism, as the vertex map, or
        None."""
        frames = []
        while work >= 0:
            starts, target = shape(node)
            if starts == path[level][1]:
                if target is None:
                    sigma = [0] * num
                    for a, b in zip(first, node[0]):
                        sigma[a] = b
                    if verified(sigma):
                        return sigma
                else:
                    frames.append((node, level, iter(node[0][target:node[2][target]])))
            while frames:
                parent, up, cands = frames[-1]
                w = next(cands, None)
                if w is not None:
                    node, level = child(parent, w), up + 1
                    break
                frames.pop()
            else:
                return None
        return None

    gens = []
    twins = {}
    for v in range(num):
        twins.setdefault((v >= m, tuple(adj[v])), []).append(v)
    for group in twins.values():
        for a, b in zip(group, group[1:]):
            sigma = list(range(num))
            sigma[a], sigma[b] = b, a
            if work >= 0 and verified(sigma):
                gens.append(sigma)
    order = None
    if len(path[-1][1]) == num:  # the first path reached a leaf
        depth = {node[0][target]: i for i, (node, _, target) in enumerate(path[:-1])}
        # orbits under the generators that fix the path above each level,
        # deepest level first, as one union-find
        orbit = list(range(num))

        def find(v):
            while orbit[v] != v:
                v = orbit[v]
            return v

        def join(sigma):
            for v in range(num):
                a, b = find(v), find(sigma[v])
                if a != b:
                    orbit[max(a, b)] = min(a, b)

        by_level = {}
        for sigma in gens:
            moved = min(depth.get(v, num) for v in range(num) if sigma[v] != v)
            by_level.setdefault(moved, []).append(sigma)
        # the group's vertex permutations, then its edge permutations
        order = 1
        for level in range(len(path) - 2, -1, -1):
            for sigma in by_level.get(level, ()):
                join(sigma)
            node, _, target = path[level]
            v = node[0][target]
            cell = node[0][target:node[2][target]]
            for w in cell[1:]:
                if work < 0:
                    break
                if find(w) != find(v):
                    sigma = search(child(node, w), level + 1)
                    if sigma:
                        gens.append(sigma)
                        join(sigma)
            order *= sum(find(w) == find(v) for w in cell)
        for side in (x_side, y_side):
            order //= math.factorial(sum(not adj[v] for v in side))
        if m == n and work >= 0:
            sigma = search(root((y_side, x_side)), 0)
            if sigma:
                gens.append(sigma)
                if any(len(row) > 1 for row in adj):
                    order *= 2
    kept = gens[:_SYMMETRY_WORK // len(ends)]
    if work < 0 or len(kept) < len(gens):  # the generators found may not generate the group
        order = None
    perms = []
    for sigma in kept:
        if sigma[0] < m:
            perm = [edge_at[sigma[a], sigma[b]] for a, b in ends]
        else:
            perm = [edge_at[sigma[b], sigma[a]] for a, b in ends]
        if perm != list(range(len(ends))):  # isolated twins move no edge
            perms.append(perm)
    return perms, order


def _lex_elements(host: BipartiteGraph) -> list[tuple[tuple[int, ...], int]]:
    """The automorphisms the walk breaks symmetry with, as (edge permutation,
    limit) pairs for ``_lex_schedule``: each element is compared on the
    positions known once the first ``limit`` edges are colored.

    The generators (``_automorphisms``) come first with the whole edge
    count as their limit.  When the group order ``_automorphisms`` proves
    is at most ``_GROUP_CAP`` and closing the group costs at most
    ``_SYMMETRY_WORK`` entries (order - 1 elements times the generators),
    every other element follows, breadth first in the order found, with
    the limit ``_EXTRA_SHARE`` of the edges: a cut near the root removes a
    large subtree, while deeper comparisons cost each node more than they
    save.  An unknown order keeps the generators alone.  Each element's
    order is a lex order over all positions, and its first ``limit``
    edges' positions are a prefix of it, which the lex-least solution
    meets as well, so a limit changes only the node count."""
    perms, order = _automorphisms(host)
    gens = list(dict.fromkeys(map(tuple, perms)))
    num_edges = host.edge_count
    full = [(perm, num_edges) for perm in gens]
    if order is None or order > _GROUP_CAP or (order - 1) * len(gens) * num_edges > _SYMMETRY_WORK:
        return full
    group = [tuple(range(num_edges)), *gens]
    seen = set(group)
    for g in islice(group, 1, None):  # read while it grows: breadth first
        for h in gens:
            gh = tuple(map(g.__getitem__, h))
            if gh not in seen:
                seen.add(gh)
                group.append(gh)
    limit = int(num_edges * _EXTRA_SHARE)
    return full + [(perm, limit) for perm in group[1 + len(gens):]]


def _lex_schedule(elements, num_edges):
    """The incremental lex-leader check of ``_walk_below`` for the
    (edge permutation, limit) pairs ``elements`` (``_lex_elements``): per
    depth, the tuple of (element, previous slot or -1, slot, pairs)
    compared there, where pairs are the (k, perm[k]) whose position k
    becomes comparable at this depth and slot indexes the element's
    renaming after this depth; per depth, the floors: the (element,
    previous slot or -1, k) of each generator's event there whose first
    pair is (k, that depth) with k colored before, so the depth's color
    must be named at least ``assign[k]`` while the generator is tied; then
    the number of elements and of slots.  Only the generators (the
    elements compared to the last edge) get floors: reading a floor costs
    each depth entry a few steps, and the other elements' floors cut
    almost nothing.

    Position k of ``assign`` and of ``assign`` composed with ``perm`` are
    both known from depth max(j, perm[j]) over j <= k on, and an element is
    compared only at depths below its limit.  Positions before an element's
    first moved one are equal in both and left out: the canonical coloring
    names its colors in order, so the renaming starts as the identity on
    the colors used."""
    schedule = [[] for _ in range(num_edges)]
    floors = [[] for _ in range(num_edges)]
    slot = 0
    for g, (perm, limit) in enumerate(elements):
        k0 = next(k for k in range(num_edges) if perm[k] != k)
        events = {}
        depth = k0
        for k in range(k0, limit):
            depth = max(depth, k, perm[k])
            if depth >= limit:
                break
            events.setdefault(depth, []).append((k, perm[k]))
        prev = -1
        for depth, pairs in events.items():
            k, p = pairs[0]
            if p == depth > k and limit == num_edges:
                floors[depth].append((g, prev, k))
            schedule[depth].append((g, prev, slot, tuple(pairs)))
            prev = slot
            slot += 1
    return [tuple(at) for at in schedule], [tuple(at) for at in floors], len(elements), slot


def _packed(host: BipartiteGraph, need: tuple[int, int, int]):
    """The host and ``need`` (``Theorem.needs``) as the packed instance
    every kernel here reads: (ends, weights, rule), each edge as
    (x, m + y) in sorted (x, y) order, each slot's weight, and
    (K, threshold, need_x).  A component of x X- and y Y-vertices weighs
    w = x + K y and meets ``need`` iff w >= threshold and w % K >= need_x.
    An order target has K = 1; a half-half one K = m + 1 > x, so
    x = w % K and y = w // K.  A host without edges raises EmptyGraph."""
    if host.edge_count == 0:
        raise EmptyGraph("host has no edges")
    m = host.m
    weight = m + 1 if need[0] or need[1] else 1  # needs sets the order or the counts
    ends = [(x, m + y) for x, y in host.edges()]
    return ends, [1] * m + [weight] * host.n, _rule(weight, need)


def _rule(weight: int, need: tuple[int, int, int]) -> tuple[int, int, int]:
    """``need`` as ``_packed``'s (K, threshold, need_x) for Y-weight K."""
    need_x, need_y, order = need
    return weight, order + need_x + weight * need_y, need_x


def _walk_below(ends, weights, r, rule, prefix, stop, budget, lex):
    """Yield ``(colors, nodes)`` for each coloring of ``ends[:stop]`` that
    extends ``prefix`` and has no monochromatic component meeting ``rule``
    (``ends``, ``weights`` and ``rule`` from ``_packed``), in lex order,
    then ``(None, nodes)`` once the subtree is done or a node goes over
    ``budget``.  ``nodes`` counts the colors tried, so it reads
    ``budget + 1`` after a budget stop.

    The search is an iterative depth-first walk on one rollback union-find
    per color, inlined: ``parents[c]``/``sizes[c]`` (packed weights) with no
    path compression, and at each depth the root that its union attached, or
    -1.  New colors appear in increasing order along the edges, so a walk
    uses at most min(r, edges) colors and sizes its tables by that.  ``lex``
    (``_lex_schedule``) holds, per depth, the positions that become
    comparable there for each element perm of ``_lex_elements``: every
    generator to the last edge, and each other element of a group within
    ``_GROUP_CAP`` only up to its limit.  The walk keeps ``assign``
    lex-at-most its image ``assign[perm[k]]``, with colors renamed by first
    appearance, on the positions compared.  The lex-least coloring meets
    every such order and each prefix of one (see the module docstring), so
    only the node count changes.  Only the elements still tied do any work:
    ``sat[g]`` is the depth at which element g became strictly less on this
    path, and ``states[slot]`` its renaming after that slot's depth (color
    to name, the next name last), so neither needs an undo.  On entering a
    depth, each generator still tied whose next pair is (k, this edge) with
    k colored allows only the colors named at least ``assign[k]``; the first
    color tried is the least one every such generator allows, and a depth
    none allows pops at once.  Any other color that breaks an order is cut
    like one that meets the rule, as a node, and ``merged`` undoes its
    union.

    The colors' vertex partitions are one block matrix ``mat``: color c
    holds nv fields of nv bits from bit ``offset[c]`` on (nv the vertices
    with edges), field i the mask of the component of vertex ``verts[i]``.
    Each root keeps its component's mask and its spread (bit nv i for each
    vertex i in it), so a union of components A and B adds
    spread_A mask_B + spread_B mask_A at color c's offset: each field of A
    gains B's mask and the reverse, without carry.  ``saved[d]`` is the
    matrix before depth d's union, which its undo restores.  Past the split
    depth P = min(``_PREFIX_DEPTH``, edges), each depth d where a new X-row
    starts keys its state as the matrix above the header d r + ``top[d]``,
    so equal keys mean the same row, the same ``top[d]`` and the same
    partitions.  The state is skipped (the color that led there still
    counts as a node) when its key is in ``dead``, or when one of the
    newest ``_RECENT`` dead keys with its header refines it: key | dead
    is key, one OR and one compare each in C, when each dead block lies
    inside a block of this state; the window is read newest first, where
    most hits fall.  A subtree that ends before any leaf was
    yielded adds its key to its header's window and, while ``dead`` holds
    fewer than ``_DEAD_STATES`` keys and fewer than ``_DEAD_BITS`` bits of
    matrix, to ``dead``, which bounds the walk's memory on searches of
    many millions of nodes.  The row is part of the key: states at
    different rows can be equal, and their futures differ.  When r nv^2
    passes ``_KEY_BITS``, the walk keeps neither the matrix nor any dead
    state: the matrix work per node grows as r nv^2 (``K_{90,90}`` at 2
    colors, 64,800 bits, spends about 9 µs a node against the unkeyed
    walk's 1.3), and the spreads hold r nv^3 / 2 bits.  ``dead`` and the
    windows are emptied at each backtrack
    above P, so a task whose prefix is at most P edges long counts exactly
    the nodes the serial walk spends under that prefix.

    The walk replays ``prefix`` first, taking each prefix color as its
    depth's first, with ``nodes`` starting at minus the prefix length, so a
    task's union-finds, orders and count start where the walk that made
    the prefix left them."""
    weight, threshold, need_x = rule
    schedule, floors, num_elements, num_slots = lex
    start = len(prefix)
    if start == stop:  # nothing left to color: the prefix is the one leaf
        yield tuple(prefix), 0
        yield None, 0
        return
    r = min(r, len(ends))  # a canonical walk opens at most one new color per edge
    parents = [list(range(len(weights))) for _ in range(r)]
    sizes = [weights[:] for _ in range(r)]
    split = min(_PREFIX_DEPTH, len(ends))
    verts = sorted({v for end in ends for v in end})  # the vertices with edges
    nv = len(verts)
    keyed = r * nv * nv <= _KEY_BITS
    # the depths past the split where a new X-row starts
    row_start = [keyed and split < d < stop and ends[d][0] != ends[d - 1][0] for d in range(stop + 1)]
    if keyed:
        # vertex verts[i] owns bit i of a mask and bit nv * i of a spread
        head_bits = ((stop + 1) * r).bit_length()
        offset = [head_bits + c * nv * nv for c in range(r)]
        mask, spread = [0] * len(weights), [0] * len(weights)
        diagonal = 0  # every vertex a block of its own
        for i, v in enumerate(verts):
            mask[v], spread[v] = 1 << i, 1 << nv * i
            diagonal |= 1 << (nv + 1) * i
        masks = [mask[:] for _ in range(r)]
        spreads = [spread[:] for _ in range(r)]
        mat = sum(diagonal << at for at in offset)
        saved = [0] * stop  # the matrix before each depth's union
        most_dead = min(_DEAD_STATES, _DEAD_BITS // (r * nv * nv))
    dead = set()
    recent = defaultdict(lambda: deque(maxlen=_RECENT))  # per header, its newest dead keys
    keys = [None] * (stop + 1)
    windows = [None] * (stop + 1)
    yielded = False
    first = list(prefix) + [0] * (stop - start)  # the first color tried at each depth
    assign = [-1] * stop  # -1 before a depth's first color
    merged = [-1] * stop  # the root attached at each depth, -1 for none
    # the last color to try at each depth is the first unused one, so
    # choosing the top color raises the next top
    top = [0] * (stop + 1)
    done = len(ends)
    sat = [done] * num_elements
    states = [None] * num_slots
    identity = [list(range(c)) + [-1] * (r - c) + [c] for c in range(r)]
    raised = [min(r - 1, c + 1) for c in range(r)]  # top after choosing top color c
    nodes = -start  # below 0 while the prefix replays
    idx = 0
    while True:
        c = assign[idx]
        if c >= 0:
            b = merged[idx]
            if b >= 0:
                parent, size = parents[c], sizes[c]
                a = parent[b]
                parent[b] = b
                size[a] -= size[b]
                if keyed:
                    mask, spread = masks[c], spreads[c]
                    mask[a] ^= mask[b]
                    spread[a] ^= spread[b]
                    mat = saved[idx]
            if c == top[idx]:
                assign[idx] = -1
                if row_start[idx] and not yielded:
                    if len(dead) < most_dead:
                        dead.add(keys[idx])
                    windows[idx].append(keys[idx])
                idx -= 1
                if idx < start:
                    break
                if idx < split:
                    dead.clear()
                    recent.clear()
                continue
            c += 1
        else:
            c = first[idx]
            if floors[idx]:
                hi = top[idx]
                for g, prev, k in floors[idx]:
                    need = assign[k]
                    if need and sat[g] >= idx:  # tied: this edge's color must be named need or more
                        ren = identity[top[k]] if prev < 0 else states[prev]
                        least = 0
                        while least <= hi and (ren[least] if ren[least] >= 0 else ren[r]) < need:
                            least += 1
                        if least > c:
                            c = least
                if c > hi:  # no color is allowed: pop at the next pass, as after the top color
                    assign[idx], merged[idx] = hi, -1
                    continue
        nodes += 1
        if nodes > budget:
            break
        assign[idx] = c
        parent = parents[c]
        a, b = ends[idx]
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a == b:
            merged[idx] = -1
        else:
            size = sizes[c]
            merged_size = size[a] + size[b]
            # an order target (need_x 0) takes no % per cut
            if merged_size >= threshold and (not need_x or merged_size % weight >= need_x):
                merged[idx] = -1
                continue
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] = merged_size
            merged[idx] = b
            if keyed:  # each field of one block gains the other block's mask
                mask, spread = masks[c], spreads[c]
                ma, mb, sa, sb = mask[a], mask[b], spread[a], spread[b]
                mask[a] = ma | mb
                spread[a] = sa | sb
                saved[idx] = mat
                mat += (sa * mb + sb * ma) << offset[c]
        events = schedule[idx]
        if events:
            broken = False
            for event in events:
                g = event[0]
                if sat[g] < idx:
                    continue
                _, prev, slot, pairs = event
                ren = identity[top[pairs[0][0]]] if prev < 0 else states[prev]
                for k, p in pairs:
                    name = ren[assign[p]]
                    if name < 0:
                        ren = ren[:]  # a renaming is shared until it grows
                        name = ren[assign[p]] = ren[r]
                        ren[r] = name + 1
                    if assign[k] != name:
                        break
                else:
                    states[slot] = ren
                    sat[g] = done
                    continue
                if assign[k] > name:
                    broken = True
                    break
                sat[g] = idx
            if broken:  # merged[idx] undoes the union at the next color
                continue
        idx += 1
        if idx == stop:
            yielded = True
            yield tuple(assign), nodes
            idx -= 1
            continue
        top[idx] = top[idx - 1] if c < top[idx - 1] else raised[c]
        if row_start[idx]:
            head = idx * r + top[idx]
            key = mat | head
            window = recent[head]
            # merged[idx - 1] undoes the union at the next color
            if key in dead or window and key in map(key.__or__, reversed(window)):
                idx -= 1
                continue
            keys[idx], windows[idx] = key, window
    yield None, nodes


def _below_task(args) -> tuple[tuple[int, ...] | None, int, int]:
    """Search under one streamed prefix (``_below_probe``): (colors or None,
    the prefix walk's nodes at that prefix, the task's nodes).  The prefix
    walk's closing item (prefix None) is a task of 0 nodes."""
    *common, budget, lex, (prefix, pre) = args
    if prefix is None:
        return None, pre, 0
    stop = len(common[0])
    colors, nodes = next(_walk_below(*common, prefix, stop, budget - pre, lex))
    return colors, pre, nodes


@contextmanager
def _pool(workers: int):
    """Yield ``ranked(task, args)``, which yields ``task(a)`` for each ``a``
    of the iterable ``args`` in order: in this process for one worker, else
    on one pool of ``workers`` processes (callers cap it at the CPU count:
    fork launches them all at once), shut down on exit, with at most two
    tasks in flight per process.  Once its consumer stops, it submits no
    task and cancels those not yet started, so the pool serves the next."""
    if workers <= 1:
        yield lambda task, args: (task(a) for a in args)
        return
    from concurrent.futures import ProcessPoolExecutor  # only here: it slows every import

    def ranked(task, args):
        args = iter(args)
        pending = deque(pool.submit(task, a) for a in islice(args, 2 * workers))
        try:
            while pending:
                yield pending.popleft().result()
                pending.extend(pool.submit(task, a) for a in islice(args, 1))
        finally:
            for future in pending:
                future.cancel()

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield ranked
    finally:
        pool.shutdown(cancel_futures=True)


def _prefix_depth(num_edges: int, r: int, workers: int) -> int:
    """Where ``_below_probe`` splits the walk: ``_PREFIX_DEPTH`` edges in, or
    0 (a serial walk) for one worker or one color, whose walk has one prefix."""
    return min(_PREFIX_DEPTH, num_edges) if workers > 1 and r > 1 else 0


@contextmanager
def _below_probe(host: BipartiteGraph, r: int, workers: int, packing=(0, 0, 2)):
    """Yield ``probe(need, budget)``: the lex-least r-coloring of the host
    with no monochromatic component meeting ``need`` (``Theorem.needs``,
    of the same kind as ``packing``: an order target, or half-half), as
    colors or None, and the nodes one ``_walk_below`` over all edges tries
    to decide it, which read ``budget + 1`` (and colors None) once that
    walk goes over ``budget``.  The packed instance, the lex-leader
    schedule, the split depth and the process pool are set up once for
    every probe.

    The walk is split at ``_prefix_depth`` for W = min(workers, CPUs)
    processes, which only schedules: one prefix walk, capped at the budget,
    streams the prefixes with its node count pre_i at prefix i, and each
    task runs speculatively, capped at budget - pre_i.  Merged in prefix
    order, task i ends at serial node pre_i + (nodes of tasks 0..i), so the
    result is the single walk's: the split depth is at most
    ``_PREFIX_DEPTH``, where the walk's dead-state set starts empty for
    every prefix.  At depth 0 the one task is that walk."""
    ends, weights, (weight, _, _) = _packed(host, packing)  # needs of one kind pack alike
    if r < 1:
        raise ValueError("need r >= 1")
    lex = _lex_schedule(_lex_elements(host), len(ends))
    workers = min(workers, os.cpu_count() or 1)
    depth = _prefix_depth(len(ends), r, workers)

    def probe(need, budget: int) -> tuple[tuple[int, ...] | None, int]:
        common = (ends, weights, r, _rule(weight, need))
        prefixes = _walk_below(*common, (), depth, budget, lex)
        tasks = ((*common, budget, lex, item) for item in prefixes)
        spent = 0
        with closing(ranked(_below_task, tasks)) as results:
            for colors, pre, nodes in results:  # the last item closes the prefix walk
                spent += nodes
                if colors is not None or pre + spent > budget:
                    break
        return (colors, pre + spent) if pre + spent <= budget else (None, budget + 1)

    with _pool(workers if depth else 1) as ranked:
        yield probe


def _decide_below(host, r, need, cfg: SearchConfig, workers: int, what="target") -> SearchOutcome:
    """One ``_below_probe`` for ``need`` at ``cfg.budget``, as Counterexample
    with the lex-least witness, AllSatisfy, or BudgetExhausted with
    budget + 1; ``examined`` is the walk's node count.  After the host and
    r, an order target below 2 raises ValueError, naming it as ``what``."""
    with _below_probe(host, r, workers, need) as probe:
        _require_target(need, what)
        colors, examined = probe(need, cfg.budget)
    if colors is not None:
        witness = coloring_from_assignment(host, r, colors)
        return SearchOutcome("Counterexample", None, witness, examined)
    kind = "BudgetExhausted" if examined > cfg.budget else "AllSatisfy"
    return SearchOutcome(kind, None, None, examined)


def _require_target(need: tuple[int, int, int], what: str) -> None:
    """Raise ValueError, naming the target as ``what``, when ``need``
    (``Theorem.needs``) is an order target below 2."""
    if not (need[0] or need[1]) and need[2] < 2:
        raise ValueError(f"{what} must be at least 2")


def _target_name(thm: Theorem, host: BipartiteGraph, r: int) -> str:
    return f"the {thm.name} target {rat_str(thm.target(host.m, host.n, r))}"


def exists_coloring_below(
    host: BipartiteGraph,
    r: int,
    target,
    cfg: SearchConfig | None = None,
    workers: int = 1,
) -> SearchOutcome:
    """Decide whether some r-coloring keeps every monochromatic component
    below ``target`` (a rational; integer orders compare against its
    ceiling).

    Counterexample means such a coloring exists and the witness is the
    lexicographically least one; AllSatisfy means every coloring has a
    component of order >= target.  ``examined`` counts the nodes of one
    walk over all edges, whatever ``workers``, and past ``cfg.budget`` the
    outcome is BudgetExhausted with budget + 1.
    """
    return _decide_below(host, r, (0, 0, _ceil_frac(target)), cfg or SearchConfig(), workers)


def min_max_mono_component(
    host: BipartiteGraph,
    r: int,
    cfg: SearchConfig | None = None,
    workers: int = 1,
) -> SearchOutcome:
    """Exact min over r-colorings of the largest monochromatic component
    order, with a coloring achieving it (the canonical lex-least one).

    A binary search over below probes, which share one process pool; each
    probe gets the budget the earlier ones left, so ``examined``, their node
    total, is at most ``cfg.budget + 1`` and does not depend on
    ``workers``."""
    cfg = cfg or SearchConfig()
    lo, hi, colors, examined = 2, host.m + host.n + 1, None, 0
    with _below_probe(host, r, workers) as probe:
        while lo < hi or colors is None:  # every coloring stays below m + n + 1
            t = (lo + hi) // 2 if lo < hi else hi
            found, nodes = probe((0, 0, t), cfg.budget - examined)
            examined += nodes
            if examined > cfg.budget:
                return SearchOutcome("BudgetExhausted", lo - 1, None, examined)
            if found is None:
                lo = t + 1
            else:
                hi, colors = t, found
    witness = coloring_from_assignment(host, r, colors)
    return SearchOutcome("MinMaxValue", lo - 1, witness, examined)


def exhaustive_verify(
    host: BipartiteGraph,
    r: int,
    target=None,
    checker: Theorem | None = None,
    cfg: SearchConfig | None = None,
    workers: int = 1,
) -> SearchOutcome:
    """Run a theorem (gy1 by default) over every (canonical) r-coloring of
    the host, after checking its rule on r and its hypothesis.

    Both conclusions are decided by one ``_below_probe``, whose decision
    and lex-least counterexample are those of plain enumeration: for "the
    largest component reaches the target" as in ``exists_coloring_below``,
    and for the half-half conclusion on weights packed with K = m + 1.
    ``examined`` counts the nodes of that one walk, ``cfg.budget`` caps
    them, and ``workers`` splits it as for any below search.
    """
    thm = _theorem(checker, target)
    thm.require(host, r)
    need = thm.needs(host.m, host.n, r)
    return _decide_below(host, r, need, cfg or SearchConfig(), workers, _target_name(thm, host, r))


def _child_seed(seed: int, block: int) -> int:
    mixed = (seed * 0x9E3779B97F4A7C15 + (block + 1) * 0xBF58476D1CE4E5B9) % (1 << 64)
    return mixed ^ (mixed >> 31)


def _row_chunks(ends):
    """The chunk table of ``_sample_meets`` for ``_packed``'s ``ends``: per
    run of at most 8 edges of one X-row (contiguous in sorted (x, y) order),
    (shift, width mask, table, whether the run ends its row).  Edge i is bit
    E - 1 - i of a color's E-bit mask, so the run of edges [a, b) is the
    mask's bits from E - b up, and ``table[v]`` is the Y-mask (bit m + y for
    Y-vertex y) of the run's edges whose bits are set in v: one OR each."""
    num = len(ends)
    chunks, lo = [], 0
    while lo < num:
        hi = lo
        while hi < num and ends[hi][0] == ends[lo][0]:
            hi += 1
        for b in range(hi, lo, -8):
            ybits = [1 << ends[i][1] for i in range(b - 1, max(lo, b - 8) - 1, -1)]
            table = [0] * (1 << len(ybits))
            for v in range(1, len(table)):
                table[v] = table[v & (v - 1)] | ybits[(v & -v).bit_length() - 1]
            chunks.append((num - b, len(table) - 1, table, b - 8 <= lo))
        lo = hi
    return tuple(chunks)


def _sample_meets(colors, onehot, chunks, rule) -> bool:
    """True iff some monochromatic component of the flat assignment
    ``colors`` (one color per edge of ``_packed``'s ``ends``) meets ``rule``
    (``_packed``).  Each color is one E-bit edge mask: for ``bytes`` colors,
    ``int(colors.translate(onehot[c]), 2)`` in color order, where
    ``onehot[c]`` maps byte c to ``b"1"`` and every other byte to ``b"0"``,
    or, with more colors than edges, only for the colors the sample holds;
    for a list, one pass over it.  ``chunks`` (``_row_chunks``) reads each
    X-row's Y-mask off the mask, and rows whose Y-masks meet merge into one
    component (x count, Y-mask), checked as it grows: the rule is monotone,
    so the scan stops at the first component that meets it."""
    weight, threshold, need_x = rule
    if colors.__class__ is bytes:  # each color's table, parsed below: no generator per sample
        per_color = onehot if len(onehot) <= len(colors) else map(onehot.__getitem__, set(colors))
    else:
        per_color, bit = {}, 1 << len(colors)
        for c in colors:
            bit >>= 1
            per_color[c] = per_color.get(c, 0) | bit
        per_color = per_color.values()
    for mask in per_color:
        if mask.__class__ is bytes:
            mask = int(colors.translate(mask), 2)
            if not mask:  # a color the sample does not use
                continue
        comps, ys = [], 0
        for shift, width, table, row_end in chunks:
            ys |= table[mask >> shift & width]
            if row_end and ys:
                x, rest = 1, []
                for cx, cy in comps:
                    if cy & ys:
                        x += cx
                        ys |= cy
                    else:
                        rest.append((cx, cy))
                if x >= need_x and x + weight * ys.bit_count() >= threshold:
                    return True
                rest.append((x, ys))
                comps, ys = rest, 0
    return False


def _random_task(args):
    """Draw (by the rule in ``random_search``) and check one block of
    samples on ``_sample_meets``, given ``_row_chunks``'s tables and
    ``_packed``'s rule.  Returns (offset-of-first-violation or None,
    colors-of-that-violation or None)."""
    chunks, rule, num_edges, r, seed, block_index, count = args
    rng = random.Random(_child_seed(seed, block_index))
    keep = 256 - 256 % r  # bytes from keep up would bias b mod r: they read 255
    table = bytes(b % r if b < keep else 255 for b in range(256))
    zeros = b"0" * 256
    onehot = [zeros[:c] + b"1" + zeros[c + 1:] for c in range(min(r, 256))]
    for i in range(count):
        if r > 256:
            colors = [rng.randrange(r) for _ in range(num_edges)]
        else:
            colors = rng.randbytes(num_edges).translate(table)
        if 0 < keep < 256 and 255 in colors:  # 255 is a color only at r = 256
            missing, fill = colors.count(255), b""
            while len(fill) < missing:  # k getrandbits(8) are the top bytes of randbytes(4k)
                draws = rng.randbytes(4 * (missing - len(fill)))[3::4]
                fill += draws.translate(table).replace(b"\xff", b"")
            parts = colors.split(b"\xff")  # the k-th rejected byte takes fill[k]
            colors = b"".join([part + fill[k:k + 1] for k, part in enumerate(parts)])
        if not _sample_meets(colors, onehot, chunks, rule):
            return i, tuple(colors)
    return None, None


def random_search(
    host: BipartiteGraph,
    r: int,
    target=None,
    checker: Theorem | None = None,
    cfg: SearchConfig | None = None,
    workers: int = 1,
) -> SearchOutcome:
    """Sample ``cfg.budget`` colorings (each edge independently and exactly
    uniform over the r colors) and report the first violation of the
    theorem's conclusion (gy1 by default).

    Sampling is blocked so the stream is a pure function of the seed: block i
    (samples 2048i on) always holds the same colorings, whichever worker runs
    it.  Block i draws from ``random.Random(_child_seed(seed, i))``.  For
    r <= 256 a sample is ``randbytes(E)``, one byte per edge in sorted (x, y)
    order: byte b gives color b mod r if b < 256 - 256 mod r, and each other
    byte, in edge order, is replaced by ``getrandbits(8)`` draws until one
    passes.  For r > 256 each edge is ``randrange(r)``.  Blocks are generated
    lazily and merged in block order.  Only the theorem's rule on r is
    enforced here; callers decide whether its hypothesis applies.  After the
    host, a theorem whose order target is below 2 raises ValueError, as in
    ``exhaustive_verify``.
    """
    cfg = cfg or SearchConfig()
    thm = _theorem(checker, target)
    thm.require(host, r, hypothesis=False)
    need = thm.needs(host.m, host.n, r)
    ends, _, rule = _packed(host, need)
    _require_target(need, _target_name(thm, host, r))
    chunks = _row_chunks(ends)  # once per search: every block reads the same tables
    budget = cfg.budget
    num_blocks = -(-budget // _RANDOM_BLOCK)
    blocks = (
        (chunks, rule, len(ends), r, cfg.seed, index, min(_RANDOM_BLOCK, budget - index * _RANDOM_BLOCK))
        for index in range(num_blocks)
    )
    workers = min(workers, os.cpu_count() or 1) if num_blocks > 1 else 1
    with _pool(workers) as ranked, closing(ranked(_random_task, blocks)) as results:
        for index, (local, colors) in enumerate(results):
            if local is not None:
                witness = coloring_from_assignment(host, r, colors)
                examined = index * _RANDOM_BLOCK + local + 1
                return SearchOutcome("Counterexample", None, witness, examined)
    return SearchOutcome("AllSatisfy", None, None, budget)


# --- degree-slack frontier ---------------------------------------------------

_EXHAUSTIVE_EDGE_LIMIT = 16


def alpha_frontier(
    total_n: int,
    alphas,
    cfg: SearchConfig | None = None,
    workers: int = 1,
) -> dict:
    """Scan slack values alpha for the additive-degree problem.

    For each alpha, builds circulant hosts with delta(X,Y) >= |Y| - alpha n
    and delta(Y,X) >= |X| - alpha n and searches for a 2-coloring with no
    monochromatic component of order n/2 (exhaustively when the host is tiny,
    by seeded sampling otherwise).  The output is labeled exploratory
    evidence: a clean row is not a proof and a counterexample row only speaks
    for its family members.
    """
    if total_n < 3:  # total_n / 2 must be a target of at least 2
        raise ValueError(f"the frontier scan needs total_n >= 3, not {total_n}")
    cfg = cfg or SearchConfig()
    rows = []
    for alpha in alphas:
        alpha = Fraction(alpha)
        if not (0 < alpha < 1):
            raise ValueError("alpha grid values must lie in (0, 1)")
        slack = alpha * total_n
        d = math.floor(slack)
        half = total_n // 2
        strict_floor = math.floor(2 * slack)
        candidates = sorted({half, min(strict_floor + 1, half)})
        hosts = []
        hypothesis_ok = False
        for m_x in candidates:
            n_y = total_n - m_x
            if m_x < 1 or m_x > n_y or d > n_y:
                continue
            host = complete_minus_circulant(m_x, n_y, d)
            if host.edge_count == 0:
                continue
            meets_hypothesis = Fraction(m_x) > 2 * slack
            hypothesis_ok = hypothesis_ok or meets_hypothesis
            target = Fraction(total_n, 2)
            if host.edge_count <= _EXHAUSTIVE_EDGE_LIMIT:
                out = exists_coloring_below(host, 2, target, cfg, workers)
                mode = "exhaustive"
            else:
                out = random_search(host, 2, target, cfg=cfg, workers=workers)
                mode = "random"
            hosts.append(
                {
                    "m": m_x,
                    "n": n_y,
                    "d": d,
                    "edges": host.edge_count,
                    "meets_hypothesis": meets_hypothesis,
                    "mode": mode,
                    "kind": out.kind,
                    "examined": out.examined,
                    "witness": out.witness.to_json_dict() if out.witness else None,
                }
            )
        verdict = (
            "counterexample"
            if any(h["kind"] == "Counterexample" for h in hosts)
            else "no-counterexample-found"
        )
        rows.append(
            {
                "alpha": rat_str(alpha),
                "hypothesis_satisfiable": hypothesis_ok,
                "hosts": hosts,
                "verdict": verdict,
            }
        )
    return {"exploratory": True, "total_n": total_n, "r": 2, "rows": rows}
