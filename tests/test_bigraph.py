import copy
import itertools
import json
import pickle
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocomp import (
    THEOREMS,
    BipartiteGraph,
    ColoringMismatch,
    DoubleStar,
    DuplicateEdge,
    EdgeColoring,
    EmptyGraph,
    GraphError,
    IndexOutOfRange,
    check_instance,
    coloring_from_assignment,
    coloring_from_triples,
    complete,
    construction_certificate,
    degree_profile,
    dumps_canonical,
    from_edge_list,
    from_rows,
    graph_components,
    graph_json,
    largest_double_star,
    largest_mono_component,
    main_lemma_report,
    meets_conjecture_degrees,
    mono_components,
    parse_graph_json,
    stability_report,
    uncolored_largest_double_star,
)
from monocomp.analysis import parse_general_json
from monocomp import bigraph
from monocomp.bigraph import SPARSE_RATIO, UNCOUNTED_STEPS, bit_indices, mask_of
from monocomp.constructions import (
    complete_minus_circulant,
    cyclic_one_factorization,
    double_star_gap_construction,
    lower_bound_construction,
)

import oracles


def single_color(g):
    return coloring_from_triples(g.m, g.n, 1, [(x, y, 0) for x, y in g.edges()])


@st.composite
def bipartite_graphs(draw, max_side=5):
    m = draw(st.integers(1, max_side))
    n = draw(st.integers(1, max_side))
    pairs = [(x, y) for x in range(m) for y in range(n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, keep in zip(pairs, picks) if keep]
    return from_edge_list(m, n, edges)


@st.composite
def colored_graphs(draw, max_side=4, max_r=3):
    g = draw(bipartite_graphs(max_side))
    r = draw(st.integers(1, max_r))
    edges = g.edges()
    colors = draw(st.lists(st.integers(0, r - 1), min_size=len(edges), max_size=len(edges)))
    col = coloring_from_triples(g.m, g.n, r, [(x, y, c) for (x, y), c in zip(edges, colors)])
    return g, col


class TestConstruction:
    def test_complete_case(self):
        g = from_edge_list(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert g.edge_count == 4
        assert g == complete(2, 2)

    def test_star(self):
        g = from_edge_list(1, 3, [(0, 0), (0, 1), (0, 2)])
        assert g.edge_count == 3
        assert g.degree(0) == 3

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdge):
            from_edge_list(2, 2, [(0, 0), (0, 0)])

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            from_edge_list(2, 2, [(0, 2)])
        with pytest.raises(IndexOutOfRange):
            from_edge_list(2, 2, [(2, 0)])

    def test_complete_examples(self):
        g = complete(3, 3)
        assert g.edge_count == 9
        prof = degree_profile(g)
        assert (prof.delta_xy, prof.delta_yx) == (3, 3)
        assert (prof.avg_xy, prof.avg_yx) == (3, 3)
        assert complete(1, 1).edge_count == 1
        prof25 = degree_profile(complete(2, 5))
        assert (prof25.delta_xy, prof25.delta_yx) == (5, 2)
        with pytest.raises(EmptyGraph):
            complete(0, 3)

    @pytest.mark.parametrize(
        "rows,bad",
        [
            ([0b111, -1], 1),
            ([7, -2], 1),
            ([-1, 0b111], 0),
            ([0b1000, -1], 0),
            ([7, 7, 16], 2),
            ([7, -(1 << 70)], 1),
        ],
    )
    def test_rows_outside_the_side(self, rows, bad):
        # a negative row holds every bit from n up, so it is out of range
        # too; the first bad row is named
        message = re.escape(f"row {bad} has a neighbor outside [0, 3)")
        with pytest.raises(IndexOutOfRange, match=message):
            from_rows(len(rows), 3, rows)
        with pytest.raises(IndexOutOfRange, match=message):
            BipartiteGraph(len(rows), 3, tuple(rows), 3)

    def test_from_rows_counts_each_row_once(self, monkeypatch):
        # from_rows hands the degrees it counted to the check; the
        # constructor, given an edge count, counts the rows itself
        calls = []
        check = BipartiteGraph._check

        def counted(graph, degrees=None):
            calls.append(degrees)
            check(graph, degrees)

        monkeypatch.setattr(BipartiteGraph, "_check", counted)
        g = from_rows(3, 4, [0b1011, 0, 0b1111])
        assert calls == [(3, 0, 4)]
        assert (g.edge_count, g.degree(0), g.y_degrees()) == (7, 3, [2, 2, 1, 2])
        assert g == BipartiteGraph(3, 4, (0b1011, 0, 0b1111), 7)
        assert calls == [(3, 0, 4), None]
        assert pickle.loads(pickle.dumps(g)) == g
        # the errors are the constructor's
        with pytest.raises(IndexOutOfRange, match="row count does not match m"):
            from_rows(2, 3, [1])
        with pytest.raises(IndexOutOfRange, match=re.escape("negative side size (-1, 3)")):
            from_rows(-1, 3, [])
        with pytest.raises(IndexOutOfRange, match=re.escape("row 1 has a neighbor outside [0, 3)")):
            from_rows(2, 3, [1, 8])

    @given(bipartite_graphs())
    def test_round_trip_edge_list(self, g):
        assert from_edge_list(g.m, g.n, g.edges()) == g


class TestDegreeProfile:
    def test_k44_minus_matching(self):
        g = complete_minus_circulant(4, 4, 1)
        prof = degree_profile(g)
        assert (prof.delta_xy, prof.delta_yx, prof.avg_xy, prof.avg_yx) == (3, 3, 3, 3)

    def test_k25(self):
        prof = degree_profile(complete(2, 5))
        assert (prof.delta_xy, prof.delta_yx) == (5, 2)

    def test_isolated_x_vertex(self):
        g = from_edge_list(2, 2, [(0, 0), (0, 1)])
        assert degree_profile(g).delta_xy == 0

    @given(bipartite_graphs())
    def test_averages_consistent(self, g):
        prof = degree_profile(g)
        assert prof.avg_xy * g.m == prof.avg_yx * g.n == g.edge_count
        assert 0 <= prof.delta_xy <= prof.avg_xy <= g.n or g.edge_count == 0
        assert 0 <= prof.delta_yx <= prof.avg_yx <= g.m or g.edge_count == 0

    @settings(max_examples=200)
    @given(st.data())
    def test_min_y_degree_from_planes(self, data):
        # the descent through the planes against every column's count,
        # with some columns forced empty (count 0 must win) and up to 20
        # rows, so counts span up to five planes
        m = data.draw(st.integers(1, 20))
        n = data.draw(st.integers(1, 12))
        empty = data.draw(st.sets(st.integers(0, n - 1)))
        dense = data.draw(st.floats(0, 1))
        rng = random.Random(data.draw(st.integers(0, 1 << 30)))
        edges = [(x, y) for x in range(m) for y in range(n) if y not in empty and rng.random() < dense]
        g = from_edge_list(m, n, edges)
        assert degree_profile(g).delta_yx == min(g.y_degrees()) == min(oracles.column_degrees(n, edges))

    def test_json_dict(self):
        prof = degree_profile(from_edge_list(2, 3, [(0, 0), (0, 1), (1, 2)]))
        data = prof.to_json_dict()
        assert data == {"delta_xy": 1, "delta_yx": 1, "avg_xy": "3/2", "avg_yx": "1"}
        # the same text as the fields rendered with str, as a dataclass
        # ``asdict`` dump with ``default=str`` gives
        fields = {f: getattr(prof, f) for f in ("delta_xy", "delta_yx", "avg_xy", "avg_yx")}
        assert json.dumps(data, sort_keys=True) == json.dumps(fields, sort_keys=True, default=str)


class TestComponents:
    def test_cyclic_factorization_components(self):
        host, col = cyclic_one_factorization(3)
        comps = mono_components(host, col)
        assert len(comps) == 9
        assert all(c.order == 2 for c in comps)

    def test_single_color_k22(self):
        host = complete(2, 2)
        comps = mono_components(host, single_color(host))
        assert len(comps) == 1 and comps[0].order == 4

    def test_two_matchings_k22(self):
        host = complete(2, 2)
        col = coloring_from_triples(
            2, 2, 2, [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
        )
        comps = mono_components(host, col)
        assert len(comps) == 4
        assert all(c.order == 2 for c in comps)

    def test_coloring_mismatch(self):
        host = complete(2, 2)
        col = coloring_from_triples(2, 2, 2, [(0, 0, 0), (1, 1, 1)])
        with pytest.raises(ColoringMismatch):
            mono_components(host, col)

    @given(colored_graphs())
    @settings(max_examples=60, deadline=None)
    def test_against_bfs_oracle(self, host_col):
        host, col = host_col
        comps = mono_components(host, col)
        for c in range(col.r):
            mine = sorted(
                (frozenset(comp.xs), frozenset(comp.ys))
                for comp in comps
                if comp.color == c
            )
            ref = sorted(oracles.bfs_components(host.m, host.n, col.classes[c].edges()))
            assert mine == ref

    @staticmethod
    def check_against_bfs(g):
        comps = graph_components(g)
        assert [c.min_x for c in comps] == sorted(c.min_x for c in comps)
        mine = sorted((frozenset(c.xs), frozenset(c.ys)) for c in comps)
        assert mine == sorted(oracles.bfs_components(g.m, g.n, g.edges()))

    # rows and X-masks from 63 to 601 bits wide, most of them dense, so
    # bit_indices and mask_of take both of their ways
    @pytest.mark.parametrize("k", [63, 64, 65, 300])
    def test_two_block_against_bfs_oracle(self, k):
        self.check_against_bfs(two_block(k))

    @pytest.mark.parametrize(
        "build,args",
        [(lower_bound_construction, (2, 40, 20)), (double_star_gap_construction, (3, 20, 30))],
    )
    def test_constructions_against_bfs_oracle(self, build, args):
        host, col = build(*args)
        for g in (host, *col.classes):
            self.check_against_bfs(g)

    @given(colored_graphs())
    @settings(max_examples=40, deadline=None)
    def test_deterministic_order(self, host_col):
        host, col = host_col
        comps = mono_components(host, col)
        keys = [(c.color, c.min_x) for c in comps]
        assert keys == sorted(keys)

    @given(colored_graphs())
    @settings(max_examples=60, deadline=None)
    def test_edge_endpoints_share_component(self, host_col):
        host, col = host_col
        comps = mono_components(host, col)
        for x, y, c in col.edges():
            containing = [
                comp for comp in comps if comp.color == c and x in comp.xs
            ]
            assert len(containing) == 1
            assert y in containing[0].ys


class TestLargestComponent:
    def test_single_color_k33(self):
        host = complete(3, 3)
        assert largest_mono_component(host, single_color(host)).order == 6

    def test_lower_bound_construction(self):
        host, col = lower_bound_construction(2, 1, 1)
        assert largest_mono_component(host, col).order == 2

    def test_block_coloring_k44(self):
        host = complete(4, 4)
        col = coloring_from_triples(
            4, 4, 2, [(x, y, ((x // 2) + (y // 2)) % 2) for x, y in host.edges()]
        )
        best = largest_mono_component(host, col)
        assert best.order == 4
        assert best.color == 0 and best.min_x == 0

    def test_empty_host(self):
        host = from_edge_list(2, 2, [])
        with pytest.raises(EmptyGraph):
            largest_mono_component(host, coloring_from_triples(2, 2, 1, []))


class TestDoubleStars:
    def test_single_color_k44(self):
        host = complete(4, 4)
        assert largest_double_star(host, single_color(host)).order == 8

    def test_path(self):
        g = from_edge_list(2, 1, [(0, 0), (1, 0)])
        assert uncolored_largest_double_star(g).order == 3

    def test_gap_construction(self):
        host, col = double_star_gap_construction(2, 2, 3)
        assert largest_double_star(host, col).order == 4

    def test_cross_color_tie_goes_to_first_color(self):
        # every class of the cyclic factorization is a perfect matching, so
        # each color's best star has order 2; color 0's, at (0, 0), wins
        host, col = cyclic_one_factorization(4)
        assert largest_double_star(host, col) == DoubleStar(
            color=0, center_x=0, center_y=0, order=2
        )

    def test_k13(self):
        assert uncolored_largest_double_star(complete(1, 3)).order == 4

    def test_two_disjoint_k22(self):
        g = from_edge_list(
            4,
            4,
            [(x, y) for x in range(2) for y in range(2)]
            + [(x, y) for x in range(2, 4) for y in range(2, 4)],
        )
        assert uncolored_largest_double_star(g).order == 4

    @given(bipartite_graphs())
    @settings(max_examples=80, deadline=None)
    def test_scan_oracle(self, g):
        if g.edge_count == 0:
            with pytest.raises(EmptyGraph):
                uncolored_largest_double_star(g)
            return
        star = uncolored_largest_double_star(g)
        assert star.order == oracles.brute_double_star_order(g.m, g.n, g.edges())
        # the witness edge really has that many vertices around it
        assert g.has_edge(star.center_x, star.center_y)
        ydeg = sum(1 for x in range(g.m) if g.has_edge(x, star.center_y))
        assert star.order == g.degree(star.center_x) + ydeg

    @given(colored_graphs())
    @settings(max_examples=60, deadline=None)
    def test_colored_scan_oracle(self, host_col):
        host, col = host_col
        if host.edge_count == 0:
            return
        star = largest_double_star(host, col)
        best = max(
            oracles.brute_double_star_order(host.m, host.n, cls.edges())
            for cls in col.classes
        )
        assert star.order == best

    @given(colored_graphs())
    @settings(max_examples=60, deadline=None)
    def test_component_contains_double_star(self, host_col):
        host, col = host_col
        if host.edge_count == 0:
            return
        assert (
            largest_mono_component(host, col).order
            >= largest_double_star(host, col).order
        )

    def test_density_guarantee_all_k33_subgraphs(self):
        pairs = [(x, y) for x in range(3) for y in range(3)]
        for mask in range(1, 1 << 9):
            edges = [pairs[i] for i in range(9) if (mask >> i) & 1]
            g = from_edge_list(3, 3, edges)
            star = uncolored_largest_double_star(g)
            assert star.order * 9 >= g.edge_count * 6


@st.composite
def wide_graphs(draw, max_side=200):
    """Sides up to max_side, so column degrees need several planes and rows
    span several 30-bit digits; some rows are left empty."""
    m = draw(st.integers(1, max_side))
    n = draw(st.integers(1, max_side))
    density = draw(st.sampled_from([0.01, 0.05, 0.3, 0.7, 1.0]))
    blank = draw(st.sampled_from([0.0, 0.2, 0.6]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = [
        0 if rng.random() < blank
        else sum(1 << y for y in range(n) if rng.random() < density)
        for _ in range(m)
    ]
    return from_rows(m, n, rows)


def two_block(k):
    """The acceptance criterion-9 instance: two disjoint K_{k,k} plus one
    isolated vertex per side."""
    rows = [(1 << k) - 1] * k + [((1 << k) - 1) << k] * k + [0]
    return from_rows(2 * k + 1, 2 * k + 1, rows)


def star_triple(star):
    return (star.order, star.center_x, star.center_y)


class TestColumnKernels:
    """The bit-plane column counter against per-edge references."""

    @given(wide_graphs())
    @settings(max_examples=60, deadline=None)
    def test_y_degrees(self, g):
        assert g.y_degrees() == oracles.column_degrees(g.n, g.edges())

    def test_y_degrees_degenerate_sides(self):
        assert from_rows(3, 0, [0, 0, 0]).y_degrees() == []
        assert from_rows(0, 4, []).y_degrees() == [0, 0, 0, 0]
        assert from_rows(2, 70, [0, 0]).y_degrees() == [0] * 70

    @given(wide_graphs())
    @settings(max_examples=60, deadline=None)
    def test_degree_profile(self, g):
        prof = degree_profile(g)
        assert prof.delta_xy == min(g.degree(x) for x in range(g.m))
        assert prof.delta_yx == min(oracles.column_degrees(g.n, g.edges()))

    @given(wide_graphs())
    @settings(max_examples=60, deadline=None)
    def test_uncolored_double_star(self, g):
        expected = oracles.double_star(g.m, g.n, g.edges())
        if expected is None:
            with pytest.raises(EmptyGraph):
                uncolored_largest_double_star(g)
            return
        assert star_triple(uncolored_largest_double_star(g)) == expected

    @given(wide_graphs(max_side=120), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_colored_double_star(self, g, r, seed):
        if g.edge_count == 0:
            return
        rng = random.Random(seed)
        triples = [(x, y, rng.randrange(r)) for x, y in g.edges()]
        col = coloring_from_triples(g.m, g.n, r, triples)
        best = None
        for c in range(r):
            cand = oracles.double_star(g.m, g.n, [(x, y) for x, y, cc in triples if cc == c])
            if cand is not None and (best is None or cand[0] > best[1][0]):
                best = (c, cand)
        star = largest_double_star(g, col)
        assert (star.color, star_triple(star)) == best

    @given(wide_graphs(), st.integers(2, 3), st.sampled_from([None, Fraction(1, 3), 1]))
    @settings(max_examples=60, deadline=None)
    def test_stability_report(self, g, r, extra):
        if g.m > g.n:
            g = g.transpose()
        if g.edge_count == 0:
            return
        edges = g.edges()
        delta = None
        if extra is not None:
            delta = max(Fraction(0), 1 - Fraction(r * g.edge_count, g.m * g.n)) + extra
        assert stability_report(g, r, delta=delta).to_json_dict() == (
            oracles.stability_json(g.m, g.n, edges, r, delta)
        )

    def test_two_block_k64(self):
        g = two_block(64)
        edges = g.edges()
        assert g.y_degrees() == oracles.column_degrees(g.n, edges)
        assert star_triple(uncolored_largest_double_star(g)) == (128, 0, 0)
        assert oracles.double_star(g.m, g.n, edges) == (128, 0, 0)
        for r in (2, 3):
            assert stability_report(g, r).to_json_dict() == (
                oracles.stability_json(g.m, g.n, edges, r)
            )


def _random_cells(m, n, rng):
    density = rng.choice([0.0, 0.01, 0.05, 0.3, 1.0])
    return [(x, y) for x in range(m) for y in range(n) if rng.random() < density]


def _coloring(m, n, rng):
    """A 4-coloring of random cells that uses colors 0 and 1 only, so
    colors 2 and 3 share one empty class."""
    triples = [(x, y, rng.randrange(2)) for x, y in _random_cells(m, n, rng)]
    return coloring_from_triples(m, n, 4, triples)


def _parsed(m, n, rng):
    col = _coloring(m, n, rng)
    host, parsed = parse_graph_json(graph_json(col.union_host(), col))
    plain, _ = parse_graph_json(graph_json(from_edge_list(m, n, _random_cells(m, n, rng))))
    return [host, *parsed.classes, plain]


def _sides(m, n):
    # complete_minus_circulant needs 1 <= m <= n
    return min(m, n) + 1, max(m, n) + 1


# each builder maps (m, n, rng) to the graphs it makes; sides may be 0
COUNT_BUILDERS = {
    "from_rows": lambda m, n, rng: [
        from_rows(m, n, from_edge_list(m, n, _random_cells(m, n, rng)).rows)
    ],
    "from_edge_list": lambda m, n, rng: [from_edge_list(m, n, _random_cells(m, n, rng))],
    "complete": lambda m, n, rng: [complete(m + 1, n + 1)],
    "complete_minus_circulant": lambda m, n, rng: [
        complete_minus_circulant(*_sides(m, n), rng.randint(0, max(m, n) + 1))
    ],
    # at most (m n - 1) // 64 edges: 64 E < m n, the set-bit walk
    "transpose_walk": lambda m, n, rng: [
        from_edge_list(m, n, rng.sample(
            [(x, y) for x in range(m) for y in range(n)], rng.randint(0, max(m * n - 1, 0) // 64)
        )).transpose()
    ],
    # one missing edge per row: 64 E >= m n, the byte grid
    "transpose_grid": lambda m, n, rng: [complete_minus_circulant(*_sides(m, n), 1).transpose()],
    "coloring_classes": lambda m, n, rng: list(_coloring(m, n, rng).classes),
    "transposed_classes": lambda m, n, rng: list(_coloring(m, n, rng).transpose().classes),
    "union_host": lambda m, n, rng: [_coloring(m, n, rng).union_host()],
    "parse_graph_json": _parsed,
}


def check_kept_counts(g):
    """Every degree query of ``g`` against a plain recount from its rows;
    equality, hash, repr, copies and pickles are the same before and after
    the column planes are first built; ``y_degrees`` hands out a new list."""
    m, n, rows = g.m, g.n, g.rows
    xdeg = [sum(row >> y & 1 for y in range(n)) for row in rows]
    ydeg = [sum(row >> y & 1 for row in rows) for y in range(n)]
    edges = [(x, y) for x, row in enumerate(rows) for y in range(n) if row >> y & 1]
    fresh = BipartiteGraph(m, n, rows, g.edge_count)
    before = (repr(g), hash(g), pickle.dumps(g))
    built = "_planes" in vars(g)
    ys = g.y_degrees()
    assert "_planes" in vars(g) and not built
    assert (repr(g), hash(g), pickle.dumps(g)) == before and g == fresh
    for twin in (pickle.loads(before[2]), copy.copy(g), copy.deepcopy(g)):
        assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
        assert twin.y_degrees() == ydeg and [twin.degree(x) for x in range(m)] == xdeg
    assert ys == ydeg
    again = g.y_degrees()
    assert again == ydeg and again is not ys
    ys.reverse()
    ys.append(-1)
    again[:] = [0] * n
    assert [g.degree(x) for x in range(m)] == xdeg
    assert g.y_degrees() == ydeg
    if m and n:
        prof = degree_profile(g)
        want = (min(xdeg), min(ydeg), Fraction(len(edges), m), Fraction(len(edges), n))
        assert (prof.delta_xy, prof.delta_yx, prof.avg_xy, prof.avg_yx) == want
    if edges:
        star = largest_double_star(g, EdgeColoring(1, (g,)))
        assert star_triple(star) == oracles.double_star(m, n, edges)
        if m <= n:
            assert stability_report(g, 2).to_json_dict() == oracles.stability_json(m, n, edges, 2)
    assert g.y_degrees() == ydeg


class TestKeptCounts:
    """Each graph counts its row degrees once, in validation, and builds
    its column planes at the first column-degree query; neither is a field."""

    @pytest.mark.parametrize("builder", sorted(COUNT_BUILDERS))
    @given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_against_recount(self, builder, m, n, seed):
        graphs = COUNT_BUILDERS[builder](m, n, random.Random(seed))
        for g in {id(g): g for g in graphs}.values():  # the empty class once
            check_kept_counts(g)

    def test_not_fields(self):
        g = complete(2, 3)
        g.y_degrees()
        assert list(BipartiteGraph._fields) == ["m", "n", "rows", "edge_count"]
        edges = [[x, y] for x in range(2) for y in range(3)]
        assert g.to_json_dict() == {"m": 2, "n": 3, "edges": edges}
        assert pickle.dumps(g) == pickle.dumps(complete(2, 3))


@st.composite
def transpose_graphs(draw, max_side=90):
    """Sides from 0 up, so m % 8 is often non-zero, and densities on both
    sides of ``transpose``'s 64·E >= m·n rule; some rows are forced empty
    or full."""
    m = draw(st.integers(0, max_side))
    n = draw(st.integers(0, max_side))
    density = draw(st.sampled_from([0.0, 0.004, 1 / 80, 1 / 64, 1 / 50, 0.3, 1.0]))
    extremes = draw(st.sampled_from([0.0, 0.05, 0.3]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(m):
        kind = rng.random()
        if kind < extremes:
            rows.append(0 if kind < extremes / 2 else (1 << n) - 1)
        else:
            rows.append(sum(1 << y for y in range(n) if rng.random() < density))
    return from_rows(m, n, rows)


class TestTranspose:
    """Both transpose kernels (set-bit walk and byte grid) against the
    per-edge swap of the edge list."""

    @staticmethod
    def check(g, seed=0):
        t = g.transpose()
        assert t == from_edge_list(g.n, g.m, [(y, x) for x, y in g.edges()])
        assert t.transpose() == g
        rng = random.Random(seed)
        r = rng.randint(1, 3)
        col = coloring_from_triples(
            g.m, g.n, r, [(x, y, rng.randrange(r)) for x, y in g.edges()]
        )
        col_t = col.transpose()
        assert col_t.edges() == sorted((y, x, c) for x, y, c in col.edges())
        col_t.validate_against(t)
        assert col_t.transpose() == col

    @given(transpose_graphs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_against_edge_swap(self, g, seed):
        self.check(g, seed)

    @pytest.mark.parametrize("m,n", [(8, 8), (16, 12), (13, 64), (64, 13), (3, 200), (200, 3)])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_at_the_density_rule(self, m, n, offset):
        # ceil(m n / 64) edges is the least count on the byte-grid side; the
        # first four shapes have 64 | m n, so offset 0 sits exactly on it
        count = -(-m * n // 64) + offset
        cells = random.Random(m * n + offset).sample(
            [(x, y) for x in range(m) for y in range(n)], count
        )
        g = from_edge_list(m, n, cells)
        assert (64 * g.edge_count >= m * n) == (offset >= 0)
        self.check(g)

    def test_empty_sides(self):
        assert from_rows(0, 5, []).transpose() == from_rows(5, 0, [0] * 5)
        assert from_rows(3, 0, [0] * 3).transpose() == from_rows(0, 3, [])
        assert from_rows(0, 0, []).transpose() == from_rows(0, 0, [])

    def test_full_and_empty_rows(self):
        for m, n in [(1, 1), (7, 9), (9, 7), (17, 130)]:
            self.check(complete(m, n))
            self.check(from_rows(m, n, [0] * m))
            self.check(from_rows(m, n, [(1 << n) - 1 if x % 3 else 0 for x in range(m)]))

    def test_lower_bound_construction(self):
        host, col = lower_bound_construction(2, 40, 20)
        assert (host.m, host.n) == (120, 60)
        self.check(host)
        assert col.transpose().transpose() == col

    @pytest.mark.parametrize("m,n", [(3, 30_000), (30_000, 3)])
    def test_rows_wider_than_the_walk_switch(self, m, n):
        # a handful of edges: rows (or columns) of 30,000 bits that
        # bit_indices walks without counting and mask_of builds by ORs
        rng = random.Random(m)
        cells = {(rng.randrange(m), rng.randrange(n)) for _ in range(6)}
        cells |= {(0, 0), (m - 1, n - 1)}
        g = from_edge_list(m, n, sorted(cells))
        assert 64 * g.edge_count < m * n
        self.check(g)


@st.composite
def edge_lists(draw):
    """(m, n, pairs): in-range pairs with repeats, some rows left empty,
    and now and then a pair outside [0, m) x [0, n) inserted."""
    m = draw(st.integers(0, 12))
    n = draw(st.integers(0, 300))
    pairs = []
    if m and n:
        rows = draw(st.lists(st.integers(0, m - 1), max_size=m, unique=True))
        ys = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(st.sampled_from(rows), ys), max_size=60)) if rows else []
        if draw(st.booleans()):
            pairs = list(dict.fromkeys(pairs))  # no repeats: a graph is built
    bad = st.tuples(st.integers(-2, m + 1), st.integers(-2, n + 1))
    for pair in draw(st.lists(bad, max_size=2)):
        pairs.insert(draw(st.integers(0, len(pairs))), pair)
    return m, n, pairs


def kept_lists(g):
    """The index lists ``g`` keeps, checked against :func:`bit_indices` of
    its rows, or None."""
    if g._lists is not None:
        assert g._lists == [bit_indices(row) for row in g.rows]
        assert all(type(y) is int for ys in g._lists for y in ys)
    return g._lists


class TestKeptLists:
    """``from_edge_list`` and the sparse ``transpose`` keep each row's
    index list, which ``edges`` and the sparse ``transpose`` read; no other
    builder keeps any, and the lists are no field."""

    @given(edge_lists())
    @settings(max_examples=150, deadline=None)
    def test_from_edge_list(self, case):
        m, n, pairs = case
        want = oracles.first_bad_pair(m, n, pairs)
        assert raised(from_edge_list, m, n, pairs) == want
        if want is None:
            g = from_edge_list(m, n, pairs)
            assert kept_lists(g) is not None and len(g._lists) == m
            assert g.edges() == sorted(pairs)
            assert g == from_rows(m, n, g.rows)

    @given(transpose_graphs())
    @settings(max_examples=80, deadline=None)
    def test_transpose(self, g):
        sparse = 64 * g.edge_count < g.m * g.n
        for h in (g, from_edge_list(g.m, g.n, g.edges())):
            t = h.transpose()
            assert (kept_lists(t) is not None) == sparse
            assert t == from_edge_list(g.n, g.m, [(y, x) for x, y in g.edges()])
            tt = t.transpose()
            assert (kept_lists(tt) is not None) == sparse
            assert tt == g

    @given(transpose_graphs())
    @settings(max_examples=60, deadline=None)
    def test_edges_agree(self, g):
        want = [(x, y) for x, row in enumerate(g.rows) for y in range(g.n) if row >> y & 1]
        listed = from_edge_list(g.m, g.n, want)
        back = pickle.loads(pickle.dumps(listed))
        assert back._lists is None and g._lists is None
        assert pickle.dumps(listed) == pickle.dumps(g)
        graphs = [g, listed, back, copy.copy(listed), g.transpose().transpose(),
                  listed.transpose().transpose()]
        for h in graphs:
            out = h.edges()
            assert out == want and out is not h.edges()
            out.clear()  # a caller's list is its own
            assert h.edges() == want

    def test_int_subclasses_are_kept_as_ints(self):
        g = from_edge_list(2, 3, [(0, True), (1, 2), (1, False)])
        assert g.edges() == [(0, 1), (1, 0), (1, 2)]
        assert kept_lists(g) == [[1], [0, 2]]
        with pytest.raises(DuplicateEdge, match=re.escape("edge (0, True) given twice")):
            from_edge_list(2, 3, [(0, 1), (0, True)])

    def test_other_builders_keep_none(self):
        host, col = lower_bound_construction(2, 3, 2)
        graphs = [from_rows(2, 3, [5, 2]), complete(2, 3), host, host.transpose(),
                  complete_minus_circulant(5, 5, 1), *col.classes]
        assert all(g._lists is None for g in graphs)

    def test_builders_hand_their_counts_to_the_check(self, monkeypatch):
        # as in test_from_rows_counts_each_row_once: the degrees are the
        # lengths of the kept lists, never recounted by the check
        calls = []
        check = BipartiteGraph._check

        def counted(graph, degrees=None):
            calls.append(degrees)
            check(graph, degrees)

        monkeypatch.setattr(BipartiteGraph, "_check", counted)
        g = from_edge_list(3, 100, [(2, 99), (0, 5), (2, 0), (0, 1)])
        assert calls == [(2, 0, 2)]
        t = g.transpose()
        assert 64 * g.edge_count < 300 and len(calls) == 2
        assert calls[1] == tuple(int(y in (0, 1, 5, 99)) for y in range(100))
        assert t.transpose() == g and calls[2] == (2, 0, 2)
        assert None not in calls


KERNELS = {"linked": bigraph._linked_components, "swept": bigraph._swept_components}


def check_split(split, g):
    """``split`` is the component split of ``g``: the BFS oracle's sets,
    ordered by smallest X-index, both sides ascending, as plain tuples."""
    assert type(split) is tuple
    for xs, ys in split:
        assert type(xs) is tuple and type(ys) is tuple
        assert list(xs) == sorted(set(xs)) and list(ys) == sorted(set(ys))
    assert [xs[0] for xs, _ in split] == sorted(xs[0] for xs, _ in split)
    want = sorted(oracles.bfs_components(g.m, g.n, g.edges()), key=lambda c: min(c[0]))
    assert [(frozenset(xs), frozenset(ys)) for xs, ys in split] == want


def sparse_host(m, n, e, seed):
    cells = random.Random(seed).sample(range(m * n), e)
    return from_edge_list(m, n, [divmod(c, n) for c in cells])


def count_kernels(monkeypatch):
    """Patch both component kernels to log each call as (kernel, graph)."""
    calls = []
    for name, kernel in KERNELS.items():
        monkeypatch.setattr(
            bigraph, f"_{name}_components",
            lambda g, k=kernel, name=name: calls.append((name, g)) or k(g),
        )
    return calls


class TestComponentKernels:
    """The union-find over index lists (sparse graphs) and the bit sweep
    (dense ones) each give the BFS oracle's split, whichever the density
    rule picks; a graph finds its split once, and no pickle or copy holds
    it."""

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @given(transpose_graphs())
    @settings(max_examples=60, deadline=None)
    def test_against_bfs_oracle(self, kernel, g):
        # from_rows keeps no lists, so the union-find reads bit_indices of
        # each row; the rebuilt graph hands it the kept lists
        for h in (g, from_edge_list(g.m, g.n, g.edges())):
            check_split(KERNELS[kernel](h), h)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @given(st.one_of(bipartite_graphs(), wide_graphs(60)))
    @settings(max_examples=40, deadline=None)
    def test_small_and_wide_graphs(self, kernel, g):
        check_split(KERNELS[kernel](g), g)

    @pytest.mark.parametrize("m,n,e", [(3000, 3000, 2000), (300, 3000, 600), (3000, 300, 600)])
    def test_wide_sparse_hosts_with_many_components(self, m, n, e):
        g = sparse_host(m, n, e, seed=m + n)
        h = from_rows(m, n, g.rows)
        assert m * n > 512 * e and h._lists is None
        split = bigraph._swept_components(g)
        assert len(split) > e // 3
        check_split(split, g)
        for graph in (g, h):
            assert bigraph._linked_components(graph) == split
            assert graph._components == split
            comps = graph_components(graph, color=1)
            assert [(c.color, c.xs, c.ys) for c in comps] == [(1, *pair) for pair in split]

    @pytest.mark.parametrize("m,n", [(64, 64), (32, 512), (512, 32)])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_density_rule(self, monkeypatch, m, n, offset):
        # m n > 512 E takes the union-find; 512 divides each m n, so offset
        # 0 sits exactly on the rule and takes the sweep
        e = m * n // 512 + offset
        g = sparse_host(m, n, e, seed=e)
        calls = count_kernels(monkeypatch)
        check_split(g._components, g)
        assert calls == [("linked" if offset < 0 else "swept", g)]

    def test_found_once_per_graph(self, monkeypatch):
        g = sparse_host(2000, 2000, 3000, seed=5)
        calls = count_kernels(monkeypatch)
        first = graph_components(g)
        report = main_lemma_report(g, 2)
        assert calls == [("linked", g)]
        again = graph_components(g)
        assert again == first and again is not first
        ranked = sorted(first, key=lambda c: (-c.order, c.min_x))
        assert report.components == tuple(ranked[:2])

    @pytest.mark.parametrize("r,t1,t2", [(2, 4, 2), (3, 2, 2)])
    def test_found_once_per_class(self, monkeypatch, r, t1, t2):
        # rebuilt, since the construction has found its classes' splits
        # for its own certificate
        built = lower_bound_construction(r, t1, t2)[1]
        col = coloring_from_triples(built.m, built.n, r, built.edges())
        host = col.union_host()
        live = col._live()
        assert len(live) == r
        calls = count_kernels(monkeypatch)
        construction_certificate(host, col)
        for name in ("conjecture", "tetel", "gy1"):
            check_instance(THEOREMS[name], host, col, r)
        # one kernel call per class, none for the host
        assert [id(g) for _, g in calls] == [id(g) for g in live]

    def test_not_pickled_or_copied(self):
        g = sparse_host(300, 300, 150, seed=1)
        before = (pickle.dumps(g), hash(g), repr(g))
        graph_components(g)
        assert "_components" in vars(g)
        assert (pickle.dumps(g), hash(g), repr(g)) == before
        for twin in (pickle.loads(before[0]), copy.copy(g), copy.deepcopy(g)):
            assert twin == g and "_components" not in vars(twin)
            assert graph_components(twin) == graph_components(g)

    def test_color_is_per_call(self):
        host, col = lower_bound_construction(2, 3, 2)
        g = col.classes[1]
        assert {c.color for c in graph_components(g)} == {0}
        fresh = BipartiteGraph(g.m, g.n, g.rows, g.edge_count)
        comps = graph_components(g, color=2)
        assert comps == graph_components(fresh, color=2)
        assert comps and {c.color for c in comps} == {2}


def mask_with(width, count, seed):
    """A mask of bit length ``width`` with ``count`` set bits, the top one
    included, and its set bits ascending."""
    positions = sorted(random.Random(seed).sample(range(width - 1), count - 1)) + [width - 1]
    digits = ["0"] * width
    for i in positions:
        digits[width - 1 - i] = "1"
    return int("".join(digits), 2), positions


def set_bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def scans(mask):
    """Whether bit_indices reads ``mask`` with the digit scan: set bits are
    left after its UNCOUNTED_STEPS walk steps, and they are dense."""
    rest = set_bits(mask)[:-UNCOUNTED_STEPS]
    return bool(rest) and len(rest) * SPARSE_RATIO > rest[-1] + 1


class TestBitIndices:
    def test_zero(self):
        assert bit_indices(0) == []

    @given(
        st.integers(20_000, 60_000),
        st.sampled_from([0.0005, 0.05, 0.5, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_wide_masks(self, width, density, seed):
        rng = random.Random(seed)
        positions = [i for i in range(width - 1) if rng.random() < density]
        positions.append(width - 1)
        chosen = set(positions)
        mask = int("".join("1" if i in chosen else "0" for i in reversed(range(width))), 2)
        assert mask.bit_length() == width
        assert bit_indices(mask) == positions

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_against_bit_tests(self, data):
        # counts on both sides of the uncounted walk and of the density
        # switch, widths from one bit to past the scan's index table
        width = data.draw(st.one_of(st.integers(1, 30_000), st.sampled_from([1, 4096, 4097])))
        sparse_most = UNCOUNTED_STEPS + width // SPARSE_RATIO
        count = data.draw(
            st.one_of(
                st.integers(1, width),
                st.sampled_from(
                    [UNCOUNTED_STEPS, UNCOUNTED_STEPS + 1, sparse_most, sparse_most + 1, width]
                ).map(lambda c: max(1, min(c, width))),
            )
        )
        mask, positions = mask_with(width, count, data.draw(st.integers(0, 2**32 - 1)))
        assert bit_indices(mask) == set_bits(mask) == positions

    @pytest.mark.parametrize("width", [8191, 8192, 8193, 30_000])
    @pytest.mark.parametrize("extra", [0, 1, 100])
    def test_at_the_switch(self, monkeypatch, width, extra):
        # the set bits left after the walk, ``width`` wide, are read by the
        # scan exactly when more than width // SPARSE_RATIO of them remain,
        # whether the walked bits sit right above them or far away; 8192 is
        # a multiple of SPARSE_RATIO, so the widths straddle the rule's edge
        rest, positions = mask_with(width, width // SPARSE_RATIO + extra, width + extra)
        bins = []
        monkeypatch.setattr(bigraph, "bin", lambda v: bins.append(v) or bin(v), raising=False)
        for start in (width, 40_000):
            walked = list(range(start, start + UNCOUNTED_STEPS))
            mask = rest | mask_of(walked)
            bins.clear()
            assert bit_indices(mask) == set_bits(mask) == positions + walked
            assert bins == ([rest] if extra else [])
            assert scans(mask) == bool(extra)

    @given(st.integers(1, 40_000), st.integers(1, UNCOUNTED_STEPS), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_few_bits_are_walked(self, width, count, seed):
        # a mask with at most UNCOUNTED_STEPS set bits, however wide, is read
        # by the walk alone: never counted, never scanned
        count = min(count, width)
        mask, positions = mask_with(width, count, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bigraph, "bin", lambda v: pytest.fail("scanned"), raising=False)
            assert bit_indices(mask) == positions

    @given(st.integers(1, 20_000), st.sampled_from([0.001, 0.02, 0.04, 0.3, 1.0]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_scan_rule(self, width, density, seed):
        rng = random.Random(seed)
        count = max(1, min(width, round(width * density)))
        mask, positions = mask_with(width, count, rng.randrange(2**32))
        bins = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bigraph, "bin", lambda v: bins.append(v) or bin(v), raising=False)
            assert bit_indices(mask) == positions
        assert bool(bins) == scans(mask)


def or_reference(indices):
    mask = 0
    for i in set(indices):
        mask += 2**i
    return mask


def buffered(indices):
    """Whether mask_of sets the digits of ``indices`` in a buffer instead of
    ORing them in."""
    return len(indices) > UNCOUNTED_STEPS and len(indices) * SPARSE_RATIO > max(indices) + 1


class TestMaskOf:
    def test_empty(self):
        assert mask_of([]) == 0

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, data):
        # counts on both sides of UNCOUNTED_STEPS and of the density switch,
        # drawn with repeats and in any order
        width = data.draw(st.integers(1, 30_000))
        sparse_most = width // SPARSE_RATIO
        count = data.draw(
            st.one_of(
                st.integers(1, 2 * width),
                st.sampled_from(
                    [UNCOUNTED_STEPS, UNCOUNTED_STEPS + 1, sparse_most, sparse_most + 1]
                ).map(lambda c: max(c, 1)),
            )
        )
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        indices = [rng.randrange(width) for _ in range(count - 1)] + [width - 1]
        rng.shuffle(indices)
        if data.draw(st.booleans()):
            indices += indices[: rng.randrange(len(indices) + 1)]
        mask = mask_of(indices)
        assert mask == or_reference(indices)
        assert bit_indices(mask) == sorted(set(indices))

    @pytest.mark.parametrize(
        "indices",
        [
            [3],
            list(range(UNCOUNTED_STEPS)),
            list(range(UNCOUNTED_STEPS + 1)),
            # nine indices, widths 288 = 9 * SPARSE_RATIO (sparse) and 287
            list(range(0, 9 * SPARSE_RATIO - 40, SPARSE_RATIO)) + [9 * SPARSE_RATIO - 1],
            list(range(0, 9 * SPARSE_RATIO - 40, SPARSE_RATIO)) + [9 * SPARSE_RATIO - 2],
            [5] * 100,
            [0, 4095] * 100,
        ],
    )
    def test_path(self, monkeypatch, indices):
        buffers = []
        monkeypatch.setattr(
            bigraph, "bytearray", lambda v: buffers.append(v) or bytearray(v), raising=False
        )
        assert mask_of(indices) == or_reference(indices)
        assert bool(buffers) == buffered(indices)

    @pytest.mark.parametrize(
        "filler",
        [[], list(range(UNCOUNTED_STEPS)), list(range(0, 100_000, 1000)), list(range(100))],
        ids=["alone", "few", "sparse", "dense"],
    )
    @pytest.mark.parametrize(
        "bad,error",
        [(-1, ValueError), (-5000, ValueError), (1.5, TypeError), (150.5, TypeError),
         ("3", TypeError), (None, TypeError)],
    )
    @pytest.mark.parametrize("first", [True, False])
    def test_bad_indices(self, filler, bad, error, first):
        # the OR path and the buffer raise alike, so the row builders can
        # name the first bad edge either way
        with pytest.raises(error):
            mask_of([bad, *filler] if first else [*filler, bad])


def inject_faults(rng, good, faults, make):
    """``good`` with one item per kind in ``faults`` inserted, in that order;
    ``make[kind](placed)`` builds it from the items placed before it."""
    items = list(good)
    lo = 0
    for kind in faults:
        at = rng.randint(max(lo, kind == "dup"), len(items))
        items.insert(at, make[kind](items[:at]))
        lo = at + 1
    return items


def raised(fn, *args):
    try:
        fn(*args)
    except GraphError as exc:
        return type(exc).__name__, str(exc)
    return None


class TestFirstBadEdge:
    """The row builders group edges and build each row once; on bad input
    the error is still the one the per-edge loop raises for the first bad
    edge in input order."""

    @staticmethod
    def instance(seed):
        rng = random.Random(seed)
        m, n = rng.choice([(1, 1), (3, 4), (9, 7), (3, 30_000), (40, 2)])
        step = n // min(n, 50)  # spread over wide rows
        cells = rng.sample([(x, y * step) for x in range(m) for y in range(min(n, 50))],
                           min(m * n, 20))

        def bad_cell(placed):
            return rng.choice([(m, 0), (-1, 0), (0, n), (0, -1), (m + 5, n + 5)])

        return rng, m, n, cells, bad_cell

    @staticmethod
    def orders(kinds):
        return [f for size in range(len(kinds) + 1) for f in itertools.permutations(kinds, size)]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_pairs(self, seed):
        rng, m, n, cells, bad_cell = self.instance(seed)
        make = {"dup": rng.choice, "range": bad_cell}
        for faults in self.orders(list(make)):
            edges = inject_faults(rng, cells, faults, make)
            want = oracles.first_bad_pair(m, n, edges)
            assert (want is None) == (not faults)
            assert raised(from_edge_list, m, n, edges) == want
            assert raised(from_edge_list, m, n, iter(edges)) == want
            assert raised(parse_graph_json, {"m": m, "n": n, "edges": edges}) == want
        assert from_edge_list(m, n, cells).edges() == sorted(cells)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_triples(self, seed, r):
        rng, m, n, cells, bad_cell = self.instance(seed)
        good = [(x, y, rng.randrange(r)) for x, y in cells]
        make = {
            # the repeat takes any color: a duplicate within or across colors
            "dup": lambda placed: (*rng.choice(placed)[:2], rng.randrange(r)),
            "range": lambda placed: (*bad_cell(placed), rng.randrange(r)),
            "color": lambda placed: (*rng.choice(cells), rng.choice([r, -1, r + 7])),
        }
        for faults in self.orders(list(make)):
            triples = inject_faults(rng, good, faults, make)
            want = oracles.first_bad_triple(m, n, r, triples)
            assert (want is None) == (not faults)
            assert raised(coloring_from_triples, m, n, r, triples) == want
            assert raised(coloring_from_triples, m, n, r, iter(triples)) == want
            doc = {"m": m, "n": n, "r": r, "edges": triples}
            assert raised(parse_graph_json, doc) == want
        assert coloring_from_triples(m, n, r, good).edges() == sorted(good)

    def test_non_integer_fields(self):
        # the per-edge loop's own errors for values JSON never carries
        with pytest.raises(TypeError):
            from_edge_list(2, 2, [(0, 0), (1.0, 1)])
        with pytest.raises(TypeError):
            from_edge_list(2, 2, [(0, 0.5)])
        with pytest.raises(TypeError):
            coloring_from_triples(2, 2, 2, [(0, 0, 0), (0, 1, 1.0)])
        with pytest.raises(TypeError):
            coloring_from_triples(2, 2, 2, [(0, 0, 1.0), (5, 5, 0)])
        with pytest.raises(DuplicateEdge):
            from_edge_list(2, 2, [(0, 0), (0, 0), (1.0, 1)])

    def test_no_bad_triple_keeps_the_build_error(self):
        # with no bad triple the grouped build's own error is raised; no
        # raised error carries another as its context
        with pytest.raises(ColoringMismatch, match="need at least one color") as info:
            coloring_from_triples(2, 2, 0, [])
        assert info.value.__context__ is None
        with pytest.raises(IndexOutOfRange, match="negative side size") as info:
            from_edge_list(-1, 2, [])
        assert info.value.__context__ is None
        with pytest.raises(DuplicateEdge) as info:
            coloring_from_triples(2, 2, 2, [(0, 0, 0), (1, 1, 1), (0, 0, 1)])
        assert info.value.__context__ is None


class TestWitnessCost:
    def test_unused_colors_share_one_class(self):
        # a 4-edge coloring with r = 3000 pays one slot per color, not one
        # class and one list per X-vertex for each of them
        host, colors = complete(2, 2), [0, 1, 1, 0]
        coloring_from_assignment(host, 3000, colors)  # warm-up
        tracemalloc.start()
        try:
            col = coloring_from_assignment(host, 3000, colors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 << 10, peak
        small = coloring_from_assignment(host, 4, colors)
        assert col.to_json_dict()["edges"] == small.to_json_dict()["edges"]

    def test_row_walks_skip_empty_classes(self):
        # 2 edges on 2000 rows at r = 2000: validation, the edge list, the
        # union and the transpose walk the two classes that have edges, not
        # all r classes row by row (about 3 s when they did)
        host = from_edge_list(2000, 2, [(0, 0), (1999, 1)])
        started = time.perf_counter()
        col = coloring_from_assignment(host, 2000, [0, 1999])
        col.validate_against(host)
        union = col.union_host()
        data = col.to_json_dict()
        flipped = col.transpose()
        elapsed = time.perf_counter() - started
        assert elapsed < 0.25, elapsed
        assert union == host
        assert data["edges"] == [[0, 0, 0], [1999, 1, 1999]]
        assert flipped.edges() == [(0, 0, 0), (1, 1999, 1999)]
        assert flipped.transpose() == col


class TestConjectureDegrees:
    def test_k33_r2(self):
        assert meets_conjecture_degrees(complete(3, 3), 2)

    def test_lower_bound_boundary(self):
        host, _ = lower_bound_construction(2, 1, 1)
        assert not meets_conjecture_degrees(host, 2)

    def test_k44_minus_matching(self):
        assert meets_conjecture_degrees(complete_minus_circulant(4, 4, 1), 2)


class TestJson:
    def test_uncolored_round_trip(self):
        g = complete_minus_circulant(4, 4, 1)
        doc = graph_json(g)
        host, col = parse_graph_json(json.loads(dumps_canonical(doc)))
        assert host == g and col is None

    def test_colored_round_trip(self):
        host, col = cyclic_one_factorization(4)
        doc = graph_json(host, col)
        host2, col2 = parse_graph_json(json.loads(dumps_canonical(doc)))
        assert host2 == host and col2 == col

    def test_canonical_bytes_stable(self):
        host, col = cyclic_one_factorization(3)
        assert dumps_canonical(graph_json(host, col)) == dumps_canonical(
            graph_json(host, col)
        )

    @given(colored_graphs())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_any(self, host_col):
        host, col = host_col
        host2, col2 = parse_graph_json(graph_json(host, col))
        assert (host2, col2) == (host, col)


class TestStrictJson:
    @pytest.mark.parametrize(
        "doc",
        [
            {"m": 2, "n": 2, "edges": [[0, True], [0.9, 1]]},
            {"m": True, "n": 2, "edges": []},
            {"m": 2, "n": 2.0, "edges": []},
            {"m": "2", "n": 2, "edges": []},
            {"m": 2, "n": 2, "edges": [[0, 1.0]]},
            {"m": 2, "n": 2, "r": 2.5, "edges": [[0, 1, 0]]},
            {"m": 2, "n": 2, "r": 2, "edges": [[0, 1, True]]},
            {"m": 2, "n": 2, "r": 2, "edges": [[0, None, 0]]},
            {"m": 2, "n": 2, "edges": [5]},
            {"m": 2, "n": 2, "edges": 5},
        ],
    )
    def test_rejects_non_integers(self, doc):
        with pytest.raises(GraphError):
            parse_graph_json(doc)

    def test_message_names_the_field(self):
        with pytest.raises(GraphError, match="edge field must be an integer, got True"):
            parse_graph_json({"m": 2, "n": 2, "edges": [[0, True], [0.9, 1]]})

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": True, "r": 3, "edges": []},
            {"n": 4, "r": 3.0, "edges": []},
            {"n": 4, "r": 3, "edges": [[0, 1, True]]},
            {"n": 4, "r": 3, "edges": [[0.5, 1, 0]]},
        ],
    )
    def test_general_rejects_non_integers(self, doc):
        with pytest.raises(GraphError):
            parse_general_json(doc)


class TestColoringPartition:
    @given(colored_graphs())
    @settings(max_examples=60, deadline=None)
    def test_classes_partition_host(self, host_col):
        host, col = host_col
        assert sum(cls.edge_count for cls in col.classes) == host.edge_count
        seen = set()
        for x, y, _c in col.edges():
            assert (x, y) not in seen
            seen.add((x, y))
        assert seen == set(host.edges())

    def test_overlapping_classes_rejected(self):
        with pytest.raises(DuplicateEdge):
            coloring_from_triples(2, 2, 2, [(0, 0, 0), (0, 0, 1)])
