import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocomp import (
    THEOREMS,
    ColoringMismatch,
    EdgeColoring,
    bipartition_avoiding_color,
    check_additive_theorem,
    check_conjecture_instance,
    check_corollary,
    check_instance,
    check_tetel_instance,
    check_theorem_two_colors,
    coloring_from_triples,
    complete,
    complete_minus_circulant,
    cyclic_one_factorization,
    from_edge_list,
    from_rows,
    general_from_edge_list,
    general_mono_components,
    lower_bound_construction,
    main_lemma_report,
    stability_report,
)
from monocomp.analysis import density_deficiency

import oracles


def single_color(g, r=1):
    return coloring_from_triples(g.m, g.n, r, [(x, y, 0) for x, y in g.edges()])


def block_coloring(host):
    return coloring_from_triples(
        host.m,
        host.n,
        2,
        [(x, y, ((x // 2) + (y // 2)) % 2) for x, y in host.edges()],
    )


def all_k33_subgraphs():
    pairs = [(x, y) for x in range(3) for y in range(3)]
    for mask in range(1 << 9):
        yield from_edge_list(3, 3, [pairs[i] for i in range(9) if (mask >> i) & 1])


class TestTwoColors:
    def test_k44_minus_matching_block(self):
        host = complete_minus_circulant(4, 4, 1)
        v = check_theorem_two_colors(host, block_coloring(host))
        assert v.applicable and v.holds
        assert v.witness.order == 4 and v.margin == 0

    def test_lower_bound_not_applicable(self):
        host, col = lower_bound_construction(2, 1, 1)
        v = check_theorem_two_colors(host, col)
        assert not v.applicable
        assert not v.holds and v.witness.order == 2

    def test_single_color_k33(self):
        host = complete(3, 3)
        v = check_theorem_two_colors(host, single_color(host, r=2))
        assert v.applicable and v.holds and v.witness.order == 6

    def test_wrong_color_count(self):
        host = complete(2, 2)
        with pytest.raises(ColoringMismatch):
            check_theorem_two_colors(host, single_color(host, r=3))


class TestConjecture:
    def test_cyclic_k33(self):
        host, col = cyclic_one_factorization(3)
        v = check_conjecture_instance(host, col, 3)
        assert v.applicable and v.holds
        assert v.witness.order == 2 and v.target == 2

    def test_lower_bound_r3(self):
        host, col = lower_bound_construction(3, 1, 1)
        v = check_conjecture_instance(host, col, 3)
        assert not v.applicable
        assert not v.holds and v.margin == 2 - Fraction(8, 3)

    def test_k22_all_colorings(self):
        host = complete(2, 2)
        edges = host.edges()
        for colors in itertools.product(range(2), repeat=4):
            col = coloring_from_triples(
                2, 2, 2, [(x, y, c) for (x, y), c in zip(edges, colors)]
            )
            v = check_conjecture_instance(host, col, 2)
            assert v.applicable and v.holds

    def test_refined_mode_records(self):
        host, col = lower_bound_construction(2, 1, 1)
        v = check_instance(THEOREMS["conjecture-refined"], host, col, 2)
        # equality on both sides: even the refined reading stays out
        assert not v.applicable
        assert v.detail == {"recorded_only": True}


class TestTetel:
    def test_k44_complete(self):
        host = complete(4, 4)
        v = check_tetel_instance(host, single_color(host, r=2), 2)
        assert v.detail["gamma"] == "1/4096"
        assert v.applicable and v.holds and v.witness.order >= 4

    def test_k44_minus_matching_not_applicable(self):
        host = complete_minus_circulant(4, 4, 1)
        v = check_tetel_instance(host, block_coloring(host), 2)
        assert not v.applicable

    def test_all_colorings_of_k44_have_big_component(self):
        # the exhaustive complement: no 2-coloring keeps all components < 4
        from monocomp import exists_coloring_below

        host = complete(4, 4)
        assert exists_coloring_below(host, 2, 4).kind == "AllSatisfy"

    def test_sides_swapped_internally(self):
        host = complete(5, 3)
        v = check_tetel_instance(host, single_color(host, r=2), 2)
        assert v.applicable and v.holds

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_small_hosts_meet_it_only_when_complete(self, data):
        # with m <= n, gamma * n <= m / (128 r^5) < 1 here, so the strict
        # delta(X,Y) > (1 - gamma) n leaves no edge out, and likewise for Y
        m, n = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        r = data.draw(st.sampled_from([2, 3]))
        cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
        missing = data.draw(st.sets(cells, max_size=3) | st.sets(cells, max_size=m * n))
        host = from_edge_list(
            m, n, [(x, y) for x in range(m) for y in range(n) if (x, y) not in missing]
        )
        assert (THEOREMS["tetel"].hypothesis(host, r) is None) == host.is_complete()

    def test_first_square_host_it_allows_incomplete(self):
        # r = 2: gamma = 1/4096, so K_{n,n} minus one edge meets the
        # hypothesis from n = 4097 on and not before
        for n, meets in ((4096, False), (4097, True)):
            full = (1 << n) - 1
            host = from_rows(n, n, [full ^ 1 if x == 0 else full for x in range(n)])
            assert (THEOREMS["tetel"].hypothesis(host, 2) is None) == meets


def tetel_oracle(host, col, r):
    """(applicable, target, gamma, largest order) of the tetel check, with
    the sides swapped by transposing the edge list when m > n."""
    m, n, edges = host.m, host.n, host.edges()
    if m > n:
        m, n, edges = n, m, [(y, x) for x, y in edges]
    delta_xy = min(oracles.column_degrees(m, [(y, x) for x, y in edges]))
    delta_yx = min(oracles.column_degrees(n, edges))
    gamma = Fraction(m**3, 128 * r**5 * n**3)
    applicable = delta_xy > (1 - gamma) * n and delta_yx > (1 - gamma) * m
    colors = [col.color_of(x, y) for x, y in host.edges()]
    order = oracles.max_mono_order(host.m, host.n, host.edges(), colors, col.r)
    return applicable, Fraction(m + n, r), gamma, order


@st.composite
def tetel_instances(draw):
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 7))
    r = draw(st.integers(2, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    keep = draw(st.sampled_from([0.6, 0.9, 1.0]))
    pairs = [(x, y) for x in range(m) for y in range(n) if rng.random() < keep]
    return coloring_from_triples(m, n, r, [(x, y, rng.randrange(r)) for x, y in pairs]), r


class TestTetelOracle:
    """The check swaps sides through the degree profile; the oracle
    transposes the edge list."""

    @staticmethod
    def check(host, col, r):
        v = check_tetel_instance(host, col, r)
        applicable, target, gamma, order = tetel_oracle(host, col, r)
        assert (v.applicable, v.target, v.detail) == (
            applicable, target, {"gamma": str(gamma)}
        )
        assert (v.witness.order if v.witness else 0, v.margin) == (order, order - target)
        assert v.holds == (order >= target)

    @given(tetel_instances())
    @settings(max_examples=80, deadline=None)
    def test_random_hosts(self, instance):
        col, r = instance
        self.check(col.union_host(), col, r)

    @pytest.mark.parametrize("m,n", [(5, 3), (3, 5), (4, 4), (9, 2), (2, 9)])
    @pytest.mark.parametrize("r", [2, 3])
    def test_complete_hosts(self, m, n, r):
        host = complete(m, n)
        self.check(host, single_color(host, r=r), r)

    def test_constructions(self):
        for host, col in (lower_bound_construction(2, 3, 2), cyclic_one_factorization(4)):
            self.check(host, col, col.r)
            self.check(host.transpose(), col.transpose(), col.r)

    def test_swap_pairs_each_degree_with_its_side(self):
        # K_{4201,4200} minus the matching x = y: X-degrees reach down to
        # 4199 and Y-degrees to 4200.  With the sides swapped the theorem's
        # 4201-side is Y, and only pairing delta(Y,X) = 4200 with it clears
        # (1 - gamma) 4201 = 4199.97...; the X-side needs 4199 > 4198.97...
        m, n = 4201, 4200
        full = (1 << n) - 1
        host = from_rows(m, n, [full ^ (1 << x) if x < n else full for x in range(m)])
        col = EdgeColoring(2, (host, from_rows(m, n, [0] * m)))
        v = check_tetel_instance(host, col, 2)
        assert v.applicable and v.holds
        assert v.detail == {"gamma": str(Fraction(n**3, 128 * 2**5 * m**3))}


class TestAdditive:
    def test_circulant_single_color(self):
        host = complete_minus_circulant(8, 8, 2)
        v = check_additive_theorem(host, single_color(host, r=2))
        assert v.applicable and v.holds and v.witness.order == 16

    def test_circulant_random_colorings(self):
        host = complete_minus_circulant(8, 8, 2)
        edges = host.edges()
        rng = random.Random(11)
        for _ in range(300):
            col = coloring_from_triples(
                8, 8, 2, [(x, y, rng.randrange(2)) for x, y in edges]
            )
            v = check_additive_theorem(host, col)
            assert v.applicable and v.holds
            assert 2 * len(v.witness.xs) >= 8 and 2 * len(v.witness.ys) >= 8

    def test_k22(self):
        host = complete(2, 2)
        col = coloring_from_triples(2, 2, 2, [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)])
        v = check_additive_theorem(host, col)
        assert v.applicable and v.holds
        assert len(v.witness.xs) >= 1 and len(v.witness.ys) >= 1


class TestStability:
    def test_k44_class(self):
        rep = stability_report(complete(4, 4), 2)
        assert rep.delta == 0 and rep.alpha == 0 and rep.beta == 0
        assert rep.k_x == 0 and rep.k_y == 0
        assert rep.case_i and rep.double_star_order == 8

    def test_two_disjoint_k22(self):
        g = from_edge_list(
            4,
            4,
            [(x, y) for x in range(2) for y in range(2)]
            + [(x, y) for x in range(2, 4) for y in range(2, 4)],
        )
        rep = stability_report(g, 2)
        assert g.edge_count == 8 and rep.delta == 0
        assert rep.double_star_order == 4 and rep.case_i

    def test_k33_minus_edge(self):
        pairs = [(x, y) for x in range(3) for y in range(3) if (x, y) != (2, 2)]
        g = from_edge_list(3, 3, pairs)
        rep = stability_report(g, 2)
        # e = 8 > 9/2, so the deficiency clamps to zero
        assert rep.delta == 0
        assert rep.dichotomy

    def test_explicit_delta_loosens_thresholds(self):
        g = from_edge_list(3, 3, [(0, 0), (1, 1), (2, 2)])
        base = stability_report(g, 2)
        loose = stability_report(g, 2, delta=Fraction(1, 2))
        assert loose.delta == Fraction(1, 2) >= base.delta
        assert loose.k_x <= base.k_x
        with pytest.raises(ValueError):
            stability_report(g, 2, delta=0)

    def test_defect_sums(self):
        g = from_edge_list(3, 3, [(0, 0), (0, 1), (0, 2), (1, 0)])
        rep = stability_report(g, 2)
        avg = Fraction(g.edge_count, 3)
        expected = sum(g.degree(x) for x in rep.exceptional_x) - rep.k_x * avg
        assert rep.defect_x == expected

    def test_case_ii_active_branch(self):
        # a perfect matching is far from any (m+n)/r double star, but its
        # degrees all sit exactly at the average, so nothing is exceptional
        g = from_edge_list(4, 4, [(i, i) for i in range(4)])
        rep = stability_report(g, 2)
        assert not rep.case_i
        assert rep.case_ii and rep.k_x == 0 and rep.k_y == 0

    def test_exceptional_vertices_detected(self):
        # one dominating row and one pendant row: the pendant drops strictly
        # below the X-average and must be flagged
        g = from_edge_list(2, 8, [(0, y) for y in range(8)] + [(1, 0)])
        rep = stability_report(g, 2)
        assert rep.delta == 0 and rep.alpha == 0
        assert rep.exceptional_x == (1,)
        assert rep.defect_x == 1 - Fraction(9, 2)
        assert rep.case_i  # the big star carries a half-order double star

    def test_dichotomy_all_k33_subgraphs_own_delta(self):
        for g in all_k33_subgraphs():
            if g.edge_count == 0:
                continue
            assert stability_report(g, 2).dichotomy

    def test_dichotomy_random_instances(self):
        rng = random.Random(13)
        for _ in range(300):
            m = rng.randint(1, 6)
            n = rng.randint(m, 6)
            edges = [(x, y) for x in range(m) for y in range(n) if rng.random() < 0.5]
            if not edges:
                continue
            g = from_edge_list(m, n, edges)
            for r in (2, 3):
                assert stability_report(g, r).dichotomy


def independent_flag_eval(g, r, report):
    """Re-derive flags (a)-(e) from the degree profile and component list
    without the report's own helpers: q^(1/3) comparisons by cubing."""
    m, n = g.m, g.n
    e = g.edge_count
    delta = max(Fraction(0), 1 - Fraction(r * e, m * n))
    alpha = Fraction(m + n, r * r * n) * delta
    beta = Fraction(m + n, r * r * m) * delta
    avg_xy = Fraction(e, m)
    avg_yx = Fraction(e, n)

    def le_cuberoot(d, bound, scale):
        d = Fraction(d)
        return d <= 0 or d**3 <= bound * scale**3

    flags = {
        "a": all(comp.order * r < m + n for comp in report.components),
        "b": all(le_cuberoot(avg_yx - len(comp.xs), beta, m) for comp in report.components),
        "c": all(le_cuberoot(avg_xy - len(comp.ys), alpha, n) for comp in report.components),
        "d": le_cuberoot(len(report.z_x), alpha, m),
        "e": le_cuberoot(len(report.z_y), beta, n),
    }
    return flags


class TestMainLemma:
    def test_k44_single_block(self):
        rep = main_lemma_report(complete(4, 4), 2)
        assert not rep.hypothesis_ok  # the component has order 8 >= 4

    def test_small_two_block_below_threshold(self):
        # k = 4 is far too small for the deficiency bound, but the report
        # still ranks the components
        k = 4
        rows = [(1 << k) - 1] * k + [((1 << k) - 1) << k] * k + [0]
        g = from_rows(2 * k + 1, 2 * k + 1, rows)
        rep = main_lemma_report(g, 2)
        assert not rep.precondition_ok
        assert [c.order for c in rep.components] == [2 * k, 2 * k]

    def test_flags_match_independent_eval(self):
        rng = random.Random(5)
        for _ in range(100):
            m = rng.randint(1, 5)
            n = rng.randint(m, 5)
            edges = [
                (x, y) for x in range(m) for y in range(n) if rng.random() < 0.5
            ]
            if not edges:
                continue
            g = from_edge_list(m, n, edges)
            rep = main_lemma_report(g, 2)
            expected = independent_flag_eval(g, 2, rep)
            assert (rep.a, rep.b, rep.c, rep.d, rep.e) == tuple(
                expected[k] for k in "abcde"
            )

    def test_component_ranking(self):
        g = from_edge_list(4, 4, [(0, 0), (1, 1), (1, 2), (2, 3), (3, 3)])
        rep = main_lemma_report(g, 2)
        orders = [c.order for c in rep.components]
        assert orders == sorted(orders, reverse=True)
        assert len(rep.components) == 2

    def test_density_deficiency_clamp(self):
        assert density_deficiency(complete(4, 4), 2) == 0
        g = from_edge_list(2, 2, [(0, 0)])
        assert density_deficiency(g, 2) == 1 - Fraction(2 * 1, 4)

    @pytest.mark.parametrize("r", [0, -1])
    def test_reports_reject_fewer_than_one_color(self, r):
        g = from_edge_list(2, 2, [(0, 0), (0, 1), (1, 1)])
        for report in (stability_report, main_lemma_report):
            with pytest.raises(ValueError, match="need r >= 1"):
                report(g, r)


class TestBipartition:
    def test_single_green_edge(self):
        gg = general_from_edge_list(4, 2, [(0, 1, 0), (2, 3, 1), (0, 2, 1)])
        red = bipartition_avoiding_color(gg, 0, 1)
        assert (red.side_a, red.side_b) == ((0, 1), (2, 3))
        assert red.coloring.r == 1

    def test_spanning_green_absent(self):
        gg = general_from_edge_list(4, 2, [(0, 1, 0), (1, 2, 0), (2, 3, 0)])
        assert bipartition_avoiding_color(gg, 0, 1) is None

    def test_no_avoided_crossing_and_sides_partition(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(8, 24)
            edges = []
            # avoided-color paths over disjoint chunks, other color random
            v = 0
            while v + 2 <= n:
                size = rng.randint(2, max(2, n // 4))
                size = min(size, n - v)
                for i in range(v, v + size - 1):
                    edges.append((i, i + 1, 0))
                v += size
            for _ in range(n):
                a, b = rng.randrange(n), rng.randrange(n)
                a, b = min(a, b), max(a, b)
                if a != b and not any((a, b) == (u, w) for u, w, _ in edges):
                    edges.append((a, b, 1))
            gg = general_from_edge_list(n, 2, edges)
            min_side = n // 4 + 1
            red = bipartition_avoiding_color(gg, 0, min_side)
            if red is None:
                continue
            assert sorted(red.side_a + red.side_b) == list(range(n))
            assert len(red.side_a) >= min_side and len(red.side_b) >= min_side
            in_a = set(red.side_a)
            for (u, w), c in zip(gg.edges, gg.colors):
                if c == 0:
                    assert (u in in_a) == (w in in_a)

    def test_singleton_split_fallback(self):
        # one big component that clears min_side on its own
        edges = [(i, i + 1, 0) for i in range(5)]  # path on 0..5
        gg = general_from_edge_list(12, 2, edges)
        red = bipartition_avoiding_color(gg, 0, 6)
        assert red is not None
        assert len(red.side_a) == 6 and len(red.side_b) == 6


class TestCorollary:
    def k_n_colored(self, n, r, colorfn):
        return general_from_edge_list(
            n, r, [(u, v, colorfn(u, v)) for u, v in itertools.combinations(range(n), 2)]
        )

    def test_k5_single_color_not_applicable(self):
        gg = self.k_n_colored(5, 3, lambda u, v: 0)
        v = check_corollary(gg, 3, variant="seven-eighths")
        assert not v.applicable

    def test_k16_single_color(self):
        gg = self.k_n_colored(16, 3, lambda u, v: 0)
        v = check_corollary(gg, 3, variant="seven-eighths")
        assert v.applicable and v.holds and v.witness.order == 16

    def test_k16_random_colorings(self):
        rng = random.Random(3)
        for _ in range(30):
            gg = self.k_n_colored(16, 3, lambda u, v: rng.randrange(3))
            v = check_corollary(gg, 3, variant="seven-eighths")
            assert v.applicable and v.holds and v.witness.order >= 8

    def test_reduction_chain_reported(self):
        # three colors, each spanning few vertices: chain must appear
        edges = []
        for i in range(0, 8, 2):
            edges.append((i, i + 1, 0))
        for u in range(8):
            for w in range(u + 1, 8):
                if (u, w) not in [(i, i + 1) for i in range(0, 8, 2)]:
                    edges.append((u, w, 1 + (u + w) % 2))
        gg = general_from_edge_list(8, 3, edges)
        v = check_corollary(gg, 3, variant="seven-eighths")
        assert v.detail["variant"] == "seven-eighths"
        assert "reduction" in v.detail
        if v.detail["reduction"] is not None:
            assert "bipartite_check" in v.detail

    def test_general_variant_arithmetic(self):
        gg = self.k_n_colored(8, 3, lambda u, v: 0)
        v = check_corollary(gg, 3, variant="general")
        # delta = 7 and the bound needs 3072*32*7 >= (3072*32-1)*8: false
        assert not v.applicable
        assert v.holds  # single color spans everything anyway


@pytest.mark.parametrize("name", sorted(THEOREMS))
def test_check_instance_validates_once(monkeypatch, name):
    # one check reads the coloring against its host once, whatever the
    # conclusion's kernel
    thm = THEOREMS[name]
    r = thm.max_r or max(thm.min_r, 2)
    host = complete_minus_circulant(6, 6, 1)
    col = coloring_from_triples(6, 6, r, [(x, y, (x + 2 * y) % r) for x, y in host.edges()])
    calls = []
    validate = EdgeColoring.validate_against
    monkeypatch.setattr(
        EdgeColoring, "validate_against", lambda self, h: calls.append(h) or validate(self, h)
    )
    check_instance(thm, host, col, r)
    assert calls == [host]


class TestInvariance:
    CHECKS = [
        lambda host, col: check_theorem_two_colors(host, col),
        lambda host, col: check_conjecture_instance(host, col, 2),
        lambda host, col: check_tetel_instance(host, col, 2),
        lambda host, col: check_additive_theorem(host, col),
    ]

    def test_color_permutation_and_relabeling(self):
        rng = random.Random(17)
        host = complete_minus_circulant(4, 4, 1)
        edges = host.edges()
        for _ in range(40):
            colors = [rng.randrange(2) for _ in edges]
            col = coloring_from_triples(
                4, 4, 2, [(x, y, c) for (x, y), c in zip(edges, colors)]
            )
            swapped = coloring_from_triples(
                4, 4, 2, [(x, y, 1 - c) for (x, y), c in zip(edges, colors)]
            )
            perm_x = rng.sample(range(4), 4)
            perm_y = rng.sample(range(4), 4)
            relabeled_edges = [
                (perm_x[x], perm_y[y], c) for (x, y), c in zip(edges, colors)
            ]
            host2 = from_edge_list(4, 4, [(x, y) for x, y, _ in relabeled_edges])
            col2 = coloring_from_triples(4, 4, 2, relabeled_edges)
            for check in self.CHECKS:
                base = check(host, col)
                v_swap = check(host, swapped)
                assert (v_swap.applicable, v_swap.holds) == (
                    base.applicable,
                    base.holds,
                )
                v_rel = check(host2, col2)
                assert (v_rel.applicable, v_rel.holds) == (
                    base.applicable,
                    base.holds,
                )
                if base.witness is not None:
                    assert v_rel.witness.order == base.witness.order


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_verdict_soundness(data):
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 4))
    pairs = [(x, y) for x in range(m) for y in range(n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, k in zip(pairs, keep) if k]
    if not edges:
        return
    host = from_edge_list(m, n, edges)
    colors = data.draw(
        st.lists(st.integers(0, 1), min_size=len(edges), max_size=len(edges))
    )
    col = coloring_from_triples(m, n, 2, [(x, y, c) for (x, y), c in zip(edges, colors)])
    v = check_theorem_two_colors(host, col)
    if v.holds:
        assert v.witness is not None
        # recompute the witness order independently
        ref = oracles.bfs_components(m, n, col.classes[v.witness.color].edges())
        orders = [len(a) + len(b) for a, b in ref]
        assert v.witness.order in orders
        assert v.witness.order >= v.target
