from fractions import Fraction

import pytest

from monocomp import (
    ColoringMismatch,
    EdgeColoring,
    blowup,
    complete,
    complete_minus_circulant,
    construction_certificate,
    coloring_from_triples,
    cyclic_one_factorization,
    degree_profile,
    double_star_gap_construction,
    from_rows,
    graph_components,
    largest_double_star,
    largest_mono_component,
    lower_bound_construction,
    meets_conjecture_degrees,
    mono_components,
)
from monocomp.constructions import InvalidSpec, gen_build

import oracles


class TestCyclicFactorization:
    def test_k3(self):
        host, col = cyclic_one_factorization(3)
        assert all(cls.edge_count == 3 for cls in col.classes)
        assert all(c.order == 2 for c in mono_components(host, col))

    def test_k1(self):
        host, col = cyclic_one_factorization(1)
        assert host.edge_count == 1
        assert col.r == 1 and col.color_of(0, 0) == 0

    def test_k4_formula(self):
        _host, col = cyclic_one_factorization(4)
        for c in range(4):
            for i in range(4):
                assert col.classes[c].has_edge(i, (c - i) % 4)

    def test_one_edge_per_color_per_vertex(self):
        for k in (2, 3, 5):
            _host, col = cyclic_one_factorization(k)
            for cls in col.classes:
                assert all(cls.degree(x) == 1 for x in range(k))
                assert all(d == 1 for d in cls.y_degrees())


class TestBlowup:
    def test_single_edge_to_k23(self):
        pattern = complete(1, 1)
        col = coloring_from_triples(1, 1, 1, [(0, 0, 0)])
        host, bcol = blowup(pattern, col, 2, 3)
        assert (host.m, host.n) == (2, 3)
        assert host == complete(2, 3)
        assert bcol.classes[0] == host

    def test_identity(self):
        host, col = cyclic_one_factorization(3)
        bhost, bcol = blowup(host, col, 1, 1)
        assert bhost == host and bcol == col

    def test_cyclic2_blown_2x2(self):
        host, col = cyclic_one_factorization(2)
        bhost, bcol = blowup(host, col, 2, 2)
        assert bhost == complete(4, 4)
        for c in range(2):
            comps = [comp for comp in mono_components(bhost, bcol) if comp.color == c]
            assert sorted(comp.order for comp in comps) == [4, 4]
            # agree with the plain BFS oracle
            ref = oracles.bfs_components(4, 4, bcol.classes[c].edges())
            assert len(ref) == 2 and all(len(a) + len(b) == 4 for a, b in ref)

    def test_block_is_one_component(self):
        pattern = complete(1, 1)
        col = coloring_from_triples(1, 1, 1, [(0, 0, 0)])
        for t1, t2 in [(1, 1), (2, 2), (3, 5)]:
            bhost, bcol = blowup(pattern, col, t1, t2)
            comps = graph_components(bcol.classes[0])
            assert len(comps) == 1 and comps[0].order == t1 + t2


class TestLowerBound:
    def test_2_1_1(self):
        host, col = lower_bound_construction(2, 1, 1)
        assert (host.m, host.n) == (3, 3)
        prof = degree_profile(host)
        assert Fraction(prof.delta_xy) == Fraction(2, 3) * 3
        assert largest_mono_component(host, col).order == 2 == (3 + 3) // 3
        assert not meets_conjecture_degrees(host, 2)

    def test_2_2_3(self):
        host, col = lower_bound_construction(2, 2, 3)
        assert (host.m, host.n) == (6, 9)
        assert degree_profile(host).delta_xy == 6
        assert largest_mono_component(host, col).order == 5 == 15 // 3

    def test_3_1_1(self):
        host, col = lower_bound_construction(3, 1, 1)
        assert (host.m, host.n) == (4, 4)
        assert col.r == 3
        assert largest_mono_component(host, col).order == 2

    def test_degrees_sit_exactly_on_boundary(self):
        for r, t1, t2 in [(2, 1, 1), (2, 2, 2), (3, 1, 2), (4, 1, 1)]:
            host, col = lower_bound_construction(r, t1, t2)
            prof = degree_profile(host)
            assert prof.delta_xy * (r + 1) == r * host.n
            assert prof.delta_yx * (r + 1) == r * host.m
            assert not meets_conjecture_degrees(host, r)

    def test_invalid(self):
        with pytest.raises(InvalidSpec):
            lower_bound_construction(1, 1, 1)
        for t1, t2 in [(0, 1), (1, 0), (-1, 2)]:  # the blow-up's own guard
            with pytest.raises(InvalidSpec, match=r"^need t1, t2 >= 1$"):
                lower_bound_construction(2, t1, t2)

    def test_pattern_is_cyclic_minus_last_matching(self):
        # edge (i, j) of K_{r+1,r+1} has color (i + j) mod (r + 1), and the
        # edges of color r are gone
        for r in (2, 3, 5):
            k = r + 1
            host, col = lower_bound_construction(r, 1, 1)
            want = [(i, j, (i + j) % k) for i in range(k) for j in range(k) if (i + j) % k != r]
            assert col.edges() == want
            assert host.edges() == [(i, j) for i, j, _ in want]


class TestDoubleStarGap:
    def test_2_2_3(self):
        host, col = double_star_gap_construction(2, 2, 3)
        assert (host.m, host.n) == (4, 6)
        assert degree_profile(host).delta_xy == host.n - 2
        assert largest_mono_component(host, col).order == 5 == (4 + 6) // 2
        assert largest_double_star(host, col).order == 4 == 2 - 1 + 3

    def test_3_2_4(self):
        host, col = double_star_gap_construction(3, 2, 4)
        assert (host.m, host.n) == (6, 12)
        prof = degree_profile(host)
        assert prof.delta_xy == host.n - 3
        assert prof.delta_yx >= host.m - 3
        assert largest_double_star(host, col).order <= 2 - 1 + 4

    def test_2_2_2_reported_not_asserted(self):
        # blown K_{2,2} minus a perfect matching is two disjoint edges, so
        # the generator must emit the graph without insisting on (m+n)/r
        host, col = double_star_gap_construction(2, 2, 2)
        cert = construction_certificate(host, col)
        assert cert.largest_component == 2
        assert cert.delta_xy == host.n - 2

    def test_invalid(self):
        with pytest.raises(InvalidSpec):
            double_star_gap_construction(2, 1, 3)
        with pytest.raises(InvalidSpec):
            double_star_gap_construction(2, 3, 2)


class TestCirculant:
    def test_k44_minus_matching(self):
        g = complete_minus_circulant(4, 4, 1)
        assert all(g.degree(x) == 3 for x in range(4))
        assert all(d == 3 for d in g.y_degrees())

    def test_8_8_2(self):
        g = complete_minus_circulant(8, 8, 2)
        assert all(g.degree(x) == 6 for x in range(8))
        assert all(d == 6 for d in g.y_degrees())

    def test_d0_is_complete(self):
        assert complete_minus_circulant(4, 4, 0) == complete(4, 4)

    def test_invalid(self):
        with pytest.raises(InvalidSpec):
            complete_minus_circulant(5, 4, 0)
        with pytest.raises(InvalidSpec):
            complete_minus_circulant(4, 4, 5)


class TestCertificates:
    def test_recomputed_from_scratch(self):
        host, col = lower_bound_construction(2, 2, 3)
        cert = construction_certificate(host, col)
        prof = degree_profile(host)
        assert cert.delta_xy == prof.delta_xy
        assert cert.delta_yx == prof.delta_yx
        assert cert.largest_component == largest_mono_component(host, col).order
        assert cert.largest_double_star == largest_double_star(host, col).order

    def test_uncolored_certificate(self):
        g = complete_minus_circulant(4, 4, 1)
        cert = construction_certificate(g)
        assert cert.delta_xy == 3
        assert cert.largest_component == 8
        assert cert.largest_double_star == 6

    def test_validates_once(self, monkeypatch):
        host, col = lower_bound_construction(2, 4, 2)
        calls = []
        validate = EdgeColoring.validate_against
        monkeypatch.setattr(
            EdgeColoring, "validate_against", lambda self, h: calls.append(h) or validate(self, h)
        )
        construction_certificate(host, col)
        assert calls == [host]

    @pytest.mark.parametrize(
        "wrong,message",
        [
            ("missing edge", "colors do not cover exactly row 0"),
            ("other shape", "host and coloring disagree on (m, n)"),
            ("edgeless host", "colors do not cover exactly row 0"),
        ],
    )
    def test_mismatched_coloring(self, wrong, message):
        host, col = lower_bound_construction(2, 2, 3)
        if wrong == "missing edge":
            col = coloring_from_triples(host.m, host.n, 2, col.edges()[1:])
        elif wrong == "other shape":
            host = complete(host.m, host.n + 1)
        else:
            host = from_rows(host.m, host.n, [0] * host.m)
        with pytest.raises(ColoringMismatch) as exc:
            construction_certificate(host, col)
        assert str(exc.value) == message

    def test_spec_dispatch(self):
        host, col = gen_build("cyclic", {"k": 3})
        assert host == complete(3, 3) and col.r == 3
        host2, col2 = gen_build("circulant", {"m": 4, "n": 4, "d": 1})
        assert col2 is None and host2.edge_count == 12
        with pytest.raises(InvalidSpec):
            gen_build("nope", {})
