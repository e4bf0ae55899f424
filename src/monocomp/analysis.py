"""Checkable predicates for the component theorems and their support lemmas.

Each checker returns a Verdict (applicability, conclusion, witness, margin)
or a structured report, always computed in exact arithmetic.  Cube-root
thresholds such as alpha^(1/3) n are irrational, so they are compared by
cubing both sides as Fractions; no floats appear anywhere.

``check_instance`` checks any theorem of the registry
``theorems.THEOREMS`` and takes everything but the conclusion's kernel
from there: the rule on r, the degree hypothesis, the target and the
recorded detail.  So ``analyze`` and ``search`` decide applicability with
the same code, and each named checker is one call of it.
"""

from __future__ import annotations

from fractions import Fraction

from .bigraph import (
    BipartiteGraph,
    ColoringMismatch,
    Component,
    DuplicateEdge,
    EdgeColoring,
    GraphError,
    IndexOutOfRange,
    Record,
    _class_components,
    coloring_from_triples,
    graph_components,
    json_int,
    rat_str,
    uncolored_largest_double_star,
)
from .theorems import THEOREMS, Theorem


class Verdict(Record):
    """Outcome of one theorem check on one instance.

    ``holds`` is evaluated even when ``applicable`` is false (the sharpness
    examples are exactly such instances and the miss is worth recording).
    ``margin`` is the achieved component order minus the target.
    """

    check: str
    applicable: bool
    holds: bool
    target: Fraction
    witness: object | None = None
    margin: Fraction = Fraction(0)
    detail: dict | None = None

    def to_json_dict(self) -> dict:
        out = super().to_json_dict()
        if self.detail is None:
            del out["detail"]
        return out


def check_instance(
    thm: Theorem, host: BipartiteGraph, col: EdgeColoring, r: int
) -> Verdict:
    """Check the per-instance theorem ``thm`` on an r-colored host: whether
    the host meets its hypothesis and whether its conclusion holds.  Raises
    ColoringMismatch when ``thm`` says nothing about r colors or ``col`` is
    not an r-coloring of ``host``."""
    err = thm.r_error(r)
    if err:
        raise ColoringMismatch(err)
    if col.r != r:
        raise ColoringMismatch(f"coloring has {col.r} colors, expected {r}")
    col.validate_against(host)
    m, n = host.m, host.n
    applicable = thm.hypothesis(host, r) is None
    target = thm.target(m, n, r)
    comps = _class_components(col)
    # max keeps the first of the largest, in (color, smallest X-index) order
    witness = best = max(comps, key=lambda c: c.order, default=None)
    if thm.half_half:
        need_x, need_y, _ = thm.needs(m, n, r)
        qualifying = [c for c in comps if len(c.xs) >= need_x and len(c.ys) >= need_y]
        witness = max(qualifying, key=lambda c: c.order, default=None)
        best = witness or best
    achieved = best.order if best is not None else 0
    return Verdict(
        check=thm.name,
        applicable=applicable,
        holds=witness is not None if thm.half_half else achieved >= target,
        target=target,
        witness=witness,
        margin=achieved - target,
        detail=thm.detail(m, n, r) if thm.detail else None,
    )


def check_theorem_two_colors(host: BipartiteGraph, col: EdgeColoring) -> Verdict:
    """Two colors: strict 2/3 minimum degrees (the conjecture's at r = 2)
    force a component of order at least (m + n)/2."""
    return check_instance(THEOREMS["r2"], host, col, col.r)


def check_conjecture_instance(host: BipartiteGraph, col: EdgeColoring, r: int) -> Verdict:
    """General r: strict (1 - 1/(r+1)) degrees aim at a component of order
    (m + n)/r."""
    return check_instance(THEOREMS["conjecture"], host, col, r)


def check_tetel_instance(host: BipartiteGraph, col: EdgeColoring, r: int) -> Verdict:
    """All r: degrees within a (m/n)^3 / (128 r^5) sliver of complete, sides
    swapped when m > n, force a component of order (m + n)/r."""
    return check_instance(THEOREMS["tetel"], host, col, r)


def check_additive_theorem(host: BipartiteGraph, col: EdgeColoring) -> Verdict:
    """Two colors, additive degrees: with N = m + n total vertices,
    |Y| >= |X| > N/4, delta(X,Y) >= |Y| - N/8 and delta(Y,X) >= |X| - N/8
    force a component holding half of each side."""
    return check_instance(THEOREMS["additive"], host, col, col.r)


# --- stability machinery ---------------------------------------------------

def _above_cuberoot(d: Fraction, bound: Fraction, scale: int) -> bool:
    """d > bound^(1/3) * scale, exactly (bound >= 0)."""
    if d <= 0:
        return False
    return d**3 > bound * scale**3


def _exceptional(degs: list[int], avg: Fraction, bound: Fraction, scale: int) -> list[int]:
    """Indices v with avg - degs[v] > bound^(1/3) * scale, exactly; the test
    runs once per distinct degree."""
    above = {d: _above_cuberoot(avg - d, bound, scale) for d in set(degs)}
    return [v for v, d in enumerate(degs) if above[d]]


def density_deficiency(g: BipartiteGraph, r: int) -> Fraction:
    """The delta with e(G) = (1 - delta) mn / r, clamped at zero for classes
    denser than mn/r."""
    if r < 1:
        raise ValueError("need r >= 1")
    delta = 1 - Fraction(r * g.edge_count, g.m * g.n)
    return delta if delta > 0 else Fraction(0)


def _thresholds(g: BipartiteGraph, r: int, delta: Fraction) -> tuple[Fraction, ...]:
    """The stability and main-lemma bounds alpha = (m + n) delta / (r^2 n)
    and beta = (m + n) delta / (r^2 m), then the average degrees e/m, e/n."""
    m, n = g.m, g.n
    return (
        Fraction(m + n, r**2 * n) * delta,
        Fraction(m + n, r**2 * m) * delta,
        Fraction(g.edge_count, m),
        Fraction(g.edge_count, n),
    )


class StabilityReport(Record):
    """Either a double star of order (m+n)/r exists (case i) or all but a few
    exceptional vertices have near-average degrees (case ii)."""

    delta: Fraction
    alpha: Fraction
    beta: Fraction
    exceptional_x: tuple[int, ...]
    exceptional_y: tuple[int, ...]
    k_x: int
    k_y: int
    defect_x: Fraction
    defect_y: Fraction
    double_star_order: int
    case_i: bool
    case_ii: bool

    @property
    def dichotomy(self) -> bool:
        return self.case_i or self.case_ii

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "dichotomy": self.dichotomy}


def stability_report(
    g: BipartiteGraph, r: int, *, delta: Fraction | None = None
) -> StabilityReport:
    """Evaluate the stability dichotomy on one color class.

    With ``delta=None`` the deficiency is derived from e(g) = (1 - delta)mn/r
    and clamped at zero; passing a larger admissible delta evaluates the same
    dichotomy with the correspondingly looser exceptional-vertex thresholds.
    """
    m, n = g.m, g.n
    if m > n:
        raise ColoringMismatch("stability expects m <= n")
    if g.edge_count == 0:
        raise GraphError("stability needs at least one edge")
    if delta is None:
        delta = density_deficiency(g, r)
    else:
        delta = Fraction(delta)
        if delta < density_deficiency(g, r):
            raise ValueError("delta below the deficiency forced by e(g)")
    alpha, beta, avg_xy, avg_yx = _thresholds(g, r, delta)

    xdegs = g._degrees
    ydegs = g.y_degrees()
    exc_x = _exceptional(xdegs, avg_xy, alpha, n)
    exc_y = _exceptional(ydegs, avg_yx, beta, m)

    defect_x = sum(xdegs[x] for x in exc_x) - len(exc_x) * avg_xy
    defect_y = sum(ydegs[y] for y in exc_y) - len(exc_y) * avg_yx
    star = uncolored_largest_double_star(g).order
    case_i = star * r >= m + n
    case_ii = not _above_cuberoot(len(exc_x), alpha, m) and not _above_cuberoot(
        len(exc_y), beta, n
    )
    return StabilityReport(
        delta=delta,
        alpha=alpha,
        beta=beta,
        exceptional_x=tuple(exc_x),
        exceptional_y=tuple(exc_y),
        k_x=len(exc_x),
        k_y=len(exc_y),
        defect_x=Fraction(defect_x),
        defect_y=Fraction(defect_y),
        double_star_order=star,
        case_i=case_i,
        case_ii=case_ii,
    )


class MainComponentsReport(Record):
    """The r largest components of a sparse-deficiency class and the five
    structural properties they must satisfy when no component reaches
    (m + n)/r."""

    components: tuple[Component, ...]
    z_x: tuple[int, ...]
    z_y: tuple[int, ...]
    a: bool
    b: bool
    c: bool
    d: bool
    e: bool
    precondition_ok: bool
    hypothesis_ok: bool
    delta: Fraction
    alpha: Fraction
    beta: Fraction

    @property
    def all_properties(self) -> bool:
        return self.a and self.b and self.c and self.d and self.e

    def to_json_dict(self) -> dict:
        out = super().to_json_dict()
        out["flags"] = {f: out.pop(f) for f in "abcde"}
        return out


def main_lemma_report(g: BipartiteGraph, r: int) -> MainComponentsReport:
    """Rank the components of one color class and evaluate properties (a)-(e).

    The flags are recomputed from the component list; they carry the lemma's
    meaning only when both ``precondition_ok`` (deficiency small enough) and
    ``hypothesis_ok`` (no component of order (m+n)/r) are true, but they are
    reported regardless.
    """
    m, n = g.m, g.n
    if g.edge_count == 0:
        raise GraphError("main lemma needs at least one edge")
    delta = density_deficiency(g, r)
    alpha, beta, avg_xy, avg_yx = _thresholds(g, r, delta)
    precondition_ok = delta <= min(
        Fraction(n, 64 * r**4 * (m + n)), Fraction(m, 64 * r * (m + n))
    )
    comps = graph_components(g)
    hypothesis_ok = all(comp.order * r < m + n for comp in comps)
    ranked = sorted(comps, key=lambda comp: (-comp.order, comp.min_x))
    top = tuple(ranked[:r])

    flag_a = all(comp.order * r < m + n for comp in top)
    flag_b = all(
        not _above_cuberoot(avg_yx - len(comp.xs), beta, m) for comp in top
    )
    flag_c = all(
        not _above_cuberoot(avg_xy - len(comp.ys), alpha, n) for comp in top
    )
    covered_x = set()
    covered_y = set()
    for comp in top:
        covered_x.update(comp.xs)
        covered_y.update(comp.ys)
    z_x = tuple(x for x in range(m) if x not in covered_x)
    z_y = tuple(y for y in range(n) if y not in covered_y)
    flag_d = not _above_cuberoot(len(z_x), alpha, m)
    flag_e = not _above_cuberoot(len(z_y), beta, n)
    return MainComponentsReport(
        components=top,
        z_x=z_x,
        z_y=z_y,
        a=flag_a,
        b=flag_b,
        c=flag_c,
        d=flag_d,
        e=flag_e,
        precondition_ok=precondition_ok,
        hypothesis_ok=hypothesis_ok,
        delta=delta,
        alpha=alpha,
        beta=beta,
    )


# --- general graphs and the bipartition reduction --------------------------

class GeneralGraph(Record):
    """Simple undirected graph with a total r-edge-coloring."""

    n: int
    r: int
    edges: tuple[tuple[int, int], ...]
    colors: tuple[int, ...]

    def _check(self):
        n, r, edges, colors = self.n, self.r, self.edges, self.colors
        if n < 1:
            raise IndexOutOfRange("need at least one vertex")
        if r < 1:
            raise ColoringMismatch("need at least one color")
        if len(edges) != len(colors):
            raise ColoringMismatch("coloring must be total on the edges")
        seen = set()
        for (u, v), c in zip(edges, colors):
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < v < n):
                raise IndexOutOfRange(f"edge ({u}, {v}) not normalized in range")
            if (u, v) in seen:
                raise DuplicateEdge(f"edge ({u}, {v}) given twice")
            if not (0 <= c < r):
                raise ColoringMismatch(f"color {c} outside [0, {r})")
            seen.add((u, v))

    def min_degree(self) -> int:
        degs = [0] * self.n
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return min(degs)

    def to_json_dict(self) -> dict:
        triples = sorted([u, v, c] for (u, v), c in zip(self.edges, self.colors))
        return {"n": self.n, "r": self.r, "edges": triples}


def general_from_edge_list(n: int, r: int, triples) -> GeneralGraph:
    """Build a GeneralGraph from (u, v, color) triples; endpoints may come in
    either order."""
    # stable on the edge alone, so a repeated edge keeps its input order
    pairs = sorted([((min(u, v), max(u, v)), c) for u, v, c in triples], key=lambda p: p[0])
    return GeneralGraph(
        n=n,
        r=r,
        edges=tuple(edge for edge, _ in pairs),
        colors=tuple(c for _, c in pairs),
    )


def parse_general_json(data: dict) -> GeneralGraph:
    """Inverse of :meth:`GeneralGraph.to_json_dict`; ``n``, ``r`` and every
    edge field must be JSON integers."""
    try:
        n = json_int(data["n"], "n")
        r = json_int(data["r"], "r")
        triples = [
            tuple(json_int(v, "edge field") for v in (a, b, c))
            for a, b, c in data["edges"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed general graph JSON: {exc}") from exc
    return general_from_edge_list(n, r, triples)


class GeneralComponent(Record):
    color: int
    vertices: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.vertices)

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "order": self.order}


def general_mono_components(gg: GeneralGraph) -> list[GeneralComponent]:
    """Monochromatic components of a general graph, by (color, min vertex)."""
    return [comp for c in range(gg.r) for comp in _color_components(gg, c)]


def _color_components(gg: GeneralGraph, c: int) -> list[GeneralComponent]:
    """The components of color ``c`` alone, by min vertex."""
    adj: dict[int, list[int]] = {}
    for (u, v), col in zip(gg.edges, gg.colors):
        if col != c:
            continue
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    out = []
    seen: set[int] = set()
    for start in sorted(adj):
        if start in seen:
            continue
        stack = [start]
        comp = {start}
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        out.append(GeneralComponent(color=c, vertices=tuple(sorted(comp))))
    return out


class BipartitionReduction(Record):
    """A split of a general graph avoiding one color across the cut.

    ``side_a[i]`` is the original vertex playing X-index i in the induced
    bipartite instance, and likewise ``side_b`` for Y.
    """

    avoided_color: int
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]
    host: BipartiteGraph
    coloring: EdgeColoring

    def to_json_dict(self) -> dict:
        return {
            "avoided_color": self.avoided_color,
            "side_a": list(self.side_a),
            "side_b": list(self.side_b),
            "induced": self.coloring.to_json_dict(),
        }


def bipartition_avoiding_color(
    gg: GeneralGraph, color: int, min_side: int
) -> BipartitionReduction | None:
    """Group the components of ``color`` into two sides of size >= min_side.

    Pieces (components plus untouched vertices as singletons) go largest
    first into the lighter side; if that split falls short, a single piece
    big enough on its own is tried against its complement.  Returns None
    when both fail.  The returned split never cuts an edge of the avoided
    color and its induced coloring uses at most r - 1 colors.
    """
    return _bipartition(gg, color, _color_components(gg, color), min_side)


def _bipartition(
    gg: GeneralGraph, color: int, comps: list[GeneralComponent], min_side: int
) -> BipartitionReduction | None:
    """``bipartition_avoiding_color`` given ``comps``, the components of
    ``color`` by min vertex."""
    pieces = [list(comp.vertices) for comp in comps]
    covered = {v for piece in pieces for v in piece}
    pieces.extend([v] for v in range(gg.n) if v not in covered)
    pieces.sort(key=lambda p: (-len(p), p[0]))

    side_a: list[int] = []
    side_b: list[int] = []
    for piece in pieces:
        if len(side_a) <= len(side_b):
            side_a.extend(piece)
        else:
            side_b.extend(piece)
    if len(side_a) < min_side or len(side_b) < min_side:
        side_a = side_b = []
        for piece in pieces:
            rest = gg.n - len(piece)
            if len(piece) >= min_side and rest >= min_side:
                side_a = list(piece)
                in_a = set(side_a)
                side_b = [v for v in range(gg.n) if v not in in_a]
                break
        else:
            return None

    side_a = sorted(side_a)
    side_b = sorted(side_b)
    pos_a = {v: i for i, v in enumerate(side_a)}
    pos_b = {v: i for i, v in enumerate(side_b)}
    triples = []
    for (u, v), c in zip(gg.edges, gg.colors):
        crossing = (u in pos_a) != (v in pos_a)
        if not crossing:
            continue
        if c == color:
            raise RuntimeError("avoided-color edge crosses the split")
        x, y = (u, v) if u in pos_a else (v, u)
        triples.append((pos_a[x], pos_b[y], c if c < color else c - 1))
    col = coloring_from_triples(len(side_a), len(side_b), max(gg.r - 1, 1), triples)
    return BipartitionReduction(
        avoided_color=color,
        side_a=tuple(side_a),
        side_b=tuple(side_b),
        host=col.union_host(),
        coloring=col,
    )


def check_corollary(gg: GeneralGraph, r: int, variant: str = "general") -> Verdict:
    """Minimum-degree corollaries on general graphs.

    ``variant="general"``: delta(G) >= (1 - 1/(3072 (r-1)^5)) n aims at a
    monochromatic component of order n/(r-1) (r >= 3).
    ``variant="seven-eighths"``: r = 3 and delta(G) >= 7n/8 aims at n/2.

    When no color's component reaches the reduction threshold the checker
    also performs the bipartition reduction and runs the matching bipartite
    check on the induced instance, recording the whole chain in ``detail``.
    """
    if r < 3:
        raise ColoringMismatch("corollaries need r >= 3")
    if gg.r != r:
        raise ColoringMismatch(f"coloring has {gg.r} colors, expected {r}")
    n = gg.n
    delta = gg.min_degree()
    if variant == "seven-eighths":
        if r != 3:
            raise ColoringMismatch("the 7n/8 variant is for r = 3")
        applicable = 8 * delta >= 7 * n
        target = Fraction(n, 2)
        threshold = Fraction(3 * n, 4)
        min_side = n // 4 + 1
    elif variant == "general":
        bound = 3072 * (r - 1) ** 5
        applicable = bound * delta >= (bound - 1) * n
        target = Fraction(n, r - 1)
        threshold = Fraction(2 * n, 3)
        min_side = -(-n // 3)
    else:
        raise ValueError(f"unknown corollary variant {variant!r}")

    comps = general_mono_components(gg)
    witness = max(comps, key=lambda c: c.order, default=None)
    achieved = witness.order if witness is not None else 0
    holds = achieved >= target

    detail: dict = {"variant": variant, "threshold": rat_str(threshold)}
    reached = {comp.color for comp in comps if comp.order >= threshold}
    avoided = next((c for c in range(gg.r) if c not in reached), None)
    if avoided is not None:
        own = [comp for comp in comps if comp.color == avoided]
        reduction = _bipartition(gg, avoided, own, min_side)
        if reduction is None:
            detail["reduction"] = None
        else:
            detail["reduction"] = {
                "avoided_color": avoided,
                "side_sizes": [len(reduction.side_a), len(reduction.side_b)],
            }
            if variant == "seven-eighths":
                sub = check_additive_theorem(reduction.host, reduction.coloring)
            else:
                sub = check_tetel_instance(reduction.host, reduction.coloring, r - 1)
            detail["bipartite_check"] = sub.to_json_dict()
    return Verdict(
        check=f"corollary-{variant}",
        applicable=applicable,
        holds=holds,
        target=target,
        witness=witness,
        margin=achieved - target,
        detail=detail,
    )
