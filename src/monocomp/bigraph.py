"""Bipartite graphs, edge colorings, monochromatic components, double stars.

X-side vertices are 0..m-1 and Y-side vertices 0..n-1, kept as disjoint
namespaces.  Adjacency is stored as one Python int per X-vertex, used as a
bitmask over Y, which keeps neighborhood unions, component sweeps and degree
counts cheap even when a side has a few thousand vertices.

Every loop over the set bits of a mask goes through :func:`bit_indices`,
which walks down from the top set bit and reads only wide, dense masks from
their binary digits.  The row builders (:func:`from_edge_list`,
:func:`coloring_from_triples`, the sparse :meth:`BipartiteGraph.transpose`)
group their edges by row and build each row once with :func:`mask_of`, not
one OR per edge: on a row of 20,000 bits each big-int step costs a pass over
the row, whatever the number of set bits.

Every threshold predicate is exact (integers and fractions.Fraction, never
floats): the extremal examples sit exactly on their bounds, so rounding
would misclassify them.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from fractions import Fraction


class GraphError(Exception):
    """Base class for graph construction and query errors."""


class IndexOutOfRange(GraphError):
    """An endpoint index falls outside [0, m) x [0, n)."""


class DuplicateEdge(GraphError):
    """The same edge was supplied twice (multi-edges are rejected)."""


class ColoringMismatch(GraphError):
    """A coloring does not partition the host graph's edge set."""


class EmptyGraph(GraphError):
    """The operation needs at least one edge (or one vertex per side)."""


# where bit_indices stops walking and scans: see its docstring
WIDE_BITS = 8192
DENSE_RATIO = 64


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending.

    The walk reads the top set bit (``bit_length``) and clears it, so each
    step works on a mask no wider than the bits still left; the list is
    then reversed.  Its cost grows with set bits times width, while
    ``str.find`` over the binary digits costs a pass over the width plus a
    call per set bit.  The walk ties or wins up to 8192 bits at every
    density; past that the scan wins from about one set bit in 64.  So a
    mask wider than ``WIDE_BITS`` stops walking after width / ``DENSE_RATIO``
    set bits and the scan reads the rest: a sparse wide row pays for no
    count.  Microseconds per random mask, walk / scan, on a shared 2-core
    x86 host under Python 3.11:

        width    1/1024       1/128        1/64         1/16
        1024     0.24 / 1.9   1.3 / 3.3    2.5 / 4.2    9.6 / 19
        8192     2.9 / 18     19 / 29      32 / 48      121 / 117
        16384    6.9 / 31     49 / 60      110 / 97     432 / 274
        32768    15 / 58      83 / 107     245 / 175    915 / 489
    """
    width = mask.bit_length()
    out = []
    for _ in range(width // DENSE_RATIO if width > WIDE_BITS else width):
        if not mask:
            break
        i = mask.bit_length() - 1
        out.append(i)
        mask ^= 1 << i
    out.reverse()
    if mask:
        bits = bin(mask)[:1:-1]  # bits[i] is bit i of the mask
        low = []
        i = bits.find("1")
        while i != -1:
            low.append(i)
            i = bits.find("1", i + 1)
        out[:0] = low
    return out


def mask_of(indices) -> int:
    """The mask with bit i set for each i in ``indices`` (repeats collapse)."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def rat_str(value) -> str:
    """Exact rendering of an int or Fraction: "3", "-7/2"."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class BipartiteGraph:
    """Simple (X,Y)-bipartite graph with |X| = m, |Y| = n.

    ``rows[x]`` is the neighborhood of x as a bitmask over Y.  Instances are
    immutable and safe to share between threads/processes.
    """

    m: int
    n: int
    rows: tuple[int, ...]
    edge_count: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise IndexOutOfRange(f"negative side size ({self.m}, {self.n})")
        if len(self.rows) != self.m:
            raise IndexOutOfRange("row count does not match m")
        total = 0
        for x, row in enumerate(self.rows):
            if row >> self.n:
                raise IndexOutOfRange(f"row {x} has a neighbor outside [0, {self.n})")
            total += row.bit_count()
        if total != self.edge_count:
            raise GraphError("edge_count does not match adjacency rows")

    def degree(self, x: int) -> int:
        return self.rows[x].bit_count()

    def has_edge(self, x: int, y: int) -> bool:
        return 0 <= x < self.m and (self.rows[x] >> y) & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        """All edges sorted by (x, y)."""
        return [(x, y) for x, row in enumerate(self.rows) for y in bit_indices(row)]

    def y_degrees(self) -> list[int]:
        """Degree of every Y-vertex, indexed by y.

        The rows are summed into :func:`column_planes`, where bit y of plane
        j is bit j of deg(y); the degrees are then read with one pass over
        the set bits of each plane."""
        return plane_counts(column_planes(self.rows), self.n)

    def transpose(self) -> "BipartiteGraph":
        """Swap the roles of X and Y.

        Sparse graphs (64 E < m n) list each column's X-vertices from the
        rows' :func:`bit_indices` and build each column once.  Denser ones
        spread each row to one byte per column (``format``, ``translate``),
        OR row k of each group of eight in at bit k, and read column y as a
        strided slice of the ceil(m/8) n-byte grid: C-level work per cell,
        not Python work per edge.  On random 2000x2000, 500x4000 and
        4000x500 graphs the byte grid takes 0.78x, 0.74x and 1.02x the
        time of the walk at density 1/64, and 1.28x-1.38x at 1/128; on
        200x200 the two tie near 1/32."""
        m, n = self.m, self.n
        if 64 * self.edge_count < m * n:
            xs_of = [[] for _ in range(n)]
            for x, row in enumerate(self.rows):
                for y in bit_indices(row):
                    xs_of[y].append(x)
            cols = [mask_of(xs) for xs in xs_of]
        else:
            spread, table = f"0{n}b", bytes.maketrans(b"01", b"\0\1")
            groups = []
            for g in range(0, m, 8):
                word = 0
                for k, row in enumerate(self.rows[g : g + 8]):
                    cells = format(row, spread).encode().translate(table)
                    word |= int.from_bytes(cells, "big") << k
                groups.append(word.to_bytes(n, "big"))
            grid = b"".join(groups)
            cols = [int.from_bytes(grid[n - 1 - y :: n], "little") for y in range(n)]
        return BipartiteGraph(n, m, tuple(cols), self.edge_count)

    def is_complete(self) -> bool:
        return self.edge_count == self.m * self.n

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "edges": [[x, y] for x, y in self.edges()]}


def column_planes(rows) -> list[int]:
    """Column counts of bitmask rows, stored as bit planes.

    Bit y of ``planes[j]`` is bit j of the number of rows that hold bit y,
    so there are as many planes as the largest count has bits, and a
    column with count 0 is clear in every plane.  Each row is added with a
    ripple carry through the planes: the carry-save population count of
    Mula, Kurz and Lemire (arXiv:1611.07612) on Python big-int words, which
    costs a few word operations per row instead of one step per set bit.
    """
    planes: list[int] = []
    for carry in rows:
        j = 0
        while carry:
            if j == len(planes):
                planes.append(carry)
                break
            plane = planes[j]
            planes[j] = plane ^ carry
            carry &= plane
            j += 1
    return planes


def plane_counts(planes: list[int], n: int) -> list[int]:
    """The n column counts held by :func:`column_planes` output."""
    counts = [0] * n
    for j, plane in enumerate(planes):
        weight = 1 << j
        for y in bit_indices(plane):
            counts[y] += weight
    return counts


def _plane_max(planes: list[int], mask: int) -> tuple[int, int]:
    """The largest count among the columns in a non-empty ``mask``, and the
    mask of the columns that reach it.  Descends from the top plane, keeping
    the columns that have the current bit set whenever any of them do."""
    value = 0
    for j in range(len(planes) - 1, -1, -1):
        hit = mask & planes[j]
        if hit:
            mask = hit
            value |= 1 << j
    return value, mask


def from_rows(m: int, n: int, rows) -> BipartiteGraph:
    """Build a graph directly from per-X bitmask rows (validated)."""
    rows = tuple(rows)
    return BipartiteGraph(m, n, rows, sum(r.bit_count() for r in rows))


def from_edge_list(m: int, n: int, edges) -> BipartiteGraph:
    """Build a graph from (x, y) pairs; rejects out-of-range and duplicates.

    The pairs are grouped by x and each row is built once; a duplicate
    leaves fewer set bits than pairs, which the graph's edge count check
    rejects.  On any error :func:`_check_triples` raises the error for the
    first bad pair in input order, or, if no pair is bad, the build's own."""
    edges = list(edges)
    try:
        ys_of = [[] for _ in range(m)]
        for x, y in edges:
            if not (0 <= x < m and 0 <= y < n):
                raise IndexError  # named by _check_triples
            ys_of[x].append(y)
        return BipartiteGraph(m, n, tuple(map(mask_of, ys_of)), len(edges))
    except (GraphError, TypeError, ValueError, IndexError) as exc:
        error = exc
    _check_triples(m, n, 1, ((x, y, 0) for x, y in edges))
    raise error


def complete(m: int, n: int) -> BipartiteGraph:
    """The complete bipartite graph K_{m,n}."""
    if m < 1 or n < 1:
        raise EmptyGraph("complete bipartite graph needs m, n >= 1")
    full = (1 << n) - 1
    return BipartiteGraph(m, n, (full,) * m, m * n)


@dataclass(frozen=True)
class DegreeProfile:
    """Exact minimum and average degrees in both directions."""

    delta_xy: int
    delta_yx: int
    avg_xy: Fraction
    avg_yx: Fraction


def degree_profile(g: BipartiteGraph) -> DegreeProfile:
    if g.m < 1 or g.n < 1:
        raise EmptyGraph("degree profile needs both sides non-empty")
    delta_xy = min(row.bit_count() for row in g.rows)
    delta_yx = min(g.y_degrees())
    return DegreeProfile(
        delta_xy=delta_xy,
        delta_yx=delta_yx,
        avg_xy=Fraction(g.edge_count, g.m),
        avg_yx=Fraction(g.edge_count, g.n),
    )


@dataclass(frozen=True)
class EdgeColoring:
    """A partition of a host's edges into r color classes.

    ``classes[c]`` is a BipartiteGraph on the same vertex sets holding
    exactly the color-c edges.  Classes must be pairwise edge-disjoint;
    equality of the union with a specific host is checked separately by
    :meth:`validate_against`.
    """

    r: int
    classes: tuple[BipartiteGraph, ...]

    def __post_init__(self):
        if self.r < 1:
            raise ColoringMismatch("need at least one color")
        if len(self.classes) != self.r:
            raise ColoringMismatch("class count does not match r")
        m, n = self.classes[0].m, self.classes[0].n
        for cls in self.classes:
            if (cls.m, cls.n) != (m, n):
                raise ColoringMismatch("color classes disagree on (m, n)")
        for x in range(m):
            seen = 0
            for cls in self.classes:
                row = cls.rows[x]
                if seen & row:
                    y = (seen & row).bit_length() - 1
                    raise DuplicateEdge(f"edge ({x}, {y}) appears in two colors")
                seen |= row

    @property
    def m(self) -> int:
        return self.classes[0].m

    @property
    def n(self) -> int:
        return self.classes[0].n

    def union_host(self) -> BipartiteGraph:
        """The underlying host graph (union of the classes)."""
        rows = [0] * self.m
        for cls in self.classes:
            for x, row in enumerate(cls.rows):
                rows[x] |= row
        return from_rows(self.m, self.n, rows)

    def validate_against(self, host: BipartiteGraph) -> None:
        if (host.m, host.n) != (self.m, self.n):
            raise ColoringMismatch("host and coloring disagree on (m, n)")
        for x in range(self.m):
            merged = 0
            for cls in self.classes:
                merged |= cls.rows[x]
            if merged != host.rows[x]:
                raise ColoringMismatch(f"colors do not cover exactly row {x}")

    def color_of(self, x: int, y: int) -> int | None:
        for c, cls in enumerate(self.classes):
            if cls.has_edge(x, y):
                return c
        return None

    def edges(self) -> list[tuple[int, int, int]]:
        """All colored edges sorted by (x, y)."""
        return sorted(
            (x, y, c)
            for c, cls in enumerate(self.classes)
            for x, row in enumerate(cls.rows)
            for y in bit_indices(row)
        )

    def transpose(self) -> "EdgeColoring":
        return EdgeColoring(self.r, tuple(cls.transpose() for cls in self.classes))

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "r": self.r,
            "edges": [[x, y, c] for x, y, c in self.edges()],
        }


def coloring_from_triples(m: int, n: int, r: int, triples) -> EdgeColoring:
    """Build an EdgeColoring from (x, y, color) triples.

    Like :func:`from_edge_list`: the triples are grouped by color and x,
    and each class row is built once.  A color gets its per-x lists at its
    first triple, and the unused colors share one empty class, so a
    coloring costs its edges plus one slot per color.  On any error, a
    duplicate within or across colors included, :func:`_check_triples`
    raises the error for the first bad triple in input order, or, if no
    triple is bad, the build's own."""
    triples = list(triples)
    try:
        ys_of = [None] * r
        for x, y, c in triples:
            if not (0 <= c < r and 0 <= x < m and 0 <= y < n):
                raise IndexError  # named by _check_triples
            per_x = ys_of[c]
            if per_x is None:
                per_x = ys_of[c] = [[] for _ in range(m)]
            per_x[x].append(y)
        empty = BipartiteGraph(m, n, (0,) * m, 0)
        classes = tuple(
            empty if per_x is None
            else BipartiteGraph(m, n, tuple(map(mask_of, per_x)), sum(map(len, per_x)))
            for per_x in ys_of
        )
        return EdgeColoring(r, classes)
    except (GraphError, TypeError, ValueError, IndexError) as exc:
        error = exc
    _check_triples(m, n, r, triples)
    raise error


def _check_triples(m: int, n: int, r: int, triples) -> None:
    """The per-triple checks: raise the error for the first bad triple in
    input order, or return if none is bad.  Called outside the builders'
    ``except`` blocks, so the error carries no context."""
    seen = [0] * m
    for x, y, c in triples:
        if not (0 <= c < r):
            raise ColoringMismatch(f"color {c} outside [0, {r})")
        if not (0 <= x < m) or not (0 <= y < n):
            raise IndexOutOfRange(f"edge ({x}, {y}) outside [0, {m}) x [0, {n})")
        bit = 1 << y
        if seen[x] & bit:
            raise DuplicateEdge(f"edge ({x}, {y}) given twice")
        seen[x] |= bit
        operator.index(c)  # a color that is no integer: TypeError, as in the build


def coloring_from_assignment(host: BipartiteGraph, r: int, colors) -> EdgeColoring:
    """Build an EdgeColoring from one color per host edge, in (x, y) order."""
    edges = host.edges()
    if len(colors) != len(edges):
        raise ColoringMismatch("one color per host edge required")
    return coloring_from_triples(
        host.m, host.n, r, ((x, y, c) for (x, y), c in zip(edges, colors))
    )


@dataclass(frozen=True)
class Component:
    """A maximal connected set of one color class (order >= 2)."""

    color: int
    xs: tuple[int, ...]
    ys: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.xs) + len(self.ys)

    @property
    def min_x(self) -> int:
        return self.xs[0]

    def to_json_dict(self) -> dict:
        return {
            "color": self.color,
            "order": self.order,
            "xs": list(self.xs),
            "ys": list(self.ys),
        }


@dataclass(frozen=True)
class DoubleStar:
    """Two stars joined by the edge (center_x, center_y) in one color."""

    color: int
    center_x: int
    center_y: int
    order: int

    def to_json_dict(self) -> dict:
        return {
            "color": self.color,
            "center_x": self.center_x,
            "center_y": self.center_y,
            "order": self.order,
        }


def graph_components(g: BipartiteGraph, color: int = 0) -> list[Component]:
    """Connected components of a single (color class) graph.

    Isolated vertices are not emitted.  Components come out ordered by their
    smallest X-index.
    """
    rows = g.rows
    remaining = sum(1 << x for x, row in enumerate(rows) if row)
    comps = []
    while remaining:
        xbit = remaining & -remaining
        remaining ^= xbit
        comp_x, comp_y = xbit, rows[xbit.bit_length() - 1]
        while True:
            grew = sum(1 << x for x in bit_indices(remaining) if rows[x] & comp_y)
            if not grew:
                break
            remaining ^= grew
            comp_x |= grew
            new_y = comp_y
            for x in bit_indices(grew):
                new_y |= rows[x]
            if new_y == comp_y:
                break
            comp_y = new_y
        comps.append(
            Component(color=color, xs=tuple(bit_indices(comp_x)), ys=tuple(bit_indices(comp_y)))
        )
    return comps


def mono_components(host: BipartiteGraph, col: EdgeColoring) -> list[Component]:
    """Monochromatic components, ordered by (color, smallest X-index)."""
    col.validate_against(host)
    out = []
    for c, cls in enumerate(col.classes):
        out.extend(graph_components(cls, color=c))
    return out


def largest_mono_component(host: BipartiteGraph, col: EdgeColoring) -> Component:
    """A maximum-order monochromatic component; ties go to the first one in
    (color, smallest X-index) order."""
    if host.edge_count == 0:
        raise EmptyGraph("host has no edges")
    best = None
    for comp in mono_components(host, col):
        if best is None or comp.order > best.order:
            best = comp
    return best


def _largest_double_star_in_class(
    g: BipartiteGraph, color: int, planes: list[int]
) -> DoubleStar | None:
    """The edge (x, y) of ``g`` maximizing deg(x) + deg(y), or None.

    ``planes`` is :func:`column_planes` of ``g.rows``.  For each row the
    best partner is found by :func:`_plane_max` over the row's neighbours,
    and the lowest such y is kept.  Rows go in ascending x and only a
    strictly larger order replaces the best, so ties go to the
    lexicographically first (x, y).  A row is skipped when its degree plus
    the largest column degree cannot beat the best so far.
    """
    if g.edge_count == 0:
        return None
    top, _ = _plane_max(planes, (1 << g.n) - 1)
    best_order, best_x, best_y = 0, 0, 0
    for x, row in enumerate(g.rows):
        dx = row.bit_count()
        if not row or dx + top <= best_order:
            continue
        dy, centers = _plane_max(planes, row)
        if dx + dy > best_order:
            best_order, best_x = dx + dy, x
            best_y = (centers & -centers).bit_length() - 1
    return DoubleStar(color=color, center_x=best_x, center_y=best_y, order=best_order)


def largest_double_star(host: BipartiteGraph, col: EdgeColoring) -> DoubleStar:
    """The double star maximizing deg_c(x) + deg_c(y) over colored edges."""
    col.validate_against(host)
    if host.edge_count == 0:
        raise EmptyGraph("host has no edges")
    best = None
    for c, cls in enumerate(col.classes):
        cand = _largest_double_star_in_class(cls, c, column_planes(cls.rows))
        if cand is not None and (best is None or cand.order > best.order):
            best = cand
    return best


def uncolored_largest_double_star(g: BipartiteGraph) -> DoubleStar:
    """Largest double star of a single graph (one implicit color)."""
    star = _largest_double_star_in_class(g, 0, column_planes(g.rows))
    if star is None:
        raise EmptyGraph("graph has no edges")
    return star


def meets_conjecture_degrees(g: BipartiteGraph, r: int) -> bool:
    """True iff delta(X,Y) > (1 - 1/(r+1)) n and delta(Y,X) > (1 - 1/(r+1)) m,
    both strictly, compared in exact integer arithmetic."""
    if r < 2:
        raise ValueError("need r >= 2")
    prof = degree_profile(g)
    return (
        prof.delta_xy * (r + 1) > r * g.n
        and prof.delta_yx * (r + 1) > r * g.m
    )


# --- canonical JSON -------------------------------------------------------

def graph_json(host: BipartiteGraph, col: EdgeColoring | None = None) -> dict:
    """Canonical JSON form; triples carry colors, pairs are uncolored."""
    if col is None:
        return host.to_json_dict()
    col.validate_against(host)
    return col.to_json_dict()


def dumps_canonical(obj) -> str:
    """Byte-stable JSON text (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def json_int(value, field: str) -> int:
    """``value`` if it is a JSON integer; booleans, floats, strings and
    anything else raise GraphError instead of being coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphError(f"{field} must be an integer, got {value!r}")
    return value


def _json_edges(raw, width: int, shape: str) -> list[tuple[int, ...]]:
    if not isinstance(raw, (list, tuple)):
        raise GraphError("malformed graph JSON: edges must be a list")
    out = []
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != width:
            raise GraphError(shape)
        out.append(tuple(json_int(v, "edge field") for v in item))
    return out


def parse_graph_json(data: dict) -> tuple[BipartiteGraph, EdgeColoring | None]:
    """Inverse of :func:`graph_json`. Returns (host, coloring-or-None).

    ``m``, ``n``, ``r`` and every edge field must be JSON integers."""
    try:
        m = json_int(data["m"], "m")
        n = json_int(data["n"], "n")
        raw = data["edges"]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from exc
    if "r" in data:
        r = json_int(data["r"], "r")
        triples = _json_edges(raw, 3, "colored graph needs [x, y, c] triples")
        col = coloring_from_triples(m, n, r, triples)
        return col.union_host(), col
    pairs = _json_edges(raw, 2, "uncolored graph needs [x, y] pairs")
    return from_edge_list(m, n, pairs), None
