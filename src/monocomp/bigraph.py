"""Bipartite graphs, edge colorings, monochromatic components, double stars.

X-side vertices are 0..m-1 and Y-side vertices 0..n-1, kept as disjoint
namespaces.  Adjacency is stored as one Python int per X-vertex, used as a
bitmask over Y, which keeps neighborhood unions, component sweeps and degree
counts cheap even when a side has a few thousand vertices.

Every loop over the set bits of a mask goes through :func:`bit_indices`,
and every mask built from a list of indices through :func:`mask_of`.  Both
follow one density rule: a mask of width w is sparse while it has at most
w // ``SPARSE_RATIO`` set bits.  A sparse mask is read or built one set bit
at a time, each big-int step a pass over the mask; a dense one is read or
built through its binary digits in C, one pass over the width whatever the
number of set bits.  The row builders (:func:`from_edge_list`,
:func:`coloring_from_triples`, the sparse :meth:`BipartiteGraph.transpose`)
group their edges by row and build each row once, and the sweep that
splits a dense graph into components (:func:`_swept_components`) builds
each round's new X-vertices the same way.

A graph counts its row degrees once, when its constructor validates the
rows, builds its column degrees (:func:`column_planes`) at the first query
that reads them, and finds its component split at the first
:func:`graph_components` call; the degree queries, the reports of
``analysis`` and the certificates all read these.  A graph built from
per-row index lists (:func:`from_edge_list`, the sparse
:meth:`BipartiteGraph.transpose`) also keeps those lists, which
:meth:`BipartiteGraph.edges`, the sparse transpose and the union-find of a
sparse graph's split read instead of the rows; no other builder keeps any.
None of the four is a field, so equality, hash, repr, JSON and pickles see
only the four fields, and all are fixed by the immutable rows, so a graph
stays safe to share.

Every threshold predicate is exact (integers and fractions.Fraction, never
floats): the extremal examples sit exactly on their bounds, so rounding
would misclassify them.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from functools import cached_property
from itertools import compress, count


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


# a mask of width w is sparse while it has at most w // SPARSE_RATIO set
# bits; one with at most UNCOUNTED_STEPS set bits is read and built bit by bit
# without a count or a width check (see bit_indices and mask_of)
SPARSE_RATIO = 32
UNCOUNTED_STEPS = 8
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")
# the scan's indices below 4096, built once, so that reading them allocates
# no int (about 140 kB)
_POSITIONS = tuple(range(4096))


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending.

    The walk reads the top set bit (``bit_length``) and clears it: a few
    passes over the mask for each set bit.  The scan reads the binary
    digits once with ``compress`` in C: a pass over the width, whatever the
    number of set bits.  So the first ``UNCOUNTED_STEPS`` set bits are
    walked, and only a mask with bits left is counted (``bit_count``, a
    pass over the width): a sparse rest is walked on, a dense one scanned.
    A row of a few set bits never pays for the count, however wide.

    Microseconds per random mask, walk / scan / this function, on a shared
    2-core x86 host under Python 3.11 (the lower of two runs, +-30 %):

        density      64 bits       1024 bits     4096 bits     20000 bits
        1/1024   0.35/2.2/0.69  0.52/15/0.66    1.4/40/1.1      6/430/7
        1/64     0.26/1.8/0.42   2.3/12/2.6      10/42/11     90/440/110
        1/32     0.36/1.9/0.52   4.3/13/9.7      29/57/52    290/590/490
        1/16     0.87/2.8/1.2     12/17/16       42/47/50    350/520/640
        1/4       2.7/3.1/3.2     32/21/25      180/80/72   1700/520/600
        1/2       3.3/2.0/3.3     63/20/25      270/81/88   2500/670/640
        1          6.0/2.9/3.9   130/23/22      600/71/82   5200/810/720

    The walk still wins up to about one set bit in 16; ``SPARSE_RATIO`` is
    32 because :func:`mask_of` shares it, and its OR loses from about 1/64
    on wide rows.
    """
    out = []
    for _ in range(UNCOUNTED_STEPS):
        if not mask:
            break
        i = mask.bit_length() - 1
        out.append(i)
        mask ^= 1 << i
    if mask and mask.bit_count() * SPARSE_RATIO > mask.bit_length():
        out.reverse()
        # byte i of the digits is bit i of the mask
        return _true_indices(bin(mask)[:1:-1].encode().translate(_DIGIT_BYTES)) + out
    while mask:
        i = mask.bit_length() - 1
        out.append(i)
        mask ^= 1 << i
    out.reverse()
    return out


def _true_indices(flags) -> list[int]:
    """Indices of the true items of the sequence ``flags``, ascending, read
    by ``compress`` in C."""
    out = list(compress(_POSITIONS, flags))
    out += compress(count(len(_POSITIONS)), flags[len(_POSITIONS) :])
    return out


def mask_of(indices: list[int]) -> int:
    """The mask with bit i set for each i in the list ``indices`` (repeats
    collapse).

    The density rule of :func:`bit_indices` in reverse.  Up to
    ``UNCOUNTED_STEPS`` indices, or a sparse list (at most width //
    ``SPARSE_RATIO`` indices, the width being the largest index plus one),
    are ORed in one at a time, each OR a pass over the mask built so far.
    More set their digits in a width-long buffer that is parsed once.  Both
    ways raise ValueError on a negative index and TypeError on one that is
    no integer.  Microseconds per shuffled random index list, OR / buffer /
    this function, measured as for :func:`bit_indices`:

        density      64 bits       1024 bits     4096 bits     20000 bits
        1/1024   0.21/1.6/0.39  0.34/3.6/0.23  0.52/12/0.56    4.7/56/7.1
        1/64     0.27/1.4/0.32   1.7/5.3/2.5    7.9/15/12      96/65/97
        1/32     0.28/1.1/0.49   2.8/6.9/3.4     15/18/18     200/84/210
        1/16     0.58/1.2/0.42   4.9/6.8/6.7     31/23/25    400/120/120
        1/4       1.3/3.4/2.1     23/18/22      180/71/69   1500/310/320
        1/2       2.4/2.8/2.9     44/31/31     260/120/120  3200/580/590
        1         4.7/4.6/4.7     99/58/56     480/210/230  7000/1800/1700
    """
    if len(indices) > UNCOUNTED_STEPS:
        width = max(indices) + 1
        if len(indices) * SPARSE_RATIO > width:
            if min(indices) < 0:
                raise ValueError("negative shift count")  # as the OR path says
            digits = bytearray(b"0") * width
            for i in indices:
                digits[i] = 49  # ord("1")
            return int(digits[::-1], 2)
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


class Record:
    """Base of the result classes: a constructor, value equality, a
    field-by-field repr, immutability, a hash and the fields' JSON.

    A subclass lists its fields as class annotations, after those of the
    class it extends, with any class-body value as the field's default;
    ``_fields`` maps each field to its annotation, in constructor order.
    ``__init_subclass__`` writes the ``__init__`` from them (a class body
    that defines one raises TypeError), one ``def`` run through ``exec`` as
    ``collections.namedtuple`` writes ``__new__``: it stores each field with
    ``object.__setattr__`` and ends with ``self._check()`` if the class has
    one.  The defaults are deleted from the class; a subclass that adds no
    field keeps its parent's ``__init__``.  Equal means the same class with
    equal fields, and a record hashes its field tuple.  Pickling and
    ``copy`` fill the instance dict directly, so they need no support here.
    (``dataclasses`` would write the same methods, but importing it loads
    ``inspect`` and ``ast``, which no command otherwise needs.)
    """

    _fields: dict[str, str] = {}
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in cls.__dict__:
            raise TypeError(f"{cls.__qualname__} defines __init__, which Record writes")
        own = cls.__dict__.get("__annotations__")
        if not own:
            return
        cls._fields = {**cls._fields, **own}
        defaults = {f: cls.__dict__[f] for f in own if f in cls.__dict__}
        for f in defaults:
            delattr(cls, f)
        cls._defaults = {**cls._defaults, **defaults}
        params = [f"{f}=_defaults[{f!r}]" if f in cls._defaults else f for f in cls._fields]
        body = [f"_set(self, {f!r}, {f})" for f in cls._fields]
        if hasattr(cls, "_check"):
            body.append("self._check()")
        namespace = {"_set": object.__setattr__, "_defaults": cls._defaults}
        exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def to_json_dict(self) -> dict:
        """The fields as a JSON dict: a field annotated ``Fraction`` as its
        :func:`rat_str` text, a record as its own ``to_json_dict()`` and a
        tuple as a list, of their JSON if it holds records."""
        out = {}
        for f, annotation in self._fields.items():
            value = getattr(self, f)
            if annotation == "Fraction":
                value = rat_str(value)
            elif isinstance(value, tuple):
                value = [v.to_json_dict() if isinstance(v, Record) else v for v in value]
            elif isinstance(value, Record):
                value = value.to_json_dict()
            out[f] = value
        return out


class BipartiteGraph(Record):
    """Simple (X,Y)-bipartite graph with |X| = m, |Y| = n.

    ``rows[x]`` is the neighborhood of x as a bitmask over Y.  Besides its
    fields a graph keeps the tuple of row degrees that validation counts,
    from the first column-degree query on the column planes, from the
    first :func:`graph_components` call on its component split, and, when
    its builder listed each row's neighbors, those ascending lists
    (``_lists``, None otherwise); all follow from the rows, and the lists
    are never handed out, so instances stay immutable and safe to share
    between threads/processes.  A pickle or copy holds the four fields
    and is rebuilt, and validated again, through the constructor, so it
    keeps no planes, split or lists.
    """

    m: int
    n: int
    rows: tuple[int, ...]
    edge_count: int

    _lists = None

    def _check(self, degrees=None):
        """Validate the fields and keep the row degrees: ``degrees`` when
        the caller has counted the rows, else counted here."""
        m, n, rows = self.m, self.n, self.rows
        if m < 0 or n < 0:
            raise IndexOutOfRange(f"negative side size ({m}, {n})")
        if len(rows) != m:
            raise IndexOutOfRange("row count does not match m")
        # a negative row has its sign bit set at every position >= n
        if rows and (min(rows) < 0 or max(rows) >> n):
            x = next(x for x, row in enumerate(rows) if row < 0 or row >> n)
            raise IndexOutOfRange(f"row {x} has a neighbor outside [0, {n})")
        if degrees is None:
            degrees = tuple(map(int.bit_count, rows))
        if sum(degrees) != self.edge_count:
            raise GraphError("edge_count does not match adjacency rows")
        object.__setattr__(self, "_degrees", degrees)

    def __reduce__(self):
        # rebuilt (and validated) from the fields alone, without the planes
        # or the lists
        return self.__class__, self._values()

    def _row_indices(self):
        """The ascending neighbor list of each row: the kept lists, else
        :func:`bit_indices` of each row."""
        if self._lists is None:
            return map(bit_indices, self.rows)
        return self._lists

    @cached_property
    def _planes(self) -> list[int]:
        """:func:`column_planes` of the rows, built at the first call that
        reads column degrees."""
        return column_planes(self.rows)

    @cached_property
    def _components(self) -> tuple:
        """The component split as ``(xs, ys)`` pairs, found at the first
        :func:`graph_components` call: by :func:`_linked_components` when
        the graph is sparse (m n > 512 E), else by :func:`_swept_components`."""
        if self.m * self.n > 512 * self.edge_count:
            return _linked_components(self)
        return _swept_components(self)

    def degree(self, x: int) -> int:
        return self._degrees[x]

    def has_edge(self, x: int, y: int) -> bool:
        return 0 <= x < self.m and (self.rows[x] >> y) & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        """All edges sorted by (x, y), read from the kept lists of a graph
        built by :func:`from_edge_list` or the sparse :meth:`transpose`,
        else from :func:`bit_indices` of each row."""
        return [(x, y) for x, ys in enumerate(self._row_indices()) for y in ys]

    def y_degrees(self) -> list[int]:
        """Degree of every Y-vertex, indexed by y.

        The rows are summed once into :func:`column_planes`, where bit y of
        plane j is bit j of deg(y); each call reads the degrees into a new
        list with one pass over the set bits of each plane."""
        return plane_counts(self._planes, self.n)

    def transpose(self) -> "BipartiteGraph":
        """Swap the roles of X and Y.

        Sparse graphs (64 E < m n) list each column's X-vertices from the
        rows' index lists (the kept ones, else :func:`bit_indices`), build
        each column once, and keep the column lists, ascending by
        construction, with their lengths as the degrees, so the result's
        :meth:`edges` and transpose read no row.  Denser ones spread each
        row to one byte per column (``format``, ``translate``), OR row k of
        each group of eight in at bit k, and read column y as a strided
        slice of the ceil(m/8) n-byte grid: C-level work per cell, not
        Python work per edge; that result keeps no lists.  On random
        2000x2000, 500x4000 and 4000x500 graphs the byte grid takes 0.78x,
        0.74x and 1.02x the time of the walk at density 1/64, and
        1.28x-1.38x at 1/128; on 200x200 the two tie near 1/32."""
        m, n = self.m, self.n
        if 64 * self.edge_count < m * n:
            xs_of = [[] for _ in range(n)]
            for x, ys in enumerate(self._row_indices()):
                for y in ys:
                    xs_of[y].append(x)
            cols, degrees = tuple(map(mask_of, xs_of)), tuple(map(len, xs_of))
            return _built(n, m, cols, self.edge_count, degrees, xs_of)
        spread = f"0{n}b"
        groups = []
        for g in range(0, m, 8):
            word = 0
            for k, row in enumerate(self.rows[g : g + 8]):
                cells = format(row, spread).encode().translate(_DIGIT_BYTES)
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


def _plane_min(planes: list[int], mask: int) -> int:
    """The smallest count among the columns in a non-empty ``mask``.
    Descends from the top plane, keeping the columns that have the current
    bit clear whenever any of them do, so a column clear in every plane
    (count 0) wins."""
    value = 0
    for j in range(len(planes) - 1, -1, -1):
        miss = mask & ~planes[j]
        if miss:
            mask = miss
        else:
            value |= 1 << j
    return value


def _built(m: int, n: int, rows: tuple, edge_count: int, degrees: tuple, lists=None):
    """A validated graph whose builder has counted its row ``degrees``, which
    the constructor would count again (on wide rows the count is most of
    the build).  The graph keeps ``lists``, the ascending neighbor lists of
    its rows, when the builder has them."""
    graph = object.__new__(BipartiteGraph)
    for field, value in zip(BipartiteGraph._fields, (m, n, rows, edge_count)):
        object.__setattr__(graph, field, value)
    graph._check(degrees)
    object.__setattr__(graph, "_lists", lists)
    return graph


def from_rows(m: int, n: int, rows) -> BipartiteGraph:
    """Build a graph directly from per-X bitmask rows (validated), counting
    each row once: the degrees give the edge count and go to the check.
    The graph keeps no index lists."""
    rows = tuple(rows)
    degrees = tuple(map(int.bit_count, rows))
    return _built(m, n, rows, sum(degrees), degrees)


def from_edge_list(m: int, n: int, edges) -> BipartiteGraph:
    """Build a graph from (x, y) pairs; rejects out-of-range and duplicates.

    The pairs are grouped by x, each row's neighbors are sorted without
    repeats (as ints, ``operator.index``), and each row is built once; the
    graph keeps these lists, and their lengths are its degrees.  A
    duplicate leaves fewer neighbors than pairs, which the graph's edge
    count check rejects.  On any error :func:`_check_triples` raises the
    error for the first bad pair in input order, or, if no pair is bad,
    the build's own."""
    edges = list(edges)
    try:
        ys_of = [[] for _ in range(m)]
        for x, y in edges:
            if not (0 <= x < m and 0 <= y < n):
                raise IndexError  # named by _check_triples
            ys_of[x].append(y)
        lists = [sorted(set(map(operator.index, ys))) for ys in ys_of]
        return _built(m, n, tuple(map(mask_of, lists)), len(edges), tuple(map(len, lists)), lists)
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


class DegreeProfile(Record):
    """Exact minimum and average degrees in both directions."""

    delta_xy: int
    delta_yx: int
    avg_xy: Fraction
    avg_yx: Fraction


def degree_profile(g: BipartiteGraph) -> DegreeProfile:
    if g.m < 1 or g.n < 1:
        raise EmptyGraph("degree profile needs both sides non-empty")
    delta_xy = min(g._degrees)
    delta_yx = _plane_min(g._planes, (1 << g.n) - 1)
    return DegreeProfile(
        delta_xy=delta_xy,
        delta_yx=delta_yx,
        avg_xy=Fraction(g.edge_count, g.m),
        avg_yx=Fraction(g.edge_count, g.n),
    )


class EdgeColoring(Record):
    """A partition of a host's edges into r color classes.

    ``classes[c]`` is a BipartiteGraph on the same vertex sets holding
    exactly the color-c edges.  Classes must be pairwise edge-disjoint;
    equality of the union with a specific host is checked separately by
    :meth:`validate_against`.
    """

    r: int
    classes: tuple[BipartiteGraph, ...]

    def _check(self):
        r, classes = self.r, self.classes
        if r < 1:
            raise ColoringMismatch("need at least one color")
        if len(classes) != r:
            raise ColoringMismatch("class count does not match r")
        m, n = classes[0].m, classes[0].n
        for cls in classes:
            if cls.m != m or cls.n != n:
                raise ColoringMismatch("color classes disagree on (m, n)")
        live = self._live()
        for x in range(m):
            seen = 0
            for cls in live:
                row = cls.rows[x]
                if seen & row:
                    y = (seen & row).bit_length() - 1
                    raise DuplicateEdge(f"edge ({x}, {y}) appears in two colors")
                seen |= row

    def _live(self) -> list[BipartiteGraph]:
        """The classes that have edges: the unused colors of a witness share
        one empty class, so per-row walks skip them and cost O(r + edges)."""
        return [cls for cls in self.classes if cls.edge_count]

    @property
    def m(self) -> int:
        return self.classes[0].m

    @property
    def n(self) -> int:
        return self.classes[0].n

    def _union_rows(self) -> tuple[int, ...]:
        rows = (0,) * self.m
        for cls in self._live():
            rows = tuple(map(operator.or_, rows, cls.rows))
        return rows

    def union_host(self) -> BipartiteGraph:
        """The underlying host graph (union of the classes)."""
        return from_rows(self.m, self.n, self._union_rows())

    def validate_against(self, host: BipartiteGraph) -> None:
        if (host.m, host.n) != (self.m, self.n):
            raise ColoringMismatch("host and coloring disagree on (m, n)")
        rows = self._union_rows()
        if rows != host.rows:
            x = next(x for x, (a, b) in enumerate(zip(rows, host.rows)) if a != b)
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
            if cls.edge_count
            for x, row in enumerate(cls.rows)
            for y in bit_indices(row)
        )

    def transpose(self) -> "EdgeColoring":
        empty = BipartiteGraph(self.n, self.m, (0,) * self.n, 0)
        classes = tuple(cls.transpose() if cls.edge_count else empty for cls in self.classes)
        return EdgeColoring(self.r, classes)

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


class Component(Record):
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
        return {**super().to_json_dict(), "order": self.order}


class DoubleStar(Record):
    """Two stars joined by the edge (center_x, center_y) in one color."""

    color: int
    center_x: int
    center_y: int
    order: int


def graph_components(g: BipartiteGraph, color: int = 0) -> list[Component]:
    """Connected components of a single (color class) graph, as records of
    ``color``.

    Isolated vertices are not emitted.  Components come out ordered by their
    smallest X-index, each with its X- and Y-vertices ascending.  A graph
    finds its split at the first call and keeps it; each call wraps the
    kept split in new records.  A sparse graph (m n > 512 E) is split by a
    union-find over its rows' index lists (:func:`_linked_components`),
    one step per edge, a denser one by a bit sweep
    (:func:`_swept_components`), where each new component ANDs every
    remaining row, so the sweep's cost grows with the number of components
    times the width of the rows.  Milliseconds per split of a random
    graph, sweep / union-find over kept lists / union-find over
    :func:`bit_indices` of each row (a graph from :func:`from_rows`), the
    least of 3-7 calls on a shared 2-core x86 host under Python 3.11:

        host          edges    m n / E   components        ms
        20000x20000   80000     5000          29        73/25/64
        20000x20000   40000    10000        1074       740/19/53
        3000x3000      2000     4500         918       120/1.2/2.6
        2000x2000      4000     1000         107       4.4/1.0/2.5
        2000x2000      8000      500           2       1.4/1.4/3.9
        2000x2000     15600      256           1       1.1/2.2/6.1
        4000x500       3900      513           5       1.8/1.3/2.8
        500x4000       3900      513           4      0.56/0.59/1.6
        4000x500      15600      128           1       1.6/2.5/6.3
        500x4000      15600      128           1      0.36/1.6/4.7

    Near m n = 512 E the sweep and the union-find over kept lists tie;
    :func:`bit_indices` costs the union-find about 2.5x on wide rows.
    """
    return [Component(color=color, xs=xs, ys=ys) for xs, ys in g._components]


def _linked_components(g: BipartiteGraph) -> tuple:
    """The split of a sparse graph: a union-find over the rows' index lists
    (:meth:`BipartiteGraph._row_indices`), one step per edge (Tarjan, J. ACM
    22, 1975).

    ``owner[y]`` is set by the first row that reaches Y-vertex y, and each
    later row at y is linked with its root.  Rows are read in ascending x
    and the larger root is linked under the smaller, so each parent is
    below its child and a root is the least X-vertex of its component; one
    ascending pass then sets every parent to its root.  X and then Y are
    collected in ascending order, so components come out by smallest
    X-index with both sides ascending."""
    parent = list(range(g.m))
    owner = [-1] * g.n
    for x, ys in enumerate(g._row_indices()):
        root = x  # no earlier row links to x
        for y in ys:
            v = owner[y]
            if v < 0:
                owner[y] = root
                continue
            while parent[v] != v:  # path halving
                parent[v] = v = parent[parent[v]]
            if v < root:
                parent[root] = root = v
            elif v > root:
                parent[v] = root
    for x in range(g.m):
        parent[x] = parent[parent[x]]
    split = {}
    for x, degree in enumerate(g._degrees):
        if degree:
            split.setdefault(parent[x], ([], []))[0].append(x)
    for y, v in enumerate(owner):
        if v >= 0:
            split[parent[v]][1].append(y)
    return tuple([(tuple(xs), tuple(ys)) for xs, ys in split.values()])


def _swept_components(g: BipartiteGraph) -> tuple:
    """The split of a dense graph: a bit sweep from the least X-vertex left.
    Each round ANDs every remaining row with the component's Y-mask and ORs
    in the rows that meet it; the round's new X-vertices are built into one
    mask by :func:`mask_of`."""
    rows = g.rows
    remaining = mask_of(_true_indices(rows))
    comps = []
    while remaining:
        xbit = remaining & -remaining
        remaining ^= xbit
        comp_x, comp_y = xbit, rows[xbit.bit_length() - 1]
        while True:
            grew = [x for x in bit_indices(remaining) if rows[x] & comp_y]
            if not grew:
                break
            grown = mask_of(grew)
            remaining ^= grown
            comp_x |= grown
            new_y = comp_y
            for x in grew:
                new_y |= rows[x]
            if new_y == comp_y:
                break
            comp_y = new_y
        comps.append((tuple(bit_indices(comp_x)), tuple(bit_indices(comp_y))))
    return tuple(comps)


def mono_components(host: BipartiteGraph, col: EdgeColoring) -> list[Component]:
    """Monochromatic components, ordered by (color, smallest X-index)."""
    col.validate_against(host)
    return _class_components(col)


def _class_components(col: EdgeColoring) -> list[Component]:
    """:func:`mono_components` of a coloring already validated against its
    host."""
    out = []
    for c, cls in enumerate(col.classes):
        out.extend(graph_components(cls, color=c))
    return out


def largest_mono_component(host: BipartiteGraph, col: EdgeColoring) -> Component:
    """A maximum-order monochromatic component; ties go to the first one in
    (color, smallest X-index) order."""
    if host.edge_count == 0:
        raise EmptyGraph("host has no edges")
    return max(mono_components(host, col), key=lambda comp: comp.order)


def _largest_double_star_in_class(g: BipartiteGraph, color: int) -> DoubleStar | None:
    """The edge (x, y) of ``g`` maximizing deg(x) + deg(y), or None.

    For each row the best partner is found by :func:`_plane_max` over the
    graph's column planes and the row's neighbours, and the lowest such y
    is kept.  Rows go in ascending x and only a strictly larger order
    replaces the best, so ties go to the lexicographically first (x, y).  A
    row is skipped when its degree plus the largest column degree cannot
    beat the best so far.
    """
    if g.edge_count == 0:
        return None
    planes = g._planes
    top, _ = _plane_max(planes, (1 << g.n) - 1)
    best_order, best_x, best_y = 0, 0, 0
    for x, (row, dx) in enumerate(zip(g.rows, g._degrees)):
        if not row or dx + top <= best_order:
            continue
        dy, centers = _plane_max(planes, row)
        if dx + dy > best_order:
            best_order, best_x = dx + dy, x
            best_y = (centers & -centers).bit_length() - 1
    return DoubleStar(color=color, center_x=best_x, center_y=best_y, order=best_order)


def largest_double_star(host: BipartiteGraph, col: EdgeColoring) -> DoubleStar:
    """The double star maximizing deg_c(x) + deg_c(y) over colored edges;
    ties go to the first one in (color, x, y) order."""
    col.validate_against(host)
    if host.edge_count == 0:
        raise EmptyGraph("host has no edges")
    stars = (_largest_double_star_in_class(cls, c) for c, cls in enumerate(col.classes))
    return max(filter(None, stars), key=lambda star: star.order)


def uncolored_largest_double_star(g: BipartiteGraph) -> DoubleStar:
    """Largest double star of a single graph (one implicit color)."""
    star = _largest_double_star_in_class(g, 0)
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
