"""Generators for the extremal colored-bipartite constructions.

Each generator returns concrete (host, coloring) data and re-derives its
certificate (degrees, largest monochromatic component, largest double star)
from scratch with the bigraph operations rather than trusting the defining
formula.  A failed self-check raises CertificateError, which would indicate a
bug, not bad input.
"""

from __future__ import annotations

from .bigraph import (
    BipartiteGraph,
    EdgeColoring,
    Record,
    _class_components,
    _largest_double_star_in_class,
    bit_indices,
    coloring_from_triples,
    complete,
    degree_profile,
    from_rows,
)


class InvalidSpec(Exception):
    """Construction parameters outside the generator's domain."""


class CertificateError(Exception):
    """A generated object failed its recomputed self-check."""


class Certificate(Record):
    """Recomputed facts about a generated (host, coloring) pair."""

    delta_xy: int
    delta_yx: int
    largest_component: int
    largest_double_star: int


def construction_certificate(
    host: BipartiteGraph, col: EdgeColoring | None = None
) -> Certificate:
    """Certificate computed from scratch; uncolored hosts count as one color.
    A coloring is validated against its host once, then each class is read
    by the per-class kernels."""
    prof = degree_profile(host)
    if col is None:
        col = EdgeColoring(1, (host,))
    else:
        col.validate_against(host)
    largest = star = 0
    if host.edge_count:
        largest = max(comp.order for comp in _class_components(col))
        star = max(
            _largest_double_star_in_class(cls, c).order
            for c, cls in enumerate(col.classes)
            if cls.edge_count
        )
    return Certificate(
        delta_xy=prof.delta_xy,
        delta_yx=prof.delta_yx,
        largest_component=largest,
        largest_double_star=star,
    )


def cyclic_one_factorization(k: int) -> tuple[BipartiteGraph, EdgeColoring]:
    """K_{k,k} with edge (i, j) colored (i + j) mod k.

    Each color class is a perfect matching, so this is a 1-factorization.
    """
    if k < 1:
        raise InvalidSpec("need k >= 1")
    host = complete(k, k)
    col = coloring_from_triples(
        k, k, k, ((i, j, (i + j) % k) for i in range(k) for j in range(k))
    )
    return host, col


def blowup(
    pattern_host: BipartiteGraph,
    pattern_col: EdgeColoring,
    t1: int,
    t2: int,
) -> tuple[BipartiteGraph, EdgeColoring]:
    """Replace pattern vertices by t1 (X side) and t2 (Y side) clones.

    Pattern vertex p maps to clones [p*t, (p+1)*t); a pattern edge of color i
    becomes a complete K_{t1,t2} bundle of color i.
    """
    if t1 < 1 or t2 < 1:
        raise InvalidSpec("need t1, t2 >= 1")
    pattern_col.validate_against(pattern_host)
    m = pattern_host.m * t1
    n = pattern_host.n * t2
    block = (1 << t2) - 1

    def expand(row: int) -> int:
        return sum(block << (y * t2) for y in bit_indices(row))

    classes = []
    for cls in pattern_col.classes:
        rows = []
        for px in range(pattern_host.m):
            rows.extend([expand(cls.rows[px])] * t1)
        classes.append(from_rows(m, n, rows))
    col = EdgeColoring(pattern_col.r, tuple(classes))
    return col.union_host(), col


def lower_bound_construction(
    r: int, t1: int, t2: int
) -> tuple[BipartiteGraph, EdgeColoring]:
    """Sharpness host for the degree-threshold conjecture.

    Start from the cyclic 1-factorization of K_{r+1,r+1}, drop the last
    matching, and blow up by (t1, t2).  The result has both minimum degrees
    exactly at (1 - 1/(r+1)) of the opposite side, and every monochromatic
    component has order t1 + t2 = (m + n)/(r + 1).
    """
    if r < 2:
        raise InvalidSpec("need r >= 2")
    _, cyclic = cyclic_one_factorization(r + 1)
    pattern_col = EdgeColoring(r, cyclic.classes[:r])
    host, col = blowup(pattern_col.union_host(), pattern_col, t1, t2)
    cert = construction_certificate(host, col)
    if cert.delta_xy * (r + 1) != r * host.n or cert.delta_yx * (r + 1) != r * host.m:
        raise CertificateError("minimum degrees off the (1 - 1/(r+1)) boundary")
    if cert.largest_component * (r + 1) != host.m + host.n:
        raise CertificateError("largest component is not (m+n)/(r+1)")
    return host, col


def double_star_gap_construction(
    r: int, t1: int, t2: int
) -> tuple[BipartiteGraph, EdgeColoring]:
    """Host whose largest monochromatic double star trails its components.

    Blow up the cyclic 1-factorization of K_{r,r} by (t1, t2) and delete,
    inside every blown block, the matching that pairs clone i of the X
    pattern vertex with clone i of the Y pattern vertex for i < t1.  Minimum
    degrees become delta(X,Y) = n - r and delta(Y,X) >= m - r, while the
    double stars top out at t1 - 1 + t2 = (m + n)/r - 1.

    For t1 = t2 = 2 a blown block K_{2,2} minus a perfect matching falls
    apart into two edges, so the component part of the certificate is only
    reported (see the returned pair's recomputed certificate), not checked.
    """
    if r < 2:
        raise InvalidSpec("need r >= 2")
    if t1 < 2 or t1 > t2:
        raise InvalidSpec("need 2 <= t1 <= t2")
    pattern_host, pattern_col = cyclic_one_factorization(r)
    host, col = blowup(pattern_host, pattern_col, t1, t2)
    m, n = host.m, host.n
    classes = []
    for cls in col.classes:
        rows = list(cls.rows)
        for x in range(m):
            a = x % t1
            # neighbors of x in this color form one t2-block; drop clone a
            row = rows[x]
            base = (row & -row).bit_length() - 1
            rows[x] = row ^ (1 << (base + a))
        classes.append(from_rows(m, n, rows))
    col = EdgeColoring(r, tuple(classes))
    host = col.union_host()
    cert = construction_certificate(host, col)
    if cert.delta_xy != n - r:
        raise CertificateError("delta(X,Y) is not n - r")
    if cert.delta_yx < m - r:
        raise CertificateError("delta(Y,X) fell below m - r")
    if cert.largest_double_star > t1 - 1 + t2:
        raise CertificateError("double star exceeds t1 - 1 + t2")
    if (t1, t2) != (2, 2) and cert.largest_component * r != m + n:
        raise CertificateError("largest component is not (m+n)/r")
    return host, col


def complete_minus_circulant(m: int, n: int, d: int) -> BipartiteGraph:
    """K_{m,n} minus the circulant edges (i, (i+k) mod n) for k < d.

    Every X-degree equals n - d; for m = n every Y-degree does too.  A handy
    host family for degree-condition experiments.
    """
    if m < 1 or n < 1 or m > n:
        raise InvalidSpec("need 1 <= m <= n")
    if not (0 <= d <= n):
        raise InvalidSpec("need 0 <= d <= n")
    full = (1 << n) - 1
    rows = []
    for i in range(m):
        removed = 0
        for k in range(d):
            removed |= 1 << ((i + k) % n)
        rows.append(full ^ removed)
    host = from_rows(m, n, rows)
    if set(host._degrees) != {n - d}:
        raise CertificateError("X-degrees are not n - d")
    return host


def _circulant(m: int, n: int, d: int = 0) -> tuple[BipartiteGraph, None]:
    return complete_minus_circulant(m, n, d), None


# each `gen` variant: the generator it runs and the parameters it reads;
# complete is the circulant with d = 0
GEN_VARIANTS = {
    "cyclic": (cyclic_one_factorization, ("k",)),
    "lower-bound": (lower_bound_construction, ("r", "t1", "t2")),
    "double-star-gap": (double_star_gap_construction, ("r", "t1", "t2")),
    "circulant": (_circulant, ("m", "n", "d")),
    "complete": (_circulant, ("m", "n")),
}


def gen_build(variant: str, params: dict) -> tuple[BipartiteGraph, EdgeColoring | None]:
    """The (host, coloring-or-None) pair of a ``GEN_VARIANTS`` variant; any
    other variant, or a parameter the variant does not read or misses,
    raises InvalidSpec."""
    if variant not in GEN_VARIANTS:
        raise InvalidSpec(f"unknown construction variant {variant!r}")
    build, keys = GEN_VARIANTS[variant]
    extra = sorted(set(params) - set(keys))
    if extra:
        raise InvalidSpec(f"{variant} takes {', '.join(keys)}, not {', '.join(extra)}")
    missing = [key for key in keys if key not in params]
    if missing:
        raise InvalidSpec(f"{variant} needs {', '.join(missing)}")
    return build(**params)
