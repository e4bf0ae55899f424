"""The theorem registry that ``analyze`` and ``search`` share.

``THEOREMS`` holds one :class:`Theorem` per per-instance statement (gy1,
r2, conjecture, its record-only refined reading, tetel, additive): its rule
on r, its exact degree hypothesis, its target order, which conclusion it
draws and what its verdict records besides.  ``analysis.check_instance``,
``search`` and the CLI read all of it from here, so each hypothesis is
written once (the conjecture's inequality, which r2 shares at r = 2, is
``bigraph.meets_conjecture_degrees``), and ``Theorem.needs`` turns either
conclusion into one integer rule that every search kernel reads.

This module depends on ``bigraph`` alone, so ``analyze`` loads the
registry without the search engine.  It also holds ``_UNBOUNDED``, the
default search budget, which the CLI parser reads for the same reason.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .bigraph import (
    BipartiteGraph,
    Record,
    degree_profile,
    meets_conjecture_degrees,
    rat_str,
)

_UNBOUNDED = 1 << 62


class PreconditionViolated(Exception):
    """The host does not meet the checker's degree precondition."""


def _ceil_frac(value) -> int:
    f = Fraction(value)
    return -((-f.numerator) // f.denominator)


class Theorem(Record):
    """One per-instance theorem.  ``hypothesis(host, r)`` is why the host
    misses the degree hypothesis, or None; ``target(m, n, r)`` is exact.
    The conclusion is that some monochromatic component reaches the target
    order, or with ``half_half`` that one holds half of each side;
    ``needs`` gives either as one integer rule.  ``detail(m, n, r)``, if
    set, is what a verdict records besides.
    """

    name: str
    min_r: int
    max_r: int | None
    hypothesis: Callable[[BipartiteGraph, int], str | None]
    target: Callable[[int, int, int], Fraction]
    half_half: bool = False
    detail: Callable[[int, int, int], dict] | None = None

    def r_error(self, r: int) -> str | None:
        """Why the theorem says nothing about ``r`` colors, or None."""
        if self.max_r is not None and r != self.max_r:
            return f"this check is for exactly {self.max_r} colors"
        if r < self.min_r:
            return f"need r >= {self.min_r}"
        return None

    def require(self, host: BipartiteGraph, r: int, hypothesis: bool = True) -> None:
        """Raise PreconditionViolated unless the theorem speaks about r
        colors and, with ``hypothesis``, the host meets its hypothesis."""
        err = self.r_error(r) or (self.hypothesis(host, r) if hypothesis else None)
        if err:
            raise PreconditionViolated(err)

    def needs(self, m: int, n: int, r: int) -> tuple[int, int, int]:
        """The conclusion as (min X-count, min Y-count, min order): it holds
        iff some monochromatic component meets all three.  Either the order
        or both counts are 0; ``_packed`` turns it into the one
        weight test the search kernels run."""
        if self.half_half:
            return (m + 1) // 2, (n + 1) // 2, 0
        return 0, 0, _ceil_frac(self.target(m, n, r))


def _no_hypothesis(host, r) -> None:
    return None


def _complete_host(host, r) -> str | None:
    if host.is_complete():
        return None
    return "host is not a complete bipartite graph"


def _conjecture_degrees(host, r) -> str | None:
    if meets_conjecture_degrees(host, r):
        return None
    return f"minimum degrees do not strictly clear (1 - 1/{r + 1})"


def _refined_degrees(host, r) -> str | None:
    # weak degrees, strict on one side; no theorem backs this reading, so
    # its verdicts record, never certify
    prof = degree_profile(host)
    gaps = (prof.delta_xy * (r + 1) - r * host.n, prof.delta_yx * (r + 1) - r * host.m)
    if min(gaps) >= 0 and max(gaps) > 0:
        return None
    return f"minimum degrees do not clear (1 - 1/{r + 1}), one side strictly"


def _tetel_gamma(m, n, r) -> Fraction:
    """gamma = (m/n)^3 / (128 r^5), the sides swapped when m > n."""
    m, n = min(m, n), max(m, n)
    return Fraction(m**3, 128 * r**5 * n**3)


def _tetel_degrees(host, r) -> str | None:
    # the side swap moves gamma only: each side still pairs its own degree
    # with the other side's order.  Once gamma * max(m, n) <= 1 this forces
    # a complete host
    slack = 1 - _tetel_gamma(host.m, host.n, r)
    prof = degree_profile(host)
    if prof.delta_xy > slack * host.n and prof.delta_yx > slack * host.m:
        return None
    return "minimum degrees do not strictly clear (1 - gamma)"


def _additive_degrees(host, r) -> str | None:
    total = host.m + host.n
    prof = degree_profile(host)
    if host.n < host.m:
        return "expected |Y| >= |X|"
    if 4 * host.m <= total:
        return "|X| must exceed a quarter of the vertices"
    if 8 * prof.delta_xy < 8 * host.n - total:
        return "delta(X,Y) below |Y| - (m+n)/8"
    if 8 * prof.delta_yx < 8 * host.m - total:
        return "delta(Y,X) below |X| - (m+n)/8"
    return None


def _per_color(m, n, r) -> Fraction:
    return Fraction(m + n, r)


# r2 is the conjecture at r = 2: strict 2/3 degrees, target (m+n)/2
THEOREMS = {
    thm.name: thm
    for thm in (
        Theorem("gy1", 1, None, _complete_host, _per_color),
        Theorem("r2", 2, 2, _conjecture_degrees, _per_color),
        Theorem("conjecture", 2, None, _conjecture_degrees, _per_color),
        Theorem(
            "conjecture-refined", 2, None, _refined_degrees, _per_color,
            detail=lambda m, n, r: {"recorded_only": True},
        ),
        Theorem(
            "tetel", 2, None, _tetel_degrees, _per_color,
            detail=lambda m, n, r: {"gamma": rat_str(_tetel_gamma(m, n, r))},
        ),
        Theorem("additive", 2, 2, _additive_degrees, _per_color, half_half=True),
    )
}


def ComponentTargetChecker(target=None, require_complete: bool = True) -> Theorem:
    """The gy1 theorem, optionally with a fixed target and without its
    complete-host hypothesis."""
    thm = _theorem(None, target)
    if require_complete:
        return thm
    return Theorem(thm.name, thm.min_r, thm.max_r, _no_hypothesis, thm.target, thm.half_half)


def AdditiveChecker() -> Theorem:
    """The additive theorem."""
    return THEOREMS["additive"]


def _theorem(checker: Theorem | None, target) -> Theorem:
    """The theorem a search runs: gy1 unless given; ``target`` overrides
    gy1's target only, and below 2 raises ValueError."""
    thm = THEOREMS["gy1"] if checker is None else checker
    if target is None or thm.name != "gy1":
        return thm
    fixed = Fraction(target)
    if fixed <= 1:  # its ceiling is below 2
        raise ValueError("target must be at least 2")
    return Theorem(
        thm.name, thm.min_r, thm.max_r, thm.hypothesis, lambda m, n, r: fixed, thm.half_half
    )
