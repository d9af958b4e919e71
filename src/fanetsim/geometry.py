"""Circle-intersection geometry and the per-hop progress distribution.

A greedy forwarder at distance ``d`` from the destination can only gain
ground through relays inside the lens formed by its transmission disk
(radius ``r``) and the disk of radius ``d`` around the destination.  With
``n_nodes`` relay candidates placed uniformly on an ``area_side`` square,
the best achievable progress per hop has a closed-form distribution built
on that lens area; everything in this module is a pure function of its
arguments.

:func:`expected_progress` integrates :func:`progress_cdf`, which reads
the lens through the private ``_lens_area`` on plain floats: the
distribution's fields are validated once when it is built, so no
:class:`LensParams` is built or checked per integrand evaluation.
:func:`lens_area` is the public, validating entry to the same formula.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "LensParams",
    "ProgressDistribution",
    "QuadratureError",
    "adaptive_quadrature",
    "expected_progress",
    "lens_area",
    "progress_cdf",
    "progress_tail",
]

# Relative slack for pre-condition checks on lengths that arrive through
# float arithmetic (e.g. x = d - r computed by a caller).
_REL_SLACK = 1e-9


class QuadratureError(RuntimeError):
    """Adaptive quadrature exhausted its panel budget before converging."""


def _clamp(v: float, lo: float, hi: float) -> float:
    return lo if v < lo else hi if v > hi else v


def _check_node_count(n, minimum: int) -> None:
    """Reject a node count that is a bool, not integral, or below ``minimum``.

    An integral float such as 10.0 passes, as it does for an ``n_nodes``
    sweep value in the simulation harness.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Real) or not float(n).is_integer():
        raise ValueError(f"n_nodes must be an integer, got {n!r}")
    if n < minimum:
        raise ValueError(f"n_nodes must be >= {minimum}, got {n!r}")


@dataclass(frozen=True)
class LensParams:
    """Two circles with center separation ``d`` and radii ``r_big``, ``r_small``."""

    d: float
    r_big: float
    r_small: float

    def __post_init__(self) -> None:
        for name in ("d", "r_big", "r_small"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")


def lens_area(p: LensParams) -> float:
    """Intersection area of the two circles described by ``p``.

    Disjoint and contained configurations are resolved by early returns;
    the trigonometric form is only evaluated for proper intersections,
    with its arc-cosine arguments and radicand clamped so that exact
    tangency inputs cannot produce NaN through round-off.
    """
    return _lens_area(p.d, p.r_big, p.r_small)


def _lens_area(d: float, rb: float, rs: float) -> float:
    """:func:`lens_area` on plain floats the caller has already validated."""
    if d <= 0.0:
        raise ValueError(f"center separation must be > 0, got {d!r}")
    if d + rb <= rs:  # big circle entirely inside the small one
        return math.pi * rb * rb
    if d + rs <= rb:  # small circle entirely inside the big one
        return math.pi * rs * rs
    if rs <= d - rb or rs == 0.0 or rb == 0.0:  # disjoint (or degenerate)
        return 0.0
    a1 = _clamp((d * d + rb * rb - rs * rs) / (2.0 * d * rb), -1.0, 1.0)
    a2 = _clamp((d * d + rs * rs - rb * rb) / (2.0 * d * rs), -1.0, 1.0)
    radicand = (rb - d + rs) * (d - rb + rs) * (d + rb - rs) * (d + rb + rs)
    if radicand < 0.0:
        radicand = 0.0
    area = (
        rb * rb * math.acos(a1)
        + rs * rs * math.acos(a2)
        - 0.5 * math.sqrt(radicand)
    )
    # Round-off guard only: mathematically 0 <= area <= min of the disk areas.
    return _clamp(area, 0.0, math.pi * min(rb, rs) ** 2)


@dataclass(frozen=True)
class ProgressDistribution:
    """Distribution of the distance gained by the best single greedy hop.

    ``d`` is the sender's current distance to the destination, ``r`` the
    transmission radius, and the ``n_nodes`` relay candidates are i.i.d.
    uniform on an ``area_side`` x ``area_side`` square.  The distribution
    is mixed: an atom at zero progress (empty lens) plus a continuous part
    on (0, r], so the atom is kept explicit as :attr:`p_zero` instead of
    being folded into a density.
    """

    d: float
    r: float
    n_nodes: int
    area_side: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.d) and self.d > 0.0):
            raise ValueError(f"d must be finite and > 0, got {self.d!r}")
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise ValueError(f"r must be finite and > 0, got {self.r!r}")
        _check_node_count(self.n_nodes, 1)
        if not (math.isfinite(self.area_side) and self.area_side > 0.0):
            raise ValueError(
                f"area_side must be finite and > 0, got {self.area_side!r}"
            )

    @property
    def p_zero(self) -> float:
        """Probability that no candidate lands in the full progress lens."""
        return progress_tail(self, self.d)


def progress_tail(dist: ProgressDistribution, x: float) -> float:
    """P[remaining distance after the hop >= x].

    Valid for x in [d - r, d]; x below zero is equivalent to x = 0 since
    remaining distance is non-negative.
    """
    d, r = dist.d, dist.r
    slack = _REL_SLACK * max(d, r)
    # Written so that a NaN x fails the test too.
    if not (d - r - slack <= x <= d + slack):
        raise ValueError(f"x={x!r} outside [d - r, d] = [{d - r!r}, {d!r}]")
    # d and r were checked by ProgressDistribution and x_eff lies in [0, d],
    # so the lens needs no LensParams validation on this hot path.
    area = _lens_area(d, r, _clamp(x, 0.0, d))
    base = _clamp(1.0 - area / (dist.area_side * dist.area_side), 0.0, 1.0)
    return base ** dist.n_nodes


def progress_cdf(dist: ProgressDistribution, y: float) -> float:
    """P[progress <= y]; piecewise over y < 0, [0, r], and y > r."""
    if y < 0.0:
        return 0.0
    if y > dist.r:
        return 1.0
    return progress_tail(dist, max(dist.d - y, 0.0))


def expected_progress(
    dist: ProgressDistribution,
    rel_tol: float = 1e-9,
    max_panels: int = 10_000,
) -> float:
    """Mean progress per hop: r minus the integral of the CDF over [0, r].

    Raises :class:`QuadratureError` if the adaptive quadrature cannot reach
    ``rel_tol`` within ``max_panels`` panels.
    """
    integral = adaptive_quadrature(
        lambda y: progress_cdf(dist, y),
        0.0,
        dist.r,
        rel_tol=rel_tol,
        abs_tol=1e-12 * dist.r,
        max_panels=max_panels,
    )
    return dist.r - integral


def adaptive_quadrature(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-9,
    abs_tol: float = 0.0,
    max_panels: int = 10_000,
) -> float:
    """Globally adaptive Simpson quadrature of ``f`` over [a, b].

    Keeps a worst-panel-first queue; each panel carries the Richardson
    error estimate |S_halved - S_whole| / 15 from comparing its one-panel
    Simpson rule against the two-half refinement.  Stops once the summed
    error estimate drops below max(rel_tol * |integral|, abs_tol), and
    raises :class:`QuadratureError` when ``max_panels`` panels are not
    enough.  The integrand must be finite on [a, b]; it is smooth in all
    uses here, but sharp interior knees are handled by the adaptivity.
    """
    if b < a:
        raise ValueError(f"integration bounds reversed: [{a!r}, {b!r}]")
    if b == a:
        return 0.0

    def simpson(flo: float, fmid: float, fhi: float, width: float) -> float:
        return width * (flo + 4.0 * fmid + fhi) / 6.0

    def make_panel(lo: float, mid: float, hi: float,
                   flo: float, fmid: float, fhi: float) -> tuple:
        coarse = simpson(flo, fmid, fhi, hi - lo)
        lq = 0.5 * (lo + mid)
        rq = 0.5 * (mid + hi)
        flq = f(lq)
        frq = f(rq)
        fine = simpson(flo, flq, fmid, mid - lo) + simpson(fmid, frq, fhi, hi - mid)
        err = abs(fine - coarse) / 15.0
        value = fine + (fine - coarse) / 15.0  # Richardson extrapolation
        return (lo, lq, mid, rq, hi, flo, flq, fmid, frq, fhi, value, err)

    mid = 0.5 * (a + b)
    root = make_panel(a, mid, b, f(a), f(mid), f(b))
    total = root[10]
    total_err = root[11]
    n_panels = 1
    counter = 0  # heap tiebreaker; panels are never compared directly
    heap = [(-root[11], counter, root)]

    while True:
        if total_err <= max(rel_tol * abs(total), abs_tol):
            return total
        if n_panels >= max_panels:
            raise QuadratureError(
                f"no convergence to rel_tol={rel_tol:g} within "
                f"{max_panels} panels (error estimate {total_err:g}, "
                f"integral {total:g})"
            )
        _, _, panel = heapq.heappop(heap)
        lo, lq, mid, rq, hi, flo, flq, fmid, frq, fhi, value, err = panel
        child_l = make_panel(lo, lq, mid, flo, flq, fmid)
        child_r = make_panel(mid, rq, hi, fmid, frq, fhi)
        total += child_l[10] + child_r[10] - value
        total_err += child_l[11] + child_r[11] - err
        for child in (child_l, child_r):
            counter += 1
            heapq.heappush(heap, (-child[11], counter, child))
        n_panels += 1
