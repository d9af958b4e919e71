"""Circle-intersection geometry and the per-hop progress distribution.

A greedy forwarder at distance ``d`` from the destination can only gain
ground through relays inside the lens formed by its transmission disk
(radius ``r``) and the disk of radius ``d`` around the destination.  With
``n_nodes`` relay candidates placed uniformly on an ``area_side`` square,
the best achievable progress per hop has a closed-form distribution built
on that lens area; everything in this module is a pure function of its
arguments.

:func:`expected_progress` integrates :func:`progress_cdf`, bound to its
distribution once per quadrature.  A :class:`ProgressDistribution`
validates its fields and computes the sums and products of ``d``, ``r``
and ``area_side`` that the integrand reads once, when it is built, the
disk cap ``pi * r**2`` among them.  The one lens formula, the private
``_lens``, takes those terms and the small radius; :func:`lens_area` is
its public, validating entry.  :func:`progress_tail` and
:func:`progress_cdf` share one private tail kernel; only the tail checks
its ``x`` against [d - r, d], since a CDF ``y`` in [0, r] puts ``d - y``
there.  :func:`adaptive_quadrature` hands each split panel's two half
Simpson sums to its children as their one-panel sums, so it forms every
sum once and returns, bit for bit, the float of the rule that formed each
child's sum again from the same points.
"""

from __future__ import annotations

import functools
import heapq
import math
import numbers
import sys
from dataclasses import dataclass, field
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


def _check_node_count(n, minimum: int) -> None:
    """Reject a node count that is a bool, not integral, below ``minimum``
    or above every float (corridors raise floats to its power); an int is
    compared exactly, never converted.  An integral float such as 10.0 passes.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Real) or not (
        isinstance(n, numbers.Integral) or float(n).is_integer()
    ):
        raise ValueError(f"n_nodes must be an integer, got {n!r}")
    if n < minimum:
        raise ValueError(f"n_nodes must be >= {minimum}, got {n!r}")
    if n > sys.float_info.max:
        raise ValueError(f"n_nodes must be <= {sys.float_info.max!r}, got {n!r}")


def _check_length(name: str, v) -> None:
    """Reject a length unless it is finite and > 0, its square is a normal
    float and twice that (a squared diagonal) is finite."""
    if not 0.0 < v < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {v!r}")
    if not (v * v >= sys.float_info.min and 2.0 * v * v < math.inf):
        raise ValueError(f"{name}={v!r} is out of range: {name}**2 must be "
                         f"a normal float and 2*{name}**2 finite")


def _check_lens_length(name: str, v) -> None:
    """:func:`_check_length`, and also reject a length whose fourth power is
    not a normal float or whose triple's fourth power overflows: the lens
    radicand multiplies four sums of up to three such lengths."""
    _check_length(name, v)
    v4 = v * v * v * v
    if not (v4 >= sys.float_info.min and 81.0 * v4 < math.inf):
        raise ValueError(f"{name}={v!r} is out of range: {name}**4 must be "
                         f"a normal float and (3*{name})**4 finite")


@dataclass(frozen=True)
class LensParams:
    """Two circles with center separation ``d`` and radii ``r_big``, ``r_small``.

    ``d`` must pass the lens length check.  A radius may be 0 or as small
    as a float goes (the formula's early returns catch every radius too
    small to divide by), but not so large that its triple's fourth power
    overflows.
    """

    d: float
    r_big: float
    r_small: float

    def __post_init__(self) -> None:
        _check_lens_length("d", self.d)
        for name in ("r_big", "r_small"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
            if 81.0 * v * v * v * v == math.inf:
                raise ValueError(f"{name}={v!r} is out of range: "
                                 f"(3*{name})**4 must be finite")


def lens_area(p: LensParams) -> float:
    """Intersection area of the two circles described by ``p``.

    Disjoint and contained configurations are resolved by early returns;
    the trigonometric form is only evaluated for proper intersections,
    with its arc-cosine arguments and radicand clamped so that exact
    tangency inputs cannot produce NaN through round-off.
    """
    return _lens(_lens_terms(p.d, p.r_big), p.r_small)


def _lens_terms(d: float, rb: float) -> tuple:
    """The sums and products of ``d`` and ``rb`` that :func:`_lens` reads,
    with the disk cap ``pi * rb**2`` of every ``rs`` >= ``rb``."""
    return (d, rb, d + rb, d - rb, rb - d, d * d + rb * rb, 2.0 * d * rb,
            d * d, rb * rb, 2.0 * d, math.pi * rb ** 2)


def _lens(t: tuple, rs: float) -> float:
    """Lens area from the terms ``t`` of a validated ``d`` > 0 and ``rb``, and
    ``rs`` >= 0: the plain formula's operations in its order, bit for bit,
    with the parts free of ``rs`` read off ``t``."""
    d, rb, d_plus_rb, d_minus_rb, rb_minus_d, dd_rr, two_d_rb, dd, rr, two_d, rb_cap = t
    if d_plus_rb <= rs:  # big circle entirely inside the small one
        return math.pi * rb * rb
    if d + rs <= rb:  # small circle entirely inside the big one
        return math.pi * rs * rs
    if rs <= d_minus_rb or rs == 0.0 or rb == 0.0:  # disjoint (or degenerate)
        return 0.0
    ss = rs * rs
    a1 = (dd_rr - ss) / two_d_rb
    a1 = -1.0 if a1 < -1.0 else 1.0 if a1 > 1.0 else a1
    a2 = (dd + ss - rr) / (two_d * rs)
    a2 = -1.0 if a2 < -1.0 else 1.0 if a2 > 1.0 else a2
    radicand = (rb_minus_d + rs) * (d_minus_rb + rs) * (d_plus_rb - rs) * (d_plus_rb + rs)
    if radicand < 0.0:
        radicand = 0.0
    area = rr * math.acos(a1) + ss * math.acos(a2) - 0.5 * math.sqrt(radicand)
    if area < 0.0:  # round-off guards: mathematically 0 <= area <= min disk area
        return 0.0
    cap = math.pi * rs ** 2 if rs < rb else rb_cap  # not rs * rs: it can differ
    return cap if area > cap else area


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
    # (lens terms of d and r, area_side squared, low and high limit of x)
    _terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_lens_length("d", self.d)
        _check_lens_length("r", self.r)
        _check_length("area_side", self.area_side)
        _check_node_count(self.n_nodes, 1)
        d, r = self.d, self.r
        slack = _REL_SLACK * max(d, r)
        terms = (_lens_terms(d, r), self.area_side * self.area_side,
                 d - r - slack, d + slack)
        object.__setattr__(self, "_terms", terms)

    @property
    def p_zero(self) -> float:
        """Probability that no candidate lands in the full progress lens."""
        return progress_tail(self, self.d)


def progress_tail(dist: ProgressDistribution, x: float) -> float:
    """P[remaining distance after the hop >= x].

    Valid for x in [d - r, d]; x below zero is equivalent to x = 0 since
    remaining distance is non-negative.
    """
    _, _, lo, hi = dist._terms
    d = dist.d
    # Written so that a NaN x fails the test too.
    if not (lo <= x <= hi):
        raise ValueError(f"x={x!r} outside [d - r, d] = [{d - dist.r!r}, {d!r}]")
    return _tail(dist, 0.0 if x < 0.0 else d if x > d else x)


def progress_cdf(dist: ProgressDistribution, y: float) -> float:
    """P[progress <= y]; piecewise over y < 0, [0, r], and y > r.  A NaN y
    raises ``ValueError``."""
    if 0.0 <= y <= dist.r:  # then 0 <= x <= d once x is clamped at 0
        x = dist.d - y
        return _tail(dist, 0.0 if x < 0.0 else x)
    if y < 0.0:
        return 0.0
    if y > dist.r:
        return 1.0
    raise ValueError(f"y={y!r} is not a number")


def _tail(dist: ProgressDistribution, rs: float) -> float:
    """P[remaining distance >= rs] for an ``rs`` in [0, d]: the tail's
    arithmetic, shared by :func:`progress_tail` and :func:`progress_cdf`."""
    lens, area_sq, _, _ = dist._terms
    base = 1.0 - _lens(lens, rs) / area_sq
    base = 0.0 if base < 0.0 else 1.0 if base > 1.0 else base
    return base ** dist.n_nodes


def expected_progress(dist: ProgressDistribution) -> float:
    """Mean progress per hop: r minus the integral of the CDF over [0, r],
    to :func:`adaptive_quadrature`'s default tolerance and panel budget and
    an absolute tolerance of 1e-12 r.

    Raises :class:`QuadratureError` if the quadrature does not converge.
    """
    # Bound here, not at import, so a wrapper installed on the module
    # global before this call sees every integrand point.
    integral = adaptive_quadrature(
        functools.partial(progress_cdf, dist), 0.0, dist.r, abs_tol=1e-12 * dist.r
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

    A split panel hands each child its half's Simpson sum as the child's
    one-panel sum, so every sum is formed once; the result is, bit for
    bit, the float of the rule that formed each child's one-panel sum
    afresh from the same points.  Raises ``ValueError`` naming the
    argument, before any work, for a NaN or infinite ``a`` or ``b``, a
    NaN or negative tolerance, or ``max_panels`` < 1.
    """
    for name, v in (("a", a), ("b", b)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    for name, v in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not v >= 0.0:
            raise ValueError(f"{name} must be >= 0, got {v!r}")
    if not max_panels >= 1:
        raise ValueError(f"max_panels must be >= 1, got {max_panels!r}")
    if b < a:
        raise ValueError(f"integration bounds reversed: [{a!r}, {b!r}]")
    if b == a:
        return 0.0

    # A panel [lo, hi] holds f at lo, its quarter points lq and rq, its
    # midpoint mid and hi, and the Simpson sums of its halves.
    lo, hi = a, b
    mid = 0.5 * (a + b)
    flo, fmid, fhi = f(a), f(mid), f(b)
    coarse = (hi - lo) * (flo + 4.0 * fmid + fhi) / 6.0
    lq = 0.5 * (lo + mid)
    rq = 0.5 * (mid + hi)
    flq = f(lq)
    frq = f(rq)
    left = (mid - lo) * (flo + 4.0 * flq + fmid) / 6.0
    right = (hi - mid) * (fmid + 4.0 * frq + fhi) / 6.0
    fine = left + right
    err = abs(fine - coarse) / 15.0
    total = fine + (fine - coarse) / 15.0  # Richardson extrapolation
    total_err = err
    n_panels = 1
    counter = 0  # heap tiebreaker; the panel fields are never compared
    heap = [(-err, counter, lo, lq, mid, rq, hi, flo, flq, fmid, frq, fhi,
             left, right, total, err)]

    while True:
        bound = rel_tol * abs(total)
        if total_err <= (abs_tol if abs_tol > bound else bound):
            return total
        if n_panels >= max_panels:
            raise QuadratureError(
                f"no convergence to rel_tol={rel_tol:g} within "
                f"{max_panels} panels (error estimate {total_err:g}, "
                f"integral {total:g})"
            )
        (_, _, lo, lq, mid, rq, hi, flo, flq, fmid, frq, fhi,
         left, right, value, err) = heapq.heappop(heap)
        # The left child [lo, mid] and the right child [mid, hi], each
        # with its one-panel sum from this panel.
        llq = 0.5 * (lo + lq)
        lrq = 0.5 * (lq + mid)
        fllq = f(llq)
        flrq = f(lrq)
        ll = (lq - lo) * (flo + 4.0 * fllq + flq) / 6.0
        lr = (mid - lq) * (flq + 4.0 * flrq + fmid) / 6.0
        fine = ll + lr
        err_l = abs(fine - left) / 15.0
        value_l = fine + (fine - left) / 15.0
        rlq = 0.5 * (mid + rq)
        rrq = 0.5 * (rq + hi)
        frlq = f(rlq)
        frrq = f(rrq)
        rl = (rq - mid) * (fmid + 4.0 * frlq + frq) / 6.0
        rr = (hi - rq) * (frq + 4.0 * frrq + fhi) / 6.0
        fine = rl + rr
        err_r = abs(fine - right) / 15.0
        value_r = fine + (fine - right) / 15.0
        total += value_l + value_r - value
        total_err += err_l + err_r - err
        heapq.heappush(heap, (-err_l, counter + 1, lo, llq, lq, lrq, mid,
                              flo, fllq, flq, flrq, fmid, ll, lr, value_l, err_l))
        counter += 2
        heapq.heappush(heap, (-err_r, counter, mid, rlq, rq, rrq, hi,
                              fmid, frlq, frq, frrq, fhi, rl, rr, value_r, err_r))
        n_panels += 1
