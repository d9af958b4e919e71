"""Closed-form performance bounds for distance-greedy forwarding.

Everything here evaluates the network-wide consequences of the single-hop
progress distribution from :mod:`fanetsim.geometry`: expected hop-count
corridor, expected end-to-end travel distance, the half-disk isolation
probability, its inverse (minimum range for a target isolation level),
and the resulting delivery success probability.

Each corridor end costs an adaptive quadrature of the progress CDF
(whose integrand reads the lens off sums and products of ``d``, ``R`` and
``L`` that each ``ProgressDistribution`` computes once), so a report
computes the hop corridor once and derives the travel corridor from it.
The upper end rates every hop at the worst-case mean progress, which
depends on the network alone, so its quadrature runs once per
:class:`NetworkParams` and is then read from a small bounded cache; the
lower end depends on the distance and runs one quadrature per report when
the destination is out of range, none when it is in range.
:func:`bounds_report` is the one corridor path; the
``fanetsim bounds`` command and the simulation harness's ``bound_*``
columns both read it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .geometry import ProgressDistribution, expected_progress
from .geometry import _check_length, _check_lens_length, _check_node_count

__all__ = [
    "BoundsReport",
    "NetworkParams",
    "bounds_report",
    "expected_total_distance",
    "hop_bounds",
    "isolation_probability",
    "min_range_for_isolation",
    "success_probability",
]


@dataclass(frozen=True)
class NetworkParams:
    """Deployment parameters: node count (kept as an int), square side,
    transmission radius."""

    n_nodes: int
    area_side: float
    comm_range: float

    def __post_init__(self) -> None:
        _check_node_count(self.n_nodes, 2)
        object.__setattr__(self, "n_nodes", int(self.n_nodes))
        _check_length("area_side", self.area_side)
        _check_lens_length("comm_range", self.comm_range)
        diag = math.sqrt(2.0) * self.area_side
        if not (0.0 < self.comm_range <= diag):
            raise ValueError(
                f"comm_range must be in (0, sqrt(2)*area_side], "
                f"got {self.comm_range!r}"
            )


@dataclass(frozen=True)
class BoundsReport:
    """Analytical corridor for one source-destination separation."""

    src_dst_distance: float
    hops_lower: float
    hops_upper: float
    dist_lower: float
    dist_upper: float
    p_isolation: float
    p_success_lower: float
    p_success_upper: float


def _mean_hop_progress(net: NetworkParams, remaining: float) -> float:
    dist = ProgressDistribution(
        d=remaining,
        r=net.comm_range,
        n_nodes=net.n_nodes,
        area_side=net.area_side,
    )
    return expected_progress(dist)


# Distinct networks whose worst-case progress is kept; a figure sweep or
# a bounds grid uses a handful, so this bound is never reached in them.
_WORST_CASE_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_WORST_CASE_CACHE_SIZE)
def _worst_case_progress(net: NetworkParams) -> float:
    """Mean hop progress at remaining distance R, the slowest a hop gets."""
    return _mean_hop_progress(net, net.comm_range)


def _check_distance(net: NetworkParams, d: float) -> None:
    diag = math.sqrt(2.0) * net.area_side
    if not (0.0 < d <= diag * (1.0 + 1e-12)):
        raise ValueError(f"d must be in (0, sqrt(2)*area_side], got {d!r}")


def hop_bounds(net: NetworkParams, d: float) -> tuple[float, float]:
    """Lower/upper bounds on the expected hop count to reach distance ``d``.

    The lower bound collapses to the single direct hop when the destination
    is already in range; the upper bound rates every hop at the worst-case
    mean progress (remaining distance equal to the transmission radius).
    That progress depends on ``net`` alone, so its quadrature runs once per
    network and later calls with the same network values reuse it.
    """
    _check_distance(net, d)
    upper = d / _worst_case_progress(net) + 1.0
    if d <= net.comm_range:
        lower = 1.0
    else:
        lower = (d - net.comm_range) / _mean_hop_progress(net, d) + 1.0
    return lower, upper


def expected_total_distance(net: NetworkParams, d: float) -> tuple[float, float]:
    """Corridor for the mean end-to-end distance traveled by a packet: the
    ``dist_lower`` and ``dist_upper`` of :func:`bounds_report`."""
    rep = bounds_report(net, d)
    return rep.dist_lower, rep.dist_upper


def isolation_probability(net: NetworkParams) -> float:
    """Probability that a node has no relay in its forward half-disk.

    Approximates the progress area by half the transmission disk; the
    per-node hit probability is clamped at 1 when the half-disk exceeds
    the deployment square.
    """
    half_disk = 0.5 * math.pi * net.comm_range * net.comm_range
    p_hit = min(half_disk / (net.area_side * net.area_side), 1.0)
    return (1.0 - p_hit) ** (net.n_nodes - 1)


def min_range_for_isolation(net: NetworkParams, epsilon: float) -> float:
    """Smallest transmission radius keeping node isolation below ``epsilon``.

    Exact inverse of :func:`isolation_probability` in the half-disk model:
    evaluating the isolation probability at the returned radius reproduces
    ``epsilon``.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon!r}")
    l2 = net.area_side * net.area_side
    return math.sqrt(
        (2.0 * l2 / math.pi) * (1.0 - epsilon ** (1.0 / (net.n_nodes - 1)))
    )


def success_probability(net: NetworkParams, hops: float) -> float:
    """Probability that a ``hops``-hop journey never meets an isolated relay.

    Monotone decreasing in ``hops``, so feeding the hop-count upper bound
    yields the success lower bound and vice versa.
    """
    if hops < 0.0:
        raise ValueError(f"hops must be >= 0, got {hops!r}")
    return (1.0 - isolation_probability(net)) ** hops


def bounds_report(net: NetworkParams, d: float) -> BoundsReport:
    """Bundle the full corridor set for one source-destination distance.

    Each hop's travel is taken as uniform between its progress and the
    transmission radius, so the travel corridor is (d + hops * comm_range)
    / 2 at each end of the hop corridor.
    """
    hops_lower, hops_upper = hop_bounds(net, d)
    p_iso = isolation_probability(net)
    return BoundsReport(
        src_dst_distance=d,
        hops_lower=hops_lower,
        hops_upper=hops_upper,
        dist_lower=0.5 * (d + hops_lower * net.comm_range),
        dist_upper=0.5 * (d + hops_upper * net.comm_range),
        p_isolation=p_iso,
        p_success_lower=success_probability(net, hops_upper),
        p_success_upper=success_probability(net, hops_lower),
    )
