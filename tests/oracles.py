"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's own code paths: areas
come from rejection sampling or a different algebraic decomposition,
shortest paths from Bellman-Ford, neighbor sets from O(n^2) scans, whole
static greedy sessions from dense distance arrays, and
mobility from stepping one node at a time on ``SeedSequence`` generators,
with each node's draws written out here in the order its stream yields
them (``init_deployment``, ``renewal_params``) and taken through
``exponential`` and ``uniform`` rather than the fleet's scaled
``standard_exponential`` and ``random``.  The plain lens and
progress-tail arithmetic (``plain_lens_area`` and friends) is the
library's formula written out on the raw lengths, with nothing computed
ahead, as the reference its per-distribution terms must match bit for bit.
``adaptive_quadrature`` is the library's globally adaptive Simpson rule
with each panel built by a closure that forms its one-panel sum afresh
from its three points; the library's loop, which hands each child that
sum from its parent, must return its float bit for bit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from fanetsim.geometry import QuadratureError
from fanetsim.mobility import MobilityMode
from fanetsim.mobility_config import MobilityConfig


def mc_lens_area(
    d: float,
    r_big: float,
    r_small: float,
    n_samples: int,
    rng: np.random.Generator,
    chunk: int = 2_000_000,
) -> tuple[float, float]:
    """Rejection-sampling estimate of the two-circle intersection area.

    Samples the bounding box of the smaller circle (which contains the
    intersection).  Returns (estimate, standard error).
    """
    if r_small <= r_big:
        cx, r_box = d, r_small
    else:
        cx, r_box = 0.0, r_big
    hits = 0
    remaining = n_samples
    while remaining:
        m = min(chunk, remaining)
        xs = rng.uniform(cx - r_box, cx + r_box, m)
        ys = rng.uniform(-r_box, r_box, m)
        inside = (xs * xs + ys * ys <= r_big * r_big) & (
            (xs - d) ** 2 + ys * ys <= r_small * r_small
        )
        hits += int(inside.sum())
        remaining -= m
    box_area = 4.0 * r_box * r_box
    p = hits / n_samples
    return box_area * p, box_area * math.sqrt(p * (1.0 - p) / n_samples)


def lens_area_segments(d: float, r1: float, r2: float) -> float:
    """Two-circle intersection via the circular-segment decomposition.

    Splits the lens along the radical line at distance d1 from the first
    center; an algebraically different route than the direct arc-cosine
    formula, used for cross-validation.
    """
    if d >= r1 + r2:
        return 0.0
    if d + min(r1, r2) <= max(r1, r2):
        return math.pi * min(r1, r2) ** 2
    d1 = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    d2 = d - d1
    a1 = max(min(d1 / r1, 1.0), -1.0)
    a2 = max(min(d2 / r2, 1.0), -1.0)
    seg1 = r1 * r1 * math.acos(a1) - d1 * math.sqrt(max(r1 * r1 - d1 * d1, 0.0))
    seg2 = r2 * r2 * math.acos(a2) - d2 * math.sqrt(max(r2 * r2 - d2 * d2, 0.0))
    return seg1 + seg2


def _clamp(v: float, lo: float, hi: float) -> float:
    return lo if v < lo else hi if v > hi else v


def plain_lens_area(d: float, rb: float, rs: float) -> float:
    """Two-circle intersection on the raw lengths, every product formed in
    place: the arithmetic the library's lens must reproduce exactly."""
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


def plain_progress_tail(
    d: float, r: float, n_nodes: int, area_side: float, x: float
) -> float:
    """P[remaining distance >= x] on the raw lengths, via plain_lens_area."""
    slack = 1e-9 * max(d, r)
    if not (d - r - slack <= x <= d + slack):
        raise ValueError(f"x={x!r} outside [d - r, d] = [{d - r!r}, {d!r}]")
    area = plain_lens_area(d, r, _clamp(x, 0.0, d))
    base = _clamp(1.0 - area / (area_side * area_side), 0.0, 1.0)
    return base ** n_nodes


def plain_progress_cdf(
    d: float, r: float, n_nodes: int, area_side: float, y: float
) -> float:
    """P[progress <= y], piecewise over y < 0, [0, r] and y > r."""
    if y < 0.0:
        return 0.0
    if y > r:
        return 1.0
    return plain_progress_tail(d, r, n_nodes, area_side, max(d - y, 0.0))


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

    def make_panel(lo: float, mid: float, hi: float,
                   flo: float, fmid: float, fhi: float) -> tuple:
        # Simpson's rule on the panel and on each half
        coarse = (hi - lo) * (flo + 4.0 * fmid + fhi) / 6.0
        lq = 0.5 * (lo + mid)
        rq = 0.5 * (mid + hi)
        flq = f(lq)
        frq = f(rq)
        fine = ((mid - lo) * (flo + 4.0 * flq + fmid) / 6.0
                + (hi - mid) * (fmid + 4.0 * frq + fhi) / 6.0)
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


def mc_best_progress(
    d: float,
    r: float,
    n_nodes: int,
    area_side: float,
    trials: int,
    rng: np.random.Generator,
    chunk: int = 200_000,
) -> float:
    """Mean of the best single-hop progress over random candidate draws.

    The sender sits at the square's center so its transmission disk (and
    with it the whole progress lens) lies inside the square; the
    destination is offset along the x axis.  Zero progress is counted
    when no candidate lands in the lens.
    """
    if r > area_side / 2.0:
        raise ValueError("sender disk must fit inside the square")
    cx = cy = area_side / 2.0
    tx, ty = cx + d, cy
    total = 0.0
    remaining = trials
    while remaining:
        m = min(chunk, remaining)
        pts = rng.uniform(0.0, area_side, size=(m, n_nodes, 2))
        dist_c = np.hypot(pts[:, :, 0] - cx, pts[:, :, 1] - cy)
        dist_t = np.hypot(pts[:, :, 0] - tx, pts[:, :, 1] - ty)
        progress = np.where((dist_c <= r) & (dist_t <= d), d - dist_t, 0.0)
        total += progress.max(axis=1).sum()
        remaining -= m
    return total / trials


def brute_force_neighbors(
    positions: np.ndarray, i: int, comm_range: float
) -> set[int]:
    out = set()
    for j in range(len(positions)):
        if j == i:
            continue
        if math.hypot(*(positions[i] - positions[j])) <= comm_range:
            out.add(j)
    return out


def brute_greedy_next_hop(
    positions: np.ndarray, comm_range: float, current: int, dest: int
) -> int | None:
    """Progress-area scan: argmin distance-to-destination over nodes that
    are in range of `current` and strictly closer to the destination,
    lowest index on ties."""
    d_cur = math.hypot(*(positions[current] - positions[dest]))
    best = None
    best_d = d_cur
    for j in range(len(positions)):
        if j == current:
            continue
        if math.hypot(*(positions[j] - positions[current])) > comm_range:
            continue
        dj = math.hypot(*(positions[j] - positions[dest]))
        if dj < best_d:
            best, best_d = j, dj
    return best


def static_greedy_sessions(
    n: int,
    area_side: float,
    comm_range: float,
    max_hops: int,
    sessions: int,
    rng: np.random.Generator,
) -> tuple[dict[str, int], np.ndarray]:
    """Whole greedy sessions, each on its own motionless deployment: ``n``
    uniform points on the square and a uniform ordered (source, dest)
    pair, then hop after hop to the in-range node closest to the
    destination, taken only when strictly closer than the current holder
    (lowest index on ties), for at most ``max_hops`` hops.

    Returns the counts of sessions ``delivered``, ``stuck_at_source`` (no
    first hop), ``stuck_at_relay`` (stuck after one or more hops) and
    ``hop_cap`` (still en route), and the hop counts of the delivered
    sessions in session order.  Every session of one hop round steps at
    once on dense distance arrays; nothing here comes from the library.
    """
    pts = rng.uniform(0.0, area_side, size=(sessions, n, 2))
    rows = np.arange(sessions)
    src = rng.integers(0, n, sessions)
    dst = (src + rng.integers(1, n, sessions)) % n
    to_dest = np.linalg.norm(pts - pts[rows, dst][:, None, :], axis=2)
    cur, hops = src.copy(), np.zeros(sessions, dtype=int)
    en_route = np.ones(sessions, dtype=bool)
    stuck = np.zeros(sessions, dtype=bool)
    for _ in range(max_hops):
        a = en_route.nonzero()[0]
        if not a.size:
            break
        gap = np.linalg.norm(pts[a] - pts[a, cur[a]][:, None, :], axis=2)
        closer = to_dest[a] < to_dest[a, cur[a]][:, None]
        candidate = (gap <= comm_range) & closer  # never the holder itself
        nxt = np.where(candidate, to_dest[a], np.inf).argmin(axis=1)  # first minimum
        moves = candidate.any(axis=1)
        stuck[a[~moves]] = True
        en_route[a[~moves]] = False
        a, nxt = a[moves], nxt[moves]
        cur[a] = nxt
        hops[a] += 1
        en_route[a[nxt == dst[a]]] = False
    delivered = ~stuck & ~en_route
    counts = {
        "delivered": int(delivered.sum()),
        "stuck_at_source": int((stuck & (hops == 0)).sum()),
        "stuck_at_relay": int((stuck & (hops > 0)).sum()),
        "hop_cap": int(en_route.sum()),
    }
    return counts, hops[delivered]


def _bellman_ford(
    positions: np.ndarray, comm_range: float, source: int, squared: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Min path weights from ``source`` on the unit-disk graph and each
    node's predecessor (-1 for the source and unreachable nodes).

    Each round relaxes every edge at once on a dense weight matrix; a
    weight is ``math.hypot`` of the coordinate differences (squared when
    asked), so path weights are the same float sums the library forms.
    """
    pos = np.asarray(positions, dtype=float)
    n = len(pos)
    dx = (pos[:, None, 0] - pos[None, :, 0]).ravel().tolist()
    dy = (pos[:, None, 1] - pos[None, :, 1]).ravel().tolist()
    w = np.array(list(map(math.hypot, dx, dy))).reshape(n, n)
    w[w > comm_range] = math.inf
    np.fill_diagonal(w, math.inf)
    if squared:
        w = w * w
    dist = np.full(n, math.inf)
    dist[source] = 0.0
    pred = np.full(n, -1)
    cols = np.arange(n)
    for _ in range(n - 1):
        cand = dist[:, None] + w
        best = cand.argmin(axis=0)
        new = cand[best, cols]
        better = new < dist
        if not better.any():
            break
        dist[better] = new[better]
        pred[better] = best[better]
    return dist, pred


def bellman_ford_weight(
    positions: np.ndarray,
    comm_range: float,
    source: int,
    dest: int,
    squared: bool = False,
) -> float:
    """Min path weight on the unit-disk graph; inf when unreachable."""
    return float(_bellman_ford(positions, comm_range, source, squared)[0][dest])


def bellman_ford_path(
    positions: np.ndarray,
    comm_range: float,
    source: int,
    dest: int,
    squared: bool = False,
) -> list[int] | None:
    """A min-weight path source..dest, read back along the predecessors;
    None when unreachable."""
    dist, pred = _bellman_ford(positions, comm_range, source, squared)
    if dist[dest] == math.inf:
        return None
    path = [dest]
    while path[-1] != source:
        path.append(int(pred[path[-1]]))
    return path[::-1]


def ks_statistic_uniform(samples: np.ndarray, low: float, high: float) -> float:
    """Kolmogorov-Smirnov distance of samples from Uniform(low, high)."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    cdf = (xs - low) / (high - low)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def bisect_root(f, lo: float, hi: float, tol: float = 1e-12, it: int = 200) -> float:
    """Bisection for a sign-changing f on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("no sign change on the bracket")
    for _ in range(it):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < tol * max(1.0, abs(mid)):
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


_TWO_PI = 2.0 * math.pi
_STREAM_INIT = 0  # a node's deployment stream; its motion is 1, its noise 2


@dataclass(frozen=True)
class MobilityParams:
    """Parameters drawn at a renewal; constant until the next renewal.

    ``heading`` applies in linear mode; ``turn_radius``, ``phase`` (current
    angle on the orbit) and signed ``angular_speed`` apply in circular mode.
    """

    speed: float
    sojourn: float
    heading: float = 0.0
    turn_radius: float = 0.0
    phase: float = 0.0
    angular_speed: float = 0.0


@dataclass(frozen=True)
class NodeState:
    node_id: int
    x: float
    y: float
    mode: MobilityMode
    params: MobilityParams
    time_in_state: float = 0.0


def node_rng(seed, node_id: int, stream: int = _STREAM_INIT) -> np.random.Generator:
    """Generator for one node's private stream; `seed` may be an int or tuple."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(node_id, stream))
    )


def _mode(linear: bool) -> MobilityMode:
    return MobilityMode.LINEAR if linear else MobilityMode.CIRCULAR


def renewal_params(
    linear: bool, cfg: MobilityConfig, rng: np.random.Generator
) -> MobilityParams:
    """One renewal's parameters in the given mode, in stream order: the
    speed (no draw when ``mean_speed`` is 0), the sojourn, then the heading
    of a linear node, or a circular node's turn radius, orbit phase and
    spin direction."""
    speed = rng.exponential(cfg.mean_speed) if cfg.mean_speed > 0 else 0.0
    sojourn = rng.exponential(cfg.mean_wait)
    if sojourn <= 0.0:  # an underflowed draw still leaves the state
        sojourn = 1e-9
    if linear:
        return MobilityParams(speed, sojourn, heading=rng.uniform(0.0, _TWO_PI))
    turn_radius = max(rng.exponential(cfg.mean_turn_radius), 1e-6)
    phase = rng.uniform(0.0, _TWO_PI)
    spin = 1.0 if rng.random() < 0.5 else -1.0
    return MobilityParams(
        speed, sojourn, 0.0, turn_radius, phase, spin * speed / turn_radius
    )


def init_deployment(cfg: MobilityConfig, n: int, seed) -> list[NodeState]:
    """Uniform i.i.d. positions on the square, equiprobable initial modes:
    each node's init stream draws x, y, the mode, then its parameters."""
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n!r}")
    states = []
    for i in range(n):
        rng = node_rng(seed, i, _STREAM_INIT)
        x = rng.uniform(0.0, cfg.area_side)
        y = rng.uniform(0.0, cfg.area_side)
        linear = rng.random() < 0.5
        states.append(
            NodeState(i, x, y, _mode(linear), renewal_params(linear, cfg, rng))
        )
    return states


def _fold(v: float, side: float) -> tuple[float, bool]:
    """Reflect a coordinate into [0, side]; flag whether an odd number of
    wall reflections happened (the velocity component must then mirror)."""
    flipped = False
    while v < 0.0 or v > side:
        v = -v if v < 0.0 else 2.0 * side - v
        flipped = not flipped
    return v, flipped


def _displace(state: NodeState, dt: float) -> tuple[float, float, float]:
    """Raw (x, y, orbit phase) after dt, before boundary handling."""
    p = state.params
    if state.mode is MobilityMode.LINEAR:
        return (
            state.x + p.speed * dt * math.cos(p.heading),
            state.y + p.speed * dt * math.sin(p.heading),
            p.phase,
        )
    new_phase = p.phase + p.angular_speed * dt
    x = state.x + p.turn_radius * (math.cos(new_phase) - math.cos(p.phase))
    y = state.y + p.turn_radius * (math.sin(new_phase) - math.sin(p.phase))
    return x, y, new_phase


def step(
    state: NodeState, cfg: MobilityConfig, rng: np.random.Generator
) -> NodeState:
    """Advance one node by one time step.

    Moves analytically under the current mode, reflects off the square's
    walls (heading mirrored in linear mode; orbit phase mirrored and spin
    reversed in circular mode, which re-centers the orbit), then performs
    a Markov renewal once the time in the current state reaches its sojourn.
    """
    dt = cfg.time_step
    x, y, phase = _displace(state, dt)
    x, flip_x = _fold(x, cfg.area_side)
    y, flip_y = _fold(y, cfg.area_side)
    params = state.params
    if state.mode is MobilityMode.LINEAR:
        if flip_x or flip_y:
            heading = params.heading
            if flip_x:
                heading = math.pi - heading
            if flip_y:
                heading = -heading
            params = replace(params, heading=heading % _TWO_PI)
    else:
        phase %= _TWO_PI
        omega = params.angular_speed
        if flip_x:
            phase = math.pi - phase
            omega = -omega
        if flip_y:
            phase = -phase
            omega = -omega
        if flip_x or flip_y:
            phase %= _TWO_PI
        params = replace(params, phase=phase, angular_speed=omega)

    time_in_state = state.time_in_state + dt
    mode = state.mode
    if time_in_state >= params.sojourn:
        if rng.random() < cfg.transition_prob:
            mode = _mode(mode is not MobilityMode.LINEAR)
        params = renewal_params(mode is MobilityMode.LINEAR, cfg, rng)
        time_in_state = 0.0

    return NodeState(state.node_id, x, y, mode, params, time_in_state)


def predict_position(
    state: NodeState,
    horizon: float,
    noise_var: float,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Model-based position estimate ``horizon`` seconds ahead, plus noise.

    Extrapolates the current mode's deterministic kinematics (no renewals,
    no wall reflections are anticipated) and adds independent zero-mean
    Gaussian noise of per-axis variance ``noise_var``.
    """
    if horizon < 0.0:
        raise ValueError(f"horizon must be >= 0, got {horizon!r}")
    if horizon == 0.0:
        x, y = state.x, state.y
    else:
        x, y, _ = _displace(state, horizon)
    if noise_var > 0.0:
        if rng is None:
            raise ValueError("rng required when noise_var > 0")
        sigma = math.sqrt(noise_var)
        x += float(rng.normal(0.0, sigma))
        y += float(rng.normal(0.0, sigma))
    return x, y


def fleet_states(fleet) -> list[NodeState]:
    """A ``fanetsim.mobility.Fleet``'s per-node states, read off its lists."""
    params = zip(*(getattr(fleet, f"_{f.name}") for f in fields(MobilityParams)))
    rows = zip(fleet._x, fleet._y, fleet._linear, fleet._time_in_state, params)
    return [
        NodeState(i, x, y, _mode(linear), MobilityParams(*p), t)
        for i, (x, y, linear, t, p) in enumerate(rows)
    ]
