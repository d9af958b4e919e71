"""Distance-greedy forwarding and the Dijkstra shortest-path baseline.

A session moves one packet from source toward destination, one hop per
time step of the driving network: the forwarding decision is made at the
start of the step and the transmission completes at its end.  Greedy
forwarding re-decides at every hop: the predictive variant reads each
step's predicted positions (which, at the default one-step prediction
horizon, estimate exactly where nodes will be when the packet lands),
while the static variant keeps deciding on the snapshot frozen at session
start.  The Dijkstra baseline plans its whole path once on the
session-start true positions and never replans.  Whatever positions the
decision used, link validity and all metrics (link length, progress) are
evaluated on the true positions at transmit time, i.e. on the snapshot
where the transmission completes: a decided hop whose true length exceeds
the transmission radius there breaks the session.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .topology import ContactSnapshot

__all__ = [
    "HopRecord",
    "PathWeight",
    "SessionOutcome",
    "SessionStatus",
    "execute_path",
    "greedy_next_hop",
    "route_dijkstra",
    "route_greedy",
]


class SessionStatus(Enum):
    DELIVERED = "delivered"
    STUCK_NO_PROGRESS = "stuck_no_progress"
    LINK_BROKEN = "link_broken"
    HOP_CAP = "hop_cap"  # the session used up max_hops


class PathWeight(Enum):
    DISTANCE = "distance"
    DISTANCE_SQUARED = "distance_squared"


@dataclass(frozen=True)
class HopRecord:
    """One completed transmission: link length and progress on true positions."""

    src: int
    dst: int
    tx_distance: float
    progress: float
    time: float


@dataclass(frozen=True)
class SessionOutcome:
    """One packet journey from source toward destination."""

    source: int
    destination: int
    initial_distance: float
    hops: tuple[HopRecord, ...]
    status: SessionStatus

    @property
    def hop_count(self) -> int:
        return len(self.hops)

    @property
    def total_distance(self) -> float:
        return sum(h.tx_distance for h in self.hops)

    @property
    def total_power(self) -> float:
        """Transmit energy proxy: sum of squared link lengths."""
        return sum(h.tx_distance * h.tx_distance for h in self.hops)

    @property
    def delivered(self) -> bool:
        return self.status is SessionStatus.DELIVERED


def _dist_to(pos: np.ndarray, i: int, point: np.ndarray) -> float:
    return float(math.hypot(pos[i, 0] - point[0], pos[i, 1] - point[1]))


def greedy_next_hop(
    snap: ContactSnapshot,
    current: int,
    dest: int,
    use_predicted: bool = True,
    dest_pos: np.ndarray | None = None,
) -> int | None:
    """Neighbor of ``current`` closest to the destination, if it makes progress.

    Returns the destination itself whenever it is a neighbor, otherwise the
    neighbor strictly closer to the destination than ``current`` is (ties
    broken toward the lowest node index), or None when no neighbor makes
    progress.  ``dest_pos`` overrides the destination coordinate, for
    callers that carry a stale destination location in the packet.
    """
    nbrs = snap.neighbors(current, use_predicted)
    if not nbrs:
        return None
    if dest in nbrs:
        return dest
    pos = snap.positions(use_predicted)
    target = pos[dest] if dest_pos is None else dest_pos
    best = None
    best_d = _dist_to(pos, current, target)
    for j in sorted(nbrs):
        dj = _dist_to(pos, j, target)
        if dj < best_d:
            best, best_d = j, dj
    return best


def route_greedy(
    sim,
    source: int,
    dest: int,
    predictive: bool = True,
    *,
    max_hops: int,
    refresh_destination: bool = True,
) -> SessionOutcome:
    """Run one greedy session against a time-evolving network.

    ``sim`` must expose ``snapshot()`` and ``advance()``.  One hop is
    transmitted per time step, at most ``max_hops`` of them, which also
    bounds sessions that prediction noise could otherwise make wander.
    """
    if source == dest:
        raise ValueError("source and destination must differ")
    snap0 = sim.snapshot()
    d0 = snap0.distance(source, dest, use_predicted=False)
    frozen_dest = None
    if predictive and not refresh_destination:
        frozen_dest = snap0.positions(use_predicted=True)[dest].copy()

    hops: list[HopRecord] = []
    current = source
    status = SessionStatus.HOP_CAP  # unless the loop breaks out early
    for _ in range(max_hops):
        decision_snap = sim.snapshot() if predictive else snap0
        nxt = greedy_next_hop(
            decision_snap, current, dest, use_predicted=True, dest_pos=frozen_dest
        )
        if nxt is None:
            status = SessionStatus.STUCK_NO_PROGRESS
            break
        sim.advance()  # the transmission occupies this time step
        snap = sim.snapshot()
        tx = snap.distance(current, nxt, use_predicted=False)
        if tx > snap.comm_range:
            status = SessionStatus.LINK_BROKEN
            break
        progress = snap.distance(current, dest, use_predicted=False) - snap.distance(
            nxt, dest, use_predicted=False
        )
        hops.append(HopRecord(current, nxt, tx, progress, snap.time))
        current = nxt
        if current == dest:
            status = SessionStatus.DELIVERED
            break
    return SessionOutcome(source, dest, d0, tuple(hops), status)


def route_dijkstra(
    snap: ContactSnapshot,
    source: int,
    dest: int,
    weight: PathWeight = PathWeight.DISTANCE,
) -> list[int] | None:
    """Minimum-weight path on the snapshot's true-position unit-disk graph.

    Returns the node sequence source..dest, or None when the two lie in
    different components.
    """
    if source == dest:
        raise ValueError("source and destination must differ")
    squared = weight is PathWeight.DISTANCE_SQUARED
    dist = {source: 0.0}
    prev: dict[int, int] = {}
    done: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d_u, u = heapq.heappop(heap)
        if u in done:
            continue
        if u == dest:
            break
        done.add(u)
        for v in snap.neighbors(u, use_predicted=False):
            if v in done:
                continue
            w = snap.distance(u, v, use_predicted=False)
            if squared:
                w = w * w
            alt = d_u + w
            if alt < dist.get(v, math.inf):
                dist[v] = alt
                prev[v] = u
                heapq.heappush(heap, (alt, v))
    if dest not in dist:
        return None
    path = [dest]
    while path[-1] != source:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def execute_path(sim, path: list[int], max_hops: int) -> SessionOutcome:
    """Transmit along a precomputed path, one hop per time step, while
    the network keeps moving; any hop whose true link length exceeds the
    transmission radius breaks the session.  A path longer than
    ``max_hops`` links ends with HOP_CAP after ``max_hops`` hops."""
    if len(path) < 2:
        raise ValueError("path must contain at least two nodes")
    snap0 = sim.snapshot()
    dest = path[-1]
    d0 = snap0.distance(path[0], dest, use_predicted=False)
    hops: list[HopRecord] = []
    n_links = len(path) - 1
    status = SessionStatus.DELIVERED if n_links <= max_hops else SessionStatus.HOP_CAP
    for k in range(min(n_links, max_hops)):
        a, b = path[k], path[k + 1]
        sim.advance()  # the transmission occupies this time step
        snap = sim.snapshot()
        tx = snap.distance(a, b, use_predicted=False)
        if tx > snap.comm_range:
            status = SessionStatus.LINK_BROKEN
            break
        progress = snap.distance(a, dest, use_predicted=False) - snap.distance(
            b, dest, use_predicted=False
        )
        hops.append(HopRecord(a, b, tx, progress, snap.time))
    return SessionOutcome(path[0], dest, d0, tuple(hops), status)
