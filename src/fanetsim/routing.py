"""Distance-greedy forwarding and the shortest-path baseline.

A session moves one packet from source toward destination, one hop per
time step of the driving network: the forwarding decision is made at the
start of the step and the transmission completes at its end.  Greedy
forwarding re-decides at every hop: the predictive variant reads each
step's predicted positions, which estimate where nodes will be when the
packet lands one time step later, while the static variant keeps deciding
on the snapshot frozen at session start.  Either scores its candidates
against the destination's position in the snapshot it decides on.  A hop
choice takes its candidates from one ``ContactSnapshot.neighbors`` call
and scores them with ``math.hypot`` on plain floats read through the
snapshot's flat predicted-position view, the same doubles a numpy read
gives; it scans the row in ascending index order and keeps a candidate
only if strictly closer, so equal distances go to the lowest index.  The
Dijkstra baseline plans its whole path once on the session-start true
positions and never replans.  It searches with A* toward the destination
for ``distance`` weights and with plain Dijkstra for ``distance_squared``;
both return a minimum-weight path, and only the choice among paths of
exactly equal weight may differ from an uninformed Dijkstra's.  The A* heuristic of a
node is its ``distance`` to the destination, bit for bit, taken with
``math.hypot`` through the flat true-position view for the source and
for each node the search pushes, not for the whole snapshot.  It reads
the snapshot's true-position link table directly: ascending neighbor
rows with their ``math.hypot`` lengths, built whole by the first search
(or true-position ``neighbors`` call) on that snapshot and shared by every
later one.  It keeps its per-node state in lists and a bytearray indexed
by node.
Whatever positions the decision used, link validity and all metrics
(link length, progress) are evaluated on the true positions at transmit
time, i.e. on the snapshot where the transmission completes: a decided
hop whose true length exceeds the transmission radius there breaks the
session.  Every session runs these rules in one hop loop, ``_forward``,
the only reader of the network's snapshots: it reads one per step, hands
it to the session's chooser as ``choose(k, snap, current)``, reads the
landing snapshot's flat true-position view once per hop, and takes each
length with the ``math.hypot`` expression of ``ContactSnapshot.distance``,
bit for bit.  ``route_greedy`` and ``execute_path`` differ only in how
they choose each relay.  Greedy relays come from a snapshot's own
neighbor rows, so the loop does not check them; ``execute_path`` checks
every node of its path once, before the first hop.

``HopRecord`` and ``SessionOutcome`` are named tuples: immutable, cheap to
build, and equal to plain tuples of their fields.
"""

from __future__ import annotations

import heapq
import math
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
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


class HopRecord(NamedTuple):
    """One completed transmission: link length and progress on true positions."""

    src: int
    dst: int
    tx_distance: float
    progress: float
    time: float


class SessionOutcome(NamedTuple):
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
        return self._totals()[0]

    @property
    def total_power(self) -> float:
        """Transmit energy proxy: sum of squared link lengths."""
        return self._totals()[1]

    def _totals(self) -> tuple[float, float]:
        """Travel and power, each added up in hop order: the one summation
        that the properties and the harness's tally share.  (``sum()`` of
        floats compensates round-off since Python 3.12.)"""
        travel = power = 0.0
        for hop in self.hops:
            d = hop.tx_distance
            travel += d
            power += d * d
        return travel, power

    @property
    def delivered(self) -> bool:
        return self.status is SessionStatus.DELIVERED


def greedy_next_hop(snap: ContactSnapshot, current: int, dest: int) -> int | None:
    """Neighbor of ``current`` closest to the destination, if it makes
    progress, judged on the snapshot's predicted positions of every node,
    the destination included.

    Returns the destination itself whenever it is a neighbor, otherwise the
    neighbor strictly closer to the destination than ``current`` is (ties
    broken toward the lowest node index), or None when no neighbor makes
    progress.
    """
    if not (type(dest) is int and 0 <= dest < snap.n_nodes):
        snap._check_index(dest)
    nbrs = snap.neighbors(current, use_predicted=True)
    if dest in nbrs:
        return dest
    m = snap._predicted_xy
    tx, ty = m[2 * dest], m[2 * dest + 1]
    hypot = math.hypot
    best = None
    best_d = hypot(m[2 * current] - tx, m[2 * current + 1] - ty)
    for j in nbrs:  # ascending: equal distances keep the lowest index
        dj = hypot(m[2 * j] - tx, m[2 * j + 1] - ty)
        if dj < best_d:
            best, best_d = j, dj
    return best


def _forward(sim, source: int, dest: int, max_hops: int, choose) -> SessionOutcome:
    """The hop loop of every session, which reads one snapshot per step.
    ``choose(k, snap, current)`` names the relay of hop k from that step's
    ``snap``, or None when there is none; the hop then occupies one time
    step of ``sim`` and is judged on the true positions where it completes.
    Ends on arrival, a broken link, no relay, or ``max_hops``."""
    if max_hops < 0:
        raise ValueError(f"max_hops must be >= 0, got {max_hops!r}")
    snap = sim.snapshot()
    d0 = snap.distance(source, dest)  # checks both indices
    hypot = math.hypot
    hops: list[HopRecord] = []
    current = source
    status = SessionStatus.HOP_CAP  # unless the loop breaks out early
    for k in range(max_hops):
        nxt = choose(k, snap, current)
        if nxt is None:
            status = SessionStatus.STUCK_NO_PROGRESS
            break
        sim.advance()  # the transmission occupies this time step
        snap = sim.snapshot()
        # distance(current, nxt), distance(current, dest) - distance(nxt, dest)
        m = snap._true_xy
        cx, cy = m[2 * current], m[2 * current + 1]
        nx, ny = m[2 * nxt], m[2 * nxt + 1]
        tx = hypot(cx - nx, cy - ny)
        if tx > snap.comm_range:
            status = SessionStatus.LINK_BROKEN
            break
        dest_x, dest_y = m[2 * dest], m[2 * dest + 1]
        progress = hypot(cx - dest_x, cy - dest_y) - hypot(nx - dest_x, ny - dest_y)
        hops.append(HopRecord(current, nxt, tx, progress, snap.time))
        current = nxt
        if current == dest:
            status = SessionStatus.DELIVERED
            break
    return SessionOutcome(source, dest, d0, tuple(hops), status)


def route_greedy(
    sim,
    source: int,
    dest: int,
    predictive: bool = True,
    *,
    max_hops: int,
) -> SessionOutcome:
    """Run one greedy session against a time-evolving network.

    ``sim`` must expose ``snapshot()`` and ``advance()``.  One hop is
    transmitted per time step, at most ``max_hops`` of them, which also
    bounds sessions that prediction noise could otherwise make wander.
    """
    if source == dest:
        raise ValueError("source and destination must differ")
    snap0 = sim.snapshot()

    def choose(k: int, snap: ContactSnapshot, current: int) -> int | None:
        return greedy_next_hop(snap if predictive else snap0, current, dest)

    return _forward(sim, source, dest, max_hops, choose)


def route_dijkstra(
    snap: ContactSnapshot,
    source: int,
    dest: int,
    weight: PathWeight = PathWeight.DISTANCE,
) -> list[int] | None:
    """Minimum-weight path on the snapshot's true-position unit-disk graph.

    Returns the node sequence source..dest, or None when the two lie in
    different components.  The search is A*: each node's heap key adds
    ``h(v)``, its straight-line distance to ``dest`` on the true positions
    for ``DISTANCE`` weights (no link is shorter than the progress it
    makes, so the bound is consistent), computed as the node is pushed,
    and 0 for ``DISTANCE_SQUARED``, which leaves plain Dijkstra.  The
    returned path always has minimum weight; among paths of exactly equal
    weight, the one chosen may differ from an uninformed Dijkstra's.
    """
    if source == dest:
        raise ValueError("source and destination must differ")
    snap._check_index(source)
    snap._check_index(dest)
    n = snap.n_nodes
    squared = weight is PathWeight.DISTANCE_SQUARED
    if not squared:  # h(v) is distance(v, dest), taken when v is pushed
        m, hypot = snap._true_xy, math.hypot
        tx, ty = m[2 * dest], m[2 * dest + 1]
    rows, lengths = snap._link_table()
    inf = math.inf
    dist = [inf] * n
    dist[source] = 0.0
    prev = [-1] * n
    done = bytearray(n)
    heappush, heappop = heapq.heappush, heapq.heappop
    h0 = 0.0 if squared else hypot(m[2 * source] - tx, m[2 * source + 1] - ty)
    heap: list[tuple[float, int]] = [(h0, source)]
    while heap:
        _, u = heappop(heap)
        if done[u]:
            continue
        if u == dest:
            break
        done[u] = 1
        d_u = dist[u]
        for v, w in zip(rows[u], lengths[u]):
            if done[v]:
                continue
            if squared:
                w = w * w
            alt = d_u + w
            if alt < dist[v]:
                dist[v] = alt
                prev[v] = u
                if not squared:
                    alt += hypot(m[2 * v] - tx, m[2 * v + 1] - ty)
                heappush(heap, (alt, v))
    if dist[dest] == inf:
        return None
    path = [dest]
    while path[-1] != source:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def execute_path(sim, path: list[int], max_hops: int) -> SessionOutcome:
    """Transmit along a precomputed path, one hop per time step, while
    the network keeps moving; any hop whose true link length exceeds the
    transmission radius breaks the session.  The session ends DELIVERED
    at its first arrival at ``path[-1]``, and with HOP_CAP after
    ``max_hops`` hops."""
    if len(path) < 2:
        raise ValueError("path must contain at least two nodes")
    if path[0] == path[-1]:
        raise ValueError("source and destination must differ")
    check = sim.snapshot()._check_index
    for node in path:
        check(node)
    return _forward(sim, path[0], path[-1], max_hops, lambda k, *_: path[k + 1])
