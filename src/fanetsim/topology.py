"""Contact snapshots: who can talk to whom at one instant.

A snapshot carries both the true node positions (used for metric
accounting and link validity) and the predicted positions (used for
forwarding decisions).  Neighborhoods follow the unit-disk rule: an edge
exists iff the Euclidean distance is at most the transmission radius,
boundary inclusive.  On the true positions a snapshot keeps one link
table, built whole the first time any true row is read (``neighbors(i)``
or the shortest-path search); it keeps each node's ascending neighbor
indices as an ``array('l')`` with their lengths as an ``array('d')``.
Each length is ``math.hypot`` of the coordinate differences, as
``distance`` takes it, bit for bit; ``np.hypot`` rounds differently in
about 0.6% of pairs.  Predicted rows are built one node at a time, on
first use, and kept.  Both scans choose their path by node count: up to
``_SCAN_MAX`` nodes, the paper's scale, they run in plain floats, where
a numpy call would cost more than its arithmetic; above it numpy scans
the x and y columns, the table 16 rows at a time.  Both paths give the
same rows and lengths bit for bit.  ``neighbors`` returns a kept row as
a new list, ascending.  Positions are stored as C-ordered float64
``(n, 2)`` arrays, and each has a flat ``memoryview`` (``[x0, y0, x1,
y1, ...]``) through which per-pair arithmetic reads plain Python floats:
the same doubles, without numpy scalar overhead.  Node indices must be
integers in range.  A snapshot is a plain class with ``__slots__``: it
stores ``n_nodes`` once, since the hop loop reads it at every decision,
and fills its row caches in place.  Snapshots compare and hash by
identity, so they can key dicts and fill sets.

A trace holds one snapshot per step, all with the same node count and
range.  A ``TraceCursor`` looks its step's snapshot up once, when it is
built and at each ``advance``, and ``snapshot()`` returns the kept one.
"""

from __future__ import annotations

import math
import numbers
from array import array

import numpy as np

from .mobility_config import _check_count

__all__ = ["ContactSnapshot", "NetworkTrace", "TraceCursor"]

_BLOCK = 16  # link-table rows per numpy scan
_SCAN_MAX = 24  # node count up to which rows and tables scan plain floats


def _flat(name: str, positions) -> tuple[np.ndarray, memoryview]:
    """``positions`` as a C-ordered float64 ``(n, 2)`` array, and a flat view of it."""
    pos = np.ascontiguousarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError(f"{name} must have shape (n, 2), got {pos.shape}")
    return pos, memoryview(pos.reshape(-1))


class ContactSnapshot:
    """All node positions at one instant, with the rows read from them."""

    __slots__ = (
        "time", "true_positions", "predicted_positions", "comm_range", "n_nodes",
        "_table",  # per node, ascending true-position neighbors and their lengths
        "_predicted_rows",  # node -> ascending predicted-position neighbors
        "_true_xy", "_predicted_xy",  # flat views over the two position arrays
    )

    def __init__(self, time: float, true_positions, predicted_positions, comm_range: float):
        self.time = time
        self.comm_range = comm_range
        self.true_positions, self._true_xy = _flat("true_positions", true_positions)
        self.predicted_positions, self._predicted_xy = _flat(
            "predicted_positions", predicted_positions
        )
        if len(self.true_positions) != len(self.predicted_positions):
            raise ValueError(
                "true and predicted position lists differ in length: "
                f"{len(self.true_positions)} vs {len(self.predicted_positions)}"
            )
        self.n_nodes = len(self.true_positions)
        if not 0.0 < comm_range < math.inf:  # NaN would empty every row
            raise ValueError(f"comm_range must be finite and > 0, got {comm_range!r}")
        self._table = None
        self._predicted_rows = {}

    @classmethod
    def of_fleet(cls, fleet, comm_range: float) -> "ContactSnapshot":
        """The fleet's current true positions and its predicted ones."""
        return cls(
            time=fleet.time,
            true_positions=fleet.true_positions(),
            predicted_positions=fleet.predicted_positions(),
            comm_range=comm_range,
        )

    def _check_index(self, i: int) -> None:
        """Reject a node index that is not an integer (a bool or 1.0 would
        read node 1's kept rows) or lies outside [0, n_nodes)."""
        if type(i) is not int and (isinstance(i, bool) or not isinstance(i, numbers.Integral)):
            raise TypeError(f"node index must be an integer, got {i!r}")
        if not (0 <= i < self.n_nodes):
            raise IndexError(f"node index {i} out of range [0, {self.n_nodes})")

    def distance(self, i: int, j: int) -> float:
        """Euclidean distance between nodes i and j on the true positions."""
        n = self.n_nodes
        if not (type(i) is int and type(j) is int and 0 <= i < n and 0 <= j < n):
            self._check_index(i)
            self._check_index(j)
        m = self._true_xy
        return math.hypot(m[2 * i] - m[2 * j], m[2 * i + 1] - m[2 * j + 1])

    def _row(self, i: int) -> array:
        """Node i's neighbor indices, ascending, on the predicted positions.

        Up to ``_SCAN_MAX`` nodes the scan runs in plain floats over the
        flat view, above it in numpy over the columns.  At paper scale one
        numpy call costs more than a row's arithmetic; the two are level
        at 24-26 nodes (``timeit`` on a 2-vCPU VM: 2.3 against 4.2 us at
        10 nodes, 45 against 6 us at 400).  Both paths test ``dx*dx +
        dy*dy <= R*R`` for ``dx = x_j - x_i``, the same IEEE operations."""
        m, n = self._predicted_xy, self.n_nodes
        r2 = self.comm_range * self.comm_range
        xi, yi = m[2 * i], m[2 * i + 1]
        if n <= _SCAN_MAX:
            return array("l", [
                j for j, x, y in zip(range(n), m[::2], m[1::2])
                if (dx := x - xi) * dx + (dy := y - yi) * dy <= r2 and j != i
            ])
        pos = self.predicted_positions
        dx = pos[:, 0] - xi
        dy = pos[:, 1] - yi
        dx *= dx
        dy *= dy
        dx += dy
        within = dx <= r2
        within[i] = False
        return array("l", within.nonzero()[0].tolist())

    def _build_table(self) -> tuple[list[array], list[array]]:
        """Every node's true-position row and link lengths, each row the
        j != i with ``dx*dx + dy*dy <= R*R`` for ``dx = x_j - x_i``, as
        ``_row`` tests it.

        Up to ``_SCAN_MAX`` nodes plain floats visit each unordered pair
        once and append its one length to both rows: IEEE subtraction is
        antisymmetric and ``hypot`` ignores signs, so both rows get the
        floats that a scan of each would.  Above it numpy scans ``_BLOCK``
        rows at a time against all nodes.  The plain pass wins up to about
        60 nodes (``timeit`` on a 2-vCPU VM: 14 against 25 us at 10 nodes,
        6.9 against 2.4 ms at 400); between ``_SCAN_MAX`` and 60 the table
        keeps numpy, one limit serving rows and tables."""
        n = self.n_nodes
        r2 = self.comm_range * self.comm_range
        if n <= _SCAN_MAX:
            m = self._true_xy
            xs, ys = m[::2].tolist(), m[1::2].tolist()
            rows = [array("l") for _ in range(n)]
            lengths = [array("d") for _ in range(n)]
            for a in range(n):
                xa, ya, row, dist = xs[a], ys[a], rows[a], lengths[a]
                for b in range(a + 1, n):
                    dx = xs[b] - xa
                    dy = ys[b] - ya
                    if dx * dx + dy * dy <= r2:
                        w = math.hypot(dx, dy)
                        row.append(b)
                        dist.append(w)
                        rows[b].append(a)
                        lengths[b].append(w)
            return rows, lengths
        pos = self.true_positions
        x, y = pos[:, 0], pos[:, 1]
        block = np.arange(_BLOCK)
        row_ends = (block + 1) * n  # flat index past each row of a block
        rows = []
        lengths = []
        for start in range(0, n, _BLOCK):
            dx = x - x[start : start + _BLOCK, None]
            dy = y - y[start : start + _BLOCK, None]
            dx *= dx
            dy *= dy
            dx += dy
            within = dx <= r2
            b = len(within)
            within[block[:b], block[:b] + start] = False
            flat = np.flatnonzero(within)
            i, j = flat // n + start, flat % n
            cols = array("l", j.tolist())
            # hypot of x_j - x_i and y_j - y_i, as distance() takes it
            dxs = (x.take(j) - x.take(i)).tolist()
            dys = (y.take(j) - y.take(i)).tolist()
            dist = array("d", map(math.hypot, dxs, dys))
            a = 0
            for e in flat.searchsorted(row_ends[:b]).tolist():
                rows.append(cols[a:e])
                lengths.append(dist[a:e])
                a = e
        return rows, lengths

    def _link_table(self) -> tuple[list[array], list[array]]:
        """The true-position link table, built on first use."""
        if self._table is None:
            self._table = self._build_table()
        return self._table

    def neighbors(self, i: int, use_predicted: bool = False) -> list[int]:
        """All nodes within comm_range of node i (excluding i itself), as a
        new list in ascending index order."""
        if not (type(i) is int and 0 <= i < self.n_nodes):
            self._check_index(i)
        if not use_predicted:
            return self._link_table()[0][i].tolist()
        row = self._predicted_rows.get(i)
        if row is None:
            row = self._predicted_rows[i] = self._row(i)
        return row.tolist()


class NetworkTrace:
    """One contact snapshot per time step, for steps 0..n_steps.

    Built from snapshots alone, the trace is complete.  Given the fleet of
    its last snapshot and an integer ``n_steps >= 0`` (a bool, a fraction
    or a negative count raises ``ValueError``), it records each missing
    snapshot when first read, in index order and one ``Fleet.advance``
    before each, so snapshot k follows exactly k advances however cursors
    interleave.  Snapshots are kept, so every cursor replays the same
    objects.
    """

    def __init__(self, snapshots, fleet=None, n_steps: int = 0):
        if not snapshots:
            raise ValueError("trace must contain at least one snapshot")
        self.snapshots = list(snapshots)
        first = self.snapshots[0]
        for k, snap in enumerate(self.snapshots):
            if snap.n_nodes != first.n_nodes or snap.comm_range != first.comm_range:
                raise ValueError(
                    f"snapshot {k} has {snap.n_nodes} nodes and comm_range "
                    f"{snap.comm_range!r}, unlike snapshot 0"
                )
        if fleet is None:
            self.n_steps = len(self.snapshots) - 1
        else:
            self.n_steps = _check_count("n_steps", n_steps, 0)
        self._fleet = fleet

    def snapshot(self, k: int) -> ContactSnapshot:
        if not 0 <= k <= self.n_steps:
            raise IndexError(f"step {k} outside the trace's steps 0..{self.n_steps}")
        snaps = self.snapshots
        while len(snaps) <= k:
            self._fleet.advance()
            snaps.append(ContactSnapshot.of_fleet(self._fleet, snaps[0].comm_range))
        return snaps[k]

    def cursor(self) -> "TraceCursor":
        return TraceCursor(self)


class TraceCursor:
    """One session's clock over a trace.

    Presents the time-evolving network interface (snapshot/advance) that
    the routing layer drives; several cursors can replay the same trace
    independently, which keeps algorithm comparisons on identical mobility.
    """

    def __init__(self, trace: NetworkTrace):
        self._trace = trace
        self._k = 0
        self._snap = trace.snapshot(0)

    def snapshot(self) -> ContactSnapshot:
        return self._snap

    def advance(self) -> None:
        if self._k >= self._trace.n_steps:
            raise RuntimeError(
                f"trace exhausted after {self._trace.n_steps} steps"
            )
        self._k += 1
        self._snap = self._trace.snapshot(self._k)
