"""Contact snapshots: who can talk to whom at one instant.

A snapshot carries both the true node positions (used for metric
accounting and link validity) and the predicted positions (used for
forwarding decisions).  Neighborhoods follow the unit-disk rule: an edge
exists iff the Euclidean distance is at most the transmission radius,
boundary inclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ContactSnapshot", "NetworkTrace", "TraceCursor"]


@dataclass(frozen=True)
class ContactSnapshot:
    """Immutable view of all node positions at one instant."""

    time: float
    true_positions: np.ndarray
    predicted_positions: np.ndarray
    comm_range: float

    def __post_init__(self) -> None:
        if len(self.true_positions) != len(self.predicted_positions):
            raise ValueError(
                "true and predicted position lists differ in length: "
                f"{len(self.true_positions)} vs {len(self.predicted_positions)}"
            )
        if self.comm_range <= 0.0:
            raise ValueError(f"comm_range must be > 0, got {self.comm_range!r}")

    @classmethod
    def of_fleet(cls, fleet, comm_range: float) -> "ContactSnapshot":
        """The fleet's current true positions and its predicted ones."""
        return cls(
            time=fleet.time,
            true_positions=fleet.true_positions(),
            predicted_positions=fleet.predicted_positions(),
            comm_range=comm_range,
        )

    @property
    def n_nodes(self) -> int:
        return len(self.true_positions)

    def positions(self, use_predicted: bool = False) -> np.ndarray:
        return self.predicted_positions if use_predicted else self.true_positions

    def _check_index(self, i: int) -> None:
        if not (0 <= i < self.n_nodes):
            raise IndexError(f"node index {i} out of range [0, {self.n_nodes})")

    def distance(self, i: int, j: int, use_predicted: bool = False) -> float:
        """Euclidean distance between nodes i and j on the selected positions."""
        self._check_index(i)
        self._check_index(j)
        pos = self.positions(use_predicted)
        return float(math.hypot(pos[i, 0] - pos[j, 0], pos[i, 1] - pos[j, 1]))

    def neighbors(self, i: int, use_predicted: bool = False) -> set[int]:
        """All nodes within comm_range of node i (excluding i itself)."""
        self._check_index(i)
        pos = self.positions(use_predicted)
        dx = pos[:, 0] - pos[i, 0]
        dy = pos[:, 1] - pos[i, 1]
        within = dx * dx + dy * dy <= self.comm_range * self.comm_range
        within[i] = False
        return set(np.flatnonzero(within).tolist())


class NetworkTrace:
    """One contact snapshot per time step, for steps 0..n_steps.

    Built from snapshots alone, the trace is complete.  Given the fleet of
    its last snapshot, it records each missing snapshot when first read,
    in index order and one ``Fleet.advance`` before each, so snapshot k
    follows exactly k advances however cursors interleave.  Snapshots are
    kept, so every cursor replays the same objects.
    """

    def __init__(self, snapshots, fleet=None, n_steps: int = 0):
        if not snapshots:
            raise ValueError("trace must contain at least one snapshot")
        self.snapshots = list(snapshots)
        self.n_steps = len(self.snapshots) - 1 if fleet is None else n_steps
        self._fleet = fleet

    def snapshot(self, k: int) -> ContactSnapshot:
        snaps = self.snapshots
        if k < len(snaps):
            return snaps[k]
        if k > self.n_steps:
            raise IndexError(f"step {k} beyond the trace's {self.n_steps} steps")
        fleet = self._fleet
        while len(snaps) <= k:
            fleet.advance()
            snaps.append(ContactSnapshot.of_fleet(fleet, snaps[0].comm_range))
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

    def snapshot(self) -> ContactSnapshot:
        return self._trace.snapshot(self._k)

    def advance(self) -> None:
        if self._k >= self._trace.n_steps:
            raise RuntimeError(
                f"trace exhausted after {self._trace.n_steps} steps"
            )
        self._k += 1
