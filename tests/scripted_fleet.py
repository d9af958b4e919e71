"""A stand-in for ``Fleet`` with hand-placed positions, so tests can build
a ``NetworkTrace`` whose every step they chose."""

import numpy as np


class ScriptedFleet:
    """Step k sits at time ``float(k)`` with true positions
    ``positions(k)``; its predicted positions are a copy of them."""

    def __init__(self, positions):
        self._positions = positions
        self._k = 0
        self.time = 0.0

    def advance(self) -> None:
        self._k += 1
        self.time = float(self._k)

    def true_positions(self) -> np.ndarray:
        return np.asarray(self._positions(self._k), dtype=float)

    def predicted_positions(self) -> np.ndarray:
        return self.true_positions().copy()
