"""Motion model parameters: plain data that loads no numpy, so the harness
and the CLI build and check configs before ``fanetsim.mobility`` loads."""

import math
import numbers
from dataclasses import dataclass, fields

__all__ = ["MobilityConfig"]

_MAX_SIDES_PER_STEP = 1000  # mean travel per step, in square sides


@dataclass(frozen=True)
class MobilityConfig:
    """Motion model parameters; defaults follow the standard experiment setup."""

    area_side: float = 10_000.0
    mean_speed: float = 50.0
    mean_wait: float = 20.0
    transition_prob: float = 0.2
    time_step: float = 1.0
    prediction_noise_var: float = 10.0
    mean_turn_radius: float = 500.0

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v!r}")
        if self.area_side <= 0.0:
            raise ValueError(f"area_side must be > 0, got {self.area_side!r}")
        if self.mean_speed < 0.0:
            raise ValueError(f"mean_speed must be >= 0, got {self.mean_speed!r}")
        if self.mean_wait <= 0.0:
            raise ValueError(f"mean_wait must be > 0, got {self.mean_wait!r}")
        if not (0.0 <= self.transition_prob <= 1.0):
            raise ValueError(
                f"transition_prob must be in [0, 1], got {self.transition_prob!r}"
            )
        if self.time_step <= 0.0:
            raise ValueError(f"time_step must be > 0, got {self.time_step!r}")
        if self.prediction_noise_var < 0.0:
            raise ValueError(
                f"prediction_noise_var must be >= 0, "
                f"got {self.prediction_noise_var!r}"
            )
        if self.mean_turn_radius <= 0.0:
            raise ValueError(
                f"mean_turn_radius must be > 0, got {self.mean_turn_radius!r}"
            )
        # Reflection folds off one wall per pass, so its cost grows with the
        # travel per step; past ~2**53 sides it would never end.
        if self.mean_speed * self.time_step > _MAX_SIDES_PER_STEP * self.area_side:
            raise ValueError(
                f"mean_speed * time_step must be <= {_MAX_SIDES_PER_STEP} * "
                f"area_side, got {self.mean_speed!r} * {self.time_step!r} "
                f"on area_side {self.area_side!r}"
            )


def _check_count(name: str, value) -> None:
    """Reject a bool or a non-integral count; numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
