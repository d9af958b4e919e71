"""Motion model parameters: plain data that loads no numpy, so the harness
and the CLI build and check configs before ``fanetsim.mobility`` loads."""

import math
import numbers
from dataclasses import dataclass, fields

__all__ = ["MobilityConfig"]

_MAX_SIDES_PER_STEP = 1000  # mean travel per step, in square sides
# Field -> whether it must be > 0 (True) or >= 0 (False)
_STRICT_SIGN = {"area_side": True, "mean_speed": False, "mean_wait": True,
                "time_step": True, "prediction_noise_var": False, "mean_turn_radius": True}


@dataclass(frozen=True)
class MobilityConfig:
    """Motion model parameters; defaults follow the standard experiment setup.
    Each field is finite and signed as ``_STRICT_SIGN`` says, checked in
    field order; ``transition_prob`` lies in [0, 1]."""

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
            strict = _STRICT_SIGN.get(f.name)
            if strict is not None and (v <= 0.0 if strict else v < 0.0):
                raise ValueError(f"{f.name} must be {'>' if strict else '>='} 0, got {v!r}")
        if not (0.0 <= self.transition_prob <= 1.0):
            raise ValueError(
                f"transition_prob must be in [0, 1], got {self.transition_prob!r}"
            )
        # Reflection folds off one wall per pass, so its cost grows with the
        # travel per step; past ~2**53 sides it would never end.
        if self.mean_speed * self.time_step > _MAX_SIDES_PER_STEP * self.area_side:
            raise ValueError(
                f"mean_speed * time_step must be <= {_MAX_SIDES_PER_STEP} * "
                f"area_side, got {self.mean_speed!r} * {self.time_step!r} "
                f"on area_side {self.area_side!r}"
            )


def _check_count(name: str, value, minimum: int) -> int:
    """``value`` as an ``int``, after rejecting a bool, a non-integral
    value (numpy integers pass) and a value below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)
