"""Two-mode (linear/circular) Markov mobility for UAV nodes.

Each node alternates between straight-line flight and circular orbits.
Mode sojourns are exponential; at each renewal the node switches mode
with a configurable probability and redraws all motion parameters either
way (speeds and turn radii exponential, angles uniform).  Positions are
advanced analytically per time step (exact arcs, no Euler error) and kept
inside the deployment square by specular reflection.

Every random draw comes from a per-node stream derived from
(seed, node_id, stream), so trajectories are bitwise reproducible and
nodes can be stepped independently in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "Fleet",
    "MobilityConfig",
    "MobilityMode",
    "MobilityParams",
    "NodeState",
    "init_deployment",
    "node_rng",
    "predict_position",
    "step",
    "trajectory_rows",
]

_TWO_PI = 2.0 * math.pi

# Stream namespaces for per-node generators.
_STREAM_INIT = 0
_STREAM_MOTION = 1
_STREAM_NOISE = 2


class MobilityMode(Enum):
    LINEAR = "linear"
    CIRCULAR = "circular"


@dataclass(frozen=True)
class MobilityConfig:
    """Motion model parameters; defaults follow the standard experiment setup."""

    area_side: float = 10_000.0
    mean_speed: float = 50.0
    mean_wait: float = 20.0
    transition_prob: float = 0.2
    time_step: float = 1.0
    prediction_noise_var: float = 10.0
    prediction_horizon: float | None = None  # None: one time step ahead
    mean_turn_radius: float = 500.0

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None and not math.isfinite(v):
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
        if self.prediction_horizon is not None and self.prediction_horizon < 0.0:
            raise ValueError(
                f"prediction_horizon must be >= 0, got {self.prediction_horizon!r}"
            )

    @property
    def horizon(self) -> float:
        return (
            self.time_step
            if self.prediction_horizon is None
            else self.prediction_horizon
        )


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


def _draw_params(
    mode: MobilityMode, cfg: MobilityConfig, rng: np.random.Generator
) -> MobilityParams:
    speed = float(rng.exponential(cfg.mean_speed)) if cfg.mean_speed > 0 else 0.0
    sojourn = float(rng.exponential(cfg.mean_wait))
    if sojourn <= 0.0:  # exponential draw can underflow to exactly 0
        sojourn = 1e-9
    if mode is MobilityMode.LINEAR:
        heading = float(rng.uniform(0.0, _TWO_PI))
        return MobilityParams(speed=speed, sojourn=sojourn, heading=heading)
    turn_radius = max(float(rng.exponential(cfg.mean_turn_radius)), 1e-6)
    phase = float(rng.uniform(0.0, _TWO_PI))
    direction = 1.0 if rng.random() < 0.5 else -1.0
    return MobilityParams(
        speed=speed,
        sojourn=sojourn,
        turn_radius=turn_radius,
        phase=phase,
        angular_speed=direction * speed / turn_radius,
    )


def init_deployment(cfg: MobilityConfig, n: int, seed) -> list[NodeState]:
    """Uniform i.i.d. positions on the square, equiprobable initial modes."""
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n!r}")
    nodes = []
    for i in range(n):
        rng = node_rng(seed, i, _STREAM_INIT)
        x = float(rng.uniform(0.0, cfg.area_side))
        y = float(rng.uniform(0.0, cfg.area_side))
        mode = MobilityMode.LINEAR if rng.random() < 0.5 else MobilityMode.CIRCULAR
        nodes.append(
            NodeState(
                node_id=i,
                x=x,
                y=y,
                mode=mode,
                params=_draw_params(mode, cfg, rng),
            )
        )
    return nodes


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
            mode = (
                MobilityMode.CIRCULAR
                if mode is MobilityMode.LINEAR
                else MobilityMode.LINEAR
            )
        params = _draw_params(mode, cfg, rng)
        time_in_state = 0.0

    return NodeState(
        node_id=state.node_id,
        x=x,
        y=y,
        mode=mode,
        params=params,
        time_in_state=time_in_state,
    )


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


class Fleet:
    """All nodes of one deployment, advancing in lock-step.

    Owns one motion stream and one prediction-noise stream per node so a
    fixed seed reproduces trajectories exactly regardless of what else is
    sampled around the fleet.
    """

    def __init__(self, cfg: MobilityConfig, n: int, seed):
        self.cfg = cfg
        self.nodes = init_deployment(cfg, n, seed)
        self._motion_rngs = [node_rng(seed, i, _STREAM_MOTION) for i in range(n)]
        self._noise_rngs = [node_rng(seed, i, _STREAM_NOISE) for i in range(n)]
        self.time = 0.0

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def advance(self) -> None:
        self.nodes = [
            step(s, self.cfg, g) for s, g in zip(self.nodes, self._motion_rngs)
        ]
        self.time += self.cfg.time_step

    def true_positions(self) -> np.ndarray:
        return np.array([(s.x, s.y) for s in self.nodes], dtype=float)

    def predicted_positions(self) -> np.ndarray:
        horizon = self.cfg.horizon
        noise_var = self.cfg.prediction_noise_var
        out = np.empty((self.n_nodes, 2), dtype=float)
        for i, (s, g) in enumerate(zip(self.nodes, self._noise_rngs)):
            out[i] = predict_position(s, horizon, noise_var, g)
        return out


def trajectory_rows(
    cfg: MobilityConfig, n: int, seed, n_steps: int
) -> Iterator[tuple[float, int, float, float, str]]:
    """(t, node_id, x, y, mode) rows for a trajectory dump, lazily.

    ``n_steps`` is checked on the call, before any row is produced.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps!r}")
    fleet = Fleet(cfg, n, seed)

    def rows():
        for _ in range(n_steps + 1):
            for s in fleet.nodes:
                yield fleet.time, s.node_id, s.x, s.y, s.mode.value
            fleet.advance()

    return rows()
