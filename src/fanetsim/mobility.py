"""Two-mode (linear/circular) Markov mobility for UAV nodes.

Each node alternates between straight-line flight and circular orbits.
Mode sojourns are exponential; at each renewal the node switches mode
with a configurable probability and redraws all motion parameters either
way (speeds and turn radii exponential, angles uniform).  Positions are
advanced analytically per time step (exact arcs, no Euler error) and kept
inside the deployment square by specular reflection.

Every random draw comes from a per-node stream derived from
(seed, node_id, stream), so trajectories are bitwise reproducible and
nodes can be stepped independently in any order; these streams are the
reproducibility contract.  ``Fleet`` steps the whole deployment as
arrays (kinematics, reflection and prediction are a few array operations
per step) and draws from a node's stream only when that node renews or
is predicted with noise.  It seeds all of its streams in one array pass
over SeedSequence's hashing, whose key-word terms are cached per hash
constant and node count; each stream is bit for bit
``default_rng(SeedSequence(seed, spawn_key=(node_id, stream)))``, built
from its own row of seed words.  Prediction noise is drawn eight
predictions ahead, one ``standard_normal`` call per node into one block,
scaled by sigma once: the bits of ``normal(0.0, sigma)``.  The
deployment and every renewal share one draw loop, ``_renewals``, which
makes each node's scalar ``Generator`` calls in its stream's order.  A
prediction extrapolates one time step, to a hop's landing time, so a
step's kinematics are evaluated once: the prediction keeps its
displacement, and the next ``advance`` moves the fleet by it.  The
per-node reference that the fleet matches bit for bit is a test oracle,
in ``tests/oracles.py``; it writes each stream's draw order out on its
own.  ``MobilityConfig`` lives in the numpy-free ``fanetsim.mobility_config``:
numpy loads with this module, which the harness imports for its first ``Fleet``.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from itertools import repeat
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .mobility_config import _check_count

if TYPE_CHECKING:
    from .mobility_config import MobilityConfig

__all__ = ["Fleet", "MobilityMode", "trajectory_rows"]

_TWO_PI = 2.0 * math.pi
_NOISE_BLOCK = 8  # prediction steps of noise drawn per call on a node's stream

# Stream namespaces for per-node generators.
_STREAM_INIT = 0
_STREAM_MOTION = 1
_STREAM_NOISE = 2


class MobilityMode(Enum):
    LINEAR = "linear"
    CIRCULAR = "circular"


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _entropy_words(entropy) -> int:
    """Length of numpy's uint32 coercion of an int or (nested) int sequence."""
    if isinstance(entropy, (int, np.integer)):
        return max(1, -(-int(entropy).bit_length() // 32))
    return sum(map(_entropy_words, entropy))


@functools.cache
def _hash_rounds(h: int, mult: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """XOR and multiplier of ``k`` successive SeedSequence hash rounds
    from hash constant ``h``: each round XORs its word with ``h``, then
    advances ``h *= mult`` and multiplies the word by the new ``h``.
    Cached, and read-only: they depend only on the arguments."""
    hs = [h]
    for _ in range(k):
        hs.append(hs[-1] * mult & _MASK32)
    hs = np.array(hs, dtype=np.uint32)
    hs.flags.writeable = False
    return hs[:-1], hs[1:]


@functools.lru_cache(maxsize=16)  # an entry holds 16 bytes per node
def _key_mixins(h: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``_MIX_R`` times the hashed key words ``node`` (shape ``(n, 1)``)
    and ``stream`` (shape ``(3, 1, 1)``), each mixed in by its own hash
    round after the entropy's rounds left hash constant ``h``.  Cached,
    and read-only: they depend only on the arguments."""
    xor, mul = _hash_rounds(h, _MULT_A, 8)
    keys = (
        np.arange(n, dtype=np.uint32)[:, None],
        np.arange(3, dtype=np.uint32)[:, None, None],
    )
    out = []
    for word, x, m in zip(keys, xor.reshape(2, 4), mul.reshape(2, 4)):
        mixin = (word ^ x) * m
        mixin ^= mixin >> 16
        mixin *= _MIX_R
        mixin.flags.writeable = False
        out.append(mixin)
    return tuple(out)


def _stream_words(seed, n: int) -> np.ndarray:
    """PCG64 seed words of every stream of an ``n``-node fleet: row
    ``[stream, node]`` is what ``SeedSequence(seed, spawn_key=(node,
    stream))`` seeds a PCG64 with, bit for bit.

    This is SeedSequence's hashing with spawn key ``(node, stream)``, done
    over all streams at once.  The pool of the run entropy alone is shared
    by every stream, so it comes from numpy.  Each key word then mixes into
    each pool word with its own hash round, whose constants depend only on
    how many rounds the entropy took before it (``_key_mixins``).
    """
    base = np.random.SeedSequence(seed)
    rounds = 16 + 4 * max(0, _entropy_words(base.entropy) - 4)
    h = _INIT_A * pow(_MULT_A, rounds, 1 << 32) & _MASK32
    pool = base.pool
    for mixin in _key_mixins(h, n):
        pool = _MIX_L * pool - mixin
        pool ^= pool >> 16
    # generate_state(4, np.uint64): 8 output rounds, cycling over the pool
    xor, mul = _hash_rounds(_INIT_B, _MULT_B, 8)
    state = (np.concatenate((pool, pool), axis=-1) ^ xor) * mul
    state ^= state >> 16
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _seed_words_type() -> type:
    """An ``ISeedSequence`` that hands PCG64 ready-made seed words.

    Built on first use: ``perfbench/run.py``'s tracer imports this module
    but runs no fleet, and its children's ``ru_maxrss`` starts at its peak.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def _renewals(
    cfg: MobilityConfig,
    rngs: list[np.random.Generator],
    linear: list[bool],
    switch_prob: float,
) -> Iterator[tuple]:
    """Columns ``(linear, speed, sojourn, heading, turn_radius, phase,
    angular_speed)`` of one renewal per generator in ``rngs``, the loop of
    both the deployment and ``Fleet._renew``.  Each node leaves its mode in
    ``linear`` with ``switch_prob``, then redraws every parameter; fields
    its new mode does not use are 0.  All draws are scalar ``Generator``
    calls, cheaper than one call per node with ``size``.

    ``m * standard_exponential()`` and ``2pi * random()`` are bit for bit
    ``exponential(m)`` and ``uniform(0, 2pi)``, at about half the cost.
    """
    mean_speed, mean_wait = cfg.mean_speed, cfg.mean_wait
    mean_turn_radius = cfg.mean_turn_radius
    rows = []
    for rng, lin in zip(rngs, linear):
        random, exp = rng.random, rng.standard_exponential
        if random() < switch_prob:
            lin = not lin
        speed = mean_speed * exp() if mean_speed > 0 else 0.0
        sojourn = mean_wait * exp()
        if sojourn <= 0.0:  # exponential draw can underflow to exactly 0
            sojourn = 1e-9
        if lin:
            rows.append((True, speed, sojourn, _TWO_PI * random(), 0.0, 0.0, 0.0))
            continue
        turn_radius = max(mean_turn_radius * exp(), 1e-6)
        phase = _TWO_PI * random()
        direction = 1.0 if random() < 0.5 else -1.0
        omega = direction * speed / turn_radius
        rows.append((False, speed, sojourn, 0.0, turn_radius, phase, omega))
    return zip(*rows)


def _unit(angle: np.ndarray) -> np.ndarray:
    """Rows ``cos a`` and ``sin a``.  ``tests/test_mobility.py`` checks
    that numpy's cos/sin give ``math``'s results, as the per-node reference
    in ``tests/oracles.py`` uses."""
    return np.array((np.cos(angle), np.sin(angle)))


def _fold_all(v: np.ndarray, side: float) -> tuple[np.ndarray, np.ndarray | None]:
    """Reflect every coordinate into [0, side]: the reflected coordinates and
    whether each one reflected an odd number of times (its velocity component
    then mirrors), or None if all stayed inside."""
    out = (v < 0.0) | (v > side)
    if not out.any():
        return v, None
    flipped = np.zeros_like(out)
    while out.any():
        flipped ^= out
        v = np.where(v < 0.0, -v, np.where(v > side, 2.0 * side - v, v))
        out = (v < 0.0) | (v > side)
    return v, flipped


class Fleet:
    """All nodes of one deployment, advancing in lock-step.

    State is held as one array per quantity (position, mode, speed,
    sojourn, heading, turn radius, orbit phase, signed angular speed, time
    in state), so a step moves every node in a few array operations with
    the same float operations as the per-node reference in
    ``tests/oracles.py``.  Random draws stay per node:
    each node has its own motion stream, created at its first renewal, and
    its own prediction-noise stream, so a fixed seed reproduces
    trajectories exactly regardless of what else is sampled around the
    fleet.  The seed words of all three streams of every node are hashed
    at once on construction (``_stream_words``).
    """

    def __init__(self, cfg: MobilityConfig, n: int, seed):
        n = _check_count("n", n, 2)
        self.cfg = cfg
        # _words[stream][node]: a stream's seed words, split once into rows
        self._words = [list(rows) for rows in _stream_words(seed, n)]
        # Each init stream draws x, y, then the initial mode as a switch
        # out of circular with probability 1/2, then the mode's parameters.
        init = [self._rng(i, _STREAM_INIT) for i in range(n)]
        side = cfg.area_side
        xy = [(side * g.random(), side * g.random()) for g in init]
        self._xy = np.array(xy).T.copy()  # row 0 is x, row 1 is y
        (
            self._linear,
            self._speed,
            self._sojourn,
            self._heading,
            self._turn_radius,
            self._phase,
            self._angular_speed,
        ) = map(np.array, _renewals(cfg, init, [False] * n, 0.5))
        self._time_in_state = np.zeros(n)
        self._motion_rngs: list[np.random.Generator | None] = [None] * n
        self._noise_rngs = [self._rng(i, _STREAM_NOISE) for i in range(n)]
        self._noise_block = np.empty((n, 0, 2))  # [node, step, axis], drawn ahead
        self._noise_next = 0  # the block's next unread step
        # _displace(time_step) of the current state, kept by a prediction
        # for the next advance
        self._ahead: tuple[np.ndarray, np.ndarray] | None = None
        self.time = 0.0

    def _rng(self, node_id: int, stream: int) -> np.random.Generator:
        """The generator of one node's stream, from the words hashed at init."""
        words = _seed_words_type()(self._words[stream][node_id])
        return np.random.Generator(np.random.PCG64(words))

    @property
    def n_nodes(self) -> int:
        return len(self._linear)

    def _displace(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """Raw positions and orbit phases of every node after dt, before
        boundary handling."""
        phase = self._phase
        new_phase = phase + self._angular_speed * dt
        line = self._speed * dt * _unit(self._heading)
        arc = self._turn_radius * (_unit(new_phase) - _unit(phase))
        return self._xy + np.where(self._linear, line, arc), new_phase

    def advance(self) -> None:
        """Advance every node by one time step: move, reflect off the walls
        (heading mirrored; orbit phase mirrored and spin reversed), then
        renew each node whose time in state reaches its sojourn."""
        dt = self.cfg.time_step
        ahead, self._ahead = self._ahead, None
        xy, phase = self._displace(dt) if ahead is None else ahead
        # Linear nodes keep phase and spin 0, so this leaves their phase 0.
        phase %= _TWO_PI
        xy, flipped = _fold_all(xy, self.cfg.area_side)
        if flipped is not None:
            fx, fy = flipped
            turned = fx | fy
            linear, circular = self._linear, ~self._linear
            heading = np.where(fx, math.pi - self._heading, self._heading)
            heading = np.where(fy, -heading, heading)
            self._heading = np.where(
                linear & turned, heading % _TWO_PI, self._heading
            )
            mirrored = np.where(fx, math.pi - phase, phase)
            mirrored = np.where(fy, -mirrored, mirrored)
            phase = np.where(circular & turned, mirrored % _TWO_PI, phase)
            omega = self._angular_speed
            omega = np.where(circular & fx, -omega, omega)
            self._angular_speed = np.where(circular & fy, -omega, omega)
        self._xy = xy
        self._phase = phase
        self._time_in_state += dt
        due = (self._time_in_state >= self._sojourn).nonzero()[0]
        if due.size:
            self._renew(due)
        self.time += dt

    def _renew(self, due: np.ndarray) -> None:
        """The Markov renewal of each due node, from its own motion stream:
        switch mode with ``transition_prob``, then redraw the parameters."""
        rngs = self._motion_rngs
        idx = due.tolist()
        for i in idx:  # a node's motion stream is made at its first renewal
            if rngs[i] is None:
                rngs[i] = self._rng(i, _STREAM_MOTION)
        (
            self._linear[due],
            self._speed[due],
            self._sojourn[due],
            self._heading[due],
            self._turn_radius[due],
            self._phase[due],
            self._angular_speed[due],
        ) = _renewals(
            self.cfg, [rngs[i] for i in idx], self._linear[due].tolist(),
            self.cfg.transition_prob,
        )
        self._time_in_state[due] = 0.0

    def true_positions(self) -> np.ndarray:
        return self._xy.T.copy()

    def predicted_positions(self) -> np.ndarray:
        """Every node's current kinematics extrapolated one ``time_step``
        ahead, to where a hop decided now lands (no renewal or reflection
        is anticipated), plus per-node Gaussian noise of per-axis variance
        ``prediction_noise_var``.

        Each call reads the next ``normal(0, sigma, 2)`` draw of every
        node's noise stream.  The draws come ``_NOISE_BLOCK`` calls at a
        time, one ``standard_normal`` call per node, filling its rows of
        one block that is then scaled by sigma; a generator yields the
        same values in one call of 2k as in k calls of 2, and nothing
        else reads the noise streams.

        The displacement is the one the next ``advance`` makes, so the
        fleet keeps it for that step."""
        noise_var = self.cfg.prediction_noise_var
        self._ahead = self._displace(self.cfg.time_step)
        out = self._ahead[0].T.copy()
        if noise_var > 0.0:
            k = self._noise_next
            if k == self._noise_block.shape[1]:
                # normal(0.0, sigma) computes 0.0 + sigma * z: the same bits
                block = np.empty((len(self._noise_rngs), _NOISE_BLOCK, 2))
                for g, rows in zip(self._noise_rngs, block):
                    g.standard_normal(out=rows)
                block *= math.sqrt(noise_var)
                self._noise_block = block
                k = 0
            out += self._noise_block[:, k]
            self._noise_next = k + 1
        return out


def trajectory_rows(
    cfg: MobilityConfig, n: int, seed, n_steps: int
) -> Iterator[tuple[float, int, float, float, str]]:
    """(t, node_id, x, y, mode) rows for a trajectory dump, lazily.

    ``n`` and ``n_steps`` are checked on the call, before any row is
    produced.
    """
    n_steps = _check_count("n_steps", n_steps, 0)
    fleet = Fleet(cfg, n, seed)

    def rows():
        for _ in range(n_steps + 1):
            xs, ys = fleet._xy.tolist()
            modes = (
                (MobilityMode.LINEAR if linear else MobilityMode.CIRCULAR).value
                for linear in fleet._linear.tolist()
            )
            yield from zip(repeat(fleet.time), range(n), xs, ys, modes)
            fleet.advance()

    return rows()
