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
reproducibility contract.  ``Fleet`` steps the deployment node by node
over plain Python floats (at paper scale a numpy call costs more than
the arithmetic it does) and draws from a node's stream only when that
node renews or is predicted with noise.  It seeds all of its streams in
one array pass over SeedSequence's hashing, whose key-word terms are
cached per hash constant and node count; each stream is bit for bit
``default_rng(SeedSequence(seed, spawn_key=(node_id, stream)))``, built
from its own row of seed words.  Prediction noise is drawn eight
predictions ahead, one ``standard_normal`` call per node into one block,
scaled by sigma once: the bits of ``normal(0.0, sigma)``.  The
deployment and every renewal share one draw loop, ``Fleet._renew``.  A
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
from array import array
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


def _fold(v: float, side: float) -> tuple[float, bool]:
    """Reflect a coordinate into [0, side]; flag whether it reflected an odd
    number of times (its velocity component then mirrors)."""
    flipped = False
    while v < 0.0 or v > side:
        v = -v if v < 0.0 else 2.0 * side - v
        flipped = not flipped
    return v, flipped


def _positions(xs: list[float], ys: list[float]) -> np.ndarray:
    """``(n, 2)`` float64 positions over one interleaved buffer."""
    xy = [0.0] * (2 * len(xs))
    xy[::2], xy[1::2] = xs, ys
    return np.frombuffer(array("d", xy)).reshape(-1, 2)


class Fleet:
    """All nodes of one deployment, advancing in lock-step.

    State is one list of floats per quantity (x, y, mode, speed, sojourn,
    heading, turn radius, orbit phase, signed angular speed, time in
    state), stepped node by node with ``math`` in the float operations of
    the per-node reference in ``tests/oracles.py``.  A linear node keeps
    its step offset, recomputed only when it renews or reflects, so its
    step makes no trig call.  Each node has its own motion stream, made
    at its first renewal, and its own prediction-noise stream, so a fixed
    seed reproduces trajectories exactly regardless of what else is
    sampled around the fleet.  The seed words of all three streams of
    every node are hashed at once on construction (``_stream_words``).
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
        self._x = [side * g.random() for g in init]
        self._y = [side * g.random() for g in init]
        self._linear = [False] * n
        # _dx and _dy are a linear node's kept step offset (see _aim)
        (self._speed, self._sojourn, self._heading, self._turn_radius, self._phase,
         self._angular_speed, self._time_in_state, self._dx, self._dy) = (
            [0.0] * n for _ in range(9))
        self._renew(range(n), init, 0.5)
        self._motion_rngs: list[np.random.Generator | None] = [None] * n
        self._noise_rngs = [self._rng(i, _STREAM_NOISE) for i in range(n)]
        self._noise_block = np.empty((n, 0, 2))  # [node, step, axis], drawn ahead
        self._noise_next = 0  # the block's next unread step
        # _displace() of the current state, kept by a prediction for advance
        self._ahead: tuple[list, list, list] | None = None
        self.time = 0.0

    def _rng(self, node_id: int, stream: int) -> np.random.Generator:
        """The generator of one node's stream, from the words hashed at init."""
        words = _seed_words_type()(self._words[stream][node_id])
        return np.random.Generator(np.random.PCG64(words))

    @property
    def n_nodes(self) -> int:
        return len(self._linear)

    def _renew(self, due, rngs: list, switch_prob: float) -> None:
        """The Markov renewal of each due node i, written into its state:
        leave the mode with ``switch_prob``, then redraw every parameter
        from stream ``rngs[i]`` (a motion stream is made at the node's first
        renewal) in scalar ``Generator`` calls; fields the new mode does
        not use are 0.  ``m * standard_exponential()`` and ``2pi *
        random()`` are bit for bit ``exponential(m)`` and ``uniform(0,
        2pi)``, at about half the cost."""
        cfg = self.cfg
        mean_speed, mean_wait = cfg.mean_speed, cfg.mean_wait
        mean_turn_radius = cfg.mean_turn_radius
        linear, speeds, sojourns = self._linear, self._speed, self._sojourn
        headings, radii, phases = self._heading, self._turn_radius, self._phase
        omegas, time_in_state = self._angular_speed, self._time_in_state
        for i in due:
            rng = rngs[i]
            if rng is None:
                rng = rngs[i] = self._rng(i, _STREAM_MOTION)
            random, exp = rng.random, rng.standard_exponential
            if random() < switch_prob:
                linear[i] = not linear[i]
            speed = speeds[i] = mean_speed * exp() if mean_speed > 0 else 0.0
            sojourn = mean_wait * exp()
            if sojourn <= 0.0:  # exponential draw can underflow to exactly 0
                sojourn = 1e-9
            sojourns[i] = sojourn
            time_in_state[i] = 0.0
            if linear[i]:
                radii[i] = phases[i] = omegas[i] = 0.0
                self._aim(i, _TWO_PI * random())
                continue
            radius = radii[i] = max(mean_turn_radius * exp(), 1e-6)
            headings[i] = 0.0
            phases[i] = _TWO_PI * random()
            direction = 1.0 if random() < 0.5 else -1.0
            omegas[i] = direction * speed / radius

    def _displace(self) -> tuple[list, list, list]:
        """Every node's raw position one time step ahead, before boundary
        handling, and its orbit phase then, wrapped into [0, 2pi)."""
        dt = self.cfg.time_step
        cos, sin = math.cos, math.sin
        xs, ys, phases = [], [], []
        for x, y, linear, dx, dy, radius, phase, omega in zip(
            self._x, self._y, self._linear, self._dx, self._dy,
            self._turn_radius, self._phase, self._angular_speed,
        ):
            if linear:
                xs.append(x + dx)
                ys.append(y + dy)
                phases.append(phase)
                continue
            new_phase = phase + omega * dt
            xs.append(x + radius * (cos(new_phase) - cos(phase)))
            ys.append(y + radius * (sin(new_phase) - sin(phase)))
            phases.append(new_phase % _TWO_PI)
        return xs, ys, phases

    def advance(self) -> None:
        """Advance every node by one time step: move, reflect off the walls
        (heading mirrored; orbit phase mirrored and spin reversed), then
        renew each node whose time in state reaches its sojourn."""
        cfg = self.cfg
        dt, side = cfg.time_step, cfg.area_side
        ahead, self._ahead = self._ahead, None
        xs, ys, phases = self._displace() if ahead is None else ahead
        self._x, self._y, self._phase = xs, ys, phases  # folded in place below
        tis, due = self._time_in_state, []
        for i, (x, y, t, sojourn) in enumerate(zip(xs, ys, tis, self._sojourn)):
            if not (0.0 <= x <= side and 0.0 <= y <= side):
                xs[i], fx = _fold(x, side)
                ys[i], fy = _fold(y, side)
                if fx or fy:
                    self._mirror(i, fx, fy)
            t += dt
            tis[i] = t
            if t >= sojourn:
                due.append(i)
        if due:
            self._renew(due, self._motion_rngs, cfg.transition_prob)
        self.time += dt

    def _aim(self, i: int, heading: float) -> None:
        """Set linear node i's heading and its kept step offset."""
        self._heading[i] = heading
        step = self._speed[i] * self.cfg.time_step
        self._dx[i] = step * math.cos(heading)
        self._dy[i] = step * math.sin(heading)

    def _mirror(self, i: int, fx: bool, fy: bool) -> None:
        """Mirror node i's motion off the walls it crossed an odd number of
        times: a linear heading (and its kept step offset), or an orbit
        phase and its spin."""
        if self._linear[i]:
            heading = math.pi - self._heading[i] if fx else self._heading[i]
            self._aim(i, (-heading if fy else heading) % _TWO_PI)
            return
        phase, omega = self._phase[i], self._angular_speed[i]
        if fx:
            phase, omega = math.pi - phase, -omega
        if fy:
            phase, omega = -phase, -omega
        self._phase[i] = phase % _TWO_PI
        self._angular_speed[i] = omega

    def true_positions(self) -> np.ndarray:
        return _positions(self._x, self._y)

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
        self._ahead = xs, ys, _ = self._displace()
        out = _positions(xs, ys)
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
            modes = (
                (MobilityMode.LINEAR if linear else MobilityMode.CIRCULAR).value
                for linear in fleet._linear
            )
            yield from zip(repeat(fleet.time), range(n), fleet._x, fleet._y, modes)
            fleet.advance()

    return rows()
