import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fanetsim import mobility
from fanetsim.mobility import Fleet, MobilityMode, trajectory_rows
from fanetsim.mobility_config import MobilityConfig
from fanetsim.simharness import record_trace

from oracles import (
    MobilityParams,
    NodeState,
    fleet_states,
    init_deployment,
    ks_statistic_uniform,
    node_rng,
    predict_position,
    step,
)


def linear_state(x=100.0, y=100.0, speed=10.0, heading=0.0):
    return NodeState(
        0, x, y, MobilityMode.LINEAR,
        MobilityParams(speed=speed, sojourn=1e12, heading=heading),
    )


def circular_state(x, y, speed, radius, phase, direction=1.0):
    return NodeState(
        0, x, y, MobilityMode.CIRCULAR,
        MobilityParams(
            speed=speed,
            sojourn=1e12,
            turn_radius=radius,
            phase=phase,
            angular_speed=direction * speed / radius,
        ),
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MobilityConfig(area_side=0.0)
        with pytest.raises(ValueError):
            MobilityConfig(mean_wait=0.0)
        with pytest.raises(ValueError):
            MobilityConfig(transition_prob=1.5)
        with pytest.raises(ValueError):
            MobilityConfig(time_step=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("area_side", math.nan),
            ("area_side", math.inf),
            ("mean_speed", math.nan),
            ("mean_speed", math.inf),
            ("mean_wait", math.inf),
            ("transition_prob", math.nan),
            ("time_step", math.nan),
            ("prediction_noise_var", math.nan),
            ("mean_turn_radius", math.inf),
        ],
    )
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            MobilityConfig(**{field: value})

    def test_travel_per_step_bounded(self):
        # the wall reflection folds once per side crossed, so a step's
        # travel is capped at 1000 sides; 1e22 m/s used to never finish
        MobilityConfig(area_side=50.0, mean_speed=10_000.0, time_step=5.0)
        for kw in (
            dict(area_side=50.0, mean_speed=10_001.0, time_step=5.0),
            dict(mean_speed=1e10),
            dict(mean_speed=1e22),
        ):
            with pytest.raises(ValueError, match=r"mean_speed \* time_step"):
                MobilityConfig(**kw)


class TestDeployment:
    def test_deterministic_for_fixed_seed(self):
        cfg = MobilityConfig()
        a, b, c = (fleet_states(Fleet(cfg, 8, seed)) for seed in (123, 123, 124))
        assert a == b and a != c

    def test_requires_two_nodes(self):
        with pytest.raises(ValueError):
            Fleet(MobilityConfig(), 1, 0)
        with pytest.raises(ValueError):
            init_deployment(MobilityConfig(), 1, 0)

    def test_uniform_positions(self):
        cfg = MobilityConfig(area_side=10_000.0)
        xs, ys = Fleet(cfg, 10_000, 5).true_positions().T
        assert abs(xs.mean() - 5_000.0) < 100.0
        assert abs(ys.mean() - 5_000.0) < 100.0
        # Kolmogorov-Smirnov vs uniform at the 1% level
        d_crit = 1.628 / math.sqrt(len(xs))
        assert ks_statistic_uniform(xs, 0.0, 10_000.0) < d_crit

    def test_modes_roughly_balanced(self):
        nodes = fleet_states(Fleet(MobilityConfig(), 10_000, 17))
        frac = np.mean([s.mode is MobilityMode.LINEAR for s in nodes])
        assert abs(frac - 0.5) < 0.02


class TestStep:
    def test_linear_kinematics(self):
        cfg = MobilityConfig(time_step=2.0)
        s = step(linear_state(speed=10.0, heading=0.0), cfg, node_rng(0, 0, 1))
        assert s.x == pytest.approx(120.0)
        assert s.y == pytest.approx(100.0)

    def test_circular_orbit_closes(self):
        radius, speed = 200.0, 10.0
        period = 2.0 * math.pi * radius / speed
        n_steps = 512
        cfg = MobilityConfig(time_step=period / n_steps)
        s = circular_state(5_000.0, 5_000.0, speed, radius, phase=0.3)
        rng = node_rng(0, 0, 1)
        for _ in range(n_steps):
            s = step(s, cfg, rng)
        assert math.hypot(s.x - 5_000.0, s.y - 5_000.0) < 1e-6 * radius

    def test_reflection_keeps_positions_inside(self):
        cfg = MobilityConfig(mean_speed=200.0, mean_wait=5.0, area_side=2_000.0)
        s = init_deployment(cfg, 2, 9)[0]
        rng = node_rng(9, 0, 1)
        for _ in range(200_000):
            s = step(s, cfg, rng)
            assert 0.0 <= s.x <= cfg.area_side
            assert 0.0 <= s.y <= cfg.area_side

    def test_linear_reflection_mirrors_heading(self):
        cfg = MobilityConfig(time_step=1.0, area_side=1_000.0)
        s = NodeState(
            0, 990.0, 500.0, MobilityMode.LINEAR,
            MobilityParams(speed=20.0, sojourn=1e12, heading=0.0),
        )
        s = step(s, cfg, node_rng(0, 0, 1))
        assert s.x == pytest.approx(990.0)  # 10 out, folded 10 back
        assert math.cos(s.params.heading) == pytest.approx(-1.0)

    def test_mode_occupancy_is_balanced(self):
        # symmetric two-state chain: stationary occupancy is one half
        cfg = MobilityConfig(mean_speed=50.0, mean_wait=5.0)
        s = init_deployment(cfg, 2, 21)[0]
        rng = node_rng(21, 0, 1)
        linear_steps = 0
        n = 1_000_000
        for _ in range(n):
            s = step(s, cfg, rng)
            linear_steps += s.mode is MobilityMode.LINEAR
        assert abs(linear_steps / n - 0.5) < 0.02

    def test_renewal_draw_means(self):
        # drawn speeds average the configured mean speed; drawn sojourns
        # average the configured mean wait
        cfg = MobilityConfig(mean_speed=50.0, mean_wait=2.0)
        s = init_deployment(cfg, 2, 33)[0]
        rng = node_rng(33, 0, 1)
        speeds, sojourns = [], []
        while len(speeds) < 100_000:
            s = step(s, cfg, rng)
            if s.time_in_state == 0.0:  # renewal happened this step
                speeds.append(s.params.speed)
                sojourns.append(s.params.sojourn)
        assert abs(np.mean(speeds) - 50.0) / 50.0 < 0.02
        assert abs(np.mean(sojourns) - 2.0) / 2.0 < 0.02


class TestPrediction:
    def test_exact_at_zero_horizon_zero_noise(self):
        s = linear_state(x=123.0, y=456.0)
        assert predict_position(s, 0.0, 0.0) == (123.0, 456.0)

    def test_linear_extrapolation(self):
        s = linear_state(x=100.0, y=100.0, speed=10.0, heading=0.5)
        x, y = predict_position(s, 2.0, 0.0)
        assert x == pytest.approx(100.0 + 20.0 * math.cos(0.5))
        assert y == pytest.approx(100.0 + 20.0 * math.sin(0.5))

    def test_circular_extrapolation_matches_stepping(self):
        s = circular_state(5_000.0, 5_000.0, 10.0, 300.0, phase=1.1)
        cfg = MobilityConfig(time_step=7.0)
        x, y = predict_position(s, 7.0, 0.0)
        stepped = step(s, cfg, node_rng(0, 0, 1))
        assert (x, y) == (pytest.approx(stepped.x), pytest.approx(stepped.y))

    def test_noise_variance(self):
        s = linear_state()
        rng = node_rng(1, 0, 2)
        pts = np.array([predict_position(s, 0.0, 10.0, rng) for _ in range(100_000)])
        var = pts.var(axis=0)
        assert abs(var[0] - 10.0) < 0.5
        assert abs(var[1] - 10.0) < 0.5

    def test_noise_needs_rng(self):
        with pytest.raises(ValueError):
            predict_position(linear_state(), 0.0, 10.0, None)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            predict_position(linear_state(), -1.0, 0.0)


class TestFleet:
    def test_trajectories_bitwise_reproducible(self):
        cfg = MobilityConfig()
        a, b = Fleet(cfg, 6, 99), Fleet(cfg, 6, 99)
        for _ in range(100):
            a.advance()
            b.advance()
        assert fleet_states(a) == fleet_states(b)
        assert np.array_equal(a.predicted_positions(), b.predicted_positions())

    def test_node_streams_independent_of_order(self):
        # stepping nodes individually, in any order, reproduces the fleet
        cfg = MobilityConfig()
        fleet = Fleet(cfg, 4, 5)
        for _ in range(50):
            fleet.advance()
        states = {i: s for i, s in enumerate(init_deployment(cfg, 4, 5))}
        rngs = {i: node_rng(5, i, 1) for i in range(4)}
        for i in (3, 1, 0, 2):
            for _ in range(50):
                states[i] = step(states[i], cfg, rngs[i])
        assert [states[i] for i in range(4)] == fleet_states(fleet)

    def test_zero_velocity_zero_noise_prediction_is_truth(self):
        cfg = MobilityConfig(mean_speed=0.0, prediction_noise_var=0.0)
        fleet = Fleet(cfg, 5, 2)
        for _ in range(10):
            fleet.advance()
        assert np.array_equal(fleet.true_positions(), fleet.predicted_positions())

    @pytest.mark.parametrize("mean_speed", [50.0, 300.0])
    @pytest.mark.parametrize("time_step", [0.5, 5.0, 30.0])
    def test_noise_free_prediction_is_the_next_position(self, time_step, mean_speed):
        # a prediction looks one time step ahead: where no wall reflects a
        # node, the next advance lands exactly on its noise-free prediction
        cfg = MobilityConfig(
            mean_speed=mean_speed, mean_wait=5.0, time_step=time_step,
            prediction_noise_var=0.0,
        )
        fleet = Fleet(cfg, 40, 3)
        compared = 0
        for _ in range(20):
            predicted = fleet.predicted_positions()
            fleet.advance()
            inside = ((predicted >= 0.0) & (predicted <= cfg.area_side)).all(axis=1)
            assert np.array_equal(fleet.true_positions()[inside], predicted[inside])
            compared += int(inside.sum())
        assert compared > 400  # of 800 node-steps, most land inside


class TestNoiseBlocks:
    """Noise is drawn several predictions ahead, as the same stream values."""

    def test_repeated_predictions_read_successive_draws(self):
        cfg = MobilityConfig(prediction_noise_var=7.0)
        n, seed, calls = 6, 13, 21  # past two blocks of draws
        fleet = Fleet(cfg, n, seed)
        for _ in range(3):
            fleet.advance()
        exact = Fleet(MobilityConfig(prediction_noise_var=0.0), n, seed)
        for _ in range(3):
            exact.advance()
        base = exact.predicted_positions()
        noise = [node_rng(seed, i, 2) for i in range(n)]
        sigma = math.sqrt(cfg.prediction_noise_var)
        for _ in range(calls):
            draws = np.array([g.normal(0.0, sigma, 2) for g in noise])
            assert fleet.predicted_positions().tobytes() == (base + draws).tobytes()

    @pytest.mark.parametrize("noise_var", [0.0, 1e-12, 10.0, 1e6])
    def test_stepped_predictions_read_each_node_stream(self, noise_var):
        # 17 predict-and-advance steps cross two 8-prediction blocks
        n, seed, steps = 5, 29, 17
        fleet = Fleet(MobilityConfig(prediction_noise_var=noise_var), n, seed)
        exact = Fleet(MobilityConfig(prediction_noise_var=0.0), n, seed)
        noise = [node_rng(seed, i, 2) for i in range(n)]
        sigma = math.sqrt(noise_var)
        before = [g.bit_generator.state for g in fleet._noise_rngs]
        for _ in range(steps):
            expected = exact.predicted_positions()
            if noise_var > 0.0:
                expected = expected + [g.normal(0.0, sigma, 2) for g in noise]
            assert fleet.predicted_positions().tobytes() == expected.tobytes()
            fleet.advance()
            exact.advance()
        after = [g.bit_generator.state for g in fleet._noise_rngs]
        assert (after == before) == (noise_var == 0.0)

    def test_zero_noise_draws_nothing(self):
        fleet = Fleet(MobilityConfig(prediction_noise_var=0.0), 5, 8)
        before = [g.bit_generator.state for g in fleet._noise_rngs]
        for _ in range(20):
            fleet.predicted_positions()
            fleet.advance()
        assert [g.bit_generator.state for g in fleet._noise_rngs] == before


# Every list of a fleet's motion state, kept step offsets included.
_STATE = (
    "_x", "_y", "_linear", "_speed", "_sojourn", "_heading", "_turn_radius",
    "_phase", "_angular_speed", "_time_in_state", "_dx", "_dy",
)


class TestPredictionKeepsTrajectory:
    """A prediction hands its displacement to the next advance;
    predicting never changes where the fleet goes."""

    @pytest.mark.parametrize("noise_var", [0.0, 10.0])
    @pytest.mark.parametrize("mean_speed", [50.0, 400.0])
    def test_prediction_never_moves_the_trajectory(
        self, monkeypatch, mean_speed, noise_var
    ):
        folds = []
        original = mobility._fold

        def counted(v, side):
            out = original(v, side)
            folds.append(out[0] != v)
            return out

        monkeypatch.setattr(mobility, "_fold", counted)
        cfg = MobilityConfig(
            area_side=1_000.0, mean_speed=mean_speed, mean_wait=8.0, time_step=5.0,
            prediction_noise_var=noise_var,
        )
        # one fleet predicts before every step, one before some steps
        # (twice before a few), and one never
        every, some, plain = (Fleet(cfg, 12, 31) for _ in range(3))
        for k in range(25):
            every.predicted_positions()
            for _ in range((k % 3 == 0) + (k % 5 == 0)):
                some.predicted_positions()
            for fleet in (every, some, plain):
                fleet.advance()
            for fleet in (every, some):
                assert fleet.time == plain.time
                assert (
                    fleet.true_positions().tobytes()
                    == plain.true_positions().tobytes()
                )
                for name in _STATE:
                    # repr tells -0.0 from 0.0 and round-trips every float
                    a, b = getattr(fleet, name), getattr(plain, name)
                    assert repr(a) == repr(b), name
        assert any(folds)  # some node reflected off a wall
        assert None not in plain._motion_rngs  # every node renewed

    @pytest.mark.parametrize("noise_var", [0.0, 10.0])
    def test_trace_displaces_once_per_step(self, monkeypatch, noise_var):
        displaced = []
        original = Fleet._displace

        def counted(fleet):
            displaced.append(fleet.time)
            return original(fleet)

        monkeypatch.setattr(Fleet, "_displace", counted)
        cfg = MobilityConfig(time_step=30.0, prediction_noise_var=noise_var)
        trace = record_trace(Fleet(cfg, 10, 0), 5_000.0, 40)
        for k in range(12):
            trace.snapshot(k)
            assert len(displaced) == k + 1


@pytest.mark.parametrize("n", [True, 3.0, 2.5, "3", None])
def test_fleet_rejects_non_integer_node_count(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        Fleet(MobilityConfig(), n, 0)


@pytest.mark.parametrize("n, n_steps, name", [
    (3, 1.5, "n_steps"), (3, 2.0, "n_steps"), (3, True, "n_steps"),
    (3.0, 2, "n"), (False, 2, "n"),
])
def test_trajectory_rows_rejects_non_integer_counts(n, n_steps, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        trajectory_rows(MobilityConfig(), n, 0, n_steps)


def test_numpy_integer_counts_accepted(monkeypatch):
    seen = []
    stream_words = mobility._stream_words
    monkeypatch.setattr(
        mobility, "_stream_words", lambda seed, n: seen.append(n) or stream_words(seed, n)
    )
    assert Fleet(MobilityConfig(), np.int64(3), 0).n_nodes == 3
    rows = list(trajectory_rows(MobilityConfig(), np.int32(3), 0, np.int64(2)))
    assert len(rows) == 3 * 3
    assert [type(n) for n in seen] == [int, int]  # a fleet keeps its count as an int


def _reference_run(cfg, n, seed, n_steps, order):
    """Per-node ``step``/``predict_position`` states and positions after
    each of 0..n_steps steps, stepping the nodes in ``order``."""
    states = dict(enumerate(init_deployment(cfg, n, seed)))
    motion = {i: node_rng(seed, i, 1) for i in range(n)}
    noise = {i: node_rng(seed, i, 2) for i in range(n)}
    for k in range(n_steps + 1):
        if k:
            for i in order:
                states[i] = step(states[i], cfg, motion[i])
        predicted = {
            i: predict_position(
                states[i], cfg.time_step, cfg.prediction_noise_var, noise[i]
            )
            for i in order
        }
        nodes = [states[i] for i in range(n)]
        yield (
            nodes,
            np.array([(s.x, s.y) for s in nodes]),
            np.array([predicted[i] for i in range(n)]),
        )


def _bits(a):
    assert a.dtype == np.float64 and a.ndim == 2 and a.shape[1] == 2
    return a.tobytes()


def _assert_fleet_is_reference(cfg, n, seed, n_steps, order):
    fleet = Fleet(cfg, n, seed)
    assert fleet.n_nodes == n
    for k, (nodes, true, predicted) in enumerate(
        _reference_run(cfg, n, seed, n_steps, order)
    ):
        if k:
            fleet.advance()
        assert fleet.time == k * cfg.time_step
        states = fleet_states(fleet)
        assert states == nodes
        assert repr(states) == repr(nodes)  # also tells -0.0 from 0.0
        assert _bits(fleet.true_positions()) == _bits(true)
        assert _bits(fleet.predicted_positions()) == _bits(predicted)


# Fleet configurations over every mobility regime, with many wall
# reflections among them.
_FLEET_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n_order=st.integers(2, 50).flatmap(
        lambda n: st.permutations(range(n)).map(lambda p: (n, p))
    ),
    n_steps=st.integers(0, 40),
    area_side=st.sampled_from([50.0, 400.0, 10_000.0]),
    mean_speed=st.sampled_from([0.0, 20.0, 300.0]),
    mean_turn_radius=st.sampled_from([5.0, 500.0]),
    mean_wait=st.sampled_from([0.5, 20.0]),
    time_step=st.sampled_from([0.5, 1.0, 5.0]),
    transition_prob=st.sampled_from([0.0, 0.2, 1.0]),
    prediction_noise_var=st.sampled_from([0.0, 10.0]),
)
# 300 m/s for 5 s on a 50 m square: dozens of wall reflections per step
_WALL_STORM = dict(
    seed=3, n_order=(6, [5, 0, 3, 1, 4, 2]), n_steps=40, area_side=50.0,
    mean_speed=300.0, mean_turn_radius=500.0, mean_wait=0.5, time_step=5.0,
    transition_prob=1.0, prediction_noise_var=10.0,
)
_STILL = dict(
    seed=0, n_order=(2, [1, 0]), n_steps=10, area_side=400.0,
    mean_speed=0.0, mean_turn_radius=5.0, mean_wait=0.5, time_step=1.0,
    transition_prob=0.0, prediction_noise_var=0.0,
)


@pytest.mark.contract
class TestFleetMatchesReference:
    """The fleet is the per-node reference, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(**_FLEET_CASES)
    @example(**_WALL_STORM)
    @example(**_STILL)
    def test_fleet_equals_per_node_reference(self, seed, n_order, n_steps, **kw):
        n, order = n_order
        _assert_fleet_is_reference(MobilityConfig(**kw), n, seed, n_steps, order)

    @pytest.fixture
    def built_streams(self, monkeypatch):
        """(node_id, stream) of every generator a ``Fleet`` builds."""
        built = []
        original = Fleet._rng

        def counted(fleet, node_id, stream):
            built.append((node_id, stream))
            return original(fleet, node_id, stream)

        monkeypatch.setattr(Fleet, "_rng", counted)
        return built

    def test_no_renewal_builds_no_motion_stream(self, built_streams):
        cfg = MobilityConfig(mean_wait=1e12, area_side=500.0)
        _assert_fleet_is_reference(cfg, 8, 4, 30, range(8))
        assert 1 not in {stream for _, stream in built_streams}

    def test_motion_streams_built_at_first_renewal_only(self, built_streams):
        fleet = Fleet(MobilityConfig(mean_wait=0.5), 8, 4)
        for _ in range(30):
            fleet.advance()
        motion = [node_id for node_id, stream in built_streams if stream == 1]
        assert sorted(motion) == list(range(8))  # every node renewed, once built


def _assert_offsets_fresh(fleet):
    """Each linear node's kept step offset is its recomputed
    ``speed * time_step * cos/sin(heading)``, bit for bit."""
    dt = fleet.cfg.time_step
    for i, linear in enumerate(fleet._linear):
        if linear:
            speed, heading = fleet._speed[i], fleet._heading[i]
            kept = (fleet._dx[i].hex(), fleet._dy[i].hex())
            fresh = (
                (speed * dt * math.cos(heading)).hex(),
                (speed * dt * math.sin(heading)).hex(),
            )
            assert kept == fresh, (i, kept, fresh)


class TestKeptStepOffset:
    """A linear node's kept step offset never goes stale: it is refreshed
    whenever the node renews or reflects off a wall."""

    @settings(max_examples=60, deadline=None)
    @given(**_FLEET_CASES)
    @example(**_WALL_STORM)
    @example(**_STILL)
    # a wall reflection every step and no renewal for dozens of steps
    @example(**{**_WALL_STORM, "mean_wait": 20.0, "time_step": 0.5, "transition_prob": 0.0})
    def test_offset_equals_recomputed_after_every_call(self, seed, n_order, n_steps, **kw):
        fleet = Fleet(MobilityConfig(**kw), n_order[0], seed)
        _assert_offsets_fresh(fleet)
        for _ in range(n_steps):
            fleet.predicted_positions()
            _assert_offsets_fresh(fleet)
            fleet.advance()
            _assert_offsets_fresh(fleet)


# Run entropies as numpy coerces them: ints of 1-6 uint32 words, and tuples
# of up to 6 ints, so pools fed by more than 4 words are drawn too.
_ENTROPY = st.one_of(
    st.integers(0, 2**190),
    st.lists(st.integers(0, 2**70), max_size=6).map(tuple),
)


class TestBatchSeeding:
    """A fleet seeds all its streams in one pass, each equal to ``node_rng``."""

    @settings(max_examples=30, deadline=None)
    @given(seed=_ENTROPY, n=st.integers(2, 400), k=st.integers(1, 4))
    @example(seed=2**32, n=2, k=1)
    @example(seed=2**70, n=3, k=1)
    @example(seed=(2**64, 2**33, 7, 1, 0, 5), n=400, k=2)  # 9 coerced words
    def test_every_stream_draws_as_node_rng(self, seed, n, k):
        fleet = Fleet(MobilityConfig(), n, seed)
        for stream in range(3):
            for i in range(n):
                ours, ref = fleet._rng(i, stream), node_rng(seed, i, stream)
                assert ours.random(k).tobytes() == ref.random(k).tobytes()
                assert repr(ours.normal()) == repr(ref.normal())


def test_trajectory_rows_rejects_negative_steps():
    with pytest.raises(ValueError, match="n_steps"):
        trajectory_rows(MobilityConfig(), 3, 11, -1)


def test_trajectory_rows_shape_and_bounds():
    cfg = MobilityConfig(area_side=1_000.0, mean_speed=100.0)
    rows = list(trajectory_rows(cfg, 3, 11, 20))
    assert len(rows) == 3 * 21
    assert rows[0][0] == 0.0
    for t, node_id, x, y, mode in rows:
        assert 0 <= node_id < 3
        assert 0.0 <= x <= 1_000.0
        assert 0.0 <= y <= 1_000.0
        assert mode in ("linear", "circular")


def test_trajectory_rows_equal_stepped_reference():
    cfg = MobilityConfig(area_side=800.0, mean_speed=120.0, mean_wait=3.0)
    n, n_steps, seed = 5, 60, 2
    expected = []
    states = init_deployment(cfg, n, seed)
    rngs = [node_rng(seed, i, 1) for i in range(n)]
    for k in range(n_steps + 1):
        if k:
            states = [step(s, cfg, g) for s, g in zip(states, rngs)]
        expected += [
            (k * cfg.time_step, s.node_id, s.x, s.y, s.mode.value) for s in states
        ]
    rows = list(trajectory_rows(cfg, n, seed, n_steps))
    assert rows == expected
    assert {type(v) for row in rows for v in row} == {float, int, str}
