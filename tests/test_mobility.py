import math

import numpy as np
import pytest

from fanetsim.mobility import (
    Fleet,
    MobilityConfig,
    MobilityMode,
    MobilityParams,
    NodeState,
    init_deployment,
    node_rng,
    predict_position,
    step,
    trajectory_rows,
)

from oracles import ks_statistic_uniform


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
            ("prediction_horizon", math.nan),
            ("prediction_horizon", math.inf),
            ("prediction_horizon", -1.0),
            ("mean_turn_radius", math.inf),
        ],
    )
    def test_non_finite_and_negative_horizon_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            MobilityConfig(**{field: value})

    def test_horizon_defaults_to_time_step(self):
        assert MobilityConfig(time_step=2.5).horizon == 2.5
        assert MobilityConfig(time_step=2.5, prediction_horizon=0.0).horizon == 0.0


class TestDeployment:
    def test_deterministic_for_fixed_seed(self):
        cfg = MobilityConfig()
        assert init_deployment(cfg, 8, 123) == init_deployment(cfg, 8, 123)
        assert init_deployment(cfg, 8, 123) != init_deployment(cfg, 8, 124)

    def test_requires_two_nodes(self):
        with pytest.raises(ValueError):
            init_deployment(MobilityConfig(), 1, 0)

    def test_uniform_positions(self):
        cfg = MobilityConfig(area_side=10_000.0)
        nodes = init_deployment(cfg, 10_000, 5)
        xs = np.array([s.x for s in nodes])
        ys = np.array([s.y for s in nodes])
        assert abs(xs.mean() - 5_000.0) < 100.0
        assert abs(ys.mean() - 5_000.0) < 100.0
        # Kolmogorov-Smirnov vs uniform at the 1% level
        d_crit = 1.628 / math.sqrt(len(xs))
        assert ks_statistic_uniform(xs, 0.0, 10_000.0) < d_crit

    def test_modes_roughly_balanced(self):
        nodes = init_deployment(MobilityConfig(), 10_000, 17)
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
        assert a.nodes == b.nodes
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
        assert [states[i] for i in range(4)] == fleet.nodes

    def test_zero_velocity_zero_noise_prediction_is_truth(self):
        cfg = MobilityConfig(mean_speed=0.0, prediction_noise_var=0.0)
        fleet = Fleet(cfg, 5, 2)
        for _ in range(10):
            fleet.advance()
        assert np.array_equal(fleet.true_positions(), fleet.predicted_positions())


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
