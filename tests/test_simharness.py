import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fanetsim import analysis
from fanetsim.analysis import NetworkParams, bounds_report, hop_bounds
from fanetsim.mobility import Fleet, MobilityConfig
from fanetsim.routing import PathWeight, SessionStatus, route_greedy
from fanetsim.simharness import (
    Algorithm,
    ConfigError,
    ExperimentConfig,
    SweepSpec,
    figure5_dataset,
    figure6_dataset,
    record_trace,
    run_experiment,
)

STATIC_MOBILITY = MobilityConfig(mean_speed=0.0, prediction_noise_var=0.0)


def small_config(**overrides):
    params = dict(
        mobility=STATIC_MOBILITY,
        sweep=SweepSpec("n_nodes", (8, 12)),
        runs=6,
        sessions_per_run=5,
        seed=42,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


class TestConfigValidation:
    def test_unknown_sweep_parameter(self):
        with pytest.raises(ValueError):
            small_config(sweep=SweepSpec("bogus", (1, 2)))

    def test_empty_sweep(self):
        with pytest.raises(ValueError):
            SweepSpec("n_nodes", ())

    def test_too_many_sessions_for_small_cells(self):
        cfg = small_config(sweep=SweepSpec("n_nodes", (3,)), sessions_per_run=10)
        with pytest.raises(ValueError):
            run_experiment(cfg)

    def test_sessions_checked_against_the_sweep_that_runs(self):
        # 25 sessions do not fit N=5 (20 ordered pairs) but do fit N=10
        cfg = small_config(
            sweep=SweepSpec("n_nodes", (5, 10)), sessions_per_run=25, runs=1
        )
        with pytest.raises(ConfigError, match="sessions_per_run=25 exceeds .* n_nodes=5"):
            run_experiment(cfg)
        speed = replace(
            cfg,
            net=replace(cfg.net, n_nodes=10),
            sweep=SweepSpec("mean_speed", (0.0,)),
        )
        counts = run_experiment(speed).session_counts
        assert counts[0.0, Algorithm.GREEDY_PREDICTIVE.value][1] == 25

    @pytest.mark.parametrize(
        "name, value, kind",
        [
            # 10.7 used to simulate and bound N=10 but label its rows 10.7
            ("n_nodes", 10.7, "an integer"),
            ("n_nodes", math.inf, "an integer"),
            ("n_nodes", "10", "a number"),
            # None used to escape from float() as a TypeError
            ("prediction_horizon", None, "a number"),
            ("mean_speed", True, "a number"),
        ],
    )
    def test_sweep_value_rejected(self, name, value, kind):
        cfg = small_config(sweep=SweepSpec(name, (value,)), runs=1)
        message = re.escape(f"{name} sweep value {value!r} is not {kind}")
        with pytest.raises(ConfigError, match=message):
            run_experiment(cfg)

    def test_integral_float_node_count_accepted(self):
        cfg = small_config(sweep=SweepSpec("n_nodes", (8.0,)), runs=1)
        assert run_experiment(cfg).session_counts[8.0, "greedy_predictive"][1] == 5

    def test_runs_must_be_positive(self):
        with pytest.raises(ValueError):
            small_config(runs=0)

    def test_area_sides_must_agree(self):
        with pytest.raises(ValueError, match="area_side"):
            small_config(mobility=replace(STATIC_MOBILITY, area_side=20_000.0))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            small_config(seed=-1)

    def test_weight_must_be_a_path_weight(self):
        # a plain string would otherwise route with DISTANCE and echo the string
        with pytest.raises(ValueError, match="dijkstra_weight 'distance_squared'"):
            small_config(dijkstra_weight="distance_squared")

    def test_algorithms_must_be_algorithms(self):
        with pytest.raises(ValueError, match="'greedy_static' is not an Algorithm"):
            small_config(algorithms=("greedy_static",))

    def test_duplicate_algorithm_rejected(self):
        # it would double the CSV rows and the attempted session counts
        with pytest.raises(ValueError, match="twice"):
            small_config(algorithms=(Algorithm.GREEDY_PREDICTIVE,) * 2)


class TestDeterminism:
    def test_repeat_invocations_identical(self):
        cfg = small_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.to_csv() == b.to_csv()

    def test_worker_count_does_not_change_results(self):
        serial = run_experiment(small_config(workers=1))
        parallel = run_experiment(small_config(workers=3))
        assert serial.to_csv() == parallel.to_csv()

    def test_seed_changes_results(self):
        a = run_experiment(small_config(seed=1))
        b = run_experiment(small_config(seed=2))
        assert a.to_csv() != b.to_csv()


class TestMetrics:
    def test_predictive_equals_static_without_motion_or_noise(self):
        cfg = small_config(
            runs=1,
            sessions_per_run=1,
            algorithms=(Algorithm.GREEDY_PREDICTIVE, Algorithm.GREEDY_STATIC),
        )
        res = run_experiment(cfg)
        for value in (8, 12):
            for metric in ("success_rate", "hop_count", "distance", "power"):
                a = res.get(value, Algorithm.GREEDY_PREDICTIVE, metric)
                b = res.get(value, Algorithm.GREEDY_STATIC, metric)
                assert a.mean == b.mean

    def test_row_layout_and_bounds(self):
        res = run_experiment(small_config())
        assert len(res.rows) == 2 * 4  # two cells, four metrics, one algorithm
        for row in res.rows:
            assert row.sweep_param == "n_nodes"
            assert row.stderr >= 0.0 or math.isnan(row.stderr)
            if row.metric == "power":
                assert row.bound_lower is None and row.bound_upper is None
            else:
                assert row.bound_lower <= row.bound_upper

    def test_success_rate_in_unit_interval(self):
        res = run_experiment(small_config())
        for value in (8, 12):
            r = res.get(value, Algorithm.GREEDY_PREDICTIVE, "success_rate")
            assert 0.0 <= r.mean <= 1.0

    def test_hop_corridor_contains_static_mean(self):
        cfg = small_config(sweep=SweepSpec("n_nodes", (10,)), runs=40)
        res = run_experiment(cfg)
        r = res.get(10, Algorithm.GREEDY_PREDICTIVE, "hop_count")
        # hop_count averages delivered sessions only, so the corridor is
        # evaluated at their separation, not at the all-session cell_mean_d
        lo, hi = hop_bounds(
            replace(cfg.net, n_nodes=10),
            res.delivered_mean_d[10, Algorithm.GREEDY_PREDICTIVE.value],
        )
        assert lo - 3 * r.stderr <= r.mean <= hi + 3 * r.stderr

    def test_delivered_population_fields(self):
        cfg = small_config(
            algorithms=(Algorithm.GREEDY_PREDICTIVE, Algorithm.GREEDY_STATIC)
        )
        res = run_experiment(cfg)
        for value in (8, 12):
            for alg in cfg.algorithms:
                delivered, attempted = res.session_counts[value, alg.value]
                assert attempted == cfg.runs * cfg.sessions_per_run
                rate = res.get(value, alg, "success_rate").mean
                assert delivered / attempted == pytest.approx(rate, rel=1e-12)
            assert (
                res.delivered_mean_d[value, Algorithm.GREEDY_PREDICTIVE.value]
                == res.delivered_mean_d[value, Algorithm.GREEDY_STATIC.value]
            )
        # the new fields stay out of the CSV and the provenance JSON
        lines = res.to_csv().splitlines()
        assert lines[0] == (
            "sweep_param,value,algorithm,metric,mean,stderr,bound_lower,bound_upper"
        )
        assert len(lines) == 1 + 2 * 2 * 4
        assert all(len(line.split(",")) == 8 for line in lines)
        text = res.provenance()
        assert "delivered" not in text and "session_counts" not in text

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_nodes=st.integers(3, 14),
        speeds=st.lists(
            st.sampled_from([0.0, 30.0, 300.0]), min_size=1, max_size=2, unique=True
        ),
        algorithms=st.permutations(tuple(Algorithm)).flatmap(
            lambda p: st.integers(1, 3).map(lambda k: tuple(p[:k]))
        ),
        runs=st.integers(1, 3),
        max_hops=st.integers(0, 3),
    )
    def test_status_counts_add_up(
        self, seed, n_nodes, speeds, algorithms, runs, max_hops
    ):
        cfg = small_config(
            net=NetworkParams(n_nodes, 10_000.0, 3_000.0),
            mobility=MobilityConfig(time_step=30.0),
            sweep=SweepSpec("mean_speed", tuple(speeds)),
            algorithms=algorithms,
            runs=runs,
            sessions_per_run=min(6, n_nodes * (n_nodes - 1)),
            max_hops=max_hops,
            seed=seed,
        )
        res = run_experiment(cfg)
        assert res.status_counts.keys() == res.session_counts.keys()
        for key, counts in res.status_counts.items():
            delivered, attempted = res.session_counts[key]
            assert list(counts) == list(SessionStatus)
            assert sum(counts.values()) == attempted
            assert counts[SessionStatus.DELIVERED] == delivered
        assert "status" not in res.to_csv() + res.provenance()

    def test_bounds_are_the_cell_bounds_report(self):
        cfg = small_config()
        res = run_experiment(cfg)
        for value in (8, 12):
            rep = bounds_report(
                replace(cfg.net, n_nodes=value), res.cell_mean_d[value]
            )
            expected = {
                "success_rate": (rep.p_success_lower, rep.p_success_upper),
                "hop_count": (rep.hops_lower, rep.hops_upper),
                "distance": (rep.dist_lower, rep.dist_upper),
            }
            for metric, bounds in expected.items():
                row = res.get(value, Algorithm.GREEDY_PREDICTIVE, metric)
                assert (row.bound_lower, row.bound_upper) == bounds

    def test_worst_case_quadrature_once_per_network(self, monkeypatch):
        # three speed cells share one network: one worst-case (d = R)
        # quadrature for all of them, plus one lower-end quadrature per
        # cell whose mean separation is out of range
        calls = []
        original = analysis.expected_progress

        def counted(dist):
            calls.append(dist.d)
            return original(dist)

        monkeypatch.setattr(analysis, "expected_progress", counted)
        cfg = small_config(
            net=NetworkParams(n_nodes=10, area_side=10_000.0, comm_range=5_000.0),
            sweep=SweepSpec("mean_speed", (0.0, 5.0, 10.0)),
            runs=2,
        )
        res = run_experiment(cfg)
        r = cfg.net.comm_range
        out_of_range = [d for d in res.cell_mean_d.values() if d > r]
        assert 0 < len(out_of_range) < 3  # both regimes are exercised
        assert calls == [r] + out_of_range

    def test_mean_d_is_plausible(self):
        res = run_experiment(small_config())
        for value, mean_d in res.cell_mean_d.items():
            assert 0.0 < mean_d < math.sqrt(2.0) * 10_000.0


class TestStderrScaling:
    def test_shrinks_like_inverse_sqrt_runs(self):
        stderrs = {}
        for runs in (25, 100, 400):
            cfg = ExperimentConfig(
                mobility=STATIC_MOBILITY,
                sweep=SweepSpec("n_nodes", (10,)),
                runs=runs,
                sessions_per_run=10,
                seed=11,
            )
            res = run_experiment(cfg)
            stderrs[runs] = res.get(
                10, Algorithm.GREEDY_PREDICTIVE, "success_rate"
            ).stderr
        assert stderrs[25] / stderrs[100] == pytest.approx(2.0, rel=0.2)
        assert stderrs[100] / stderrs[400] == pytest.approx(2.0, rel=0.2)


class TestCsv:
    def test_header_and_formatting(self):
        res = run_experiment(small_config())
        lines = res.to_csv().splitlines()
        assert (
            lines[0]
            == "sweep_param,value,algorithm,metric,mean,stderr,bound_lower,bound_upper"
        )
        first = lines[1].split(",")
        assert first[0] == "n_nodes"
        assert first[1] == "8"
        assert first[2] == "greedy_predictive"
        float(first[4])  # mean parses

    def test_power_rows_have_empty_bounds(self):
        res = run_experiment(small_config())
        for line in res.to_csv().splitlines()[1:]:
            cells = line.split(",")
            if cells[3] == "power":
                assert cells[6] == "" and cells[7] == ""

    def test_provenance_config_has_exactly_the_dataclass_fields(self):
        config = json.loads(run_experiment(small_config()).provenance())["config"]

        def names(cls):
            return {f.name for f in fields(cls)}

        assert set(config) == names(ExperimentConfig)
        assert set(config["net"]) == names(NetworkParams)
        assert set(config["mobility"]) == names(MobilityConfig)
        assert set(config["sweep"]) == names(SweepSpec)

    def test_provenance_echoes_overrides(self):
        res = run_experiment(small_config())
        text = res.provenance(overrides=["mobility.mean_speed=25"])
        assert '"mobility.mean_speed=25"' in text
        assert '"seed": 42' in text


class TestFigureDatasets:
    def test_figure5_includes_three_algorithms(self):
        cfg = ExperimentConfig(
            mobility=MobilityConfig(time_step=30.0),
            sweep=SweepSpec("mean_speed", (20.0, 80.0)),
            runs=4,
            sessions_per_run=5,
            seed=9,
        )
        res = figure5_dataset(cfg)
        algs = {row.algorithm for row in res.rows}
        assert algs == {a.value for a in Algorithm}

    def test_figure6_uses_squared_weight_and_two_algorithms(self):
        cfg = ExperimentConfig(
            mobility=MobilityConfig(time_step=30.0),
            sweep=SweepSpec("mean_speed", (20.0, 80.0)),
            runs=4,
            sessions_per_run=5,
            seed=9,
            dijkstra_weight=PathWeight.DISTANCE,
        )
        res = figure6_dataset(cfg)
        algs = {row.algorithm for row in res.rows}
        assert algs == {
            Algorithm.GREEDY_PREDICTIVE.value,
            Algorithm.DIJKSTRA_STATIC.value,
        }
        assert res.config["dijkstra_weight"] == "distance_squared"

    def test_speed_sweep_applies_to_mobility(self):
        cfg = ExperimentConfig(
            mobility=MobilityConfig(time_step=30.0),
            sweep=SweepSpec("mean_speed", (0.0,)),
            runs=2,
            sessions_per_run=4,
            seed=3,
            algorithms=(Algorithm.GREEDY_PREDICTIVE, Algorithm.GREEDY_STATIC),
        )
        res = run_experiment(cfg)
        # zero speed: noisy predictions are the only difference; the two
        # greedy variants may differ but both must be defined
        assert res.get(0.0, Algorithm.GREEDY_PREDICTIVE, "success_rate").mean >= 0.0
        assert res.get(0.0, Algorithm.GREEDY_STATIC, "success_rate").mean >= 0.0


class _CountingCursor:
    """Cursor proxy that counts how far the session moved it."""

    def __init__(self, cursor):
        self._cursor = cursor
        self.advances = 0

    def snapshot(self):
        return self._cursor.snapshot()

    def advance(self):
        self._cursor.advance()
        self.advances += 1


class TestRecordTrace:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        time_step=st.floats(0.5, 60.0),
        mean_speed=st.floats(0.0, 400.0),
        n_steps=st.integers(0, 10),
        order=st.lists(st.integers(0, 1), max_size=30),
    )
    def test_interleaved_cursors_see_eager_stepping(
        self, seed, n, time_step, mean_speed, n_steps, order
    ):
        cfg = MobilityConfig(time_step=time_step, mean_speed=mean_speed)
        eager = Fleet(cfg, n, seed)
        expected = []
        for k in range(n_steps + 1):
            if k:
                eager.advance()
            expected.append(
                (eager.time, eager.true_positions(), eager.predicted_positions())
            )

        trace = record_trace(Fleet(cfg, n, seed), 5_000.0, n_steps)
        cursors = [trace.cursor(), trace.cursor()]
        at = [0, 0]

        def check(c):
            snap = cursors[c].snapshot()
            time, true_pos, pred_pos = expected[at[c]]
            assert snap.time == time
            assert np.array_equal(snap.true_positions, true_pos)
            assert np.array_equal(snap.predicted_positions, pred_pos)

        for c in order:
            if at[c] < n_steps:
                cursors[c].advance()
                at[c] += 1
            check(c)
        for c in (0, 1):
            while at[c] < n_steps:
                cursors[c].advance()
                at[c] += 1
                check(c)
            with pytest.raises(RuntimeError, match=f"after {n_steps} steps"):
                cursors[c].advance()

    def test_fleet_steps_only_as_far_as_the_furthest_cursor(self):
        cfg = MobilityConfig(time_step=30.0)
        fleet = Fleet(cfg, 10, 123)
        trace = record_trace(fleet, 5_000.0, 40)
        trace.snapshot(0)
        assert fleet.time == 0.0

        furthest = 0
        for source, dest in ((0, 9), (3, 7), (5, 1)):
            sim = _CountingCursor(trace.cursor())
            route_greedy(sim, source, dest, predictive=True, max_hops=40)
            furthest = max(furthest, sim.advances)
            assert fleet.time / cfg.time_step == furthest
        assert 0 < furthest < 40
        with pytest.raises(IndexError):
            trace.snapshot(41)
        assert fleet.time / cfg.time_step == furthest
