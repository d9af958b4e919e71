import functools
import json
import math
import multiprocessing
import os
import re
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fanetsim import analysis, simharness
from fanetsim.analysis import NetworkParams, bounds_report, hop_bounds
from fanetsim.mobility import Fleet
from fanetsim.mobility_config import MobilityConfig
from fanetsim.routing import PathWeight, SessionStatus, greedy_next_hop, route_greedy
from fanetsim.simharness import (
    FIGURES,
    Algorithm,
    ConfigError,
    ExperimentConfig,
    SweepSpec,
    figure5_dataset,
    figure6_dataset,
    record_trace,
    run_experiment,
)

from oracles import static_greedy_sessions

STATIC_MOBILITY = MobilityConfig(mean_speed=0.0, prediction_noise_var=0.0)


def static_trace():
    return record_trace(Fleet(STATIC_MOBILITY, 4, 0), 1_000.0, 3)


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
        # each field is named once, though area_side is in both dataclasses
        message = (
            "unknown sweep parameter 'bogus'; expected one of ('n_nodes', "
            "'area_side', 'comm_range', 'mean_speed', 'mean_wait', "
            "'transition_prob', 'time_step', 'prediction_noise_var', "
            "'mean_turn_radius')"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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
        counts = run_experiment(speed).status_counts
        assert sum(counts[0.0, Algorithm.GREEDY_PREDICTIVE.value].values()) == 25

    @pytest.mark.parametrize(
        "name, value, kind",
        [
            # 10.7 used to simulate and bound N=10 but label its rows 10.7
            ("n_nodes", 10.7, "an integer"),
            ("n_nodes", math.inf, "an integer"),
            ("n_nodes", "10", "a number"),
            # None used to escape from float() as a TypeError
            ("mean_speed", None, "a number"),
            ("mean_speed", True, "a number"),
        ],
    )
    def test_sweep_value_rejected(self, name, value, kind):
        cfg = small_config(sweep=SweepSpec(name, (value,)), runs=1)
        if kind == "an integer":  # NetworkParams checks every node count
            message = re.escape(f"{name} must be {kind}, got {value!r}")
        else:
            message = re.escape(f"{name} sweep value {value!r} is not {kind}")
        with pytest.raises(ConfigError, match=message):
            run_experiment(cfg)

    @pytest.mark.parametrize("n_nodes", [10.0, np.int64(10)], ids=["float", "numpy"])
    def test_integral_node_count_runs_unswept(self, n_nodes):
        # NetworkParams stores the count as an int; a float 10.0 used to
        # build this config and then fail inside Fleet
        cfg = small_config(
            net=NetworkParams(n_nodes, 10_000.0, 5_000.0),
            sweep=SweepSpec("mean_speed", (10.0,)),
            runs=1,
        )
        assert type(cfg.net.n_nodes) is int
        assert run_experiment(cfg).to_csv() == run_experiment(
            replace(cfg, net=replace(cfg.net, n_nodes=10))
        ).to_csv()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: MobilityConfig(prediction_horizon=1.0),
            lambda: ExperimentConfig(refresh_destination=False),
            lambda: greedy_next_hop(
                static_trace().snapshot(0), 0, 1, dest_pos=(0.0, 0.0)
            ),
            lambda: route_greedy(
                static_trace().cursor(), 0, 1, max_hops=3, refresh_destination=False
            ),
        ],
        ids=["prediction_horizon", "refresh_destination", "dest_pos",
             "route_refresh_destination"],
    )
    def test_retired_knobs_rejected(self, call):
        # predictions look one time step ahead, and greedy scores against
        # the destination in the snapshot it decides on; neither is a knob
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            call()

    def test_integral_float_node_count_accepted(self):
        cfg = small_config(sweep=SweepSpec("n_nodes", (8.0,)), runs=1)
        assert sum(run_experiment(cfg).status_counts[8.0, "greedy_predictive"].values()) == 5

    def test_runs_must_be_positive(self):
        with pytest.raises(ValueError):
            small_config(runs=0)

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize(
        "name", ["runs", "sessions_per_run", "seed", "max_hops", "workers"]
    )
    def test_integer_fields_reject_bools_and_fractions(self, name, value):
        # 2.5 used to fail later inside run_experiment; True ran as 1
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            small_config(**{name: value})

    def test_numpy_integer_fields_accepted(self):
        counts = dict(runs=2, sessions_per_run=4, seed=3, max_hops=7, workers=1)
        cfg = small_config(**{k: np.int64(v) for k, v in counts.items()})
        # stored as Python ints, which the provenance JSON can write
        assert {k: (type(getattr(cfg, k)), getattr(cfg, k)) for k in counts} == {
            k: (int, v) for k, v in counts.items()
        }

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(runs=np.int64(1)),
            dict(runs=1, seed=np.int64(3)),
            dict(runs=1, sweep=SweepSpec("n_nodes", (np.int64(5),))),
            dict(runs=1, algorithms=[Algorithm.GREEDY_PREDICTIVE]),
        ],
        ids=["numpy_runs", "numpy_seed", "numpy_sweep_value", "algorithm_list"],
    )
    def test_provenance_accepts_every_accepted_config(self, overrides):
        config = json.loads(run_experiment(small_config(**overrides)).provenance())["config"]
        assert config["runs"] == 1 and config["algorithms"] == ["greedy_predictive"]

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

    @pytest.mark.parametrize(
        "build, kwargs, message",
        [
            (MobilityConfig, {"mean_speed": -1.0}, "mean_speed must be >= 0, got -1.0"),
            (MobilityConfig, {"prediction_noise_var": -0.5},
             "prediction_noise_var must be >= 0, got -0.5"),
            (MobilityConfig, {"mean_turn_radius": 0.0},
             "mean_turn_radius must be > 0, got 0.0"),
            (small_config, {"sessions_per_run": 0}, "sessions_per_run must be >= 1, got 0"),
            (small_config, {"algorithms": ()}, "at least one algorithm required"),
            (small_config, {"workers": 0}, "workers must be >= 1, got 0"),
            (functools.partial(Fleet, MobilityConfig(), seed=0), {"n": 1},
             "n must be >= 2, got 1"),
        ],
        ids=["mean_speed", "prediction_noise_var", "mean_turn_radius",
             "sessions_per_run", "algorithms", "workers", "fleet_n"],
    )
    def test_out_of_range_rejected(self, build, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(**kwargs)

    # an array used to raise numpy's "truth value ... is ambiguous"
    @pytest.mark.parametrize("values", [(10, 10.0), (5.0, 10, 5), np.array([5, 10, 5])])
    def test_repeated_sweep_value_rejected(self, values):
        # equal values would share one cell's key in cell_mean_d,
        # status_counts and the provenance, while the CSV kept both cells
        with pytest.raises(ValueError, match="sweep value .* appears twice"):
            SweepSpec("n_nodes", values)

    def test_duplicate_algorithm_rejected(self):
        # it would double the CSV rows and the attempted session counts
        with pytest.raises(ValueError, match="twice"):
            small_config(algorithms=(Algorithm.GREEDY_PREDICTIVE,) * 2)

    def test_sequences_are_stored_as_tuples(self):
        # the caller's lists used to be kept: the frozen config did not
        # hash, and appending after construction got past the duplicate
        # checks, so one cell wrote 8 CSV rows with repeated keys
        algorithms, values = [Algorithm.GREEDY_PREDICTIVE], [8]
        cfg = small_config(sweep=SweepSpec("n_nodes", values), algorithms=algorithms, runs=1)
        algorithms.append(Algorithm.GREEDY_PREDICTIVE)
        values.append(8)
        assert cfg.algorithms == (Algorithm.GREEDY_PREDICTIVE,)
        assert cfg.sweep.values == (8,)
        assert hash(cfg) == hash(small_config(sweep=SweepSpec("n_nodes", (8,)), runs=1))
        keys = [(r.value, r.algorithm, r.metric) for r in run_experiment(cfg).rows]
        assert len(keys) == len(set(keys)) == 4
        assert SweepSpec("n_nodes", np.array([5, 10])).values == (5, 10)


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
        # the tallies that cross the pool, beyond the CSV
        assert serial.status_counts == parallel.status_counts
        assert serial.delivered_mean_d == parallel.delivered_mean_d
        assert serial.cell_mean_d == parallel.cell_mean_d

        def without_workers(result):
            lines = result.provenance().splitlines()
            kept = [line for line in lines if '"workers": ' not in line]
            assert len(kept) == len(lines) - 1
            return kept

        assert without_workers(serial) == without_workers(parallel)

    @pytest.fixture
    def opened_pools(self, monkeypatch):
        """``(processes, chunks)`` of every pool opened: its worker count and
        the number of chunks its tasks arrive in; each pool runs serially."""
        opened = []

        class SerialPool:
            def __init__(self, processes):
                self.processes = processes

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, tasks, chunksize=1):
                tasks = list(tasks)
                opened.append((self.processes, math.ceil(len(tasks) / chunksize)))
                return [fn(*task) for task in tasks]

        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        return opened

    @staticmethod
    def assert_pools(opened_pools, pools):
        """The pools opened had ``pools`` workers, and each got its tasks in
        at most four chunks per worker: a chunk costs a round trip, and one
        task per chunk made a small pool slower than no pool."""
        assert [processes for processes, _ in opened_pools] == pools
        for processes, chunks in opened_pools:
            assert chunks <= 4 * processes

    @pytest.mark.parametrize(
        "workers, nodes, runs, pools",
        [(5000, (8, 12), 1, [2]), (2, (8, 12), 6, [2]), (8, (8,), 1, []),
         (2, (8, 10, 12), 10, [2])],
    )
    def test_pool_capped_at_task_count(
        self, monkeypatch, opened_pools, workers, nodes, runs, pools
    ):
        # a task is one run of one sweep value; one task runs without a pool
        # enough cores that the task count is the cap, on any host
        monkeypatch.setattr(
            simharness.os, "sched_getaffinity", lambda pid: set(range(64))
        )
        cfg = small_config(
            sweep=SweepSpec("n_nodes", nodes), runs=runs, workers=workers
        )
        result = run_experiment(cfg)
        self.assert_pools(opened_pools, pools)
        assert result.rows == run_experiment(replace(cfg, workers=1)).rows

    @pytest.mark.parametrize(
        "workers, cores, pools", [(5000, 3, [3]), (2, 3, [2]), (5000, 1, [])]
    )
    def test_pool_capped_at_usable_cores(
        self, monkeypatch, opened_pools, workers, cores, pools
    ):
        # 2 sweep values x 4 runs = 8 tasks; one usable core runs serially
        monkeypatch.setattr(
            simharness.os, "sched_getaffinity", lambda pid: set(range(cores))
        )
        cfg = small_config(
            sweep=SweepSpec("n_nodes", (8, 12)), runs=4, workers=workers
        )
        result = run_experiment(cfg)
        self.assert_pools(opened_pools, pools)
        assert result.to_csv() == run_experiment(replace(cfg, workers=1)).to_csv()

    def test_serial_run_needs_no_cpu_set(self, monkeypatch):
        # os.sched_getaffinity exists only on Linux; one worker never asks
        expected = run_experiment(small_config(workers=1)).to_csv()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert run_experiment(small_config(workers=1)).to_csv() == expected

    @pytest.mark.parametrize("cpus, pools", [(2, [2]), (None, [])])
    def test_pool_capped_at_cpu_count_without_cpu_set(
        self, monkeypatch, opened_pools, cpus, pools
    ):
        # without sched_getaffinity, os.cpu_count caps the pool (None: 1)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cfg = small_config(workers=3)
        result = run_experiment(cfg)
        self.assert_pools(opened_pools, pools)
        assert result.to_csv() == run_experiment(replace(cfg, workers=1)).to_csv()

    def test_cell_params_resolved_once_per_sweep_value(self, monkeypatch):
        # a speed sweep builds one MobilityConfig per sweep value, however
        # many runs each value has; the runs and the aggregation share it
        cfg = small_config(sweep=SweepSpec("mean_speed", (0.0, 5.0, 10.0)), runs=4)
        built = []
        original = MobilityConfig.__post_init__

        def counted(mob):
            built.append(mob.mean_speed)
            original(mob)

        monkeypatch.setattr(MobilityConfig, "__post_init__", counted)
        run_experiment(cfg)
        assert built == [0.0, 5.0, 10.0]

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
        # two cells, one algorithm, each cell's rows in the order of METRICS
        assert [row.metric for row in res.rows] == 2 * list(simharness.METRICS)
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
                counts = res.status_counts[value, alg.value]
                delivered, attempted = counts[SessionStatus.DELIVERED], sum(counts.values())
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
        assert "delivered" not in text and "status_counts" not in text

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
        attempted = runs * cfg.sessions_per_run
        assert set(res.status_counts) == {
            (speed, alg.value) for speed in speeds for alg in algorithms
        }
        for (speed, alg), counts in res.status_counts.items():
            assert list(counts) == list(SessionStatus)
            assert sum(counts.values()) == attempted
            rate = res.get(speed, Algorithm(alg), "success_rate").mean
            assert counts[SessionStatus.DELIVERED] == pytest.approx(
                rate * attempted, rel=0, abs=1e-9
            )
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


class TestCellParams:
    """Sweeping a NetworkParams length: the cell's network and fleet."""

    @staticmethod
    def config(name, values):
        return small_config(sweep=SweepSpec(name, values), runs=2, sessions_per_run=3)

    def test_area_side_sets_net_and_mobility(self):
        cfg = self.config("area_side", (8_000.0, 12_000.0))
        for value in cfg.sweep.values:
            net, mobility = simharness._cell_params(cfg, value)
            assert net == replace(cfg.net, area_side=value)
            assert mobility == replace(cfg.mobility, area_side=value)

    def test_comm_range_leaves_mobility(self):
        cfg = self.config("comm_range", (3_000.0, 6_000.0))
        for value in cfg.sweep.values:
            net, mobility = simharness._cell_params(cfg, value)
            assert net == replace(cfg.net, comm_range=value)
            assert mobility is cfg.mobility

    @pytest.mark.parametrize(
        "name, values",
        [("area_side", (8_000.0, 12_000.0)), ("comm_range", (3_000.0, 6_000.0))],
    )
    def test_bounds_are_the_cell_network_report(self, name, values):
        cfg = self.config(name, values)
        res = run_experiment(cfg)
        for value in values:
            rep = bounds_report(replace(cfg.net, **{name: value}), res.cell_mean_d[value])
            for metric, lo, hi in (
                ("success_rate", rep.p_success_lower, rep.p_success_upper),
                ("hop_count", rep.hops_lower, rep.hops_upper),
                ("distance", rep.dist_lower, rep.dist_upper),
            ):
                row = res.get(value, Algorithm.GREEDY_PREDICTIVE, metric)
                assert (row.bound_lower, row.bound_upper) == (lo, hi)


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


def _spread(n: int) -> list[float]:
    # values over nine decades, so that the summation order shows in the bits
    return [math.sin(i + 1.0) * 10.0 ** (i % 9 - 4) for i in range(n)]


def _exact_variance(values: list[float]) -> Fraction:
    """The ``n - 1`` variance of ``values``, in exact arithmetic."""
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    return sum((v - mean) ** 2 for v in exact) / (len(exact) - 1)


@pytest.mark.contract
class TestMeanStderr:
    SPREAD_LISTS = st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=300)

    @settings(max_examples=300, deadline=None)
    @given(SPREAD_LISTS)
    @example(_spread(1))
    @example(_spread(7))
    @example(_spread(8))
    @example(_spread(9))
    @example(_spread(128))
    @example(_spread(129))
    @example(_spread(136))
    def test_mean_is_within_three_ulps_of_the_exact_mean(self, values):
        mean = simharness._mean_stderr(values)[0]
        exact = sum(map(Fraction, values)) / len(values)
        assert abs(Fraction(mean) - exact) <= 3 * Fraction(math.ulp(max(map(abs, values))))

    @settings(max_examples=300, deadline=None)
    @given(SPREAD_LISTS.filter(lambda v: len(v) >= 2))
    @example(_spread(7))
    @example(_spread(8))
    @example(_spread(9))
    @example(_spread(128))
    @example(_spread(129))
    @example(_spread(136))
    def test_stderr_is_within_1e_13_of_the_exact_stderr(self, values):
        stderr = simharness._mean_stderr(values)[1]
        exact = math.sqrt(float(_exact_variance(values))) / math.sqrt(len(values))
        # abs_tol: squared deviations below 2.2e-308 round as subnormals on
        # both sides, which moves a stderr by at most about 4e-162
        assert math.isclose(stderr, exact, rel_tol=1e-13, abs_tol=1e-160)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(min_value=2, max_value=1000),
    )
    @example(0.1, 3)
    @example(0.7, 3)
    @example(0.9, 3)
    @example(0.7, 100)
    def test_equal_values_have_their_value_and_zero_stderr(self, v, n):
        assert simharness._mean_stderr([v] * n) == (v, 0.0)

    def test_one_value_has_nan_stderr(self):
        mean, stderr = simharness._mean_stderr([0.7])
        assert mean == 0.7 and math.isnan(stderr)

    def test_empty(self):
        assert all(math.isnan(v) for v in simharness._mean_stderr([]))


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

    @pytest.mark.parametrize("name", ["fig5", "fig6"])
    def test_default_config_is_the_figure_entry(self, monkeypatch, name):
        # one run of one session per cell: only the echoed config is checked
        run = simharness.run_experiment
        monkeypatch.setattr(
            simharness,
            "run_experiment",
            lambda cfg: run(replace(cfg, runs=1, sessions_per_run=1)),
        )
        dataset = {"fig5": figure5_dataset, "fig6": figure6_dataset}[name]
        time_step = dataset().config["mobility"]["time_step"]
        assert time_step == FIGURES[name].mobility.time_step == 30.0

    def test_cell_whose_runs_agree_has_zero_stderr(self):
        # all three runs deliver 7 of 10; a summation in numpy's order
        # printed a stderr of 7.85046229342e-17 here
        res = figure5_dataset(replace(FIGURES["fig5"], runs=3, seed=3))
        assert (
            "mean_speed,50,greedy_static,success_rate,0.7,0,0.96892940304,0.988763386565"
            in res.to_csv().splitlines()
        )

    def test_given_config_keeps_its_time_step(self):
        # only FIGURES["fig5"] carries the figure's 30 s hop
        res = figure5_dataset(ExperimentConfig(runs=1, sessions_per_run=2))
        assert res.config["mobility"]["time_step"] == 1.0
        assert res.config["sweep"]["name"] == "mean_speed"

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


class TestStaticSweepMatchesSessionOracle:
    """The harness's static sweep, session by session, against whole
    sessions of an independent oracle that shares none of its code: the
    four outcome shares, the relay-stuck share split into sessions stuck
    after one hop and after two or more, and the mean hops per delivered
    session."""

    ORACLE_SESSIONS = 20_000  # per node count, one per deployment

    def test_outcome_rates_agree_at_every_node_count(self, monkeypatch):
        outcomes = {}  # n_nodes -> the cell's sessions, in routing order
        route = simharness.route_greedy

        def recorded(sim, *args, **kwargs):
            out = route(sim, *args, **kwargs)
            outcomes.setdefault(sim.snapshot().n_nodes, []).append(out)
            return out

        monkeypatch.setattr(simharness, "route_greedy", recorded)
        cfg = ExperimentConfig(
            mobility=STATIC_MOBILITY,
            sweep=SweepSpec("n_nodes", simharness.DEFAULT_NODE_SWEEP),
            runs=100,
            sessions_per_run=10,
            seed=0,
        )
        result = run_experiment(cfg)
        alg = Algorithm.GREEDY_PREDICTIVE.value
        stuck = SessionStatus.STUCK_NO_PROGRESS
        rng = np.random.default_rng(0)
        z_scores = {}
        for n in cfg.sweep.values:
            outs = outcomes[n]
            assert len(outs) == cfg.runs * cfg.sessions_per_run
            classes = {
                "delivered": [o.status is SessionStatus.DELIVERED for o in outs],
                "stuck_at_source": [o.status is stuck and not o.hops for o in outs],
                "stuck_at_relay": [o.status is stuck and bool(o.hops) for o in outs],
                "stuck_at_hop_1": [o.status is stuck and len(o.hops) == 1 for o in outs],
                "stuck_at_hop_2_plus": [o.status is stuck and len(o.hops) > 1 for o in outs],
                "hop_cap": [o.status is SessionStatus.HOP_CAP for o in outs],
            }
            # the recorded sessions are the ones the result counts
            counted = result.status_counts[n, alg]
            assert sum(classes["delivered"]) == counted[SessionStatus.DELIVERED]
            assert (
                sum(classes["stuck_at_source"]) + sum(classes["stuck_at_relay"])
                == counted[stuck]
            )
            oracle, oracle_hops = static_greedy_sessions(
                n, cfg.net.area_side, cfg.net.comm_range, cfg.hop_cap(n),
                self.ORACLE_SESSIONS, rng,
            )
            k = cfg.sessions_per_run
            for name, hits in classes.items():
                # A run's sessions share a deployment, so the harness's
                # stderr is taken over runs; it is floored at the binomial
                # stderr, which a cell with no spread across runs reads as 0.
                per_run = [sum(hits[i:i + k]) / k for i in range(0, len(hits), k)]
                p_harness = sum(per_run) / cfg.runs
                p_oracle = oracle[name] / self.ORACLE_SESSIONS
                se_harness = max(
                    float(np.std(per_run, ddof=1)) / math.sqrt(cfg.runs),
                    math.sqrt(p_oracle * (1.0 - p_oracle) / len(hits)),
                )
                se_oracle = math.sqrt(
                    p_oracle * (1.0 - p_oracle) / self.ORACLE_SESSIONS
                )
                gap = p_harness - p_oracle
                # equal shares (say, no hop-cap session on either side) are
                # z = 0, even where both stderrs are 0
                z_scores[n, name] = gap and gap / math.hypot(se_harness, se_oracle)
            # Mean hops per delivered session: the harness's is a ratio of
            # per-run sums, so its stderr over runs is the ratio estimator's.
            delivered = classes["delivered"]
            hops = [len(o.hops) * hit for o, hit in zip(outs, delivered)]
            run_hops = [sum(hops[i:i + k]) for i in range(0, len(outs), k)]
            run_delivered = [sum(delivered[i:i + k]) for i in range(0, len(outs), k)]
            hops_harness = sum(run_hops) / sum(run_delivered)
            se_harness = math.sqrt(
                sum((h - hops_harness * d) ** 2 for h, d in zip(run_hops, run_delivered))
                / (cfg.runs * (cfg.runs - 1))
            ) / (sum(run_delivered) / cfg.runs)
            se_oracle = float(np.std(oracle_hops, ddof=1)) / math.sqrt(len(oracle_hops))
            gap = hops_harness - float(np.mean(oracle_hops))
            z_scores[n, "mean_hops"] = gap and gap / math.hypot(se_harness, se_oracle)
        far = {key: round(z, 2) for key, z in z_scores.items() if abs(z) > 3.0}
        assert not far, (far, z_scores)
