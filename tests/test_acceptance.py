"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them live) and then asserts the criterion.  Heavy Monte Carlo artifacts
are shared through module-scoped fixtures; every check is fully seeded.
"""

import math
import time

import numpy as np
import pytest

from fanetsim.analysis import (
    NetworkParams,
    expected_total_distance,
    hop_bounds,
    isolation_probability,
    min_range_for_isolation,
)
from fanetsim.cli import main as cli_main
from fanetsim.geometry import LensParams, ProgressDistribution, expected_progress, lens_area
from fanetsim.mobility_config import MobilityConfig
from fanetsim.routing import PathWeight, SessionStatus, greedy_next_hop, route_dijkstra
from fanetsim.simharness import (
    Algorithm,
    ExperimentConfig,
    SweepSpec,
    figure5_dataset,
    figure6_dataset,
    run_experiment,
)
from fanetsim.topology import ContactSnapshot

from oracles import (
    bellman_ford_weight,
    bisect_root,
    brute_greedy_next_hop,
    mc_best_progress,
    mc_lens_area,
)

NODE_SWEEP = (5, 10, 15, 20, 25, 30)
SPEED_SWEEP = (10.0, 30.0, 50.0, 70.0, 100.0)
ALGS = (Algorithm.GREEDY_PREDICTIVE, Algorithm.GREEDY_STATIC, Algorithm.DIJKSTRA_STATIC)

_timings: dict = {}


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): {status}{suffix}", flush=True)


@pytest.fixture(scope="module")
def static_sweep():
    """100 runs x 10 sessions per node-count cell on motionless networks."""
    cfg = ExperimentConfig(
        mobility=MobilityConfig(mean_speed=0.0, prediction_noise_var=0.0),
        sweep=SweepSpec("n_nodes", NODE_SWEEP),
        runs=100,
        sessions_per_run=10,
        seed=0,
    )
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    _timings["static_sweep"] = time.perf_counter() - t0
    return result


@pytest.fixture(scope="module")
def fig5():
    t0 = time.perf_counter()
    result = figure5_dataset()
    _timings["fig5"] = time.perf_counter() - t0
    return result


@pytest.fixture(scope="module")
def fig6():
    t0 = time.perf_counter()
    result = figure6_dataset()
    _timings["fig6"] = time.perf_counter() - t0
    return result


def test_criterion_1_lens_area_vs_rejection_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    failures = []
    for case in range(100):
        d = float(rng.uniform(50.0, 12_000.0))
        r_big = float(rng.uniform(50.0, 8_000.0))
        r_small = float(rng.uniform(50.0, 8_000.0))
        analytic = lens_area(LensParams(d, r_big, r_small))
        est, se = mc_lens_area(d, r_big, r_small, 10_000_000, rng)
        gap = abs(analytic - est)
        tol = 3.0 * se + 1e-6
        worst = max(worst, gap / tol if tol > 0 else 0.0)
        if gap > tol:
            failures.append((case, d, r_big, r_small, analytic, est, se))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(1, "lens area vs rejection oracle", ok,
            f"100 sets, worst gap {worst:.2f} of 3-sigma budget, {elapsed:.1f}s")
    assert not failures, failures[:3]
    assert elapsed < 60.0


def test_criterion_2_expected_progress_vs_deployment_oracle():
    rng = np.random.default_rng(2002)
    t0 = time.perf_counter()
    gaps = {}
    for d in (6_000.0, 7_500.0, 9_000.0):
        dist = ProgressDistribution(d=d, r=5_000.0, n_nodes=10, area_side=10_000.0)
        quad = expected_progress(dist)
        mc = mc_best_progress(d, 5_000.0, 10, 10_000.0, 1_000_000, rng)
        gaps[d] = abs(quad - mc) / mc
    elapsed = time.perf_counter() - t0
    ok = all(g < 0.01 for g in gaps.values()) and elapsed < 120.0
    _report(2, "expected progress vs deployment oracle", ok,
            "rel gaps " + ", ".join(f"{d:g}:{g:.4%}" for d, g in gaps.items())
            + f", {elapsed:.1f}s")
    assert all(g < 0.01 for g in gaps.values()), gaps
    assert elapsed < 120.0


def _cell(static_sweep, n, metric):
    return static_sweep.get(n, Algorithm.GREEDY_PREDICTIVE, metric)


def _net(result, n):
    net = result.config["net"]
    return NetworkParams(n, net["area_side"], net["comm_range"])


def _delivered_d(static_sweep, n):
    """Separation of the delivered sessions, the population that the
    hop_count and distance rows average over."""
    return static_sweep.delivered_mean_d[n, Algorithm.GREEDY_PREDICTIVE.value]


def wilson_interval(successes, trials, z):
    """Wilson (1927) score interval for a binomial proportion; unlike a
    spread of per-run rates it keeps a nonzero width at 0 or all successes."""
    p = successes / trials
    z2n = z * z / trials
    center = (p + z2n / 2.0) / (1.0 + z2n)
    half = z / (1.0 + z2n) * math.sqrt(p * (1.0 - p) / trials + z2n / (4.0 * trials))
    return center - half, center + half


def test_criterion_3_hop_corridor(static_sweep):
    bad = []
    for n in NODE_SWEEP:
        r = _cell(static_sweep, n, "hop_count")
        lo, hi = hop_bounds(_net(static_sweep, n), _delivered_d(static_sweep, n))
        if not (lo - 3 * r.stderr <= r.mean <= hi + 3 * r.stderr):
            bad.append((n, r.mean, r.stderr, lo, hi))
    elapsed = _timings["static_sweep"]
    ok = not bad and elapsed < 120.0
    _report(3, "hop-count corridor on static networks", ok,
            f"{len(NODE_SWEEP) - len(bad)}/{len(NODE_SWEEP)} cells inside the "
            f"corridor at the delivered-session separation, sweep {elapsed:.1f}s")
    assert not bad, bad
    assert elapsed < 120.0


def test_criterion_4_distance_corridor(static_sweep):
    outside = []
    cells = []
    lower_tight = 0
    for n in NODE_SWEEP:
        r = _cell(static_sweep, n, "distance")
        lo, hi = expected_total_distance(
            _net(static_sweep, n), _delivered_d(static_sweep, n)
        )
        cell = (n, round(r.mean, 1), round(r.stderr, 1), round(lo, 1), round(hi, 1))
        cells.append(f"N={n} {r.mean:.0f}+-{r.stderr:.0f} vs [{lo:.0f}, {hi:.0f}]")
        if not (lo - 3 * r.stderr <= r.mean <= hi + 3 * r.stderr):
            outside.append(cell)
        if abs(r.mean - lo) < abs(r.mean - hi):
            lower_tight += 1
    ok = not outside and lower_tight >= 5
    _report(4, "travel-distance corridor on static networks", ok,
            f"{len(NODE_SWEEP) - len(outside)}/{len(NODE_SWEEP)} cells inside the "
            f"corridor at the delivered-session separation, lower bound tighter "
            f"in {lower_tight}/{len(NODE_SWEEP)}: " + "; ".join(cells))
    assert lower_tight >= 5, cells
    assert not outside, outside


def test_criterion_5_success_corridor(static_sweep):
    outside = []
    cells = []
    means = []
    for n in NODE_SWEEP:
        r = _cell(static_sweep, n, "success_rate")
        means.append(r.mean)
        counts = static_sweep.status_counts[n, Algorithm.GREEDY_PREDICTIVE.value]
        delivered, attempted = counts[SessionStatus.DELIVERED], sum(counts.values())
        w_lo, w_hi = wilson_interval(delivered, attempted, 3.0)
        cells.append(
            f"N={n} {delivered}/{attempted} Wilson [{w_lo:.4f}, {w_hi:.4f}] "
            f"vs [{r.bound_lower:.7f}, {r.bound_upper:.7f}]"
        )
        if not (w_lo <= r.bound_upper and r.bound_lower <= w_hi):
            outside.append((n, delivered, attempted, round(w_lo, 4), round(w_hi, 4),
                            round(r.bound_lower, 7), round(r.bound_upper, 7)))
    monotone = all(b >= a - 1e-12 for a, b in zip(means, means[1:]))
    ok = not outside and monotone
    _report(5, "success corridor on static networks", ok,
            f"{len(NODE_SWEEP) - len(outside)}/{len(NODE_SWEEP)} z=3 Wilson "
            f"intervals meet the corridor, monotone={monotone}: " + "; ".join(cells))
    assert monotone, means
    assert not outside, outside


def test_criterion_6_min_range_round_trip():
    rng = np.random.default_rng(6006)
    worst_rt = 0.0
    worst_bisect = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 400))
        side = float(rng.uniform(100.0, 50_000.0))
        eps = float(rng.uniform(1e-6, 1.0 - 1e-6))
        net = NetworkParams(n, side, side)
        r_star = min_range_for_isolation(net, eps)
        back = isolation_probability(NetworkParams(n, side, max(r_star, 1e-12)))
        worst_rt = max(worst_rt, abs(back - eps))

        def gap(r, _n=n, _side=side, _eps=eps):
            return isolation_probability(NetworkParams(_n, _side, r)) - _eps

        r_bisect = bisect_root(gap, 1e-9, math.sqrt(2.0) * side, tol=1e-13)
        worst_bisect = max(worst_bisect, abs(r_star - r_bisect) / r_bisect)
    ok = worst_rt <= 1e-9 and worst_bisect <= 1e-6
    _report(6, "minimum-range round trip", ok,
            f"worst eps round-trip {worst_rt:.2e}, worst vs bisection "
            f"{worst_bisect:.2e} rel")
    assert worst_rt <= 1e-9
    assert worst_bisect <= 1e-6


def _succ(result, v, alg):
    row = result.get(v, alg, "success_rate")
    return row.mean, row.stderr


def test_criterion_7_algorithm_ordering(fig5):
    order_bad = []
    mono_bad = []
    for v in SPEED_SWEEP:
        vals = {alg: _succ(fig5, v, alg) for alg in ALGS}
        pred, static, dijk = (vals[a] for a in ALGS)
        if pred[0] < static[0] - math.hypot(pred[1], static[1]):
            order_bad.append((v, "predictive<static"))
        if static[0] < dijk[0] - math.hypot(static[1], dijk[1]):
            order_bad.append((v, "static<dijkstra"))
    for alg in ALGS:
        series = [_succ(fig5, v, alg) for v in SPEED_SWEEP]
        for (m1, s1), (m2, s2), v in zip(series, series[1:], SPEED_SWEEP[1:]):
            if m2 > m1 + math.hypot(s1, s2):
                mono_bad.append((alg.value, v))
    elapsed = _timings["fig5"]
    ok = not order_bad and not mono_bad and elapsed < 300.0
    _report(7, "success ordering across algorithms", ok,
            f"ordering violations {order_bad or 'none'}, "
            f"monotonicity violations {mono_bad or 'none'}, {elapsed:.1f}s")
    assert not order_bad, order_bad
    assert not mono_bad, mono_bad
    assert elapsed < 300.0


def test_criterion_8_power_ordering(fig6):
    power = {
        v: (
            fig6.get(v, Algorithm.GREEDY_PREDICTIVE, "power").mean,
            fig6.get(v, Algorithm.DIJKSTRA_STATIC, "power").mean,
        )
        for v in SPEED_SWEEP
    }
    gains = {v: (d - g) / d for v, (g, d) in power.items()}
    top_two_ok = all(power[v][0] < power[v][1] for v in SPEED_SWEEP[-2:])
    gain_growth = gains[SPEED_SWEEP[-1]] > gains[SPEED_SWEEP[0]]
    ok = top_two_ok and gain_growth
    _report(8, "power per delivered packet ordering", ok,
            "gains " + ", ".join(f"v={v:g}:{g:+.1%}" for v, g in gains.items()))
    assert top_two_ok, power
    assert gain_growth, gains


def test_criterion_9_byte_identical_csv(tmp_path):
    def run(dirname, workers):
        out = tmp_path / dirname
        code = cli_main(
            ["fig4", "--runs", "3", "--seed", "7", "--out", str(out),
             "--workers", str(workers),
             "--set", "experiment.sessions_per_run=5"]
        )
        assert code == 0
        return (out / "fig4.csv").read_bytes()

    first = run("a", 1)
    second = run("b", 1)
    third = run("c", 3)
    ok = first == second == third
    _report(9, "deterministic CSV output", ok,
            f"{len(first)} bytes, repeat and 3-worker runs identical={ok}")
    assert first == second
    assert first == third


def test_criterion_10_routing_oracles():
    rng = np.random.default_rng(1010)
    t0 = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(3, 40))
        r = float(rng.uniform(1_000.0, 8_000.0))
        pos = rng.uniform(0.0, 10_000.0, size=(n, 2))
        snap = ContactSnapshot(0.0, pos, pos.copy(), r)
        cur, dest = (int(v) for v in rng.choice(n, 2, replace=False))
        assert greedy_next_hop(snap, cur, dest) == brute_greedy_next_hop(
            pos, r, cur, dest
        ), (cur, dest, r)

    mismatches = 0
    for _ in range(1000):
        r = float(rng.uniform(2_000.0, 7_000.0))
        pos = rng.uniform(0.0, 10_000.0, size=(25, 2))
        snap = ContactSnapshot(0.0, pos, pos.copy(), r)
        s, d = (int(v) for v in rng.choice(25, 2, replace=False))
        squared = bool(rng.integers(2))
        weight = PathWeight.DISTANCE_SQUARED if squared else PathWeight.DISTANCE
        path = route_dijkstra(snap, s, d, weight)
        oracle = bellman_ford_weight(pos, r, s, d, squared=squared)
        if path is None:
            mismatches += oracle != math.inf
            continue
        w = 0.0
        for a, b in zip(path, path[1:]):
            link = snap.distance(a, b)
            w += link * link if squared else link
        mismatches += w != oracle
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0
    _report(10, "routing correctness oracles", ok,
            f"1000 greedy scans exact, {1000 - mismatches}/1000 shortest-path "
            f"weights exact, {elapsed:.1f}s")
    assert mismatches == 0
