import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fanetsim import analysis
from fanetsim.analysis import (
    NetworkParams,
    bounds_report,
    expected_total_distance,
    hop_bounds,
    isolation_probability,
    min_range_for_isolation,
    success_probability,
)
from fanetsim.geometry import ProgressDistribution, expected_progress

from oracles import bisect_root

NET = NetworkParams(n_nodes=10, area_side=10_000.0, comm_range=5_000.0)


class TestNetworkParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            NetworkParams(1, 10_000.0, 5_000.0)
        with pytest.raises(ValueError):
            NetworkParams(10, -1.0, 5_000.0)
        with pytest.raises(ValueError):
            NetworkParams(10, 10_000.0, 0.0)
        with pytest.raises(ValueError):
            NetworkParams(10, 10_000.0, 15_000.0)  # beyond the diagonal
        NetworkParams(10, 10_000.0, math.sqrt(2.0) * 10_000.0)

    # 10.5 used to build a report for half a node; inf and nan passed the
    # "< 2" check, since comparisons with nan are false
    @pytest.mark.parametrize("n", [10.5, math.inf, math.nan, True, "10"])
    def test_non_integral_node_count_rejected(self, n):
        with pytest.raises(ValueError, match="n_nodes must be an integer"):
            NetworkParams(n, 10_000.0, 5_000.0)

    def test_integral_float_node_count_accepted(self):
        net = NetworkParams(10.0, 10_000.0, 5_000.0)
        assert net == NET
        assert bounds_report(net, 7_500.0) == bounds_report(NET, 7_500.0)


class TestHopBounds:
    def test_direct_neighbor_lower_bound_is_one(self):
        lo, hi = hop_bounds(NET, 4_000.0)
        assert lo == 1.0
        assert hi > 1.0

    def test_lower_below_upper_on_random_parameters(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            side = rng.uniform(1_000.0, 50_000.0)
            r = rng.uniform(0.05 * side, 1.0 * side)
            n = int(rng.integers(2, 200))
            d = rng.uniform(1.0, math.sqrt(2.0) * side)
            net = NetworkParams(n, side, r)
            lo, hi = hop_bounds(net, d)
            assert 1.0 <= lo <= hi

    def test_upper_asymptote_for_dense_networks(self):
        # with enough nodes every hop travels the full range
        net = NetworkParams(100_000, 10_000.0, 5_000.0)
        _, hi = hop_bounds(net, 7_500.0)
        assert hi == pytest.approx(7_500.0 / 5_000.0 + 1.0, rel=0.01)

    def test_distance_domain(self):
        with pytest.raises(ValueError):
            hop_bounds(NET, 0.0)
        with pytest.raises(ValueError):
            hop_bounds(NET, 20_000.0)


class TestExpectedTotalDistance:
    def test_single_hop_session(self):
        # a direct transmission: lower bound hop count is 1
        lo, hi = expected_total_distance(NET, 5_000.0)
        assert lo == pytest.approx(0.5 * (5_000.0 + 1.0 * 5_000.0))
        assert hi > lo

    def test_monotone_in_distance(self):
        prev_lo, prev_hi = expected_total_distance(NET, 1_000.0)
        for d in (2_000.0, 5_000.0, 8_000.0, 12_000.0):
            lo, hi = expected_total_distance(NET, d)
            assert lo >= prev_lo - 1e-9
            assert hi >= prev_hi - 1e-9
            prev_lo, prev_hi = lo, hi


class TestIsolation:
    def test_vanishing_range(self):
        net = NetworkParams(10, 10_000.0, 1e-6)
        assert isolation_probability(net) == pytest.approx(1.0, abs=1e-9)

    def test_half_square_coverage_two_nodes(self):
        side = 10_000.0
        r = side * math.sqrt(1.0 / math.pi)  # half-disk covers half the square
        net = NetworkParams(2, side, r)
        assert isolation_probability(net) == pytest.approx(0.5, rel=1e-12)

    def test_reference_value(self):
        # (1 - pi/8)^9 for range equal to half the side
        expected = (1.0 - math.pi * 0.25 / 2.0) ** 9
        assert isolation_probability(NET) == pytest.approx(expected, rel=1e-12)
        assert isolation_probability(NET) == pytest.approx(0.0112366134, rel=1e-8)

    def test_oversize_range_clamps(self):
        net = NetworkParams(5, 100.0, 140.0)  # half-disk exceeds the square
        assert isolation_probability(net) == 0.0

    def test_monte_carlo_cross_check(self):
        # empirical isolation of a forward half-disk among uniform peers;
        # the disk is kept inside the square so no clipping occurs
        rng = np.random.default_rng(77)
        side, r, n = 20_000.0, 5_000.0, 10
        center = np.array([side / 2.0, side / 2.0])
        trials = 40_000
        hits = 0
        for _ in range(trials):
            pts = rng.uniform(0.0, side, size=(n - 1, 2))
            rel = pts - center
            in_half_disk = (np.hypot(rel[:, 0], rel[:, 1]) <= r) & (rel[:, 0] >= 0.0)
            hits += not in_half_disk.any()
        net = NetworkParams(n, side, r)
        expected = isolation_probability(net)
        se = math.sqrt(expected * (1.0 - expected) / trials)
        assert abs(hits / trials - expected) <= 4 * se


class TestMinRange:
    def test_reference_value(self):
        r = min_range_for_isolation(NET, 0.05)
        assert r == pytest.approx(4245.53, rel=1e-4)

    def test_epsilon_near_one_needs_no_range(self):
        r = min_range_for_isolation(NET, 1.0 - 1e-12)
        assert r < 1e-4 * NET.area_side

    def test_domain(self):
        with pytest.raises(ValueError):
            min_range_for_isolation(NET, 0.0)
        with pytest.raises(ValueError):
            min_range_for_isolation(NET, 1.0)

    def test_round_trip_and_bisection_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 500))
            side = rng.uniform(100.0, 1e5)
            eps = rng.uniform(1e-6, 1.0 - 1e-6)
            net = NetworkParams(n, side, side)  # range field unused here
            r_star = min_range_for_isolation(net, eps)
            back = isolation_probability(
                NetworkParams(n, side, max(r_star, 1e-12))
            )
            assert back == pytest.approx(eps, abs=1e-9)

            def gap(r, _net=net, _eps=eps):
                return (
                    isolation_probability(NetworkParams(_net.n_nodes, _net.area_side, r))
                    - _eps
                )

            r_bisect = bisect_root(gap, 1e-9, math.sqrt(2.0) * side)
            assert r_star == pytest.approx(r_bisect, rel=1e-6)


class TestSuccessProbability:
    def test_zero_isolation_gives_certainty(self):
        net = NetworkParams(5, 100.0, 140.0)  # isolation clamped to zero
        assert success_probability(net, 17.3) == 1.0

    def test_zero_hops_gives_certainty(self):
        assert success_probability(NET, 0.0) == 1.0

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError):
            success_probability(NET, -1.0)

    def test_strictly_increasing_in_node_count(self):
        prev = 0.0
        for n in (2, 5, 10, 20, 50, 100):
            net = NetworkParams(n, 10_000.0, 5_000.0)
            p = success_probability(net, 3.0)
            assert p > prev
            prev = p

    def test_more_hops_less_success(self):
        lo, hi = hop_bounds(NET, 7_500.0)
        assert success_probability(NET, hi) <= success_probability(NET, lo)


class TestBoundsReport:
    def test_fields_consistent(self):
        rep = bounds_report(NET, 7_500.0)
        assert rep.src_dst_distance == 7_500.0
        assert rep.hops_lower <= rep.hops_upper
        assert rep.dist_lower <= rep.dist_upper
        assert 0.0 <= rep.p_isolation <= 1.0
        assert 0.0 <= rep.p_success_lower <= rep.p_success_upper <= 1.0
        lo, hi = hop_bounds(NET, 7_500.0)
        assert rep.p_success_lower == success_probability(NET, hi)
        assert rep.p_success_upper == success_probability(NET, lo)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 200),
        side=st.floats(1_000.0, 50_000.0),
        r_frac=st.floats(0.05, 1.0),
        d_frac=st.floats(0.001, 1.0),
    )
    def test_corridors_equal_the_standalone_functions(self, n, side, r_frac, d_frac):
        net = NetworkParams(n, side, r_frac * side)
        d = d_frac * math.sqrt(2.0) * side
        rep = bounds_report(net, d)
        assert hop_bounds(net, d) == (rep.hops_lower, rep.hops_upper)
        assert expected_total_distance(net, d) == (rep.dist_lower, rep.dist_upper)

    @pytest.mark.parametrize("d, quadratures", [(7_500.0, 2), (5_000.0, 1), (3_000.0, 1)])
    def test_one_quadrature_per_corridor_end(self, monkeypatch, d, quadratures):
        # a fresh network pays one quadrature per corridor end; a second
        # report on it drops the worst-case (d = R) one and keeps the rest
        calls = []
        original = analysis.expected_progress

        def counted(dist):
            calls.append(dist.d)
            return original(dist)

        monkeypatch.setattr(analysis, "expected_progress", counted)
        first = bounds_report(NET, d)
        assert len(calls) == quadratures
        assert calls[0] == NET.comm_range
        del calls[:]
        assert bounds_report(NET, d) == first
        assert calls == ([d] if d > NET.comm_range else [])


class TestWorstCaseCache:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 200),
        side=st.floats(1_000.0, 50_000.0),
        r_frac=st.floats(0.05, 1.0),
        d_frac=st.floats(0.001, 1.0),
    )
    def test_upper_bound_bit_identical_cold_and_warm(self, n, side, r_frac, d_frac):
        net = NetworkParams(n, side, r_frac * side)
        d = d_frac * math.sqrt(2.0) * side
        r = net.comm_range
        expected = d / expected_progress(ProgressDistribution(r, r, n, side)) + 1.0
        analysis._worst_case_progress.cache_clear()
        assert hop_bounds(net, d)[1] == expected  # cold
        assert hop_bounds(net, d)[1] == expected  # warm
        assert analysis._worst_case_progress.cache_info().misses == 1

    def test_equal_networks_share_one_entry(self):
        first = NetworkParams(10, 10_000.0, 5_000.0)
        second = NetworkParams(10, 10_000.0, 5_000.0)
        assert first is not second
        assert hop_bounds(first, 7_500.0) == hop_bounds(second, 7_500.0)
        info = analysis._worst_case_progress.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)

    def test_one_entry_per_network_not_per_distance(self):
        nets = [NetworkParams(n, 10_000.0, 5_000.0) for n in (5, 10, 20)]
        distances = [1_000.0 * k for k in range(1, 15)]
        for _ in range(2):
            for net in nets:
                for d in distances:
                    bounds_report(net, d)
        info = analysis._worst_case_progress.cache_info()
        assert info.currsize == info.misses == len(nets)
        assert info.hits == 2 * len(nets) * len(distances) - len(nets)
        assert info.maxsize == analysis._WORST_CASE_CACHE_SIZE


def test_simulated_hops_inside_corridor_across_regimes():
    # static deployments with the source placed at an exact distance from
    # the destination (both inside the square); delivered sessions' mean
    # hop count must sit inside the analytical corridor, 3 sigma allowance
    rng = np.random.default_rng(12345)
    side, r = 10_000.0, 5_000.0
    for n in (10, 20, 40, 80):
        for ratio in (1.2, 1.5, 2.0):
            d = ratio * r
            net = NetworkParams(n, side, r)
            lo, hi = hop_bounds(net, d)
            hops = []
            trials = 0
            while len(hops) < 800 and trials < 20_000:
                src = rng.uniform(0.0, side, 2)
                theta = rng.uniform(0.0, 2.0 * math.pi)
                dst = src + d * np.array([math.cos(theta), math.sin(theta)])
                if not (0.0 <= dst[0] <= side and 0.0 <= dst[1] <= side):
                    continue
                trials += 1
                pts = rng.uniform(0.0, side, size=(n, 2))
                dist_t = np.hypot(pts[:, 0] - dst[0], pts[:, 1] - dst[1])
                cur, d_cur, count = src, d, 0
                while True:
                    if d_cur <= r:
                        count += 1
                        hops.append(count)
                        break
                    dist_c = np.hypot(pts[:, 0] - cur[0], pts[:, 1] - cur[1])
                    mask = (dist_c <= r) & (dist_t < d_cur)
                    if not mask.any():
                        break  # stuck; excluded from the delivered mean
                    j = np.flatnonzero(mask)[np.argmin(dist_t[mask])]
                    cur, d_cur, count = pts[j], float(dist_t[j]), count + 1
            arr = np.array(hops, dtype=float)
            se = arr.std(ddof=1) / math.sqrt(len(arr))
            assert lo - 3 * se <= arr.mean() <= hi + 3 * se, (n, ratio)
