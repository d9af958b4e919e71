import math

import numpy as np
import pytest

from fanetsim.mobility import Fleet, MobilityConfig
from fanetsim.routing import (
    PathWeight,
    SessionStatus,
    execute_path,
    greedy_next_hop,
    route_dijkstra,
    route_greedy,
)
from fanetsim.simharness import record_trace
from fanetsim.topology import ContactSnapshot, NetworkTrace

from oracles import bellman_ford_weight, brute_greedy_next_hop

R = 5_000.0
STATIC = MobilityConfig(mean_speed=0.0, prediction_noise_var=0.0)


def snap_from(positions, comm_range=R):
    pos = np.asarray(positions, dtype=float)
    return ContactSnapshot(0.0, pos, pos.copy(), comm_range)


def static_trace(positions, n_steps=50, comm_range=R):
    pos = np.asarray(positions, dtype=float)
    snaps = tuple(
        ContactSnapshot(float(k), pos, pos.copy(), comm_range)
        for k in range(n_steps + 1)
    )
    return NetworkTrace(snaps)


class TestGreedyNextHop:
    def test_destination_in_range_wins(self):
        snap = snap_from([(0, 0), (4_000, 0), (2_000, 100)])
        assert greedy_next_hop(snap, 0, 1) == 1

    def test_no_progress_returns_none(self):
        # the only neighbor is farther from the destination
        snap = snap_from([(0, 0), (-3_000, 0), (20_000, 0)])
        assert greedy_next_hop(snap, 0, 2) is None

    def test_isolated_node_returns_none(self):
        snap = snap_from([(0, 0), (20_000, 0), (40_000, 0)])
        assert greedy_next_hop(snap, 0, 2) is None

    def test_tie_breaks_to_lowest_index(self):
        snap = snap_from([(0, 0), (1_000, 1_000), (1_000, -1_000), (10_000, 0)])
        # nodes 1 and 2 are equidistant from the destination
        assert greedy_next_hop(snap, 0, 3) == 1

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            n = int(rng.integers(3, 30))
            r = float(rng.uniform(1_000.0, 8_000.0))
            pos = rng.uniform(0, 10_000, size=(n, 2))
            snap = snap_from(pos, comm_range=r)
            cur, dest = (int(v) for v in rng.choice(n, 2, replace=False))
            assert greedy_next_hop(snap, cur, dest) == brute_greedy_next_hop(
                pos, r, cur, dest
            )

    def test_destination_override(self):
        snap = snap_from([(0, 0), (3_000, 0), (0, 3_000), (10_000, 10_000)])
        # with the destination's location believed to be on the x axis,
        # node 1 looks best even though node 3 actually sits elsewhere
        believed = np.array([10_000.0, 0.0])
        assert greedy_next_hop(snap, 0, 3, dest_pos=believed) == 1


class TestRouteGreedy:
    def test_chain_is_delivered_with_decreasing_remaining(self):
        pos = [(0, 0), (4_500, 0), (9_000, 0), (13_000, 0)]
        trace = static_trace(pos)
        out = route_greedy(trace.cursor(), 0, 3, predictive=True, max_hops=16)
        assert out.status is SessionStatus.DELIVERED
        assert out.hops[-1].dst == 3
        assert [h.dst for h in out.hops] == [1, 2, 3]
        assert all(h.progress > 0 for h in out.hops)
        assert out.total_distance == pytest.approx(13_000.0)
        assert out.total_power == pytest.approx(4_500.0**2 * 2 + 4_000.0**2)

    def test_isolated_source_stuck_with_zero_hops(self):
        trace = static_trace([(0, 0), (20_000, 0), (40_000, 0)])
        out = route_greedy(trace.cursor(), 0, 2, max_hops=8)
        assert out.status is SessionStatus.STUCK_NO_PROGRESS
        assert out.hop_count == 0

    def test_source_equals_destination_rejected(self):
        trace = static_trace([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            route_greedy(trace.cursor(), 0, 0, max_hops=4)

    def test_loop_freedom_on_static_networks(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            n = int(rng.integers(4, 25))
            trace = static_trace(rng.uniform(0, 10_000, size=(n, 2)), n_steps=4 * n)
            s, d = (int(v) for v in rng.choice(n, 2, replace=False))
            out = route_greedy(trace.cursor(), s, d, max_hops=4 * n)
            remaining = out.initial_distance
            seen = {s}
            for hop in out.hops:
                assert hop.progress > 0.0
                remaining -= hop.progress
                assert hop.dst not in seen
                seen.add(hop.dst)
            assert out.hop_count <= n
            if out.delivered:
                assert remaining == pytest.approx(0.0, abs=1e-6)

    def test_travel_bounded_by_progress_and_range(self):
        # on a static network each hop's link length sits between its
        # progress and the transmission radius
        rng = np.random.default_rng(16)
        for _ in range(200):
            n = int(rng.integers(4, 25))
            trace = static_trace(rng.uniform(0, 10_000, size=(n, 2)), n_steps=4 * n)
            s, d = (int(v) for v in rng.choice(n, 2, replace=False))
            out = route_greedy(trace.cursor(), s, d, max_hops=4 * n)
            for hop in out.hops:
                assert hop.progress - 1e-9 <= hop.tx_distance <= R + 1e-9

    def test_delivered_progress_telescopes(self):
        rng = np.random.default_rng(17)
        delivered = 0
        for _ in range(300):
            n = int(rng.integers(4, 20))
            trace = static_trace(rng.uniform(0, 10_000, size=(n, 2)), n_steps=4 * n)
            s, d = (int(v) for v in rng.choice(n, 2, replace=False))
            out = route_greedy(trace.cursor(), s, d, max_hops=4 * n)
            if out.delivered:
                delivered += 1
                total = sum(h.progress for h in out.hops)
                assert total == pytest.approx(out.initial_distance, rel=1e-9)
        assert delivered > 100  # the check must actually exercise sessions

    def test_static_variant_equals_predictive_on_frozen_network(self):
        rng = np.random.default_rng(18)
        trace = static_trace(rng.uniform(0, 10_000, size=(12, 2)))
        a = route_greedy(trace.cursor(), 0, 5, predictive=True, max_hops=48)
        b = route_greedy(trace.cursor(), 0, 5, predictive=False, max_hops=48)
        assert a == b

    def test_hop_cap_reports_hop_cap(self):
        # prediction noise can make the walk wander; the cap must end it
        pos = [(0, 0), (4_000, 0), (8_000, 0), (12_000, 0)]
        trace = static_trace(pos, n_steps=2)
        out = route_greedy(trace.cursor(), 0, 3, max_hops=2)
        assert out.status is SessionStatus.HOP_CAP
        assert out.hop_count == 2

    def test_stale_destination_location_can_mislead(self):
        # with the destination location never refreshed, the packet chases
        # the position stamped at session start
        rng = np.random.default_rng(22)
        differs = 0
        for seed in range(40):
            fleet = Fleet(MobilityConfig(mean_speed=300.0, time_step=30.0), 10, seed)
            trace = record_trace(fleet, R, 40)
            refreshed = route_greedy(
                trace.cursor(), 0, 9, predictive=True, max_hops=40,
                refresh_destination=True,
            )
            frozen = route_greedy(
                trace.cursor(), 0, 9, predictive=True, max_hops=40,
                refresh_destination=False,
            )
            differs += refreshed != frozen
        assert differs > 0


class TestRouteDijkstra:
    def test_line_topology(self):
        snap = snap_from([(0, 0), (4_000, 0), (8_000, 0)])
        assert route_dijkstra(snap, 0, 2) == [0, 1, 2]

    def test_disconnected_returns_none(self):
        snap = snap_from([(0, 0), (4_000, 0), (20_000, 0)])
        assert route_dijkstra(snap, 0, 2) is None

    def test_weight_matches_bellman_ford(self):
        rng = np.random.default_rng(19)
        reachable = 0
        for _ in range(300):
            n = int(rng.integers(4, 25))
            r = float(rng.uniform(2_000.0, 7_000.0))
            pos = rng.uniform(0, 10_000, size=(n, 2))
            snap = snap_from(pos, comm_range=r)
            s, d = (int(v) for v in rng.choice(n, 2, replace=False))
            squared = bool(rng.integers(2))
            weight = PathWeight.DISTANCE_SQUARED if squared else PathWeight.DISTANCE
            path = route_dijkstra(snap, s, d, weight)
            oracle = bellman_ford_weight(pos, r, s, d, squared=squared)
            if path is None:
                assert oracle == math.inf
                continue
            reachable += 1
            w = 0.0
            for a, b in zip(path, path[1:]):
                link = snap.distance(a, b)
                assert link <= r
                w += link * link if squared else link
            assert w == oracle
        assert reachable > 100

    def test_never_beaten_by_greedy(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            n = int(rng.integers(4, 20))
            pos = rng.uniform(0, 10_000, size=(n, 2))
            trace = static_trace(pos, n_steps=4 * n)
            s, d = (int(v) for v in rng.choice(n, 2, replace=False))
            greedy = route_greedy(trace.cursor(), s, d, max_hops=4 * n)
            if not greedy.delivered:
                continue
            path = route_dijkstra(trace.snapshots[0], s, d, PathWeight.DISTANCE)
            assert path is not None
            w = sum(
                trace.snapshots[0].distance(a, b) for a, b in zip(path, path[1:])
            )
            assert w <= greedy.total_distance + 1e-9
            path_sq = route_dijkstra(
                trace.snapshots[0], s, d, PathWeight.DISTANCE_SQUARED
            )
            w_sq = sum(
                trace.snapshots[0].distance(a, b) ** 2
                for a, b in zip(path_sq, path_sq[1:])
            )
            assert w_sq <= greedy.total_power + 1e-9


class TestExecutePath:
    def test_static_delivery_uses_snapshot_lengths(self):
        pos = [(0, 0), (4_000, 0), (8_000, 0)]
        trace = static_trace(pos)
        out = execute_path(trace.cursor(), [0, 1, 2], max_hops=2)
        assert out.status is SessionStatus.DELIVERED
        assert out.total_distance == pytest.approx(8_000.0)
        assert [h.tx_distance for h in out.hops] == [
            pytest.approx(4_000.0),
            pytest.approx(4_000.0),
        ]

    def test_single_link_path(self):
        trace = static_trace([(0, 0), (3_000, 0)])
        out = execute_path(trace.cursor(), [0, 1], max_hops=1)
        assert out.status is SessionStatus.DELIVERED
        assert out.hop_count == 1

    def test_hop_cap_ends_a_longer_path(self):
        # a trace of one step must not be read past its end
        pos = [(0, 0), (4_000, 0), (8_000, 0), (12_000, 0)]
        trace = static_trace(pos, n_steps=1)
        out = execute_path(trace.cursor(), [0, 1, 2, 3], max_hops=1)
        assert out.status is SessionStatus.HOP_CAP
        assert out.hop_count == 1
        assert out.hops[0].dst == 1

    def test_short_path_rejected(self):
        trace = static_trace([(0, 0), (3_000, 0)])
        with pytest.raises(ValueError):
            execute_path(trace.cursor(), [0], max_hops=1)

    def test_fast_network_breaks_links(self):
        # nodes cross the whole area per step and the range is a small
        # fraction of it, so precomputed multi-hop paths almost always break
        cfg = MobilityConfig(mean_speed=20_000.0, mean_wait=5.0)
        comm_range = 1_500.0
        broken = 0
        multi = 0
        for seed in range(200):
            fleet = Fleet(cfg, 60, seed)
            trace = record_trace(fleet, comm_range, 70)
            snap0 = trace.snapshots[0]
            path = route_dijkstra(snap0, 0, 59, PathWeight.DISTANCE)
            if path is None or len(path) < 3:
                continue
            multi += 1
            out = execute_path(trace.cursor(), path, max_hops=70)
            broken += out.status is SessionStatus.LINK_BROKEN
        assert multi > 50
        assert broken / multi > 0.9


class TestDynamicSessions:
    def test_predictive_session_runs_on_moving_network(self):
        fleet = Fleet(MobilityConfig(time_step=30.0), 10, 123)
        trace = record_trace(fleet, R, 40)
        out = route_greedy(trace.cursor(), 0, 9, predictive=True, max_hops=40)
        assert out.status in SessionStatus
        for hop in out.hops:
            assert hop.tx_distance <= R

    def test_broken_link_status_occurs_under_staleness(self):
        # frozen decisions on a fast-moving network eventually pick a
        # neighbor that drifted out of range
        cfg = MobilityConfig(mean_speed=500.0, time_step=30.0)
        statuses = set()
        for seed in range(60):
            fleet = Fleet(cfg, 10, seed)
            trace = record_trace(fleet, R, 40)
            out = route_greedy(trace.cursor(), 0, 9, predictive=False, max_hops=40)
            statuses.add(out.status)
        assert SessionStatus.LINK_BROKEN in statuses
