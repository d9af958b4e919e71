import math
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fanetsim import simharness
from fanetsim.mobility import Fleet
from fanetsim.mobility_config import MobilityConfig
from fanetsim.routing import (
    HopRecord,
    PathWeight,
    SessionOutcome,
    SessionStatus,
    execute_path,
    greedy_next_hop,
    route_dijkstra,
    route_greedy,
)
from fanetsim.simharness import record_trace
from fanetsim.topology import _SCAN_MAX, ContactSnapshot, NetworkTrace

from oracles import bellman_ford_path, bellman_ford_weight, brute_greedy_next_hop
from scripted_fleet import ScriptedFleet

R = 5_000.0
STATIC = MobilityConfig(mean_speed=0.0, prediction_noise_var=0.0)


def snap_from(positions, comm_range=R):
    pos = np.asarray(positions, dtype=float)
    return ContactSnapshot(0.0, pos, pos.copy(), comm_range)


def static_trace(positions, n_steps=50, comm_range=R):
    pos = np.asarray(positions, dtype=float)
    return NetworkTrace(ScriptedFleet(lambda k: pos), comm_range, n_steps)


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

    def test_destination_out_of_range_raises(self):
        snap = snap_from([(0, 0), (3_000, 0), (6_000, 0)])
        for dest in (-1, 3, 99):
            with pytest.raises(IndexError):
                greedy_next_hop(snap, 0, dest)


# Points on a 1 km grid, some nudged by 0.1 um: many exact distance ties
# (equal or mirrored points) and near-ties.  No squared grid distance lies
# within 0.1 km^2 of a range's square, so the range test has no boundary
# case on which hypot and the squared comparison could disagree.
_GRID_POINT = st.tuples(
    st.integers(0, 6), st.integers(0, 6), st.sampled_from((0.0, 0.0, 1e-7, -1e-7))
).map(lambda p: (1_000.0 * p[0] + p[2], 1_000.0 * p[1] - p[2]))
_GRID_RANGES = (1_500.0, 2_500.0, 3_300.0)


class TestGreedyTies:
    @settings(max_examples=300, deadline=None)
    @given(
        pts=st.lists(_GRID_POINT, min_size=3, max_size=14),
        r=st.sampled_from(_GRID_RANGES),
        data=st.data(),
    )
    def test_matches_brute_force_on_ties(self, pts, r, data):
        pos = np.array(pts)
        n = len(pos)
        cur = data.draw(st.integers(0, n - 1))
        dest = data.draw(st.integers(0, n - 1).filter(lambda d: d != cur))
        snap = snap_from(pos, comm_range=r)
        # the destination wins whenever it is in range; the oracle's argmin
        # would tie it with any node at its position
        if math.hypot(*(pos[cur] - pos[dest])) <= r:
            expected = dest
        else:
            expected = brute_greedy_next_hop(pos, r, cur, dest)
        assert greedy_next_hop(snap, cur, dest) == expected


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

    @pytest.mark.parametrize("predictive", [True, False])
    def test_negative_hop_budget_rejected(self, predictive):
        trace = static_trace([(0, 0), (3_000, 0)])
        with pytest.raises(ValueError, match="max_hops"):
            route_greedy(trace.cursor(), 0, 1, predictive, max_hops=-3)
        out = route_greedy(trace.cursor(), 0, 1, predictive, max_hops=0)
        assert out.status is SessionStatus.HOP_CAP and out.hop_count == 0

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


class TestRouteDijkstra:
    def test_line_topology(self):
        snap = snap_from([(0, 0), (4_000, 0), (8_000, 0)])
        assert route_dijkstra(snap, 0, 2) == [0, 1, 2]

    def test_disconnected_returns_none(self):
        snap = snap_from([(0, 0), (4_000, 0), (20_000, 0)])
        assert route_dijkstra(snap, 0, 2) is None

    def test_destination_out_of_range_raises(self):
        snap = snap_from([(0, 0), (4_000, 0), (8_000, 0)])
        for dest in (-1, 3, 99):
            with pytest.raises(IndexError):
                route_dijkstra(snap, 0, dest)

    @pytest.mark.parametrize("weight", list(PathWeight))
    def test_source_out_of_range_raises(self, weight):
        snap = snap_from([(0, 0), (4_000, 0), (8_000, 0)])
        for source in (-1, -3, 3, 99):
            with pytest.raises(IndexError):
                route_dijkstra(snap, source, 2, weight)

    @pytest.mark.parametrize("weight", list(PathWeight))
    def test_unreachable_destination_returns_none(self, weight):
        # two components of two nodes; the search exhausts the source's
        snap = snap_from([(0, 0), (4_000, 0), (20_000, 0), (24_000, 0)])
        for source, dest in ((0, 2), (0, 3), (1, 3), (3, 0), (2, 1)):
            assert route_dijkstra(snap, source, dest, weight) is None
        assert route_dijkstra(snap, 3, 2, weight) == [3, 2]

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

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 400),
        side=st.sampled_from([10_000.0, 40_000.0]),
        r=st.floats(1_000.0, 7_000.0),
        squared=st.booleans(),
    )
    def test_path_matches_bellman_ford(self, seed, n, side, r, squared):
        # continuous positions: no two distinct paths weigh exactly the same
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, side, size=(n, 2))
        s, d = (int(v) for v in rng.choice(n, 2, replace=False))
        weight = PathWeight.DISTANCE_SQUARED if squared else PathWeight.DISTANCE
        path = route_dijkstra(snap_from(pos, comm_range=r), s, d, weight)
        assert path == bellman_ford_path(pos, r, s, d, squared=squared)

    def test_equal_weight_paths_give_the_oracle_weight_reproducibly(self):
        # a 5 x 5 lattice at 1 km spacing: every monotone corner-to-corner
        # walk weighs exactly 8 km (or 8 km^2 summed squares)
        pos = [(1_000.0 * i, 1_000.0 * j) for i in range(5) for j in range(5)]
        for squared in (False, True):
            weight = PathWeight.DISTANCE_SQUARED if squared else PathWeight.DISTANCE
            path = route_dijkstra(snap_from(pos, comm_range=1_200.0), 0, 24, weight)
            w = sum(
                math.dist(pos[a], pos[b]) ** (2 if squared else 1)
                for a, b in zip(path, path[1:])
            )
            assert w == bellman_ford_weight(np.array(pos), 1_200.0, 0, 24, squared)
            again = snap_from(pos, comm_range=1_200.0)
            assert route_dijkstra(again, 0, 24, weight) == path

    def test_distance_search_is_goal_directed(self):
        rng = np.random.default_rng(23)
        pos = rng.uniform(0, 40_000, size=(400, 2))
        r = 5_000.0
        probe = snap_from(pos, comm_range=r)
        pairs = (map(int, rng.choice(400, 2, replace=False)) for _ in range(100))
        s, d = next(
            (s, d)
            for s, d in pairs
            if probe.distance(s, d) > 4 * r and route_dijkstra(probe, s, d)
        )
        expanded = Counter()

        class CountedRows(list):
            def __getitem__(self, u):
                expanded[weight] += 1
                return super().__getitem__(u)

        for weight in PathWeight:  # a fresh snapshot and table each
            snap = snap_from(pos, comm_range=r)
            rows, lengths = snap._link_table()
            snap._table = (CountedRows(rows), lengths)
            assert route_dijkstra(snap, s, d, weight)
        assert 0 < expanded[PathWeight.DISTANCE] < expanded[PathWeight.DISTANCE_SQUARED]

    def test_heuristic_is_computed_on_demand(self):
        rng = np.random.default_rng(23)
        n = 400
        pos = rng.uniform(0, 40_000, size=(n, 2))
        r = 5_000.0

        class CountedView:
            def __init__(self, view):
                self.view, self.nodes = view, set()

            def __getitem__(self, k):
                self.nodes.add(k // 2)
                return self.view[k]

        searched = 0
        for _ in range(20):
            s, d = (int(v) for v in rng.choice(n, 2, replace=False))
            for weight in PathWeight:
                snap = snap_from(pos, comm_range=r)
                snap._link_table()
                view = CountedView(snap._true_xy)
                snap._true_xy = view
                path = route_dijkstra(snap, s, d, weight)
                if weight is PathWeight.DISTANCE_SQUARED:
                    assert not view.nodes
                elif path is not None:
                    searched += 1
                    assert {s, d} <= view.nodes
                    assert len(view.nodes) < n
        assert searched >= 5

    # one node count on each side of the plain-float scan's limit
    @pytest.mark.parametrize("n", [_SCAN_MAX, 60])
    def test_reads_kept_link_lists_only(self, monkeypatch, n):
        rng = np.random.default_rng(21)
        pos = rng.uniform(0, 10_000, size=(n, 2))
        pos[n - 1] = (50_000.0, 50_000.0)  # unreachable: the search covers 0's component
        snap = snap_from(pos, comm_range=2_500.0)
        calls = Counter()
        for name in ("distance", "neighbors", "_row", "_build_table"):
            original = getattr(ContactSnapshot, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(ContactSnapshot, name, counted)
        assert route_dijkstra(snap, 0, n - 1) is None
        assert calls == {"_build_table": 1}
        reached = [v for v in range(1, n - 1) if 0 in snap.neighbors(v)]
        calls.clear()
        for weight in PathWeight:
            assert route_dijkstra(snap, reached[0], 0, weight) is not None
        assert not calls  # the second search built nothing

    @pytest.mark.parametrize("seed", range(3))
    def test_wide_area_weight_matches_bellman_ford(self, seed):
        # 400 nodes on 40 km at R = 5 km: a table of many blocks, paths of
        # many hops
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 40_000, size=(400, 2))
        snap = snap_from(pos, comm_range=R)
        reachable = 0
        for _ in range(5):
            s, d = (int(v) for v in rng.choice(400, 2, replace=False))
            for weight in PathWeight:
                squared = weight is PathWeight.DISTANCE_SQUARED
                path = route_dijkstra(snap, s, d, weight)
                oracle = bellman_ford_weight(pos, R, s, d, squared=squared)
                if path is None:
                    assert oracle == math.inf
                    continue
                reachable += 1
                w = 0.0
                for a, b in zip(path, path[1:]):
                    link = snap.distance(a, b)
                    w += link * link if squared else link
                assert w == oracle
        assert reachable >= 6

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


class TestRecords:
    """Hop records and session outcomes are named tuples."""

    HOPS = (
        HopRecord(0, 3, 4000.0, 3500.0, 1.0),
        HopRecord(3, 7, 2500.5, 1200.25, 2.0),
        HopRecord(7, 9, 0.125, 0.0625, 3.0),
    )

    def outcome(self, status=SessionStatus.DELIVERED):
        return SessionOutcome(0, 9, 6000.0, self.HOPS, status)

    def test_fields_are_read_only(self):
        out = self.outcome()
        for record, name in ((self.HOPS[0], "tx_distance"), (out, "status")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_pickle_round_trip(self):
        out = self.outcome()
        copy = pickle.loads(pickle.dumps(out))
        assert copy == out
        assert type(copy) is SessionOutcome
        assert type(copy.hops[1]) is HopRecord

    def test_tuple_behaviour(self):
        out = self.outcome()
        assert len(out) == 5 and len(self.HOPS[0]) == 5
        assert out == (0, 9, 6000.0, self.HOPS, SessionStatus.DELIVERED)
        assert self.HOPS[1] == (3, 7, 2500.5, 1200.25, 2.0)

    def test_properties_match_hand_sums(self):
        out = self.outcome()
        assert out.hop_count == 3
        assert out.total_distance == 4000.0 + 2500.5 + 0.125
        assert out.total_power == 4000.0**2 + 2500.5**2 + 0.125**2
        assert out.delivered
        for status in SessionStatus:
            assert self.outcome(status).delivered == (status is SessionStatus.DELIVERED)
        empty = SessionOutcome(0, 9, 6000.0, (), SessionStatus.STUCK_NO_PROGRESS)
        assert (empty.hop_count, empty.total_distance, empty.total_power) == (0, 0, 0)

    def test_totals_add_in_hop_order(self):
        # a compensated sum (sum() of floats since Python 3.12) gives 1e16 + 2;
        # the harness's tally adds in hop order and keeps 1e16
        hops = tuple(HopRecord(k, k + 1, w, w, float(k)) for k, w in enumerate([1e16, 1.0, 1.0]))
        out = SessionOutcome(0, 3, 1e16, hops, SessionStatus.DELIVERED)
        assert out.total_distance == 1e16
        assert out.total_power == 1e32
        stats = simharness._AlgStats()
        stats.add(out)
        assert (stats.dist_sum, stats.power_total) == (out.total_distance, out.total_power)

    def test_session_hops_are_a_tuple_of_hop_records(self):
        pos = [(i * 4_000.0, 0.0) for i in range(6)]
        path = route_dijkstra(snap_from(pos), 0, 5)
        for out in (
            route_greedy(static_trace(pos).cursor(), 0, 5, True, max_hops=10),
            route_greedy(static_trace(pos).cursor(), 0, 5, False, max_hops=10),
            execute_path(static_trace(pos).cursor(), path, 10),
        ):
            assert out.delivered and out.hop_count == 5
            assert type(out.hops) is tuple
            assert all(type(h) is HopRecord for h in out.hops)


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

    def test_stops_at_first_arrival(self):
        # the path passes its destination (node 2) before its last node
        trace = static_trace([(0, 0), (8_000, 0), (4_000, 0)])
        out = execute_path(trace.cursor(), [0, 2, 1, 2], max_hops=8)
        assert out.status is SessionStatus.DELIVERED
        assert [h.dst for h in out.hops] == [2]

    def test_short_path_rejected(self):
        trace = static_trace([(0, 0), (3_000, 0)])
        with pytest.raises(ValueError):
            execute_path(trace.cursor(), [0], max_hops=1)

    @pytest.mark.parametrize("path", [[3, 3], [3, 1, 3]])
    def test_path_ending_at_its_source_rejected(self, path):
        # as route_greedy and route_dijkstra reject source == dest
        trace = static_trace([(0, 0), (3_000, 0), (6_000, 0), (9_000, 0)])
        with pytest.raises(ValueError, match="source and destination must differ"):
            execute_path(trace.cursor(), path, 20)

    @pytest.mark.parametrize(
        "path, max_hops, error",
        [
            ([0, 7, 2], 0, IndexError),  # checked even when no hop is sent
            ([0, -1, 2], 8, IndexError),
            ([0, 1.0, 2], 8, TypeError),
        ],
    )
    def test_every_node_checked_before_the_first_hop(self, path, max_hops, error):
        trace = static_trace([(0, 0), (4_000, 0), (8_000, 0)])
        cursor = trace.cursor()
        with pytest.raises(error):
            execute_path(cursor, path, max_hops)
        assert cursor.snapshot() is trace.snapshots[0]  # no step was taken

    def test_negative_hop_budget_rejected(self):
        trace = static_trace([(0, 0), (3_000, 0)])
        with pytest.raises(ValueError, match="max_hops"):
            execute_path(trace.cursor(), [0, 1], max_hops=-1)
        out = execute_path(trace.cursor(), [0, 1], max_hops=0)
        assert out.status is SessionStatus.HOP_CAP and out.hop_count == 0

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

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 16),
        speed=st.sampled_from((10.0, 100.0, 300.0)),
        predictive=st.booleans(),
    )
    def test_replayed_relays_give_the_same_session(self, seed, n, speed, predictive):
        # greedy and execute_path share one hop loop: walking a delivered
        # greedy session's relays again on the same trace repeats its hops
        fleet = Fleet(MobilityConfig(mean_speed=speed, time_step=30.0), n, seed)
        trace = record_trace(fleet, R, 4 * n)
        out = route_greedy(
            trace.cursor(), 0, n - 1, predictive=predictive, max_hops=4 * n
        )
        assume(out.delivered)
        path = [0] + [h.dst for h in out.hops]
        assert execute_path(trace.cursor(), path, max_hops=4 * n) == out

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 16),
        speed=st.sampled_from((0.0, 10.0, 100.0, 300.0)),
    )
    def test_hop_records_equal_the_landing_snapshot_distances(self, seed, n, speed):
        # the hop loop reads the flat view once per hop; every record must
        # still equal distance() on the snapshot where the hop lands
        fleet = Fleet(MobilityConfig(mean_speed=speed, time_step=30.0), n, seed)
        trace = record_trace(fleet, R, 4 * n)
        rng = np.random.default_rng(seed)
        source, dest = (int(v) for v in rng.choice(n, size=2, replace=False))
        outs = [
            route_greedy(trace.cursor(), source, dest, predictive=p, max_hops=4 * n)
            for p in (True, False)
        ]
        path = route_dijkstra(trace.snapshot(0), source, dest)
        if path is not None:
            outs.append(execute_path(trace.cursor(), path, max_hops=4 * n))
        for out in outs:
            assert out.initial_distance == trace.snapshot(0).distance(source, dest)
            for k, hop in enumerate(out.hops):
                snap = trace.snapshot(k + 1)
                assert hop.time == snap.time
                assert hop.tx_distance == snap.distance(hop.src, hop.dst)
                assert hop.progress == (
                    snap.distance(hop.src, dest) - snap.distance(hop.dst, dest)
                )


class TestSnapshotLookups:
    def test_one_trace_lookup_per_step(self, monkeypatch):
        # the cursor keeps its step's snapshot and the hop loop hands it to
        # the chooser: one lookup at session start, one per hop
        lookups = Counter()
        lookup = NetworkTrace.snapshot

        def counted(trace, k):
            lookups["n"] += 1
            return lookup(trace, k)

        monkeypatch.setattr(NetworkTrace, "snapshot", counted)
        trace = static_trace([(0, 0), (4_500, 0), (9_000, 0), (13_000, 0)])
        out = route_greedy(trace.cursor(), 0, 3, predictive=True, max_hops=16)
        assert out.delivered and out.hop_count == 3
        assert lookups["n"] == out.hop_count + 1
        lookups.clear()
        out = execute_path(trace.cursor(), [0, 1, 2, 3], max_hops=16)
        assert out.delivered and out.hop_count == 3
        assert lookups["n"] == out.hop_count + 1
