from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fanetsim import topology
from fanetsim.mobility import Fleet
from fanetsim.mobility_config import MobilityConfig
from fanetsim.routing import PathWeight, greedy_next_hop, route_dijkstra
from fanetsim.simharness import record_trace
from fanetsim.topology import _BLOCK, _SCAN_MAX, ContactSnapshot, NetworkTrace

from oracles import brute_force_neighbors


def snap_from(positions, comm_range=4_000.0, predicted=None):
    pos = np.asarray(positions, dtype=float)
    pred = pos.copy() if predicted is None else np.asarray(predicted, dtype=float)
    return ContactSnapshot(0.0, pos, pred, comm_range)


# _SCAN_MAX values that force each scan: numpy blocks at every n, or plain
# floats at every n the tests build
SCAN_PATHS = {"block": 0, "plain": 1_000}


@pytest.fixture(params=sorted(SCAN_PATHS), scope="class")
def scan_path(request):
    """Runs a class's tests once on each scan path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topology, "_SCAN_MAX", SCAN_PATHS[request.param])
        yield request.param


class TestContactSnapshot:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ContactSnapshot(
                0.0, np.zeros((3, 2)), np.zeros((2, 2)), 100.0
            )

    def test_range_must_be_positive(self):
        with pytest.raises(ValueError):
            snap_from([(0, 0), (1, 1)], comm_range=0.0)

    # a NaN range used to pass and leave every row empty, even between
    # nodes at one position
    @pytest.mark.parametrize("comm_range", [float("nan"), float("inf")])
    def test_range_must_be_finite(self, comm_range):
        with pytest.raises(ValueError, match="comm_range must be finite"):
            snap_from([(0, 0), (0, 0), (0, 0)], comm_range=comm_range)

    def test_distance_pythagorean(self):
        snap = snap_from([(0.0, 0.0), (3.0, 4.0)])
        assert snap.distance(0, 1) == 5.0
        assert type(snap.distance(0, 1)) is float
        assert snap.distance(0, 0) == 0.0
        assert snap.distance(1, 0) == snap.distance(0, 1)

    def test_distance_random_pairs_match_recomputation(self):
        rng = np.random.default_rng(4)
        pos = rng.uniform(0, 10_000, size=(20, 2))
        snap = snap_from(pos)
        for _ in range(100):
            i, j = rng.integers(20, size=2)
            expected = float(np.hypot(*(pos[i] - pos[j])))
            assert snap.distance(int(i), int(j)) == pytest.approx(expected, rel=1e-12)

    def test_index_errors(self):
        snap = snap_from([(0, 0), (1, 1)])
        with pytest.raises(IndexError):
            snap.distance(0, 2)
        with pytest.raises(IndexError):
            snap.neighbors(-1)

    def test_boundary_distance_is_neighbor(self):
        snap = snap_from([(0.0, 0.0), (4_000.0, 0.0)], comm_range=4_000.0)
        assert snap.neighbors(0) == [1]
        assert snap.neighbors(1) == [0]

    def test_single_node_has_no_neighbors(self):
        snap = snap_from([(5.0, 5.0)])
        assert snap.neighbors(0) == []

    def test_neighbors_match_brute_force(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            n = int(rng.integers(2, 50))
            r = float(rng.uniform(200.0, 8_000.0))
            pos = rng.uniform(0, 10_000, size=(n, 2))
            # predicted positions can leave the square by up to a range
            pred = rng.uniform(-r, 10_000 + r, size=(n, 2))
            snap = snap_from(pos, comm_range=r, predicted=pred)
            i = int(rng.integers(n))
            for use_predicted, p in ((False, pos), (True, pred)):
                got = snap.neighbors(i, use_predicted)
                assert type(got) is list
                assert got == sorted(brute_force_neighbors(p, i, r))
                assert all(type(j) is int for j in got)

    def test_neighbor_symmetry(self):
        rng = np.random.default_rng(11)
        pos = rng.uniform(0, 10_000, size=(30, 2))
        snap = snap_from(pos)
        for i in range(30):
            for j in snap.neighbors(i):
                assert i in snap.neighbors(j)
                assert j != i

    def test_predicted_positions_queried_separately(self):
        true_pos = [(0.0, 0.0), (3_000.0, 0.0), (9_000.0, 0.0)]
        pred_pos = [(0.0, 0.0), (8_000.0, 0.0), (3_500.0, 0.0)]
        snap = snap_from(true_pos, comm_range=4_000.0, predicted=pred_pos)
        assert snap.neighbors(0, use_predicted=False) == [1]
        assert snap.neighbors(0, use_predicted=True) == [2]

    def test_equality_and_hashing_by_identity(self):
        # a generated __eq__ compared the position arrays, so == raised
        # (ambiguous truth) and hash() failed
        p = np.array([(0.0, 0.0), (3.0, 4.0)])
        a = ContactSnapshot(0.0, p, p.copy(), 5.0)
        b = ContactSnapshot(0.0, p.copy(), p.copy(), 5.0)
        assert a == a and not a != a
        assert a != b and not a == b
        assert len({a, b, a}) == 2
        assert {a: 1, b: 2}[a] == 1


@pytest.mark.contract
@pytest.mark.usefixtures("scan_path")
class TestKeptRows:
    """Each neighbor row is built once per (node, position set) and kept;
    every call still returns a fresh list, the brute-force scan in
    ascending order, on either scan path."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 40),
        k=st.integers(20, 1_600),
        sx=st.sampled_from((-1, 1)),
        sy=st.sampled_from((-1, 1)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_match_brute_force_on_first_and_repeat_calls(self, n, k, sx, sy, seed):
        rng = np.random.default_rng(seed)
        r = 5.0 * k
        pos = rng.integers(0, 10_000, size=(n, 2)).astype(float)
        pred = rng.integers(-5 * k, 10_000 + 5 * k, size=(n, 2)).astype(float)
        # a 3-4-5 offset puts node 1 at exactly R from node 0 on both sets
        pos[1] = pos[0] + (sx * 3.0 * k, sy * 4.0 * k)
        pred[1] = pred[0] + (sy * 4.0 * k, sx * 3.0 * k)
        snap = snap_from(pos, comm_range=r, predicted=pred)
        for use_predicted, p in ((False, pos), (True, pred)):
            assert 1 in snap.neighbors(0, use_predicted)
            for _ in range(2):
                for i in range(n):
                    got = snap.neighbors(i, use_predicted)
                    assert got == sorted(brute_force_neighbors(p, i, r))
                    assert all(type(j) is int for j in got)

    def test_mutating_a_returned_list_does_not_reach_the_row(self):
        snap = snap_from([(0, 0), (1_000, 0), (2_000, 0)])
        for use_predicted in (False, True):
            first = snap.neighbors(0, use_predicted)
            first.append(99)
            first.remove(1)
            first.reverse()
            assert snap.neighbors(0, use_predicted) == [1, 2]
            assert snap.neighbors(0, use_predicted) is not snap.neighbors(0, use_predicted)
        rows, lengths = snap._link_table()
        assert (rows[0].tolist(), lengths[0].tolist()) == ([1, 2], [1_000.0, 2_000.0])
        assert snap._predicted_rows[0].tolist() == [1, 2]

    @pytest.mark.parametrize("n", [_SCAN_MAX, _SCAN_MAX + 1])
    def test_each_row_is_built_once_per_position_set(self, monkeypatch, n):
        # the true rows come from one link table per snapshot, the
        # predicted rows from one _row each
        built = Counter()
        row, table = ContactSnapshot._row, ContactSnapshot._build_table

        def counting_row(snap, i):
            built[i] += 1
            return row(snap, i)

        def counting_table(snap):
            built["table"] += 1
            return table(snap)

        monkeypatch.setattr(ContactSnapshot, "_row", counting_row)
        monkeypatch.setattr(ContactSnapshot, "_build_table", counting_table)
        rng = np.random.default_rng(8)
        pos, pred = rng.uniform(0, 10_000, size=(2, n, 2))
        snap = snap_from(pos, predicted=pred)
        for _ in range(3):
            for i in range(n):
                snap.neighbors(i)
                snap.neighbors(i, use_predicted=True)
                route_dijkstra(snap, i, (i + 1) % n)  # shares the true-position table
                greedy_next_hop(snap, i, (i + 1) % n)
        assert built == {"table": 1, **{i: 1 for i in range(n)}}

    @pytest.mark.parametrize("bad", [1.0, True, np.float64(1.0), "1", None])
    def test_non_integer_index_rejected(self, bad):
        snap = snap_from([(0, 0), (1_000, 0), (2_000, 0)])
        # node 1's rows are kept: a float key would hit them
        snap.neighbors(1)
        snap.neighbors(1, use_predicted=True)
        for call in (
            lambda: snap.neighbors(bad),
            lambda: snap.neighbors(bad, use_predicted=True),
            lambda: snap.distance(bad, 2),
            lambda: snap.distance(2, bad),
            lambda: greedy_next_hop(snap, 0, bad),
        ):
            with pytest.raises(TypeError, match="node index must be an integer"):
                call()

    def test_numpy_integer_index_reads_the_same_row(self):
        snap = snap_from([(0, 0), (1_000, 0), (2_000, 0)], comm_range=1_500.0)
        for i in (np.int64(1), np.int32(1), np.intp(1)):
            assert snap.neighbors(i) == snap.neighbors(1) == [0, 2]
            assert snap.neighbors(i, use_predicted=True) == [0, 2]
            assert snap.distance(i, np.int64(2)) == snap.distance(1, 2)


# sizes around the block size catch a row lost or shifted at a block edge
TABLE_SIZES = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, _SCAN_MAX, _SCAN_MAX + 1)


@pytest.mark.contract
@pytest.mark.usefixtures("scan_path")
class TestLinkTable:
    """The true-position link table is built whole, by plain floats over
    each pair or by numpy _BLOCK rows per scan, to the same rows."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.sampled_from(TABLE_SIZES),
        k=st.integers(20, 1_600),
        pair=st.tuples(st.integers(0, 2 * _BLOCK), st.integers(0, 2 * _BLOCK)),
        sx=st.sampled_from((-1, 1)),
        sy=st.sampled_from((-1, 1)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_table_matches_brute_force(self, n, k, pair, sx, sy, seed):
        rng = np.random.default_rng(seed)
        r = 5.0 * k
        pos = rng.integers(0, 10_000, size=(n, 2)).astype(float)
        a, b = (p % n for p in pair)
        if a != b:  # a 3-4-5 offset puts b at exactly R from a
            pos[b] = pos[a] + (sx * 3.0 * k, sy * 4.0 * k)
        pos[(a + 1) % n] = pos[a]  # and one node on top of a
        snap = snap_from(pos, comm_range=r)
        rows, lengths = snap._link_table()
        for i in range(n):
            row = rows[i].tolist()
            assert row == sorted(brute_force_neighbors(pos, i, r))
            assert lengths[i].tolist() == [snap.distance(i, j) for j in row]
            assert snap.neighbors(i) == row

    @pytest.mark.parametrize("n", TABLE_SIZES)
    def test_boundary_and_coincident_points(self, n):
        # nodes on a line R apart, each with a twin on the same spot
        r = 3_000.0
        pos = np.array([(r * (i // 2), 0.0) for i in range(n)])
        snap = snap_from(pos, comm_range=r)
        rows, lengths = snap._link_table()
        for i in range(n):
            expected = [j for j in range(n) if j != i and abs(j // 2 - i // 2) <= 1]
            assert snap.neighbors(i) == rows[i].tolist() == expected
            assert lengths[i].tolist() == [0.0 if j // 2 == i // 2 else r for j in expected]

    @pytest.mark.parametrize("seed", range(3))
    def test_lengths_are_distances_bit_for_bit(self, seed):
        # np.hypot rounds some of these differently from math.hypot
        rng = np.random.default_rng(seed)
        n = 3 * _BLOCK + 5
        pos = rng.uniform(0, 10_000, size=(n, 2))
        snap = snap_from(pos, comm_range=4_000.0)
        rows, lengths = snap._link_table()
        for i in range(n):
            for j, w in zip(rows[i], lengths[i]):
                assert w.hex() == snap.distance(i, j).hex() == snap.distance(j, i).hex()

    def test_first_reader_does_not_change_the_table(self):
        rng = np.random.default_rng(12)
        pos = rng.uniform(0, 10_000, size=(2 * _BLOCK + 3, 2))
        by_neighbors, by_next_row = snap_from(pos), snap_from(pos)
        by_neighbors.neighbors(_BLOCK)
        by_next_row.neighbors(_BLOCK + 1)
        assert by_neighbors._table == by_next_row._table
        fresh = snap_from(pos)  # its first search builds the table
        for s in range(0, len(pos), 5):
            for d in range(len(pos)):
                if d != s:
                    for weight in PathWeight:
                        path = route_dijkstra(fresh, s, d, weight)
                        assert route_dijkstra(by_neighbors, s, d, weight) == path
                        assert route_dijkstra(by_next_row, s, d, weight) == path


@pytest.mark.contract
class TestScanPaths:
    """Plain floats and numpy blocks give one snapshot the same rows and
    the same length floats; the module constant picks plain floats up to
    _SCAN_MAX nodes."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 2 * _SCAN_MAX + 1),
        k=st.integers(20, 1_600),
        sx=st.sampled_from((-1, 1)),
        sy=st.sampled_from((-1, 1)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_paths_agree_bit_for_bit(self, n, k, sx, sy, seed):
        rng = np.random.default_rng(seed)
        r = 5.0 * k
        pos, pred = rng.uniform(-r, 10_000 + r, size=(2, n, 2))
        pos[0], pred[0] = pos[0].round(), pred[0].round()
        if n > 1:  # a 3-4-5 offset puts node 1 at exactly R from node 0
            pos[1] = pos[0] + (sx * 3.0 * k, sy * 4.0 * k)
            pred[1] = pred[0] + (sy * 4.0 * k, sx * 3.0 * k)
        if n > 2:  # and node 2 on top of node 0
            pos[2], pred[2] = pos[0], pred[0]
        snap = snap_from(pos, comm_range=r, predicted=pred)
        got = {}
        with pytest.MonkeyPatch.context() as mp:
            for path, scan_max in SCAN_PATHS.items():
                mp.setattr(topology, "_SCAN_MAX", scan_max)
                rows, lengths = snap._build_table()
                hexes = [[w.hex() for w in row] for row in lengths]
                got[path] = rows, hexes, [snap._row(i) for i in range(n)]
        assert got["plain"] == got["block"]
        rows, hexes, predicted_rows = got["plain"]
        assert [len(row) for row in rows] == [len(h) for h in hexes]
        if n > 2:
            assert list(rows[0][:2]) == list(predicted_rows[0][:2]) == [1, 2]
            assert hexes[0][:2] == [r.hex(), 0.0.hex()]

    @pytest.mark.parametrize("n", [_SCAN_MAX, _SCAN_MAX + 1])
    def test_constant_picks_the_path(self, n):
        snap = snap_from(np.zeros((n, 2)))
        # the plain scans read only the flat views, numpy the arrays
        object.__setattr__(snap, "true_positions", None)
        object.__setattr__(snap, "predicted_positions", None)
        for use_predicted in (False, True):
            if n <= _SCAN_MAX:
                assert snap.neighbors(0, use_predicted) == list(range(1, n))
            else:
                with pytest.raises(TypeError):
                    snap.neighbors(0, use_predicted)


class TestPositionStorage:
    """Positions are kept as C-ordered float64 (n, 2) arrays, which the
    flat coordinate views read; any other layout is converted or refused."""

    @pytest.mark.parametrize(
        "bad", [np.zeros(4), np.zeros((3, 3)), np.zeros((3, 1)), np.zeros((2, 2, 2))]
    )
    def test_positions_not_shaped_n_by_2_rejected(self, bad):
        good = np.zeros((len(bad), 2))
        with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
            ContactSnapshot(0.0, bad, good, 100.0)
        with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
            ContactSnapshot(0.0, good, bad, 100.0)

    def test_empty_snapshot_allowed(self):
        snap = ContactSnapshot(0.0, np.zeros((0, 2)), np.zeros((0, 2)), 1.0)
        assert snap.n_nodes == 0

    @staticmethod
    def _layouts(pos):
        """``pos`` as integer, Fortran-ordered and strided (sliced) arrays."""
        wide = np.zeros((len(pos), 4), dtype=pos.dtype)
        wide[:, ::2] = pos
        return [pos.astype(np.int64), np.asfortranarray(pos), wide[:, ::2]]

    @pytest.mark.parametrize("layout", range(3))
    def test_any_layout_reads_as_a_float_copy(self, layout):
        rng = np.random.default_rng(layout)
        n, r = 25, 3_000.0
        true_pos = rng.integers(0, 10_000, size=(n, 2)).astype(float)
        pred_pos = rng.integers(0, 10_000, size=(n, 2)).astype(float)
        ref = ContactSnapshot(0.0, true_pos.copy(), pred_pos.copy(), r)
        odd_true = self._layouts(true_pos)[layout]
        odd_pred = self._layouts(pred_pos)[layout]
        assert not (odd_true.dtype == np.float64 and odd_true.flags.c_contiguous)
        snap = ContactSnapshot(0.0, odd_true, odd_pred, r)
        for pos in (snap.true_positions, snap.predicted_positions):
            assert pos.dtype == np.float64 and pos.flags.c_contiguous
        assert np.array_equal(snap.true_positions, true_pos)
        assert np.array_equal(snap.predicted_positions, pred_pos)
        assert snap._link_table() == ref._link_table()
        for i in range(n):
            assert [snap.distance(i, j) for j in range(n)] == [
                ref.distance(i, j) for j in range(n)
            ]
            assert snap.neighbors(i, use_predicted=True) == ref.neighbors(i, use_predicted=True)
            for dest in range(n):
                if dest != i:
                    assert greedy_next_hop(snap, i, dest) == greedy_next_hop(
                        ref, i, dest
                    )


class TestLinks:
    """The link table's rows, which the shortest-path search reads, pair
    each true-position neighbor with its distance."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 40),
        k=st.integers(20, 1_600),
        sx=st.sampled_from((-1, 1)),
        sy=st.sampled_from((-1, 1)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_links_are_the_neighbors_with_their_distances(self, n, k, sx, sy, seed):
        rng = np.random.default_rng(seed)
        pos = rng.integers(0, 10_000, size=(n, 2)).astype(float)
        # a 3-4-5 offset puts node 1 at exactly R from node 0: the boundary counts
        r = 5.0 * k
        pos[1] = pos[0] + (sx * 3.0 * k, sy * 4.0 * k)
        snap = snap_from(pos, comm_range=r, predicted=rng.uniform(0, 10_000, (n, 2)))
        rows, lengths = snap._link_table()
        assert dict(zip(rows[0], lengths[0]))[1] == r
        for i in range(n):
            got = dict(zip(rows[i], lengths[i]))
            assert got == {j: snap.distance(i, j) for j in snap.neighbors(i)}
            assert snap._link_table()[0][i] is rows[i]  # the kept row
            assert all(type(j) is int and type(w) is float for j, w in got.items())

    def test_links_ignore_predicted_positions(self):
        true_pos = [(0.0, 0.0), (3_000.0, 0.0), (9_000.0, 0.0)]
        pred_pos = [(0.0, 0.0), (8_000.0, 0.0), (3_500.0, 0.0)]
        snap = snap_from(true_pos, comm_range=4_000.0, predicted=pred_pos)
        rows, lengths = snap._link_table()
        assert dict(zip(rows[0], lengths[0])) == {1: 3_000.0}
        assert dict(zip(rows[2], lengths[2])) == {}


class TestTrace:
    def make_trace(self, n_steps=3):
        snaps = []
        for k in range(n_steps + 1):
            pos = np.array([(float(k), 0.0), (5.0, 5.0)])
            snaps.append(ContactSnapshot(float(k), pos, pos.copy(), 100.0))
        return NetworkTrace(tuple(snaps))

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            NetworkTrace(())

    @pytest.mark.parametrize(
        "second",
        [
            ContactSnapshot(1.0, np.zeros((3, 2)), np.zeros((3, 2)), 100.0),
            ContactSnapshot(1.0, np.zeros((2, 2)), np.zeros((2, 2)), 50.0),
        ],
    )
    def test_mixed_snapshots_rejected(self, second):
        first = ContactSnapshot(0.0, np.zeros((2, 2)), np.zeros((2, 2)), 100.0)
        with pytest.raises(ValueError, match="snapshot 1 has"):
            NetworkTrace((first, second))
        with pytest.raises(ValueError, match="snapshot 2 has"):
            NetworkTrace((first, first, second, first))

    def test_cursor_walks_snapshots(self):
        trace = self.make_trace(3)
        cur = trace.cursor()
        assert cur.snapshot().time == 0.0
        cur.advance()
        assert cur.snapshot().time == 1.0

    def test_cursors_are_independent(self):
        trace = self.make_trace(3)
        a, b = trace.cursor(), trace.cursor()
        a.advance()
        a.advance()
        assert a.snapshot().time == 2.0
        assert b.snapshot().time == 0.0

    def test_negative_step_raises(self):
        trace = self.make_trace(3)
        assert trace.snapshot(3).time == 3.0
        with pytest.raises(IndexError):
            trace.snapshot(-1)
        fleet = Fleet(MobilityConfig(), 2, 0)
        lazy = NetworkTrace((ContactSnapshot.of_fleet(fleet, 100.0),), fleet, 3)
        lazy.snapshot(3)
        with pytest.raises(IndexError):
            lazy.snapshot(-1)

    @pytest.mark.parametrize("noise_var", [0.0, 10.0])
    def test_recorded_snapshot_keeps_its_positions(self, noise_var):
        # renewals write into the fleet's arrays in place; a snapshot must
        # hold copies, of noise-free predictions as of noisy ones
        cfg = MobilityConfig(mean_wait=0.5, prediction_noise_var=noise_var)
        fleet = Fleet(cfg, 12, 7)
        snap = ContactSnapshot.of_fleet(fleet, 1_000.0)
        true, predicted = snap.true_positions.copy(), snap.predicted_positions.copy()
        for _ in range(20):
            fleet.advance()
        assert not np.array_equal(fleet.true_positions(), true)
        assert np.array_equal(snap.true_positions, true)
        assert np.array_equal(snap.predicted_positions, predicted)

    @pytest.mark.parametrize("bad", [-1, 2.5, True])
    def test_n_steps_must_be_a_count(self, bad):
        # each used to pass and fail only at the first read
        fleet = Fleet(MobilityConfig(), 2, 0)
        snap = ContactSnapshot.of_fleet(fleet, 5_000.0)
        with pytest.raises(ValueError, match="n_steps must be"):
            NetworkTrace((snap,), fleet, bad)
        with pytest.raises(ValueError, match="n_steps must be"):
            record_trace(fleet, 5_000.0, bad)

    def test_numpy_integer_n_steps_accepted(self):
        trace = record_trace(Fleet(MobilityConfig(), 2, 0), 5_000.0, np.int64(3))
        assert trace.n_steps == 3 and type(trace.n_steps) is int
        cur = trace.cursor()
        for _ in range(3):
            cur.advance()
        with pytest.raises(RuntimeError, match="after 3 steps"):
            cur.advance()

    def test_exhaustion_raises(self):
        trace = self.make_trace(1)
        cur = trace.cursor()
        cur.advance()
        with pytest.raises(RuntimeError):
            cur.advance()
