import numpy as np
import pytest

from fanetsim.topology import ContactSnapshot, NetworkTrace

from oracles import brute_force_neighbors


def snap_from(positions, comm_range=4_000.0, predicted=None):
    pos = np.asarray(positions, dtype=float)
    pred = pos.copy() if predicted is None else np.asarray(predicted, dtype=float)
    return ContactSnapshot(0.0, pos, pred, comm_range)


class TestContactSnapshot:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ContactSnapshot(
                0.0, np.zeros((3, 2)), np.zeros((2, 2)), 100.0
            )

    def test_range_must_be_positive(self):
        with pytest.raises(ValueError):
            snap_from([(0, 0), (1, 1)], comm_range=0.0)

    def test_distance_pythagorean(self):
        snap = snap_from([(0.0, 0.0), (3.0, 4.0)])
        assert snap.distance(0, 1) == 5.0
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
        assert snap.neighbors(0) == {1}
        assert snap.neighbors(1) == {0}

    def test_single_node_has_no_neighbors(self):
        snap = snap_from([(5.0, 5.0)])
        assert snap.neighbors(0) == set()

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
                assert got == brute_force_neighbors(p, i, r)
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
        assert snap.neighbors(0, use_predicted=False) == {1}
        assert snap.neighbors(0, use_predicted=True) == {2}


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

    def test_exhaustion_raises(self):
        trace = self.make_trace(1)
        cur = trace.cursor()
        cur.advance()
        with pytest.raises(RuntimeError):
            cur.advance()
