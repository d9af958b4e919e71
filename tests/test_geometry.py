import functools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fanetsim import geometry
from fanetsim.geometry import (
    LensParams,
    ProgressDistribution,
    QuadratureError,
    adaptive_quadrature,
    expected_progress,
    lens_area,
    progress_cdf,
    progress_tail,
)

from oracles import (
    adaptive_quadrature as oracle_quadrature,
    lens_area_segments,
    mc_best_progress,
    mc_lens_area,
    plain_lens_area,
    plain_progress_cdf,
    plain_progress_tail,
)

# Frozen rejection-sampling results (10^7 samples at the stated seed),
# recorded once with oracles.mc_lens_area.
MC_LENS_UNIT = (1.2282288, 0.0005834697, 7)
MC_LENS_LARGE = (12328401.6, 5402.1567, 20240701)

# Frozen best-progress oracle means (10^6 deployments, seed 42) for
# r=5000, n_nodes=10, area_side=10000 at three sender distances.
MC_EXPECTED_PROGRESS = {6000.0: 2894.449, 7500.0: 3036.651, 9000.0: 3115.926}


class TestLensArea:
    def test_tangent_circles_have_zero_area(self):
        # r_small = d - r_big puts the circles exactly tangent
        assert lens_area(LensParams(d=7500, r_big=5000, r_small=2500)) == 0.0

    def test_disjoint_circles(self):
        assert lens_area(LensParams(d=10_000, r_big=3000, r_small=2000)) == 0.0

    def test_unit_circles_closed_form(self):
        expected = 2.0 * math.acos(0.5) - math.sqrt(3.0) / 2.0
        assert lens_area(LensParams(1, 1, 1)) == pytest.approx(expected, rel=1e-12)

    def test_unit_circles_vs_frozen_mc(self):
        est, se, _seed = MC_LENS_UNIT
        area = lens_area(LensParams(1, 1, 1))
        assert abs(area - est) <= 3 * se

    def test_large_circles_vs_frozen_mc(self):
        est, se, _seed = MC_LENS_LARGE
        area = lens_area(LensParams(5000, 5000, 3000))
        assert abs(area - est) <= 3 * se

    def test_contained_small_circle(self):
        assert lens_area(LensParams(100, 5000, 300)) == pytest.approx(
            math.pi * 300**2
        )

    def test_contained_big_circle(self):
        assert lens_area(LensParams(100, 300, 5000)) == pytest.approx(
            math.pi * 300**2
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lens_area(LensParams(0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            LensParams(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            LensParams(math.nan, 1.0, 1.0)

    # these used to raise OverflowError and ZeroDivisionError in the formula
    @pytest.mark.parametrize(
        "params, name",
        [((1e300, 1e300, 1e300), "d"), ((1e-200, 1e-200, 1e-200), "d"),
         ((1e100, 1e4, 1e4), "d"), ((1.0, 1e300, 1e300), "r_big"),
         ((1.0, 1.0, 1e100), "r_small")],
    )
    def test_out_of_range_lengths_rejected(self, params, name):
        with pytest.raises(ValueError, match=f"^{name}=.* is out of range"):
            LensParams(*params)

    # only d is held to the lens length floor: a zero or subnormal radius
    # ends in one of the formula's early returns
    @pytest.mark.parametrize("d", [1e-70, 0.1, 1.0, 1e70])
    @pytest.mark.parametrize("tiny", [0.0, 5e-324, 1e-300])
    def test_zero_and_tiny_radii_accepted(self, d, tiny):
        assert lens_area(LensParams(d, d, tiny)) == 0.0
        assert lens_area(LensParams(d, tiny, d)) == 0.0
        assert lens_area(LensParams(d, 2.0 * d, tiny)) == math.pi * tiny * tiny

    def test_agrees_with_segment_decomposition(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            d = rng.uniform(1.0, 10_000.0)
            r1 = rng.uniform(1.0, 8000.0)
            r2 = rng.uniform(1.0, 8000.0)
            a = lens_area(LensParams(d, r1, r2))
            b = lens_area_segments(d, r1, r2)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-6)

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.floats(1.0, 1e5),
        ra=st.floats(0.5, 1e5),
        rb=st.floats(0.5, 1e5),
    )
    def test_symmetric_in_radius_swap(self, d, ra, rb):
        a = lens_area(LensParams(d, ra, rb))
        b = lens_area(LensParams(d, rb, ra))
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.floats(1.0, 1e4),
        r_big=st.floats(0.5, 1e4),
        r1=st.floats(0.0, 1e4),
        r2=st.floats(0.0, 1e4),
    )
    def test_monotone_in_small_radius(self, d, r_big, r1, r2):
        lo, hi = sorted((r1, r2))
        a_lo = lens_area(LensParams(d, r_big, lo))
        a_hi = lens_area(LensParams(d, r_big, hi))
        assert a_lo <= a_hi + 1e-6

    def test_bounded_by_smaller_disk(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            d = rng.uniform(1.0, 5000.0)
            ra = rng.uniform(1.0, 5000.0)
            rb = rng.uniform(1.0, 5000.0)
            area = lens_area(LensParams(d, ra, rb))
            assert 0.0 <= area <= math.pi * min(ra, rb) ** 2 * (1.0 + 1e-12)


class TestProgressDistribution:
    def dist(self, d=7500.0, r=5000.0, n=10, area=10_000.0):
        return ProgressDistribution(d=d, r=r, n_nodes=n, area_side=area)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ProgressDistribution(d=0.0, r=1.0, n_nodes=1, area_side=1.0)
        with pytest.raises(ValueError):
            ProgressDistribution(d=1.0, r=1.0, n_nodes=0, area_side=1.0)

    @pytest.mark.parametrize("n", [10.5, math.inf, math.nan, True])
    def test_non_integral_node_count_rejected(self, n):
        with pytest.raises(ValueError, match="n_nodes must be an integer"):
            self.dist(n=n)

    def test_integral_float_node_count_accepted(self):
        assert expected_progress(self.dist(n=10.0)) == expected_progress(self.dist(n=10))

    # 1e-300 squared underflows to 0 and 1e300 squared overflows, which
    # the lens formula would divide by or raise on mid-quadrature
    @pytest.mark.parametrize("field", ["d", "r", "area"])
    @pytest.mark.parametrize("value", [1e-300, 1e-155, 1e300, 1e154])
    def test_lengths_with_unrepresentable_squares_rejected(self, field, value):
        name = "area_side" if field == "area" else field
        with pytest.raises(ValueError, match=re.escape(f"{name}={value!r} is out")):
            self.dist(**{field: value})

    # squares fine, fourth powers not: the lens radicand multiplies four
    # sums of these lengths; area_side enters only squared
    @pytest.mark.parametrize("field", ["d", "r"])
    @pytest.mark.parametrize("value", [1e-100, 1e-78, 1e77, 1e100])
    def test_lens_lengths_with_unrepresentable_fourth_powers_rejected(
        self, field, value
    ):
        with pytest.raises(ValueError, match=re.escape(f"{field}={value!r} is out")):
            self.dist(**{field: value})

    def test_tail_is_one_at_far_edge(self):
        d = self.dist()
        assert progress_tail(d, d.d - d.r) == 1.0

    def test_tail_domain_errors(self):
        d = self.dist()
        with pytest.raises(ValueError):
            progress_tail(d, d.d - d.r - 1.0)
        with pytest.raises(ValueError):
            progress_tail(d, d.d + 1.0)

    def test_nan_rejected(self):
        d = self.dist()
        with pytest.raises(ValueError):
            progress_tail(d, math.nan)
        with pytest.raises(ValueError):
            progress_cdf(d, math.nan)

    def test_tail_at_full_lens_matches_independent_arithmetic(self):
        d = self.dist()
        area = lens_area_segments(d.d, d.r, d.d)
        expected = (1.0 - area / d.area_side**2) ** d.n_nodes
        assert progress_tail(d, d.d) == pytest.approx(expected, rel=1e-12)

    def test_tail_vanishes_for_huge_populations(self):
        # lens covering 10% of the square, 1e5 candidates
        area = lens_area(LensParams(1, 1, 1))
        side = math.sqrt(area / 0.1)
        d = ProgressDistribution(d=1.0, r=1.0, n_nodes=100_000, area_side=side)
        assert progress_tail(d, 1.0) < 1e-6

    def test_cdf_piecewise_edges(self):
        d = self.dist()
        assert progress_cdf(d, -1.0) == 0.0
        assert progress_cdf(d, d.r + 1.0) == 1.0
        assert progress_cdf(d, 0.0) == pytest.approx(d.p_zero, rel=1e-12)
        assert progress_cdf(d, 0.0) == pytest.approx(
            progress_tail(d, d.d), rel=1e-12
        )

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.floats(100.0, 2e4),
        r=st.floats(100.0, 1e4),
        n=st.integers(1, 200),
        side=st.floats(100.0, 2e4),
        y1=st.floats(-100.0, 1.2e4),
        y2=st.floats(-100.0, 1.2e4),
    )
    def test_cdf_monotone(self, d, r, n, side, y1, y2):
        dist = ProgressDistribution(d=d, r=r, n_nodes=n, area_side=side)
        lo, hi = sorted((y1, y2))
        assert progress_cdf(dist, lo) <= progress_cdf(dist, hi) + 1e-12

    def test_more_distance_never_hurts(self):
        # longer remaining distance stochastically dominates: for any y,
        # the chance of exceeding y is at least as large
        rng = np.random.default_rng(8)
        for _ in range(300):
            r = rng.uniform(100.0, 5000.0)
            side = rng.uniform(2 * r, 3e4)
            d_small = rng.uniform(r, 2e4)
            d_big = rng.uniform(d_small, 2.5e4)
            n = int(rng.integers(1, 100))
            y = rng.uniform(0.0, r)
            big = ProgressDistribution(d=d_big, r=r, n_nodes=n, area_side=side)
            small = ProgressDistribution(d=d_small, r=r, n_nodes=n, area_side=side)
            assert 1.0 - progress_cdf(big, y) >= 1.0 - progress_cdf(small, y) - 1e-12


@st.composite
def _lengths(draw):
    """(d, r, area_side) on one random scale, from 1e-3 to 1e6."""
    scale = draw(st.floats(1e-3, 1e6))
    return tuple(scale * draw(st.floats(0.05, 20.0)) for _ in range(3))


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError:
        return ValueError


class TestPerDistributionTerms:
    """The terms a distribution computes once change no float: lens, tail
    and CDF equal the plain formula on the raw lengths with ``==``."""

    @settings(max_examples=300, deadline=None)
    @given(
        lengths=_lengths(),
        n=st.one_of(st.integers(1, 1000), st.integers(1, 1000).map(float)),
        frac=st.floats(-0.1, 1.1),
    )
    @example(lengths=(7500.0, 5000.0, 1e4), n=10, frac=0.0)  # y = 0
    @example(lengths=(7500.0, 5000.0, 1e4), n=10, frac=0.5)  # y = d - r
    # y = r: the tail at x = d - r, where the lens is tangent (rs = d - r)
    @example(lengths=(7500.0, 5000.0, 1e4), n=10, frac=1.0)
    @example(lengths=(3000.0, 5000.0, 1e4), n=10, frac=0.8)  # y >= d: x clamps to 0
    @example(lengths=(7500.0, 5000.0, 1e4), n=10.0, frac=0.3)  # integral float
    def test_equal_to_plain_formula(self, lengths, n, frac):
        d, r, side = lengths
        dist = ProgressDistribution(d=d, r=r, n_nodes=n, area_side=side)
        y = frac * r
        x = d - y
        assert progress_cdf(dist, y) == plain_progress_cdf(d, r, n, side, y)
        assert _outcome(progress_tail, dist, x) == _outcome(
            plain_progress_tail, d, r, n, side, x
        )
        rs = min(max(x, 0.0), d)
        assert lens_area(LensParams(d, r, rs)) == plain_lens_area(d, r, rs)
        assert lens_area(LensParams(d, rs, r)) == plain_lens_area(d, rs, r)

    # near internal tangency the round-off cap pi * rs**2 binds, and there
    # rs**2 and rs * rs differ in the last bit
    @pytest.mark.parametrize(
        "d, rs", [(0.0843146558632361, 0.915685345047249),
                  (0.43749502803950757, 0.5625049719606106)]
    )
    def test_lens_cap_equal_to_plain_formula(self, d, rs):
        assert lens_area(LensParams(d, 1.0, rs)) == plain_lens_area(d, 1.0, rs)


class TestExpectedProgress:
    def test_degenerate_huge_area_gives_zero(self):
        # the lens is a vanishing fraction of the square, so the best hop
        # almost surely makes no progress
        d = ProgressDistribution(d=7500.0, r=5000.0, n_nodes=1, area_side=1e9)
        assert expected_progress(d) == pytest.approx(0.0, abs=1e-3)

    def test_dense_population_reaches_full_range(self):
        d = ProgressDistribution(d=7500.0, r=5000.0, n_nodes=10**6, area_side=1e4)
        assert expected_progress(d) == pytest.approx(5000.0, rel=1e-3)

    @pytest.mark.parametrize("d_val", sorted(MC_EXPECTED_PROGRESS))
    def test_matches_frozen_best_progress_oracle(self, d_val):
        dist = ProgressDistribution(d=d_val, r=5000.0, n_nodes=10, area_side=1e4)
        assert expected_progress(dist) == pytest.approx(
            MC_EXPECTED_PROGRESS[d_val], rel=0.01
        )

    def test_live_oracle_small_sample(self):
        rng = np.random.default_rng(13)
        dist = ProgressDistribution(d=6500.0, r=5000.0, n_nodes=8, area_side=1e4)
        mc = mc_best_progress(6500.0, 5000.0, 8, 1e4, 200_000, rng)
        assert expected_progress(dist) == pytest.approx(mc, rel=0.02)

    def test_cross_check_against_fixed_grid_integration(self):
        # mean = r - integral of the CDF; compare the adaptive quadrature
        # against a dense composite Simpson rule
        dist = ProgressDistribution(d=9000.0, r=5000.0, n_nodes=25, area_side=1.2e4)
        n = 20_001
        ys = np.linspace(0.0, dist.r, n)
        vals = np.array([progress_cdf(dist, y) for y in ys])
        h = ys[1] - ys[0]
        integral = h / 3.0 * (
            vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum()
        )
        assert expected_progress(dist) == pytest.approx(dist.r - integral, rel=1e-6)

    def test_convergence_failure_is_reported(self, monkeypatch):
        # expected_progress has no budget of its own to shrink, so the
        # quadrature it looks up gets a tighter tolerance and two panels
        quadrature = geometry.adaptive_quadrature

        def starved(*args, **kwargs):
            return quadrature(*args, **kwargs, rel_tol=1e-14, max_panels=2)

        monkeypatch.setattr(geometry, "adaptive_quadrature", starved)
        dist = ProgressDistribution(d=7500.0, r=5000.0, n_nodes=10, area_side=1e4)
        with pytest.raises(QuadratureError, match="within 2 panels"):
            expected_progress(dist)


class TestAdaptiveQuadrature:
    def test_polynomial_is_exact(self):
        # Simpson integrates cubics exactly
        val = adaptive_quadrature(lambda x: x**3 - 2 * x, 0.0, 2.0)
        assert val == pytest.approx(4.0 - 4.0, abs=1e-12)

    def test_smooth_transcendental(self):
        val = adaptive_quadrature(math.exp, 0.0, 1.0)
        assert val == pytest.approx(math.e - 1.0, rel=1e-10)

    def test_sharp_knee(self):
        # steep logistic knee exercises the worst-panel refinement
        val = adaptive_quadrature(
            lambda x: 1.0 / (1.0 + math.exp(-2000.0 * (x - 0.3))), 0.0, 1.0
        )
        assert val == pytest.approx(0.7, rel=1e-6)

    def test_empty_interval(self):
        assert adaptive_quadrature(math.sin, 1.0, 1.0) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            adaptive_quadrature(math.sin, 1.0, 0.0)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(QuadratureError):
            adaptive_quadrature(
                lambda x: math.sin(50.0 * x), 0.0, 10.0, rel_tol=1e-12, max_panels=3
            )

    @pytest.mark.parametrize(
        "name, call",
        [
            ("a", lambda f: adaptive_quadrature(f, math.nan, 1.0)),
            ("a", lambda f: adaptive_quadrature(f, -math.inf, 1.0)),
            ("b", lambda f: adaptive_quadrature(f, 0.0, math.nan)),
            ("b", lambda f: adaptive_quadrature(f, 0.0, math.inf)),
            ("rel_tol", lambda f: adaptive_quadrature(f, 0.0, 1.0, rel_tol=math.nan)),
            ("rel_tol", lambda f: adaptive_quadrature(f, 0.0, 1.0, rel_tol=-1e-9)),
            ("abs_tol", lambda f: adaptive_quadrature(f, 0.0, 1.0, abs_tol=math.nan)),
            ("abs_tol", lambda f: adaptive_quadrature(f, 0.0, 1.0, abs_tol=-1.0)),
            ("max_panels", lambda f: adaptive_quadrature(f, 0.0, 1.0, max_panels=0)),
        ],
    )
    def test_bad_input_rejected_before_any_work(self, name, call):
        # before, a NaN bound or tolerance ran the whole panel budget and
        # then reported "no convergence"
        calls = []
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call(calls.append)
        assert calls == []


def _quadrature_outcome(quadrature, f, *args, **kwargs) -> str:
    """The result's exact bits, or the convergence failure's message."""
    try:
        return quadrature(f, *args, **kwargs).hex()
    except QuadratureError as exc:
        return f"QuadratureError: {exc}"


class TestQuadratureMatchesOracle:
    """The panel loop returns the oracle's float bit for bit, or fails with
    its message; the oracle recomputes each child's one-panel sum."""

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["cubic", "sin", "kink", "progress"]),
        a=st.floats(-10.0, 10.0),
        width=st.floats(0.0, 20.0),
        rel_tol=st.one_of(st.just(0.0), st.floats(1e-15, 1e-2)),
        abs_tol=st.one_of(st.just(0.0), st.floats(1e-15, 1e-3)),
        max_panels=st.integers(1, 200),
        n_nodes=st.integers(1, 100),
        d=st.floats(1_000.0, 14_000.0),
    )
    def test_random_integrands(self, kind, a, width, rel_tol, abs_tol,
                               max_panels, n_nodes, d):
        if kind == "progress":
            dist = ProgressDistribution(d=d, r=5_000.0, n_nodes=n_nodes, area_side=1e4)
            f = functools.partial(progress_cdf, dist)
            a, width = a * 500.0, width * 500.0
        else:
            f = {
                "cubic": lambda x: x**3 - 2.0 * x + 0.5,
                "sin": math.sin,
                "kink": lambda x: abs(x - 0.3),
            }[kind]
        new, old = (
            _quadrature_outcome(q, f, a, a + width, rel_tol=rel_tol,
                                abs_tol=abs_tol, max_panels=max_panels)
            for q in (adaptive_quadrature, oracle_quadrature)
        )
        assert new == old

    @pytest.mark.parametrize("n_nodes", [5, 10, 20, 50, 100])
    def test_bounds_grid(self, n_nodes):
        # each corridor's quadrature, at 28 distances in (R, sqrt(2)*L]
        r, side = 5_000.0, 1e4
        for k in range(1, 29):
            d = r + (math.sqrt(2.0) * side - r) * k / 28
            dist = ProgressDistribution(d=d, r=r, n_nodes=n_nodes, area_side=side)
            f = functools.partial(progress_cdf, dist)
            new, old = (
                _quadrature_outcome(q, f, 0.0, r, rel_tol=1e-9, abs_tol=1e-12 * r)
                for q in (adaptive_quadrature, oracle_quadrature)
            )
            assert new == old


def test_mc_oracle_consistency():
    # sanity of the oracle itself on a closed-form case
    rng = np.random.default_rng(99)
    est, se = mc_lens_area(1.0, 1.0, 1.0, 500_000, rng)
    exact = 2.0 * math.acos(0.5) - math.sqrt(3.0) / 2.0
    assert abs(est - exact) <= 4 * se
