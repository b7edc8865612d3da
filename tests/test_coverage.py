import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planehunt import coverage
from planehunt.coverage import (
    MAX_GRID_RES,
    _covered_cells,
    area_bound,
    dynamic_lb,
    poly_speed_certificate,
    static_lb,
    tube_area,
)
from planehunt.trajectory import prefix_polyline


class TestTubeArea:
    def test_straight_tube_is_tight(self):
        report = tube_area(np.array([[0.0, 0.0], [2.0, 0.0]]), 0.5)
        expect = 2.0 + math.pi / 4  # rectangle plus two half-discs
        assert report.estimated_area == pytest.approx(expect, rel=0.02)
        assert report.analytic_bound == pytest.approx(expect)

    def test_degenerate_point_is_disc(self):
        report = tube_area(np.array([[1.0, 1.0]]), 1.0)
        assert report.estimated_area == pytest.approx(math.pi, rel=0.02)

    def test_doubled_segment_idempotent(self):
        once = tube_area(np.array([[0.0, 0.0], [2.0, 0.0]]), 0.5)
        twice = tube_area(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [2.0, 0.0]]), 0.5)
        assert twice.estimated_area == once.estimated_area

    def test_estimate_within_bound_plus_slack(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            steps = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)], size=15)
            poly = np.vstack([[0, 0], np.cumsum(steps, axis=0)]).astype(float)
            r = rng.uniform(0.1, 0.5)
            report = tube_area(poly, r, grid_res=128)
            assert report.estimated_area <= report.analytic_bound + report.slack

    @pytest.mark.parametrize(
        "polyline, r, grid_res, area",
        [
            ([[0.0, 0.0], [2.0, 0.0]], 0.5, 256, 2.7857666015625),
            ([[1.0, 1.0]], 1.0, 256, 3.141357421875),
            ([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [2.0, 0.0]], 0.5, 256, 2.7857666015625),
            ([[0.0, 0.0], [1.0, 0.0], [2.5, 1.75], [2.5, -0.5]], 0.3, 64, 3.481369628906249),
            (171.0, 0.25, 256, 23.792648315429688),
            (900.0, 0.0625, 256, 41.828835010528564),
            (4000.0, 0.00390625, 128, 10.461880642920732),
        ],
        ids=["straight", "point", "doubled", "slanted", "prefix-171", "prefix-900", "prefix-4000"],
    )
    def test_recorded_areas_bit_identical(self, polyline, r, grid_res, area):
        # values recorded from the per-segment meshgrid rasterizer this one replaced
        if isinstance(polyline, float):
            polyline = prefix_polyline(polyline)
        assert tube_area(np.array(polyline), r, grid_res=grid_res).estimated_area == area

    def test_random_walk_areas_bit_identical(self):
        rng = np.random.default_rng(9)
        recorded = [
            1.3231601994976423, 5.907157526300307, 11.396188159376143,
            9.69110318927263, 6.988515888854473, 5.3308758999197,
            3.6973863996685963, 2.452979174165343, 7.180986951651405,
            7.488783117038008,
        ]
        for area in recorded:
            steps = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)], size=15)
            poly = np.vstack([[0, 0], np.cumsum(steps, axis=0)]).astype(float)
            r = rng.uniform(0.1, 0.5)
            assert tube_area(poly, r, grid_res=128).estimated_area == area

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            tube_area(np.array([[0.0, 0.0]]), 0.0)
        with pytest.raises(ValueError):
            tube_area(np.array([[0.0, 0.0]]), 1.0, grid_res=16)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_radius(self, r):
        with pytest.raises(ValueError, match="finite"):
            tube_area(np.array([[0.0, 0.0], [1.0, 0.0]]), r, grid_res=32)

    def test_rejects_a_grid_above_the_cap(self):
        with pytest.raises(ValueError, match="grid_res"):
            tube_area(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.5, grid_res=MAX_GRID_RES + 1)


def test_a_slanted_segment_whose_length_underflows_is_its_start():
    # fma(d1, d1, d0*d0) rounds to 0 for d = (1e-170, 1e-170); len2 is then
    # replaced by 1 again, so the segment is the disc around its start
    xs = (np.arange(16) + 0.5) / 8 - 1
    polyline = np.array([[0.0, 0.0], [1e-170, 1e-170]])
    want = _covered_cells(xs, xs, polyline[:1], 0.5)
    assert want.any() and not want.all()
    assert np.array_equal(_covered_cells(xs, xs, polyline, 0.5), want)
    assert np.array_equal(_per_segment_scan(xs, xs, polyline, 0.5), want)


def _per_segment_scan(xs, ys, polyline, r):
    """The one-segment-at-a-time rasterizer loop that the batched pass replaced."""
    if polyline.shape[0] == 1:
        polyline = np.vstack([polyline, polyline])
    a_all = polyline[:-1]
    d_all = polyline[1:] - a_all
    b_all = a_all + d_all
    lo = np.minimum(a_all, b_all) - r
    hi = np.maximum(a_all, b_all) + r
    ix0 = np.searchsorted(xs, lo[:, 0], side="left")
    ix1 = np.searchsorted(xs, hi[:, 0], side="right")
    iy0 = np.searchsorted(ys, lo[:, 1], side="left")
    iy1 = np.searchsorted(ys, hi[:, 1], side="right")

    marked = np.zeros((len(xs), len(ys)), dtype=bool)
    for s in np.flatnonzero((ix0 < ix1) & (iy0 < iy1)):
        a, d = a_all[s], d_all[s]
        gx = xs[ix0[s] : ix1[s], None]
        gy = ys[None, iy0[s] : iy1[s]]
        len2 = d @ d
        if len2 == 0.0:
            dist2 = (gx - a[0]) ** 2 + (gy - a[1]) ** 2
        else:
            t = ((gx - a[0]) * d[0] + (gy - a[1]) * d[1]) / len2
            np.clip(t, 0.0, 1.0, out=t)
            dist2 = (gx - (a[0] + t * d[0])) ** 2 + (gy - (a[1] + t * d[1])) ** 2
        marked[ix0[s] : ix1[s], iy0[s] : iy1[s]] |= dist2 <= r * r
    return marked


# vertex coordinates: anywhere around the grid, signed zeros, and far outside it
_coords = st.one_of(
    st.floats(-6.0, 6.0),
    st.sampled_from([0.0, -0.0, -1.5, 2.25, -40.0, 40.0]),
)


@st.composite
def _raster_cases(draw):
    """A cell-centre grid, a polyline and a radius for _covered_cells."""
    axes, steps = [], []
    for _ in range(2):
        n = draw(st.integers(1, 24))
        lo = draw(st.floats(-4.0, 4.0))
        steps.append(draw(st.floats(0.05, 0.5)))
        axes.append(lo + (np.arange(n) + 0.5) * steps[-1])
    xs, ys = axes
    points = [(draw(_coords), draw(_coords))]
    for kind in draw(st.lists(st.sampled_from(["slanted", "across", "along", "repeat"]), max_size=8)):
        x, y = points[-1]
        if kind == "slanted":
            points.append((draw(_coords), draw(_coords)))
        elif kind == "across":
            points.append((draw(_coords), y))
        elif kind == "along":
            points.append((x, draw(_coords)))
        else:
            points.append((x, y))
    extent = max(len(xs) * steps[0], len(ys) * steps[1])
    # from a tenth of a cell to three times the grid's extent
    r = draw(st.floats(0.1 * min(steps), 3.0 * extent))
    return xs, ys, np.array(points, dtype=np.float64), r


class TestBatchedRasterizer:
    """_covered_cells gives the per-segment loop's mask, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=_raster_cases())
    def test_matches_per_segment_scan(self, case):
        xs, ys, polyline, r = case
        assert np.array_equal(_covered_cells(xs, ys, polyline, r), _per_segment_scan(xs, ys, polyline, r))

    # budget 1: every segment runs alone, one row of its box per pass;
    # budget 40: small groups, and boxes over 40 cells in bands of rows
    @pytest.mark.parametrize("budget", [1, 40])
    @settings(max_examples=100, deadline=None)
    @given(case=_raster_cases())
    def test_matches_at_small_pair_budgets(self, budget, case):
        xs, ys, polyline, r = case
        with mock.patch.object(coverage, "PAIR_BUDGET", budget):
            got = _covered_cells(xs, ys, polyline, r)
        assert np.array_equal(got, _per_segment_scan(xs, ys, polyline, r))

    @pytest.mark.parametrize("budget", [256, coverage.PAIR_BUDGET])
    @pytest.mark.parametrize("max_cost", [171.0, 900.0])
    def test_schedule_prefixes(self, budget, max_cost):
        prefix = prefix_polyline(max_cost)
        xs = np.linspace(-2.0, 2.0, 96)
        for r in (2.0**-8, 2.0**-4, 0.25, 3.0):
            with mock.patch.object(coverage, "PAIR_BUDGET", budget):
                got = _covered_cells(xs, xs, prefix, r)
            assert np.array_equal(got, _per_segment_scan(xs, xs, prefix, r))

    def test_slanted_length_is_the_blas_dot(self):
        # Where the BLAS dot rounds as an fma (OpenBLAS on Haswell), cell
        # (0, 11) lies within r under d0*d0 + d1*d1 but not under d @ d.
        xs = (np.arange(16) + 0.5) / 8 - 1
        polyline = np.array([[0.61, 0.616], [0.030651122084284, -0.4283972398237168]])
        r = 1.2666499850223858
        assert np.array_equal(_covered_cells(xs, xs, polyline, r), _per_segment_scan(xs, xs, polyline, r))

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_axis_aligned_length_needs_no_blas_dot(self, x):
        # with one zero component the BLAS dot is the other square, rounded once
        for d in (np.array([x, 0.0]), np.array([0.0, x])):
            with np.errstate(over="ignore"):
                assert d @ d == d[0] * d[0] + d[1] * d[1]


class TestAreaBound:
    def test_examples(self):
        assert area_bound(2, 0.5) == pytest.approx(2.7853981633974483)
        assert area_bound(0, 1) == pytest.approx(math.pi)
        assert area_bound(171, 0.25) == pytest.approx(2 * 0.25 * 171 + math.pi / 16)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            area_bound(-1, 0.5)
        with pytest.raises(ValueError):
            area_bound(1, 0)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_radius(self, r):
        with pytest.raises(ValueError, match="finite"):
            area_bound(1, r)


class TestStaticLowerBound:
    def test_examples(self):
        assert static_lb(4, 1 / 16) == pytest.approx(96.0)
        assert static_lb(2, 1 / 4) == pytest.approx(3.0)

    def test_below_upper_bound_on_swept_pairs(self):
        from planehunt.trajectory import predict_static

        for D in (1, 2, 4, 8, 16):
            for r in (1 / 4, 1 / 16, 1 / 64, 1 / 256):
                assert static_lb(D, r) <= predict_static(D, r).cost_bound

    def test_monotone(self):
        assert static_lb(4, 1 / 16) < static_lb(8, 1 / 16)
        assert static_lb(4, 1 / 16) < static_lb(4, 1 / 64)

    def test_regime_rejection(self):
        with pytest.raises(ValueError):
            static_lb(0.5, 1.0)  # log2 D + log2 1/r = -1


class TestDynamicLowerBound:
    def test_example(self):
        assert dynamic_lb(4, 1 / 4, 1.0) == pytest.approx(2.0)

    def test_vanishes_with_t0(self):
        assert dynamic_lb(4, 1 / 4, 1e-9) < 1e-15

    def test_doubling_v_more_than_quadruples(self):
        base = dynamic_lb(4, 1 / 4, 1.0)
        assert dynamic_lb(8, 1 / 4, 1.0) > 4 * base

    def test_regime_rejection(self):
        with pytest.raises(ValueError):
            dynamic_lb(0.5, 1.0, 1.0)


class TestPolySpeedCertificate:
    def test_example(self):
        cert = poly_speed_certificate(3, 2.0, 0.5, 1.0)
        assert cert.min_catch_time == pytest.approx(4.0)
        assert cert.min_cost == pytest.approx(64.0)
        assert cert.beta == pytest.approx(2.0)

    def test_exceeds_threshold_and_stays(self):
        flags = [
            poly_speed_certificate(2, 2.0 ** m, 2.0 ** (-m), 1.0).exceeds
            for m in range(1, 13)
        ]
        first_true = flags.index(True)
        assert all(flags[first_true:])

    def test_slope_approaches_beta(self):
        xs, ys = [], []
        for m in range(9, 13):
            cert = poly_speed_certificate(2, 2.0 ** m, 2.0 ** (-m), 1.0)
            xs.append(math.log(cert.v ** 2 / cert.r))
            ys.append(math.log(cert.min_cost))
        slope = np.polyfit(xs, ys, 1)[0]
        assert slope == pytest.approx(3.0, abs=0.05)

    def test_ratio_eventually_monotone(self):
        ratios = []
        for m in range(1, 13):
            cert = poly_speed_certificate(2, 2.0 ** m, 2.0 ** (-m), 1.0)
            ratios.append(cert.min_cost / cert.optimal_cost)
        tail = ratios[3:]
        assert all(b > a for a, b in zip(tail, tail[1:]))

    def test_rejects_c1_and_bad_params(self):
        with pytest.raises(ValueError):
            poly_speed_certificate(1, 2.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            poly_speed_certificate(2, 0.5, 0.5, 1.0)
        with pytest.raises(ValueError):
            poly_speed_certificate(2, 2.0, 1.5, 1.0)

    @pytest.mark.parametrize("v, r, d", [
        (2.0, 0.5, math.nan), (2.0, 0.5, math.inf), (math.nan, 0.5, 1.0),
        (math.inf, 0.5, 1.0), (2.0, math.nan, 1.0),
    ])
    def test_rejects_non_finite_arguments(self, v, r, d):
        # d = nan or inf and v = nan or inf gave nan or inf columns before
        with pytest.raises(ValueError, match="finite"):
            poly_speed_certificate(2, v, r, d)

    @pytest.mark.parametrize("c, v, r", [(2, 2.0 ** 170, 2.0 ** -170), (2, 1e200, 0.5), (3, 2.0, 5e-324)])
    def test_rejects_costs_past_the_float_range(self, c, v, r):
        # OverflowError, and inf columns, before
        with pytest.raises(ValueError, match="float range"):
            poly_speed_certificate(c, v, r, 1.0)
