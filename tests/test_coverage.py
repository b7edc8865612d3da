import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planehunt import coverage
from planehunt.coverage import (
    MAX_GRID_RES,
    _covered_cells,
    adversarial_static_placement,
    area_bound,
    as_polyline,
    dynamic_lb,
    poly_speed_certificate,
    static_lb,
    tube_area,
)
from planehunt.experiments import export_svg
from planehunt.geometry import Point
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
            slack = 4.0 * report.cell_diagonal * report.trajectory_length
            assert report.estimated_area <= report.analytic_bound + slack

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

    def test_report_areas_are_python_floats(self):
        report = tube_area(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.5, grid_res=32)
        assert type(report.estimated_area) is float and type(report.cell_area) is float


# three columns, one column, none, no rows, one dimension
NOT_N_BY_2 = [[[0.0, 0.0, 5.0], [1.0, 0.0, 7.0]], [[0.0], [1.0]], [[]], np.zeros((0, 2)), [0.0, 1.0]]


@pytest.mark.parametrize("polyline", NOT_N_BY_2)
def test_polylines_other_than_n_by_2_are_rejected(polyline):
    with pytest.raises(ValueError, match=r"polyline must be an \(n, 2\) array with n >= 1"):
        tube_area(polyline, 0.5, grid_res=32)
    with pytest.raises(ValueError, match=r"polyline must be an \(n, 2\) array with n >= 1"):
        adversarial_static_placement(polyline, 2, grid_res=32)


# A NaN vertex: export_svg wrote cx="nan" cy="nan", tube_area failed late in
# area_bound, and the witness search skipped the NaN segment.  A step past the
# float range: d0 = -inf made every witness distance NaN, so the witness search
# reported both rings covered, although (1e308, -0.96875) lies 0.97 from it.
# Finite steps whose extent overflows: export_svg wrote "Lnan 760.000".
@pytest.mark.parametrize(
    "polyline",
    [
        [[0.0, 0.0], [math.nan, 0.0]],
        [[0.0, 0.0], [0.0, -math.inf]],
        [[math.nan, 0.0]],
        [[1e308, 0.0], [-1e308, 0.0]],
        [[-1e308, 0.0], [0.0, 0.0], [1e308, 0.0]],
    ],
    ids=["nan-vertex", "inf-vertex", "one-nan-vertex", "overflowing-step", "overflowing-extent"],
)
def test_every_polyline_consumer_rejects_non_finite_polylines(polyline, tmp_path):
    match = "polyline must have finite vertices and a finite extent"
    with pytest.raises(ValueError, match=match):
        as_polyline(polyline)
    with pytest.raises(ValueError, match=match):
        tube_area(polyline, 0.5, grid_res=32)
    with pytest.raises(ValueError, match=match):
        adversarial_static_placement(polyline, 2, grid_res=32)
    path = tmp_path / "bad.svg"
    with pytest.raises(ValueError, match=match):
        export_svg(polyline, str(path))
    assert not path.exists()


# Squares past the float range, each a RuntimeWarning (an error here) before:
# "overflow encountered in multiply" for the squared 1e200 step, "in square"
# for the grid offsets of r = 1e200, "in add" for those of r = 1e154.  Ring
# 537's square has side 2^537, so its offsets overflowed when coordinates near
# 1e308 widened _far's pad to take in the segment.
@pytest.mark.parametrize(
    "call",
    [
        lambda: tube_area([[0, 0], [1e200, 0]], 1.0, grid_res=32),
        lambda: adversarial_static_placement([[0, 0], [1e200, 0]], 2, grid_res=32),
        lambda: tube_area([[0, 0], [1, 0]], 1e200, grid_res=32),
        lambda: tube_area([[0, 0], [1, 0]], 1e154, grid_res=32),
        lambda: tube_area([[0, 0], [1e154, 1e154]], 1.0, grid_res=32),
        lambda: tube_area([[-1.7e308, 0]], 1e308, grid_res=32),
        lambda: adversarial_static_placement([[1e308, 0], [1e308, 1]], 537, grid_res=16),
        lambda: adversarial_static_placement([[0, 0]], 511, grid_res=16),
    ],
    ids=["tube-step", "witness-step", "tube-r1e200", "tube-r1e154", "tube-slanted", "tube-edge",
         "witness-ring-537", "witness-ring-511"],
)
def test_squares_past_the_float_range_raise_before_numpy_warns(call):
    with pytest.raises(ValueError, match="beyond the float range"):
        call()


def test_a_tube_thinner_than_the_floats_at_its_coordinates_raises():
    # around x = 1e17 the floats are 16 apart, so lo - r and hi + r rounded to
    # the same x and every cell was 0 wide: an area of 0 without an error
    with pytest.raises(ValueError, match="cells finer than the floats there"):
        tube_area([[1e17, 0.0], [1e17, 1.0]], 1.0, grid_res=32)
    with pytest.raises(ValueError, match="cells finer than the floats there"):
        tube_area([[0.0, 0.0]], 5e-324, grid_res=32)  # cells of 2^-1074 / 16 underflow to 0
    # around x = 1e15 the floats are 1/8 apart, two cells of 1/16
    report = tube_area([[1e15, 0.0], [1e15, 1.0]], 1.0, grid_res=32)
    assert report.estimated_area == 5.0859375
    assert abs(report.estimated_area - (2.0 + math.pi)) <= 4.0 * report.cell_diagonal * report.trajectory_length


def test_an_area_bound_past_the_float_range_raises():
    # 2 r x overflowed to inf in Python floats, without a warning
    with pytest.raises(ValueError, match="area bound .* is beyond the float range"):
        area_bound(1e308, 10.0)
    with pytest.raises(ValueError, match="area bound .* is beyond the float range"):
        tube_area([[0, 0], [1e153, 0]] * 100, 1e153, grid_res=32)
    assert area_bound(1e300, 1e7) == pytest.approx(2e307)


def test_squares_at_the_limit_are_finite():
    # the box of polyline and grid may reach w^2 + h^2 = 2^1022
    report = tube_area([[0.0, 0.0]], 2.0 ** 509, grid_res=32)
    assert math.isfinite(report.estimated_area) and report.estimated_area > 0
    assert math.isfinite(report.analytic_bound)
    assert adversarial_static_placement([[0.0, 0.0]], 510, grid_res=16)[-1][3] is not None
    # a step past the limit is still drawn
    assert export_svg([[0.0, 0.0], [1e200, 0.0]], os.devnull) == os.devnull


def test_witness_boxes_near_the_float_range_keep_every_segment():
    # x1 + pad rounded past the float range: "overflow encountered in scalar add"
    top = np.finfo(np.float64).max
    results = adversarial_static_placement([[top, 0.0], [top, 1.0]], 3, grid_res=16)
    assert [w for *_, w in results] == [Point(top, -0.9375), Point(top, -1.875), Point(top, -3.75)]


@given(
    st.lists(st.tuples(*[st.floats(-(2.0 ** 511), 2.0 ** 511)] * 2), min_size=1, max_size=4),
    st.floats(2.0 ** -1074, 2.0 ** 511),
)
@settings(max_examples=100, deadline=None)
def test_tube_area_near_the_limit_raises_or_never_overflows(polyline, r):
    try:
        report = tube_area(polyline, r, grid_res=32)
    except ValueError as exc:
        assert "beyond the float range" in str(exc)
        return
    assert math.isfinite(report.estimated_area) and math.isfinite(report.cell_diagonal)


def test_a_projection_past_the_float_range_is_clipped():
    # |d|^2 = 7.9e-317 is subnormal, so (g - a).d / |d|^2 rounds past the
    # float range: "overflow encountered in divide" before the clip
    xs = np.array([-1.6e150, 0.0, 1.6e150])
    polyline = np.array([[0.0, 0.0], [0.0, 8.887520062512839e-159]])
    assert np.array_equal(_covered_cells(xs, xs, polyline, 1.65e150), _covered_cells(xs, xs, polyline[:1], 1.65e150))
    report = tube_area(polyline, 1.6492422208769047e150, grid_res=32)
    assert math.isfinite(report.estimated_area) and report.estimated_area > 0


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

    def test_boxes_that_miss_the_grid_give_an_empty_mask(self):
        # no box reaches a cell, so both passes have an empty span
        xs = ys = np.linspace(0.0, 1.0, 20)
        polyline = np.array([[5.0, 5.0], [7.0, 5.0], [7.0, 9.0], [6.0, 8.0]])
        got = _covered_cells(xs, ys, polyline, 0.5)
        assert got.shape == (20, 20) and not got.any()
        assert np.array_equal(got, _per_segment_scan(xs, ys, polyline, 0.5))

    @pytest.mark.parametrize("nx, ny", [(1, 30), (30, 1), (1, 1)])
    def test_one_cell_along_an_axis(self, nx, ny):
        xs, ys = np.linspace(-1.0, 1.0, nx + 2)[1:-1], np.linspace(-1.0, 1.0, ny + 2)[1:-1] - 0.2
        polyline = np.array([[-0.5, 0.0], [0.5, 0.0], [0.5, 0.7], [-0.3, 0.7], [0.4, -0.6]])
        for r in (0.05, 0.3, 2.0):
            assert np.array_equal(_covered_cells(xs, ys, polyline, r), _per_segment_scan(xs, ys, polyline, r))

    def test_slabs_that_do_not_divide_the_rows(self):
        # horizontal legs along the grid's bottom and top edges: the down-row
        # maximum spans all 3,000 columns, in slabs of 8 PAIR_BUDGET // 3,000
        # = 21 rows, and the last of the 50 rows' slabs is a short one
        xs, ys = np.linspace(0.0, 1.0, 50), np.linspace(0.0, 30.0, 3000)
        assert len(xs) % (8 * coverage.PAIR_BUDGET // len(ys)) != 0
        polyline = np.array([[0.1, 0.0], [0.9, 0.0], [0.9, 30.0], [0.2, 30.0], [0.2, 10.0], [0.7, 10.0]])
        for r in (0.01, 0.25):
            assert np.array_equal(_covered_cells(xs, ys, polyline, r), _per_segment_scan(xs, ys, polyline, r))

    def test_run_ends_follow_the_span_of_the_boxes(self):
        # a leg in one corner of a 2048^2 grid: besides the 4 MB mask, the run
        # ends take 2 bytes per cell of the boxes' span, not of the grid
        xs = ys = (np.arange(2048) + 0.5) / 2048
        polyline = np.array([[0.01, 0.01], [0.2, 0.01], [0.2, 0.1]])
        tracemalloc.start()
        try:
            got = _covered_cells(xs, ys, polyline, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2048 * 2048 + 2**20
        assert np.array_equal(got, _per_segment_scan(xs, ys, polyline, 0.01))

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_axis_aligned_length_needs_no_blas_dot(self, x):
        # with one zero component the BLAS dot is the other square, rounded once
        for d in (np.array([x, 0.0]), np.array([0.0, x])):
            with np.errstate(over="ignore"):
                assert d @ d == d[0] * d[0] + d[1] * d[1]


@st.composite
def _extreme_raster_cases(draw):
    """Axis-aligned, zero-length and tiny legs where rounding is at its worst for _covered_cells.

    r runs from 2^-1074 (r*r subnormal below 2^-511) up, the picture sits
    up to 1e14 r from the origin (where the margin reaches r), vertices may
    be signed zeros, and cells lie on and just off the circles and bands
    of radius r around the vertices.
    """
    r = max(math.ldexp(draw(st.floats(1.0, 2.0)), draw(st.integers(-1074, 40))), 5e-324)
    scale = draw(st.sampled_from([0.0, 1.0, 1e6, 1e9, 1e12, 1e14]))
    origin = [scale * r * draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.0, 2.0)) for _ in range(2)]
    unit = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        points = [(origin[0] + 3 * r * draw(unit), origin[1] + 3 * r * draw(unit))]
    else:
        points = [(draw(st.sampled_from([0.0, -0.0])), draw(st.sampled_from([0.0, -0.0])))]
    for kind in draw(st.lists(st.sampled_from(["across", "along", "repeat", "tiny"]), max_size=5)):
        x, y = points[-1]
        step = 6 * r * draw(unit)
        if kind == "across":
            points.append((x + step, y))
        elif kind == "along":
            points.append((x, y + step))
        elif kind == "repeat":
            points.append((x, y))
        else:  # a step whose square is below the normal floats
            points.append((x + math.ldexp(draw(unit), draw(st.integers(-1074, -512))), y))
    axes = []
    for k in range(2):
        n = draw(st.integers(1, 16))
        lo = points[0][k] + 4 * r * draw(unit)
        axes.append(list(lo + (np.arange(n) + 0.5) * (r * draw(st.floats(0.05, 0.6)))))
    for x, y in draw(st.lists(st.sampled_from(points), max_size=3)):
        # cells (x + c, y), (x, y - c) and one at an angle, c from the vertex
        c = r * draw(st.sampled_from([1.0, 1 - 1e-9, 1 + 1e-9, 1 - 1e-15, 1 + 1e-15]))
        angle = draw(st.floats(0.0, 2 * math.pi))
        axes[0] += [x, x + c, x + c * math.cos(angle)]
        axes[1] += [y, y - c, y + c * math.sin(angle)]
    radius = r * draw(st.sampled_from([1.0, 1 - 1e-9, 1 + 1e-12]))
    return np.sort(axes[0]), np.sort(axes[1]), np.array(points, dtype=np.float64), radius


@pytest.mark.parametrize("budget", [1, coverage.PAIR_BUDGET])
@settings(max_examples=300, deadline=None)
@given(case=_extreme_raster_cases())
def test_rounding_margin_keeps_the_per_segment_mask(budget, case):
    # sure runs and skipped cells must leave every bit of the pair-by-pair mask
    xs, ys, polyline, r = case
    with mock.patch.object(coverage, "PAIR_BUDGET", budget):
        got = _covered_cells(xs, ys, polyline, r)
    assert np.array_equal(got, _per_segment_scan(xs, ys, polyline, r))


def test_a_step_whose_square_underflows_gets_no_sure_cells():
    # d0*d0 rounds to 0, so len2 is 1, t is about 0 and _dist2 measures from
    # the start: a cell 4e-163 past r from the start, but within r - m of the
    # box's far end, would be marked sure if the margin trusted the box
    r = 2.0**-511
    xs, ys, polyline = np.array([r + 4e-163]), np.array([0.0]), np.array([[0.0, 0.0], [1e-162, 0.0]])
    assert not _per_segment_scan(xs, ys, polyline, r).any()
    assert not _covered_cells(xs, ys, polyline, r).any()


def test_the_margin_is_inf_where_r_squared_is_subnormal():
    assert coverage._margin(2.0**-511, 0.0) == 1e-9 * 2.0**-511
    assert coverage._margin(2.0**-512, 0.0) == math.inf
    assert coverage._margin(1.0, 1e14) == 1e-9 + 1e2


class TestAreaBound:
    def test_float32_inputs_give_python_floats(self):
        r = np.float32(0.3)
        assert type(area_bound(1.0, r)) is float and area_bound(np.float32(1.5), r) == area_bound(1.5, float(r))
        polyline = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        report = tube_area(polyline, r, 64)
        assert repr(report) == repr(tube_area(polyline, float(r), 64))
        assert all(type(value) is float for value in (report.trajectory_length, report.r, report.analytic_bound))

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


class TestFloat32Arguments:
    """A numpy float32 argument of a cost floor or of the certificate counts as the Python float of its value."""

    def test_static_lb(self):
        D, r = np.float32(3.3), np.float32(0.01)
        # in float32 it was np.float32(569.43286)
        assert repr(static_lb(D, r)) == repr(static_lb(float(D), float(r))) == "569.4328027546933"

    def test_dynamic_lb(self):
        v, r, t0 = np.float32(3.3), np.float32(0.01), np.float32(1.5)
        got = dynamic_lb(v, r, t0)
        assert type(got) is float and got == dynamic_lb(float(v), float(r), float(t0))

    def test_a_certificate_finite_in_float64(self):
        # in float32, (c + 1) v v / 2r overflowed with a RuntimeWarning, and the call raised "beyond the float range"
        v, r = np.float32(3e10), np.float32(1e-10)
        cert = poly_speed_certificate(2, v, r, 1.0)
        assert repr(cert) == repr(poly_speed_certificate(2, float(v), float(r), 1.0))
        assert cert.min_cost == pytest.approx(8.2e92, rel=1e-2)

    def test_certificate_fields_are_python_floats(self):
        cert = poly_speed_certificate(2, np.float32(4), np.float32(0.25), np.float32(1))
        assert repr(cert) == repr(poly_speed_certificate(2, 4.0, 0.25, 1.0))
        assert type(cert.exceeds) is bool
        assert all(type(x) is float for x in (cert.v, cert.r, cert.min_catch_time, cert.min_cost, cert.optimal_cost))
