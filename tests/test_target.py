import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planehunt.coverage import MAX_GRID_RES, _covered_cells
from planehunt.geometry import Point
from planehunt.target import (
    SPEED_TOL,
    WITNESS_CHUNK,
    _min_distance_to_polyline,
    adversarial_static_placement,
    annulus_membership,
    inert,
    load_waypoints,
    radial_flee,
    waypoints,
)
from planehunt.trajectory import prefix_polyline


class TestInert:
    def test_position_constant(self):
        s = inert(Point(1, 0))
        assert s.position(7.0) == Point(1, 0)
        assert s.position(0.0) == Point(1, 0)

    def test_zero_speed_bound(self):
        assert inert(Point(1, 0)).v == 0.0


class TestRadialFlee:
    def test_flee_then_freeze(self):
        s = radial_flee(Point(0, 0), Point(1, 0), v=2.0, t_freeze=0.5)
        assert s.position(0.5) == Point(2, 0)
        assert s.position(3.0) == Point(2, 0)

    def test_mid_flight_position(self):
        s = radial_flee(Point(0, 0), Point(0, 1), v=1.0, t_freeze=1.0)
        p = s.position(0.25)
        assert (p.x, p.y) == pytest.approx((0.0, 1.25))

    def test_distance_from_origin_grows_linearly(self):
        origin = Point(0, 0)
        s = radial_flee(origin, Point(3, 4), v=1.5, t_freeze=2.0)
        for t in (0.0, 0.5, 1.0, 2.0):
            assert (s.position(t) - origin).norm() == pytest.approx(5.0 + 1.5 * t)

    def test_distance_nondecreasing_after_freeze(self):
        origin = Point(0, 0)
        s = radial_flee(origin, Point(1, 1), v=1.0, t_freeze=0.3)
        dists = [(s.position(t) - origin).norm() for t in np.linspace(0, 2, 50)]
        assert all(b >= a - 1e-12 for a, b in zip(dists, dists[1:]))

    def test_rejects_degenerate_direction(self):
        with pytest.raises(ValueError):
            radial_flee(Point(0, 0), Point(0, 0), v=1.0, t_freeze=1.0)

    def test_short_flee_from_a_large_coordinate(self):
        # 2 + 1e-12 rounds up to 2252 ulps of 2, a speed of 1.00009 over 1e-12
        s = radial_flee(Point(0, 0), Point(2, 0), v=1.0, t_freeze=1e-12)
        assert s.points[1] == Point(math.nextafter(2.0 + 1e-12, 0.0), 0.0)
        assert (s.points[1] - s.points[0]).norm() / 1e-12 <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        sx=st.floats(-1e12, 1e12),
        sy=st.floats(-1e12, 1e12),
        v=st.floats(1e-3, 16.0),
        t_freeze=st.one_of(
            st.floats(0.0, 1e-6, exclude_min=True),
            st.floats(0.0, 1e-300, exclude_min=True),  # subnormal flee lengths
            st.floats(1e-6, 10.0),
        ),
    )
    def test_end_point_within_the_bound_and_ulps_of_the_flee(self, sx, sy, v, t_freeze):
        start = Point(sx, sy)
        if start == Point(0, 0):
            start = Point(1e6, 0.0)
        s = radial_flee(Point(0, 0), start, v, t_freeze)
        end = s.points[1]
        assert (end - start).norm() / t_freeze <= v + SPEED_TOL
        naive = start + start.scaled(1.0 / start.norm()).scaled(v * t_freeze)
        if not (math.isfinite(naive.x) and math.isfinite(naive.y)):
            return  # a subnormal |start|: 1 / |start| is inf
        # a strategy the unchanged formula already allowed keeps its end point
        if (naive - start).norm() / t_freeze <= v + SPEED_TOL:
            assert end == naive
        # otherwise the end is stepped back by a few ulps toward start
        for e, n in ((end.x, naive.x), (end.y, naive.y)):
            assert abs(e - n) <= 4 * math.ulp(n)

    def test_subnormal_start(self):
        # 1 / |start| is inf, and the direction is d / |d|
        s = radial_flee(Point(0, 0), Point(0.0, 5e-324), v=1.0, t_freeze=1e-6)
        assert s.points[1] == Point(0.0, 5e-324 + 1e-6)
        s = radial_flee(Point(0, 0), Point(-5e-324, 5e-324), v=1.0, t_freeze=0.5)
        assert -s.points[1].x == s.points[1].y == pytest.approx(0.5 * math.sqrt(0.5), rel=1e-15)
        s = radial_flee(Point(0, 0), Point(3 * 5e-324, 4 * 5e-324), v=2.0, t_freeze=0.5)
        assert (s.points[1].x, s.points[1].y) == pytest.approx((0.6, 0.8), rel=1e-15)


class TestWaypoints:
    def test_interpolation(self):
        s = waypoints([Point(0, 0), Point(1, 0)], [0, 1], v=1.0)
        assert s.position(0.5) == Point(0.5, 0.0)

    def test_rejects_speed_violation(self):
        with pytest.raises(ValueError, match="segment 1"):
            waypoints([Point(0, 0), Point(3, 0)], [0, 1], v=1.0)

    def test_single_point_is_inert(self):
        s = waypoints([Point(2, 3)], [0], v=0.0)
        assert s.position(10.0) == Point(2, 3)

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            waypoints([Point(0, 0), Point(0, 1), Point(0, 2)], [0, 1, 1], v=10.0)


class TestWaypointFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "strategy.txt"
        path.write_text("# demo strategy\nv 2.0\n0 0 0\n1 1 0\n2.5 1 2\n")
        s = load_waypoints(str(path))
        assert s.v == 2.0
        assert s.position(1.0) == Point(1, 0)
        assert s.position(100.0) == Point(1, 2)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 0\n1 1 0\n")
        with pytest.raises(ValueError, match="missing"):
            load_waypoints(str(path))

    @pytest.mark.parametrize("text, lineno, match", [
        ("# bare\nv\n0 0 0\n", 2, "malformed header line 'v'"),
        ("v 1 2\n0 0 0\n", 1, "malformed header line 'v 1 2'"),
        ("v 1\n0 0 0\nv 2\n1 1 0\n", 3, "second header line 'v 2'"),
    ])
    def test_malformed_header_rejected(self, tmp_path, text, lineno, match):
        # a bare `v` raised IndexError; `v 1 2` and a second header were read silently
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: {match}")):
            load_waypoints(str(path))

    @pytest.mark.parametrize("text, lineno, field", [
        ("v abc\n0 0 0\n", 1, "abc"),
        ("v 1\n0 2 zz\n", 2, "zz"),
        ("v 1\n0 0 0\n# t x y\n\nt 1 0\n", 5, "t"),
    ])
    def test_non_numeric_field_names_its_line(self, tmp_path, text, lineno, field):
        # the message was only "could not convert string to float"
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: could not convert string to float: '{field}'")):
            load_waypoints(str(path))


class TestAdversarialPlacement:
    def test_empty_trajectory_leaves_witnesses(self):
        traj = np.array([[0.0, 0.0]])
        results = adversarial_static_placement(traj, 2, grid_res=64)
        assert len(results) == 2
        for j, D_j, r_j, witness in results:
            assert D_j == 2.0 ** j
            assert r_j == 2.0 ** (-2 * (2 - j + 1))
            assert witness is not None

    def test_witness_reverifies(self):
        rng = np.random.default_rng(3)
        steps = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)], size=12)
        traj = np.vstack([[0, 0], np.cumsum(steps, axis=0)]).astype(float)
        for j, D_j, r_j, witness in adversarial_static_placement(traj, 3, grid_res=64):
            if witness is None:
                continue
            w = np.array([[witness.x, witness.y]])
            assert _min_distance_to_polyline(w, traj)[0] > r_j
            assert annulus_membership(w, j, traj[0])[0]

    def test_covered_ring_returns_absent(self):
        # a dense sweep of ring 1 at spacing << r_1 leaves no witness
        from block_arrays import polyline_of

        from planehunt.trajectory import SpiralParams, spiral_instructions

        traj = polyline_of(spiral_instructions(SpiralParams(32, 4)))
        results = adversarial_static_placement(traj, 1, grid_res=64)
        j, D_j, r_j, witness = results[0]
        assert r_j == 0.25
        assert witness is None

    def test_validates_arguments(self):
        traj = np.array([[0.0, 0.0]])
        with pytest.raises(ValueError):
            adversarial_static_placement(traj, 0)
        with pytest.raises(ValueError):
            adversarial_static_placement(traj, 2, grid_res=8)

    def test_rejects_a_grid_above_the_cap(self):
        with pytest.raises(ValueError, match="grid_res"):
            adversarial_static_placement(np.array([[0.0, 0.0]]), 1, grid_res=MAX_GRID_RES + 1)


def _brute_force_witnesses(polyline, i, grid_res):
    """Every in-ring candidate through the exact distance; first far one wins."""
    polyline = np.asarray(polyline, dtype=np.float64)
    center = polyline[0]
    results = []
    for j in range(1, i + 1):
        r_j = 2.0 ** (-2 * (i - j + 1))
        half = 2.0 ** (j - 1)
        xs = center[0] + (np.arange(grid_res) + 0.5) / grid_res * 2 * half - half
        ys = center[1] + (np.arange(grid_res) + 0.5) / grid_res * 2 * half - half
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        candidates = pts[annulus_membership(pts, j, center)]
        far = np.flatnonzero(_min_distance_to_polyline(candidates, polyline) > r_j)
        witness = None
        if far.size:
            witness = Point(float(candidates[far[0], 0]), float(candidates[far[0], 1]))
        results.append((j, 2.0 ** j, r_j, witness))
    return results


def _random_walk(rng):
    """Axis-aligned lawnmower from a random start: columns at random gaps and
    of random reach, so coverage of the rings is partial and uneven."""
    start = rng.uniform(-1.5, 1.5, size=2)
    x = start[0] - 2.0 + rng.uniform(0.0, 0.3)
    pts = [start, [x, start[1]]]
    sign = 1.0
    while x < start[0] + 2.0:
        y = start[1] + sign * rng.uniform(0.5, 2.2)
        pts.append([x, y])
        x += rng.uniform(0.05, 0.6)
        pts.append([x, y])
        sign = -sign
    return np.array(pts)


class TestWitnessEquivalence:
    """The rasterize-then-confirm search returns the brute-force witnesses."""

    @pytest.mark.parametrize("grid_res", [16, 33, 64])
    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    @pytest.mark.parametrize("max_cost", [10.0, 171.0, 400.0, 1318.75])
    def test_schedule_prefixes(self, max_cost, i, grid_res):
        prefix = prefix_polyline(max_cost)
        assert adversarial_static_placement(prefix, i, grid_res) == _brute_force_witnesses(
            prefix, i, grid_res
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_random_walks_off_origin(self, seed):
        rng = np.random.default_rng(seed)
        walk = _random_walk(rng)
        for i, grid_res in ((1, 33), (1, 64), (2, 64), (3, 16)):
            assert adversarial_static_placement(walk, i, grid_res) == _brute_force_witnesses(
                walk, i, grid_res
            )

    @pytest.mark.parametrize(
        "polyline",
        [
            [[0.3, -0.2]],
            [[0.0, 0.0], [0.5, 0.0], [1.3, 0.9], [1.3, -0.4]],
        ],
        ids=["single-vertex", "one-slanted-segment"],
    )
    def test_degenerate_and_slanted(self, polyline):
        for i, grid_res in ((1, 64), (2, 33), (3, 64)):
            assert adversarial_static_placement(polyline, i, grid_res) == _brute_force_witnesses(
                polyline, i, grid_res
            )

    def test_cells_at_exactly_r_are_confirmed_not_taken(self):
        # Dyadic grid (16 cells over [-1, 1]) and r_1 = 1/4: the whole first
        # column x = -15/16 lies exactly r_1 from the segment at x = -11/16.
        # The shrunk rasterizer leaves those cells unmarked, the exact check
        # rejects them, and the witness is the first cell farther than r_1.
        poly = np.array([[0.0, 0.0], [-11 / 16, 0.0], [-11 / 16, -1.0], [-11 / 16, 1.0]])
        xs = (np.arange(16) + 0.5) / 16 * 2 - 1
        first = np.array([[xs[0], xs[0]]])
        assert _min_distance_to_polyline(first, poly)[0] == 0.25
        assert _covered_cells(xs, xs, poly, 0.25)[0, 0]
        assert not _covered_cells(xs, xs, poly, 0.25 * (1 - 1e-9))[0, 0]
        results = adversarial_static_placement(poly, 1, grid_res=16)
        assert results == [(1, 2.0, 0.25, Point(-5 / 16, -15 / 16))]
        assert results == _brute_force_witnesses(poly, 1, 16)

    def test_last_bit_disagreement_is_confirmed_exactly(self):
        # The first cell centre (-15/16, -15/16) lies about 0.25 from the
        # slanted segment.  On x86-64 with numpy 2.x the rasterizer's
        # arithmetic puts it within 0.25 while the exact check puts it one ulp
        # beyond, so an unshrunk radius would mark the true witness as covered.
        poly = np.array(
            [
                [0.0, 0.0],
                [-0.5363893299648383, -1.3268715839451355],
                [-0.8666691348649886, -0.38298851360478936],
            ]
        )
        assert adversarial_static_placement(poly, 1, grid_res=16) == _brute_force_witnesses(
            poly, 1, 16
        )


def _unmarked_candidates(polyline, i, j, grid_res):
    """Ring j's candidates that the shrunk rasterizer leaves unmarked, in grid order."""
    center = polyline[0]
    r_j = 2.0 ** (-2 * (i - j + 1))
    half = 2.0 ** (j - 1)
    xs = center[0] + (np.arange(grid_res) + 0.5) / grid_res * 2 * half - half
    ys = center[1] + (np.arange(grid_res) + 0.5) / grid_res * 2 * half - half
    covered = _covered_cells(xs, ys, polyline, r_j * (1.0 - 1e-9))
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return pts[annulus_membership(pts, j, center) & ~covered.ravel()], r_j


class TestWitnessChunks:
    """Witnesses are confirmed in chunks of 1, 2, 4, ...: a candidate's exact
    distance must not depend on the chunk it is checked in."""

    def test_one_at_a_time_equals_one_chunk(self):
        prefix = prefix_polyline(4000.0)
        candidates, _ = _unmarked_candidates(prefix, 4, 2, 128)
        chunk = candidates[:256]
        together = _min_distance_to_polyline(chunk, prefix)
        alone = [_min_distance_to_polyline(point[None], prefix)[0] for point in chunk]
        assert np.array_equal(together, alone)

    def test_ring_2_witness_lies_past_the_first_chunks(self):
        # the benchmark command's prefix: ring 2's first 129 unmarked cells lie
        # exactly r_2 from it, so the chunks 1, 2, ..., 64 all come back empty
        prefix = prefix_polyline(4000.0)
        candidates, r_j = _unmarked_candidates(prefix, 4, 2, 128)
        dist = _min_distance_to_polyline(candidates[:256], prefix)
        assert (dist[:129] == r_j).all() and dist[129] > r_j
        j, _, _, witness = adversarial_static_placement(prefix, 4, 128)[1]
        assert j == 2
        assert witness == Point(*candidates[129]) != Point(*candidates[0])


def _einsum_min_distance(pts, polyline):
    """The einsum distance that the elementwise kernel replaced, as it was."""
    if len(polyline) == 1:
        return np.linalg.norm(pts - polyline[0], axis=1)
    a = polyline[:-1]
    d = polyline[1:] - a
    len2 = np.einsum("ij,ij->i", d, d)
    len2[len2 == 0] = 1.0
    best = np.full(len(pts), np.inf)
    chunk = max(1, int(4e6 // max(len(pts), 1)))
    for s in range(0, len(a), chunk):
        a_c = a[s : s + chunk]
        d_c = d[s : s + chunk]
        l2_c = len2[s : s + chunk]
        rel = pts[:, None, :] - a_c[None, :, :]
        t = np.einsum("pse,se->ps", rel, d_c) / l2_c
        np.clip(t, 0.0, 1.0, out=t)
        closest = a_c[None, :, :] + t[:, :, None] * d_c[None, :, :]
        dist2 = np.einsum("pse,pse->ps", pts[:, None, :] - closest, pts[:, None, :] - closest)
        best = np.minimum(best, dist2.min(axis=1))
    return np.sqrt(best)


def _meshgrid_candidates(xs, ys, covered, j, center):
    """The unmarked in-ring cells from the full meshgrid, as the search built them."""
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    cheb = np.max(np.abs(pts - center), axis=1)
    outer = 2.0 ** (j - 1)
    ring = cheb <= outer if j == 1 else (cheb > 2.0 ** (j - 2)) & (cheb <= outer)
    return pts[ring & ~covered.ravel()]


def _meshgrid_search(polyline, i, grid_res):
    """The witness search before near-segment chunks and flat indices, as it was."""
    polyline = np.asarray(polyline, dtype=np.float64)
    center = polyline[0]
    results = []
    for j in range(1, i + 1):
        r_j = 2.0 ** (-2 * (i - j + 1))
        half = 2.0 ** (j - 1)
        xs = center[0] + (np.arange(grid_res) + 0.5) / grid_res * 2 * half - half
        ys = center[1] + (np.arange(grid_res) + 0.5) / grid_res * 2 * half - half
        covered = _covered_cells(xs, ys, polyline, r_j * (1.0 - 1e-9))
        candidates = _meshgrid_candidates(xs, ys, covered, j, center)
        witness = None
        s, size = 0, 1
        while s < len(candidates):
            chunk = candidates[s : s + size]
            far = np.flatnonzero(_einsum_min_distance(chunk, polyline) > r_j)
            if far.size:
                witness = Point(float(chunk[far[0], 0]), float(chunk[far[0], 1]))
                break
            s, size = s + size, min(2 * size, WITNESS_CHUNK)
        results.append((j, 2.0 ** j, r_j, witness))
    return results


@st.composite
def _magnitudes(draw):
    """A coordinate: zero of either sign, or either sign at 1e-6 .. 1e6."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from([0.0, -0.0]))
    value = draw(st.floats(1e-6, 1e6))
    return -value if draw(st.booleans()) else value


@st.composite
def _polylines(draw, coords):
    """Slanted, axis-aligned and zero-length segments, or a single vertex."""
    points = [(draw(coords), draw(coords))]
    for kind in draw(st.lists(st.sampled_from(["slanted", "across", "along", "repeat"]), max_size=8)):
        x, y = points[-1]
        if kind == "slanted":
            points.append((draw(coords), draw(coords)))
        elif kind == "across":
            points.append((draw(coords), y))
        elif kind == "along":
            points.append((x, draw(coords)))
        else:
            points.append((x, y))
    return np.array(points, dtype=np.float64)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestElementwiseDistance:
    """_min_distance_to_polyline gives the einsum distances bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        polyline=_polylines(_magnitudes()),
        pts=st.lists(st.tuples(_magnitudes(), _magnitudes()), min_size=1, max_size=12),
    )
    def test_matches_einsum_distance(self, polyline, pts):
        pts = np.array(pts, dtype=np.float64)
        assert np.array_equal(
            _bits(_min_distance_to_polyline(pts, polyline)), _bits(_einsum_min_distance(pts, polyline))
        )

    @settings(max_examples=100, deadline=None)
    @given(polyline=_polylines(st.floats(-3.0, 3.0)), seed=st.integers(0, 2**32 - 1))
    def test_matches_einsum_distance_on_a_grid(self, polyline, seed):
        # many points, near and far, against one polyline
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-4.0, 4.0, size=(300, 2))
        assert np.array_equal(
            _bits(_min_distance_to_polyline(pts, polyline)), _bits(_einsum_min_distance(pts, polyline))
        )

    def test_schedule_prefix(self):
        prefix = prefix_polyline(4000.0)
        xs = (np.arange(48) + 0.5) / 48 * 4 - 2
        pts = np.column_stack([np.repeat(xs, 48), np.tile(xs, 48)])
        assert np.array_equal(
            _bits(_min_distance_to_polyline(pts, prefix)), _bits(_einsum_min_distance(pts, prefix))
        )


# A dyadic grid: grid_res 16 over ring 1 puts cell centres at odd multiples
# of 1/16 and r_1 = 1/4 at i = 1, so a cell's offsets from the axis-aligned
# segments below are computed without rounding.
_C = -15 / 16  # first cell centre on each axis
_R = 0.25


def _ulps(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# candidate (_C, _C) exactly _R, or one ulp either way, from a segment side
_SIDE_CASES = [[[0.0, 0.0], [x, 0.0], [x, -1.0], [x, 1.0]] for x in _ulps(_C + _R)] + [
    [[0.0, 0.0], [0.0, y], [-1.0, y], [1.0, y]] for y in _ulps(_C + _R)
]
# ... from a segment end: a segment along column 0 (or row 0) that stops _R,
# or one ulp either way, short of the first cell
_END_CASES = [[[0.0, 0.0], [_C, 0.0], [_C, 1.0], [_C, y]] for y in _ulps(_C + _R)] + [
    [[0.0, 0.0], [0.0, _C], [1.0, _C], [x, _C]] for x in _ulps(_C + _R)
]
# a segment whose box, inflated by _R, just touches the candidate: along x
# with the margin's rounding allowance to spare (1e-10) or not (1e-9), and at
# a corner, where the end lies _R from (_C, _C) along both axes
_TOUCH_CASES = [[[0.0, 0.0], [x, 0.0], [x, -1.0], [x, 1.0]] for x in (_C + _R + 1e-10, _C + _R + 1e-9)] + [
    [[0.0, 0.0], [x, x], [x, 1.0]] for x in _ulps(_C + _R)
]


class TestNearSegmentWitnesses:
    """The search returns the witnesses of the meshgrid and einsum search it
    replaced: on TestWitnessEquivalence's inputs, on candidates exactly r_j
    from a segment (and one ulp either side), and on chunks with no near segment."""

    @pytest.mark.parametrize("grid_res", [16, 33, 64])
    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    @pytest.mark.parametrize("max_cost", [10.0, 171.0, 400.0, 1318.75])
    def test_schedule_prefixes(self, max_cost, i, grid_res):
        prefix = prefix_polyline(max_cost)
        assert adversarial_static_placement(prefix, i, grid_res) == _meshgrid_search(prefix, i, grid_res)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_walks_off_origin(self, seed):
        walk = _random_walk(np.random.default_rng(seed))
        for i, grid_res in ((1, 33), (1, 64), (2, 64), (3, 16)):
            assert adversarial_static_placement(walk, i, grid_res) == _meshgrid_search(walk, i, grid_res)

    @pytest.mark.parametrize(
        "polyline",
        [
            [[0.3, -0.2]],
            [[0.0, 0.0], [0.5, 0.0], [1.3, 0.9], [1.3, -0.4]],
            [[0.0, 0.0], [-11 / 16, 0.0], [-11 / 16, -1.0], [-11 / 16, 1.0]],
            [
                [0.0, 0.0],
                [-0.5363893299648383, -1.3268715839451355],
                [-0.8666691348649886, -0.38298851360478936],
            ],
        ],
        ids=["single-vertex", "one-slanted-segment", "exactly-r", "last-bit"],
    )
    def test_equivalence_inputs(self, polyline):
        for i, grid_res in ((1, 16), (1, 64), (2, 33), (3, 64)):
            assert adversarial_static_placement(polyline, i, grid_res) == _meshgrid_search(
                polyline, i, grid_res
            )

    @pytest.mark.parametrize("polyline", _SIDE_CASES + _END_CASES)
    def test_candidates_at_r_and_one_ulp_either_side(self, polyline):
        poly = np.array(polyline)
        assert abs(_einsum_min_distance(np.array([[_C, _C]]), poly)[0] - _R) < 1e-15
        for i, grid_res in ((1, 16), (2, 16), (1, 32)):
            assert adversarial_static_placement(poly, i, grid_res) == _meshgrid_search(poly, i, grid_res)

    @pytest.mark.parametrize("polyline", _TOUCH_CASES)
    def test_box_that_just_touches_the_candidate(self, polyline):
        poly = np.array(polyline)
        assert _einsum_min_distance(np.array([[_C, _C]]), poly)[0] > _R
        assert adversarial_static_placement(poly, 1, 16) == [(1, 2.0, _R, Point(_C, _C))]
        assert adversarial_static_placement(poly, 1, 16) == _meshgrid_search(poly, 1, 16)

    def test_exactly_r_is_not_far_and_one_ulp_beyond_is(self):
        # a vertical side at x = _C + _R: the first cell is exactly _R away and
        # no witness; one ulp to the right it is the witness
        at, beyond = (
            adversarial_static_placement([[0.0, 0.0], [x, 0.0], [x, -1.0], [x, 1.0]], 1, 16)[0][3]
            for x in (_C + _R, np.nextafter(_C + _R, np.inf))
        )
        assert at != Point(_C, _C)
        assert beyond == Point(_C, _C)

    @pytest.mark.parametrize("i", [2, 3])
    def test_chunks_with_no_near_segment(self, i):
        # a short stub at the centre: ring i's first candidates lie far from
        # every segment's box, so their chunks reach no distance kernel
        poly = np.array([[0.0, 0.0], [0.1, 0.0], [0.1, 0.05]])
        results = adversarial_static_placement(poly, i, 16)
        assert results == _meshgrid_search(poly, i, 16)
        half = 2.0 ** (i - 1)
        first = -half + half / 16
        assert results[-1][3] == Point(first, first)

    def test_no_segment_is_skipped_once_r_squared_underflows(self):
        # i = 270 gives r_1 = 2^-540, and r_1^2 underflows.  The first cell is
        # (0, 0), 2 r_1 from the vertical segment's box, beyond the pad; but its
        # exact squared distance underflows to 0, so it is not far, and neither
        # is the rest of column 0 up to y = 1.
        poly = [[15 / 16, 15 / 16], [2.0**-539, -1.0], [2.0**-539, 1.0]]
        results = adversarial_static_placement(poly, 270, 16)
        assert results[0] == (1, 2.0, 2.0**-540, Point(0.0, 1.125))
        assert results == _meshgrid_search(poly, 270, 16)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dyadic=st.booleans(),
        i=st.integers(1, 4),
        grid_res=st.sampled_from([16, 33, 64]),
    )
    def test_random_polylines(self, seed, dyadic, i, grid_res):
        rng = np.random.default_rng(seed)
        if dyadic:
            # axis-aligned walk on multiples of 1/16: many cells lie exactly r_j away
            steps = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)], size=rng.integers(1, 40))
            steps = steps * rng.integers(1, 8, size=(len(steps), 1)) / 16
        else:
            steps = rng.normal(scale=0.4, size=(rng.integers(1, 40), 2))
        start = rng.integers(-16, 17, size=2) / 16
        walk = start + np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
        assert adversarial_static_placement(walk, i, grid_res) == _meshgrid_search(walk, i, grid_res)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_points_and_times_must_be_finite(self, bad):
        with pytest.raises(ValueError):
            inert(Point(bad, 0.0))
        with pytest.raises(ValueError):
            inert(Point(0.0, bad))
        with pytest.raises(ValueError):
            waypoints([Point(0, 0), Point(1, 0)], [0.0, bad], v=1e9)
        with pytest.raises(ValueError):
            radial_flee(Point(0, 0), Point(1, 0), 1.0, bad)

    def test_nan_speed_bound_is_rejected(self):
        with pytest.raises(ValueError):
            waypoints([Point(0, 0)], [0.0], v=math.nan)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_speed_bound_is_rejected(self, bad):
        # v = inf was accepted and hunted like any other waypoint target
        with pytest.raises(ValueError, match="finite"):
            waypoints([Point(0, 0)], [0.0], v=bad)
        with pytest.raises(ValueError, match="finite"):
            waypoints([Point(0, 0), Point(1, 0)], [0.0, 1.0], v=bad)
        if bad > 0:
            with pytest.raises(ValueError, match="finite"):
                radial_flee(Point(0, 0), Point(1, 0), bad, 0.0)

    def test_waypoint_file_with_nan(self, tmp_path):
        wp = tmp_path / "wp.txt"
        wp.write_text("v 1.0\n0 0 0\n1 nan 0\n")
        with pytest.raises(ValueError):
            load_waypoints(str(wp))
