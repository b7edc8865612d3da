import math

import numpy as np
import pytest

from planehunt.coverage import _covered_cells
from planehunt.geometry import Point
from planehunt.target import (
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
        assert inert(Point(1, 0)).is_inert


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
        assert s.is_inert

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            waypoints([Point(0, 0), Point(0, 1), Point(0, 2)], [0, 1, 1], v=10.0)

    def test_constant_velocity_pieces_cover_interval(self):
        s = waypoints([Point(0, 0), Point(1, 0), Point(1, 1)], [0, 1, 2], v=1.0)
        pieces = list(s.constant_velocity_pieces(0.5, 1.5))
        assert pieces[0][0] == 0.5 and pieces[-1][1] == 1.5
        assert len(pieces) == 2  # split at the t=1 breakpoint


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
        from planehunt.trajectory import SpiralParams, polyline_of, spiral_instructions

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

    def test_waypoint_file_with_nan(self, tmp_path):
        wp = tmp_path / "wp.txt"
        wp.write_text("v 1.0\n0 0 0\n1 nan 0\n")
        with pytest.raises(ValueError):
            load_waypoints(str(wp))
