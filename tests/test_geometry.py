import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planehunt.geometry import Point, Segment, first_contact_time, point_segment_distance

coord = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
speed = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


class TestPointSegmentDistance:
    def test_perpendicular_foot_inside(self):
        s = Segment(Point(-1, 0), Point(1, 0))
        assert point_segment_distance(Point(0, 1), s) == pytest.approx(1.0)

    def test_nearest_endpoint(self):
        s = Segment(Point(-1, 0), Point(1, 0))
        assert point_segment_distance(Point(2, 0), s) == pytest.approx(1.0)

    def test_degenerate_segment(self):
        s = Segment(Point(0, 0), Point(0, 0))
        assert point_segment_distance(Point(3, 4), s) == pytest.approx(5.0)

    @given(coord, coord, coord, coord, coord, coord)
    def test_bounded_by_endpoint_distances(self, px, py, ax, ay, bx, by):
        p = Point(px, py)
        s = Segment(Point(ax, ay), Point(bx, by))
        d = point_segment_distance(p, s)
        assert d <= (p - s.a).norm() + 1e-9
        assert d <= (p - s.b).norm() + 1e-9


class TestFirstContactTime:
    def test_head_on_closing(self):
        t = first_contact_time(Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 0), 1.0, 5.0)
        assert t == pytest.approx(1.0)

    def test_equal_velocities_no_contact(self):
        t = first_contact_time(Point(0, 0), Point(1, 0), Point(0.5, 0), Point(1, 0), 0.1, 10.0)
        assert t is None
        # relative speed 1e-9 sits just above the constant-separation cutoff
        t = first_contact_time(Point(2, 0), Point(0, 0), Point(0, 0), Point(0, 1e-9), 1.0, 50.0)
        assert t is None

    def test_already_within_r_nonstrict(self):
        t = first_contact_time(Point(0, 0), Point(0, 0), Point(0, 0.5), Point(0, 0), 0.5, 1.0)
        assert t == 0.0

    def test_receding_no_contact(self):
        t = first_contact_time(Point(0, 0), Point(-1, 0), Point(2, 0), Point(1, 0), 0.5, 100.0)
        assert t is None

    def test_beyond_horizon(self):
        t = first_contact_time(Point(0, 0), Point(1, 0), Point(10, 0), Point(0, 0), 1.0, 5.0)
        assert t is None

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            first_contact_time(Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 0), 0.0, 5.0)
        with pytest.raises(ValueError):
            first_contact_time(Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 0), 1.0, -1.0)

    def test_contact_distance_equals_r_and_no_earlier_contact(self):
        # invariant at 1000 sampled earlier times, on a transversal case
        p0, u = Point(0, 0), Point(1, 0.3)
        q0, w = Point(5, 1), Point(-0.5, 0.1)
        r = 0.75
        t = first_contact_time(p0, u, q0, w, r, 100.0)
        assert t is not None and t > 0

        def dist(tt):
            return ((q0 + w.scaled(tt)) - (p0 + u.scaled(tt))).norm()

        assert dist(t) == pytest.approx(r, abs=1e-9)
        for n in range(1000):
            tt = t * n / 1000.0
            assert dist(tt) > r - 1e-9

    @given(coord, coord, speed, speed, coord, coord, speed, speed,
           st.floats(min_value=0.01, max_value=5), st.floats(min_value=0.01, max_value=5))
    @settings(max_examples=200)
    def test_monotone_in_r(self, px, py, ux, uy, qx, qy, wx, wy, r, dr):
        p0, u = Point(px, py), Point(ux, uy)
        q0, w = Point(qx, qy), Point(wx, wy)
        t_small = first_contact_time(p0, u, q0, w, r, 50.0)
        t_big = first_contact_time(p0, u, q0, w, r + dr, 50.0)
        if t_small is not None:
            assert t_big is not None
            assert t_big <= t_small + 1e-9

    @given(coord, coord, speed, speed, coord, coord, speed, speed,
           st.floats(min_value=0.01, max_value=5))
    @settings(max_examples=200)
    def test_returned_time_is_a_contact(self, px, py, ux, uy, qx, qy, wx, wy, r):
        p0, u = Point(px, py), Point(ux, uy)
        q0, w = Point(qx, qy), Point(wx, wy)
        t = first_contact_time(p0, u, q0, w, r, 50.0)
        if t is None:
            return
        d = ((q0 + w.scaled(t)) - (p0 + u.scaled(t))).norm()
        assert d <= r + 1e-6
