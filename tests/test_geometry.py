import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planehunt.geometry import Point, first_contact_time, fma_dot

coord = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
speed = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


# zero, or magnitudes in 2^-20..2^20: every difference of two is 0 or at
# least 2^-72, so no square of a difference, of r or of the closest offset
# near r leaves the normal floats
EXACT_COORD = st.one_of(
    st.just(0.0),
    st.floats(min_value=2.0 ** -20, max_value=2.0 ** 20).flatmap(lambda m: st.sampled_from([m, -m])))
EXACT_R = st.floats(min_value=2.0 ** -20, max_value=2.0 ** 20)


def _exact_closest_approach(p0, u, q0, w, horizon):
    """(m^2, scale): the exact squared closest distance over [0, horizon].

    From the float inputs as Fractions: d0 = q0 - p0 and rel = w - u, the
    closest time tc = -(d0.rel) / |rel|^2 clipped to [0, horizon] (0 where
    rel is 0), and m^2 = |d0 + rel tc|^2.  scale bounds every magnitude
    the float computation carries: the coordinates, plus the speeds times tc.
    """
    F = Fraction
    dx, dy = F(q0.x) - F(p0.x), F(q0.y) - F(p0.y)
    vx, vy = F(w.x) - F(u.x), F(w.y) - F(u.y)
    a = vx * vx + vy * vy
    tc = F(0)
    if a:
        tc = max(-(dx * vx + dy * vy) / a, F(0))
        if horizon != math.inf:
            tc = min(tc, F(horizon))
    ex, ey = dx + vx * tc, dy + vy * tc
    speeds = sum(abs(F(c)) for c in (*u, *w))
    scale = sum(abs(F(c)) for c in (*p0, *q0)) + speeds * tc
    return ex * ex + ey * ey, scale


class TestFirstContactTime:
    def test_head_on_closing(self):
        t = first_contact_time(Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 0), 1.0, 5.0)
        assert t == pytest.approx(1.0)

    def test_equal_velocities_no_contact(self):
        t = first_contact_time(Point(0, 0), Point(1, 0), Point(0.5, 0), Point(1, 0), 0.1, 10.0)
        assert t is None
        # a relative speed of 1e-9 at right angles to the gap: the target drifts away
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

    # r = nan and a nan position gave None, r = inf gave 0.0, horizon = nan gave 1.5
    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_radius(self, r):
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            first_contact_time(Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 0), r, 5.0)

    def test_rejects_a_nan_horizon_and_takes_an_infinite_one(self):
        with pytest.raises(ValueError, match="horizon"):
            first_contact_time(Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 0), 0.5, math.nan)
        assert first_contact_time(Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 0), 0.5, math.inf) == 1.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", range(8))
    def test_rejects_non_finite_positions_and_velocities(self, bad, which):
        coords = [0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 0.0, 0.0]
        coords[which] = bad
        p0, u, q0, w = (Point(coords[k], coords[k + 1]) for k in range(0, 8, 2))
        with pytest.raises(ValueError, match="positions and velocities must be finite"):
            first_contact_time(p0, u, q0, w, 0.5, 5.0)

    def test_a_contact_just_in_the_past_is_no_contact(self):
        # the target passes 1e-7 ahead of the searcher at speed 1e3, so its
        # closest approach, a graze at distance r, was 1e-10 ago: at t = 0 it
        # is sqrt(1 + 1e-14) > r away and receding, so there is no contact
        assert first_contact_time(Point(0, 0), Point(0, 0), Point(1e-7, 1), Point(1e3, 0), 1.0, 10.0) is None
        assert first_contact_time(Point(0, 0), Point(0, 0), Point(1e-5, 1), Point(1e3, 0), 1.0, 10.0) is None

    def test_the_closest_approach_decides_near_the_threshold(self):
        P = Point
        # a slow closer: 1 - 1e-10 rounds to a rel of about -1.0000000827e-10,
        # and the gap 1 closes to r = 0.5 at 0.5 / |rel|, within the horizon
        rel = (1 - 1e-10) - 1.0
        assert first_contact_time(P(0, 0), P(1, 0), P(1, 0), P(1 - 1e-10, 0), 0.5, 1e10) == 0.5 / -rel
        assert 0.5 / -rel == 4999999586.29818
        # a near-graze: the closest approach, at t = 1, is 0.5 (1 + 4e-13) > r
        assert first_contact_time(P(-1, 0.5 * (1 + 4e-13)), P(1, 0), P(0, 0), P(0, 0), 0.5, 2.0) is None
        # the third, a receding target, is test_a_contact_just_in_the_past_is_no_contact

    @given(st.lists(EXACT_COORD, min_size=8, max_size=8),
           st.one_of(st.floats(min_value=0.0, max_value=2.0 ** 20), st.just(math.inf)),
           st.one_of(EXACT_R.map(lambda r: ("r", r)),
                     st.sampled_from([0.0, 1e-3, -1e-3, 1e-9, -1e-9, 1e-12, -1e-12, 1e-15, -1e-15]).map(
                         lambda offset: ("near", offset))))
    @settings(max_examples=400)
    @example([0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1 - 1e-10, 0.0], 1e10, ("r", 0.5))
    @example([-1.0, 0.5 * (1 + 4e-13), 1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 2.0, ("r", 0.5))
    @example([0.0, 0.0, 0.0, 0.0, 1e-7, 1.0, 1e3, 0.0], 10.0, ("r", 1.0))
    def test_contact_is_the_exact_closest_approach(self, coords, horizon, radius):
        # r is drawn outright, or as the exact closest distance m times
        # (1 + offset), so that many cases lie near the threshold
        p0, u, q0, w = (Point(coords[k], coords[k + 1]) for k in range(0, 8, 2))
        m2, scale = _exact_closest_approach(p0, u, q0, w, horizon)
        kind, value = radius
        r = value if kind == "r" else math.sqrt(float(m2)) * (1.0 + value)
        if r == 0.0:
            return
        t = first_contact_time(p0, u, q0, w, r, horizon)
        assert t is None or 0.0 <= t <= horizon
        # where the two may disagree: the float test rounds d0, rel, tc, the
        # offset at tc and its square.  Each rounding moves the offset by a
        # few units u = 2^-53 of the largest magnitude it carries, at most
        # scale, so near m = r the float m^2 is off by about
        # 2 r (k u scale) + (k u scale)^2 + k u r^2 for a small k.  An error
        # in tc moves it only to second order: tc is the unclipped minimum,
        # or a bound that the float takes exactly unless the minimum lies
        # within rounding of it.  The band |m^2 - r^2| <= 2^-45 (r + scale)^2
        # = 256 u (r + scale)^2 covers that; outside it the two agree
        gap = m2 - Fraction(r) ** 2
        if abs(gap) > Fraction(2.0 ** -45) * (Fraction(r) + scale) ** 2:
            assert (t is None) == (gap > 0), (m2, r, t)

    def test_contact_distance_equals_r_and_no_earlier_contact(self):
        # invariant at 1000 sampled earlier times, on a transversal case
        p0, u = Point(0, 0), Point(1, 0.3)
        q0, w = Point(5, 1), Point(-0.5, 0.1)
        r = 0.75
        t = first_contact_time(p0, u, q0, w, r, 100.0)
        assert t is not None and t > 0

        def dist(tt):
            return math.hypot(*((q0 + Point(w.x * tt, w.y * tt)) - (p0 + Point(u.x * tt, u.y * tt))))

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
        d = math.hypot(*((q0 + Point(w.x * t, w.y * t)) - (p0 + Point(u.x * t, u.y * t))))
        assert d <= r + 1e-6

    @given(st.lists(st.floats(min_value=1e150, max_value=1e308), min_size=4, max_size=4),
           st.lists(st.sampled_from([1.0, -1.0]), min_size=4, max_size=4),
           coord, coord, speed, speed, speed, speed,
           st.sampled_from(["far", "near", "origin"]),
           st.one_of(st.floats(min_value=0.01, max_value=5), st.floats(min_value=1e150, max_value=1e200)),
           st.floats(min_value=0.0, max_value=1e4))
    @settings(max_examples=300)
    @example([1e300, 1.0, 1e300, 1.0], [1.0] * 4, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, "origin", 0.01, 10.0)
    @example([1e200, 3.0, 1e200, 3.0], [1.0] * 4, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, "origin", 0.01, 10.0)
    @example([2e154, 1.0, 2e154, 1.0], [1.0] * 4, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, "origin", 0.01, 10.0)
    def test_far_starts_give_no_nan(self, mags, signs, dx, dy, ux, uy, wx, wy, other, r, horizon):
        # the squared separation overflowed past about 1.34e154 and the
        # time came out NaN, or the graze test read an infinite tolerance
        q0 = Point(signs[0] * mags[0], signs[1] * mags[1])
        p0 = {"far": Point(signs[2] * mags[2], signs[3] * mags[3]),
              "near": q0 + Point(dx, dy),
              "origin": Point(dx, dy)}[other]
        t = first_contact_time(p0, Point(ux, uy), q0, Point(wx, wy), r, horizon)
        assert t is None or 0.0 <= t <= horizon

    def test_a_far_crossing_is_no_contact(self):
        # 1e200 apart, closest approach at t = 3 (the graze test took its
        # infinite tolerance and reported 3.0) and at t = 0 (-0.0)
        assert first_contact_time(Point(0, 0), Point(0, 1), Point(1e200, 3), Point(0, 0), 0.01, 10.0) is None
        assert first_contact_time(Point(0, 0), Point(0, 1), Point(1e200, 0), Point(0, 0), 0.01, 10.0) is None


def _nearest_float(exact):
    """The float nearest the nonzero Fraction exact, ties to an even significand.

    Rounds the Fraction at the binary digit of the float's last bit
    (subnormal spacing 2^-1074 below 2^-1022), with Fraction's own
    half-even round(), and gives +-inf where the rounded value passes the
    float range, as IEEE round-to-nearest does.
    """
    mag, sign = abs(exact), (1.0 if exact > 0 else -1.0)
    e = mag.numerator.bit_length() - mag.denominator.bit_length()
    if Fraction(2) ** e > mag:
        e -= 1  # now 2^e <= mag < 2^(e+1)
    last = max(e, -1022) - 52
    m = round(mag / Fraction(2) ** last)
    if Fraction(m) * Fraction(2) ** last >= 2**1024:
        return sign * math.inf
    return sign * math.ldexp(m, last)


def _fma_reference(x, y, z):
    """IEEE fma(x, y, z) for finite x and y, from the exact Fraction x*y + z."""
    if not math.isfinite(z):
        return z  # x*y is finite
    exact = Fraction(x) * Fraction(y) + Fraction(z)
    if exact != 0:
        return _nearest_float(exact)
    if x == 0.0 or y == 0.0:
        # a zero product plus a zero: -0 only when both are -0
        negative = math.copysign(1.0, x) * math.copysign(1.0, y) < 0 and math.copysign(1.0, z) < 0
        return -0.0 if negative else 0.0
    return 0.0  # nonzero terms that cancel exactly round to +0


def _same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b) or (math.isnan(a) and math.isnan(b))


def _check_fma_dot(x0, x1, y0, y1):
    got = fma_dot(x0, x1, y0, y1)
    want = _fma_reference(x1, y1, x0 * y0)
    assert type(got) is float
    assert _same_float(got, want), (x0, x1, y0, y1, got, want)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SUBNORMAL = st.floats(min_value=-(2.0 ** -1022), max_value=2.0 ** -1022)
HUGE = st.floats(min_value=2.0 ** 1000, allow_infinity=False).flatmap(lambda m: st.sampled_from([m, -m]))
# factors past the fast path's range, and just inside it
EDGE = st.sampled_from([2.0 ** -480, 2.0 ** 480, 2.0 ** -481, 2.0 ** 481, 2.0 ** -600, 2.0 ** 600]).flatmap(
    lambda m: st.sampled_from([m, -m, math.nextafter(m, 0.0), math.nextafter(m, math.inf)]))
ANY = st.one_of(FINITE, SUBNORMAL, HUGE, EDGE, st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]))
MID = st.floats(min_value=-(2.0 ** 400), max_value=2.0 ** 400)
MODEST = st.floats(min_value=-(2.0 ** 40), max_value=2.0 ** 40)


def test_float32_inputs_are_taken_as_their_values():
    # the closest approach is 0.158925, beyond r = float32(0.158925) = 0.1589249968...,
    # but r * r in float32 rounds up past its square
    r = np.float32(0.158925)
    path = (Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, 0.158925), Point(0.0, 0.0))
    assert first_contact_time(*path, float(r), 1.0) is None
    assert first_contact_time(*path, r, 1.0) is None
    # float32 coordinates and horizon are their values too: a pass 0.05 from the target
    f32 = [Point(np.float32(x), np.float32(y)) for x, y in ((0, 0), (1, 0), (0.5, 0.05), (0, 0))]
    want = first_contact_time(*(Point(float(p.x), float(p.y)) for p in f32), 0.1, 1.0)
    got = first_contact_time(*f32, 0.1, np.float32(1.0))
    assert type(got) is float and got == want


class TestFmaDot:
    """fma_dot is fma(x1, y1, x0*y0), against an exact Fraction reference; no BLAS involved."""

    @given(ANY, ANY, ANY, ANY)
    @settings(max_examples=1000)
    @example(1e308, 2.0, 1e308, 2.0)  # x0*y0 overflows: inf + finite
    @example(2.0 ** 600, 2.0 ** 600, 2.0 ** 600, 2.0 ** 600)  # both products past the range
    @example(0.0, 2.0 ** 512, 0.0, -(2.0 ** 512))  # x1*y1 alone overflows to -inf
    @example(-0.0, -0.0, 1.0, 1.0)  # -0 + -0 is -0
    @example(-0.0, 0.0, 1.0, 1.0)  # -0 + +0 is +0
    @example(5e-324, 5e-324, 5e-324, 5e-324)  # both products underflow to zero
    def test_matches_the_exact_rounding(self, x0, x1, y0, y1):
        _check_fma_dot(x0, x1, y0, y1)

    @given(FINITE, MID, MID, st.integers(-4, 4))
    @settings(max_examples=300)
    def test_cancellation(self, scale, x1, y1, ulps):
        # x0*y0 a few ulps from -x1*y1: the exact sum is the product's low part
        p = -(x1 * y1)
        for _ in range(abs(ulps)):
            p = math.nextafter(p, math.copysign(math.inf, ulps))
        if not math.isfinite(p):
            return
        _check_fma_dot(p, x1, 1.0, y1)
        _check_fma_dot(1.0, x1, p, y1)
        if scale != 0.0 and math.isfinite(p / scale) and p / scale * scale == p:
            _check_fma_dot(p / scale, x1, scale, y1)

    @given(st.floats(min_value=2.0 ** -1074, max_value=2.0 ** -900), st.floats(min_value=0.5, max_value=2.0),
           st.sampled_from([1.0, -1.0]))
    @settings(max_examples=200)
    def test_subnormal_results(self, tiny, factor, sign):
        # results below 2^-1022 round at the subnormal spacing
        _check_fma_dot(tiny, sign * factor, 1.0, tiny)
        _check_fma_dot(-tiny, tiny * factor, factor, sign)

    @given(st.floats(min_value=2.0 ** 1000, allow_infinity=False), st.floats(min_value=1.0, max_value=2.0),
           st.sampled_from([1.0, -1.0]))
    @settings(max_examples=200)
    def test_overflow_to_a_signed_inf(self, big, factor, sign):
        # near 2^1024 the sum overflows only when it rounds past the largest float
        _check_fma_dot(sign * big, sign * big, factor, factor)
        _check_fma_dot(sign * big, 2.0 ** 512, 1.0, sign * 2.0 ** 511 * factor)
        top = math.nextafter(math.inf, 0.0)
        _check_fma_dot(top, sign * big, 1.0, 2.0 ** -52 * factor)

    @pytest.mark.parametrize("zeros", list(itertools.product((0.0, -0.0), (0.0, -0.0), (0.0, -0.0, 1.0, -1.0),
                                                             (0.0, -0.0, 1.0, -1.0))))
    def test_signed_zeros(self, zeros):
        x0, x1, y0, y1 = zeros
        got = fma_dot(x0, x1, y0, y1)
        assert got == 0.0
        assert math.copysign(1.0, got) == math.copysign(1.0, _fma_reference(x1, y1, x0 * y0))

    def test_non_finite_inputs_follow_ieee(self):
        inf, nan = math.inf, math.nan
        assert fma_dot(inf, 1.0, 1.0, 1.0) == inf
        assert fma_dot(1.0, -inf, 1.0, 2.0) == -inf
        assert math.isnan(fma_dot(1.0, inf, 1.0, 0.0))  # inf * 0
        assert math.isnan(fma_dot(inf, -inf, 1.0, 1.0))  # inf - inf
        assert math.isnan(fma_dot(nan, 1.0, 1.0, 1.0))
        assert fma_dot(1e300, 2.0 ** 600, 1e300, 2.0 ** -600) == inf  # x0*y0 overflows; x1*y1 is finite

    @given(MODEST, MODEST, MODEST, MODEST)
    @settings(max_examples=500)
    def test_equals_numpy_dot_where_blas_rounds_as_fma(self, x0, x1, y0, y1):
        # the recorded sweeps came from a BLAS whose 1-D `@` rounds as one fma
        probe = (1.0 + 2.0 ** -30, 1.0 - 2.0 ** -30)  # x0*y0 + x1*y1 rounds apart from the fma here
        if np.array(probe) @ np.array(probe) != fma_dot(*probe, *probe):
            pytest.skip("this BLAS does not round a 2-vector dot as one fma")
        assert fma_dot(x0, x1, y0, y1) == np.array((x0, x1)) @ np.array((y0, y1))
