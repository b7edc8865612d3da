import itertools
import math

import numpy as np
import pytest
from block_arrays import (
    _min_distance_to_polyline,
    diagonal_length_bound,
    pi_arc_before,
    pi_arrays,
    pi_leg_length,
    pi_vertex,
)

from planehunt import trajectory
from planehunt.trajectory import (
    CatchPrediction,
    SpiralParams,
    ceil_log2,
    diagonal_length,
    diagonal_terms,
    pi_leg,
    pi_length,
    predict_static,
    prefix_polyline,
)

COMPASS = {(1, 0): "E", (0, -1): "S", (-1, 0): "W", (0, 1): "N"}


def _legs(params, n):
    """(direction, length) of the first n legs of out_and_back(k, j), from its closed forms."""
    legs = []
    for leg in range(n):
        (ax, ay), (bx, by) = pi_vertex(params, leg), pi_vertex(params, leg + 1)
        legs.append((COMPASS[(bx > ax) - (bx < ax), (by > ay) - (by < ay)], pi_leg_length(params, leg)))
    return legs


def _spiral(k, j):
    """Vertices of spiral(k, j): the first 4(k+1) legs of the numpy view of out_and_back(k, j)."""
    return pi_arrays(k, j)[0][: 4 * (k + 1) + 1]


def test_spiral_params_validation():
    with pytest.raises(ValueError):
        SpiralParams(0, 2)
    with pytest.raises(ValueError):
        SpiralParams(1, 0)


class TestSpiral:
    def test_k1_j2_instruction_sequence(self):
        got = _legs(SpiralParams(1, 2), 8)
        assert got == [
            ("E", 0.25), ("S", 0.25), ("W", 0.5), ("N", 0.5),
            ("E", 0.75), ("S", 0.75), ("W", 1.0), ("N", 1.0),
        ]

    @pytest.mark.parametrize("k,j", [(1, 2), (3, 1), (5, 4), (16, 2)])
    def test_instruction_count(self, k, j):
        # the spiral is the first 4(k+1) legs: half the block, ending on its longest leg
        params = SpiralParams(k, j)
        assert pi_arc_before(params, 4 * (k + 1)) == pi_length(params) / 2
        assert pi_leg_length(params, 4 * k + 3) == pi_leg_length(params, 4 * k + 4) == (2 * k + 2) * 2.0 ** -j

    @pytest.mark.parametrize("k,j", [(1, 2), (2, 3), (8, 2), (16, 4)])
    def test_endpoint(self, k, j):
        # summed signed displacements: endpoint is (-(k+1), +(k+1)) * 2^-j
        poly = _spiral(k, j)
        expect = np.array([-(k + 1), k + 1]) * 2.0 ** (-j)
        assert np.allclose(poly[-1], expect, atol=0)
        assert pi_vertex(SpiralParams(k, j), 4 * (k + 1)) == tuple(expect)


class TestOutAndBack:
    def test_k1_j2_reversal(self):
        legs = _legs(SpiralParams(1, 2), 16)
        assert pi_arc_before(SpiralParams(1, 2), 16) == pi_length(SpiralParams(1, 2))
        # the return ends with the opposite of the spiral's first leg
        assert legs[-1] == ("W", 0.25)
        spiral = legs[:8]
        rev = legs[8:]
        opposite = {"N": "S", "S": "N", "E": "W", "W": "E"}
        assert rev == [(opposite[direction], length) for direction, length in reversed(spiral)]

    def test_closed_form_length_example(self):
        assert pi_length(SpiralParams(1, 2)) == 10.0

    def test_length_consistency_sweep(self):
        # acceptance-style: summed leg lengths of the numpy view match the closed form
        for k, j in itertools.product(range(1, 65), (2, 4, 6)):
            total = sum(pi_arrays(k, j)[1].tolist())
            closed = pi_length(SpiralParams(k, j))
            assert abs(total - closed) <= 1e-12 * closed

    @pytest.mark.parametrize("k,j", [(1, 2), (4, 2), (8, 4), (32, 6)])
    def test_returns_to_start_exactly(self, k, j):
        poly = pi_arrays(k, j)[0]
        assert poly[-1][0] == 0.0 and poly[-1][1] == 0.0
        assert pi_vertex(SpiralParams(k, j), 8 * (k + 1)) == (0.0, 0.0)


class TestDiagonals:
    def test_terms_examples(self):
        assert diagonal_terms(1) == [SpiralParams(8, 2)]
        assert diagonal_terms(2) == [SpiralParams(16, 2), SpiralParams(32, 4)]
        assert diagonal_terms(3) == [SpiralParams(32, 2), SpiralParams(64, 4), SpiralParams(128, 6)]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            diagonal_terms(0)

    def test_lengths(self):
        assert diagonal_length(1) == 171.0
        assert diagonal_length(2) == 1147.75

    def test_length_within_bound(self):
        for i in range(1, 21):
            assert diagonal_length(i) <= diagonal_length_bound(i)

    def test_monotone_growth(self):
        for i in range(1, 21):
            assert diagonal_length(i + 1) > diagonal_length(i)

    def test_matrix_diagonal_membership(self):
        # each term (k, j) with k = 2^(i'+j) has row i' >= 1 and i' + j/2 - 1 = i
        for i in range(1, 13):
            for params in diagonal_terms(i):
                row = int(math.log2(params.k)) - params.j
                assert row >= 1
                assert row + params.j // 2 - 1 == i

    def test_diagonal_length_matches_instruction_sum(self):
        for i in (1, 2, 3):
            total = sum(length for p in diagonal_terms(i) for length in pi_arrays(p.k, p.j)[1].tolist())
            assert total == pytest.approx(diagonal_length(i), rel=1e-12)


def _ceil_log2_by_powers(x):
    # the loop over powers of two that ceil_log2 replaced
    a = math.ceil(math.log2(x))
    while 2.0 ** a < x:
        a += 1
    while 2.0 ** (a - 1) >= x:
        a -= 1
    return a


def test_ceil_log2_matches_the_loop_over_powers():
    rng = np.random.default_rng(3)
    xs = [5e-324, 2.0 ** -1022, 0.1, 1.0 / 3, 1.0, 3.0, 2.0 ** 1023, 1e308]
    for e in range(-1074, 1024):
        x = 2.0 ** e
        xs += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    xs += list(2.0 ** rng.uniform(-1070.0, 1023.0, size=2000))
    for x in xs:
        if 0.0 < x <= 2.0 ** 1023:  # the loop overflows above
            assert ceil_log2(x) == _ceil_log2_by_powers(x), x
    assert ceil_log2(1.7e308) == 1024
    for x in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            ceil_log2(x)


class TestCatchPrediction:
    def test_cost_bound_is_derived_from_y(self):
        p = CatchPrediction(2, 4, 3)
        assert p.cost_bound == 80 * 3 * 2 ** 8
        assert repr(p) == "CatchPrediction(a=2, b=4, y=3, cost_bound=61440.0)"
        assert p._fields == ("a", "b", "y", "cost_bound")
        assert p == predict_static(4, 1 / 16) and p != CatchPrediction(2, 4, 4)
        with pytest.raises(TypeError):
            CatchPrediction(2, 4, 3, 61440.0)

    def test_cost_bound_beyond_the_float_range_raises(self):
        assert CatchPrediction(0, 2, 503).cost_bound == 80.0 * 503 * 2.0 ** 1008
        with pytest.raises(ValueError, match="beyond the float range"):
            CatchPrediction(0, 2, 504)


class TestPredictStatic:
    def test_examples(self):
        p = predict_static(4, 1 / 16)
        assert (p.a, p.b, p.y, p.cost_bound) == (2, 4, 3, 80 * 3 * 2 ** 8)
        p = predict_static(1, 0.5)
        assert (p.a, p.b, p.y) == (0, 2, 1)
        p = predict_static(8, 0.1)
        assert (p.a, p.b, p.y) == (3, 4, 4)

    def test_float32_inputs_are_taken_as_their_values(self):
        # in float32, 1 / r overflows for r < 2^-128
        r = np.float32(1e-39)
        assert predict_static(1.0, r) == predict_static(1.0, float(r)) and predict_static(1.0, r).y == 65
        assert predict_static(np.float32(3.3), 0.25) == predict_static(float(np.float32(3.3)), 0.25)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            predict_static(0, 0.5)
        with pytest.raises(ValueError):
            predict_static(1, 0)


class TestCoverageProperty:
    @pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("j", [2, 4])
    def test_grid_within_resolution_of_spiral(self, k, j):
        poly = _spiral(k, j)
        half = k * 2.0 ** (-j)  # Q(2k 2^-j) has half-side k 2^-j
        g = np.linspace(-half, half, 101)
        gx, gy = np.meshgrid(g, g)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        dists = _min_distance_to_polyline(pts, poly)
        assert dists.max() < 2.0 ** (-j)


class TestLegClosedForm:
    """pi_leg is pi_vertex at both ends, pi_arc_before and pi_leg_length, bit for bit."""

    @staticmethod
    def _bits(values):
        # == takes -0.0 for 0.0; copysign tells the two zeros apart
        return [(v, math.copysign(1.0, v)) for v in values]

    def _check(self, params, leg):
        want = (*pi_vertex(params, leg), *pi_vertex(params, leg + 1), pi_arc_before(params, leg),
                pi_leg_length(params, leg))
        got = pi_leg(params, leg)
        assert all(type(v) is float for v in got)
        assert self._bits(got) == self._bits(want), (params, leg)

    def test_every_leg_of_diagonals_1_to_4(self):
        # both halves of every block, leg 0 and the last leg among them
        for i in range(1, 5):
            for params in diagonal_terms(i):
                for leg in range(8 * (params.k + 1)):
                    self._check(params, leg)

    def test_seeded_legs_of_diagonals_5_to_12(self):
        rng = np.random.default_rng(28)
        for i in range(5, 13):
            for params in diagonal_terms(i):
                legs = 8 * (params.k + 1)
                half = legs // 2
                picks = [0, 1, half - 1, half, half + 1, legs - 2, legs - 1]
                picks += [int(leg) for leg in rng.integers(0, legs, size=40)]
                for leg in picks:
                    self._check(params, leg)


class TestVectorizedView:
    @pytest.mark.parametrize("k,j", [(1, 2), (8, 2), (16, 4)])
    def test_arrays_match_instructions(self, k, j):
        params = SpiralParams(k, j)
        legs = 8 * (k + 1)
        verts = np.array([pi_vertex(params, L) for L in range(legs + 1)])
        lengths = [pi_leg_length(params, L) for L in range(legs)]
        cum = [pi_arc_before(params, L + 1) for L in range(legs)]
        poly, arr_len, arr_cum = pi_arrays(k, j)
        assert np.array_equal(verts, poly)
        assert np.allclose(lengths, arr_len, rtol=0, atol=0)
        assert cum == arr_cum.tolist()
        assert cum[-1] == pytest.approx(pi_length(params))

    def test_closed_form_matches_arrays_bit_for_bit(self):
        # every block of diagonals 1-5, against the whole-block numpy view
        for i in range(1, 6):
            for params in diagonal_terms(i):
                verts, lengths, cum = pi_arrays(params.k, params.j)
                legs = lengths.size
                got = np.array([pi_vertex(params, L) for L in range(legs + 1)])
                assert got.tobytes() == verts.tobytes()
                got = np.array([pi_leg_length(params, L) for L in range(legs)])
                assert got.tobytes() == lengths.tobytes()
                arcs = np.array([pi_arc_before(params, L) for L in range(legs + 1)])
                assert arcs[0] == 0.0 and arcs[1:].tobytes() == cum.tobytes()
                assert arcs[:-1].tobytes() == (cum - lengths).tobytes()
                assert pi_length(params) == cum[-1]

    @pytest.mark.parametrize("k,j", [(1, 1), (6, 2), (1024, 10)])
    def test_return_legs_mirror_the_spiral(self, k, j):
        params, legs = SpiralParams(k, j), 8 * (k + 1)
        for L in range(legs + 1):
            assert pi_vertex(params, legs - L) == pi_vertex(params, L)
        for L in range(legs):
            assert pi_leg_length(params, legs - 1 - L) == pi_leg_length(params, L)
            assert pi_arc_before(params, legs - L) == pi_length(params) - pi_arc_before(params, L)

    @pytest.mark.parametrize("max_cost", [0.0, 0.6, 10.0, 171.0, 400.0, 1318.75, 4000.0, 4000.3])
    def test_prefix_polyline_walks_the_instruction_stream(self, max_cost):
        poly = prefix_polyline(max_cost)
        # the schedule through diagonal 3, block after block, from the numpy view
        blocks = [pi_arrays(p.k, p.j) for i in (1, 2, 3) for p in diagonal_terms(i)]
        full = np.concatenate([blocks[0][0]] + [verts[1:] for verts, _, _ in blocks[1:]])
        lengths = np.concatenate([block_lengths for _, block_lengths, _ in blocks]).tolist()
        n = len(poly) - 1
        assert np.array_equal(poly[:-1], full[:n])
        # the last leg is the schedule's next leg, cut at the budget
        cut = max_cost - sum(lengths[: n - 1])
        assert 0.0 <= cut <= lengths[n - 1]
        ux, uy = (full[n] - full[n - 1]) / lengths[n - 1]
        assert np.array_equal(poly[-1], full[n - 1] + np.array([ux * cut, uy * cut]))

    def test_prefix_polyline_mirrors_the_outbound_legs_bit_for_bit(self, monkeypatch):
        # budgets that end a quarter and three quarters into each of the first
        # five blocks, in its outbound and its return half, and at its end
        blocks = [p for i in (1, 2, 3) for p in diagonal_terms(i)][:5]
        starts = itertools.accumulate((pi_length(p) for p in blocks), initial=0.0)
        budgets = [a + f * pi_length(p) for a, p in zip(starts, blocks) for f in (0.25, 0.75, 1.0)]
        mirrored = [prefix_polyline(b) for b in budgets]
        # the per-leg build: one pi_leg call for every leg, return legs too
        monkeypatch.setattr(trajectory, "_leg_ends", lambda p, n: (pi_leg(p, L)[2:4] for L in range(n)))
        for budget, poly in zip(budgets, mirrored):
            assert poly.tobytes() == prefix_polyline(budget).tobytes(), budget

    def test_prefix_polyline_vertex_limit_is_exact(self, monkeypatch):
        n = len(prefix_polyline(400.0))
        monkeypatch.setattr(trajectory, "MAX_PREFIX_VERTICES", n)
        assert len(prefix_polyline(400.0)) == n
        monkeypatch.setattr(trajectory, "MAX_PREFIX_VERTICES", n - 1)
        with pytest.raises(ValueError, match="vertices"):
            prefix_polyline(400.0)

    @pytest.mark.parametrize("max_cost", [1e12, 1e300, 2.0 ** 1023])
    def test_prefix_polyline_rejects_huge_prefixes_before_the_walk(self, max_cost):
        with pytest.raises(ValueError, match=f"more than {trajectory.MAX_PREFIX_VERTICES} vertices"):
            prefix_polyline(max_cost)

    def test_prefix_polyline_truncates_at_budget(self):
        poly = prefix_polyline(0.6)
        # 0.25 E, 0.25 S, then 0.1 of the 0.5 W leg
        assert np.allclose(poly[-1], [0.25 - 0.1, -0.25])
        seg_lengths = np.linalg.norm(np.diff(poly, axis=0), axis=1)
        assert seg_lengths.sum() == pytest.approx(0.6)

    @pytest.mark.parametrize("max_cost", [math.nan, math.inf, -math.inf, -0.5])
    def test_prefix_polyline_rejects_nonfinite_or_negative(self, max_cost):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            prefix_polyline(max_cost)
