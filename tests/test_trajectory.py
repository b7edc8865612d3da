import itertools
import math

import numpy as np
import pytest
from block_arrays import pi_arrays, polyline_of

from planehunt import trajectory
from planehunt.trajectory import (
    UNIT,
    MoveInstruction,
    SpiralParams,
    ceil_log2,
    diagonal_instructions,
    diagonal_length,
    diagonal_length_bound,
    diagonal_terms,
    full_schedule,
    pi_arc_before,
    pi_instructions,
    pi_leg_length,
    pi_length,
    pi_vertex,
    predict_static,
    prefix_polyline,
    spiral_instructions,
)


def test_move_instruction_validation():
    with pytest.raises(ValueError):
        MoveInstruction("X", 1.0)
    with pytest.raises(ValueError):
        MoveInstruction("N", 0.0)


def test_spiral_params_validation():
    with pytest.raises(ValueError):
        SpiralParams(0, 2)
    with pytest.raises(ValueError):
        SpiralParams(1, 0)


class TestSpiral:
    def test_k1_j2_instruction_sequence(self):
        got = [(i.direction, i.distance) for i in spiral_instructions(SpiralParams(1, 2))]
        assert got == [
            ("E", 0.25), ("S", 0.25), ("W", 0.5), ("N", 0.5),
            ("E", 0.75), ("S", 0.75), ("W", 1.0), ("N", 1.0),
        ]

    @pytest.mark.parametrize("k,j", [(1, 2), (3, 1), (5, 4), (16, 2)])
    def test_instruction_count(self, k, j):
        assert sum(1 for _ in spiral_instructions(SpiralParams(k, j))) == 4 * (k + 1)

    @pytest.mark.parametrize("k,j", [(1, 2), (2, 3), (8, 2), (16, 4)])
    def test_endpoint(self, k, j):
        # summed signed displacements: endpoint is (-(k+1), +(k+1)) * 2^-j
        poly = polyline_of(spiral_instructions(SpiralParams(k, j)))
        expect = np.array([-(k + 1), k + 1]) * 2.0 ** (-j)
        assert np.allclose(poly[-1], expect, atol=0)


class TestOutAndBack:
    def test_k1_j2_reversal(self):
        instrs = list(pi_instructions(SpiralParams(1, 2)))
        assert len(instrs) == 16
        # the reverse stream ends with the opposite of the spiral's first leg
        assert instrs[-1] == MoveInstruction("W", 0.25)
        spiral = instrs[:8]
        rev = instrs[8:]
        opposite = {"N": "S", "S": "N", "E": "W", "W": "E"}
        assert rev == [MoveInstruction(opposite[leg.direction], leg.distance) for leg in reversed(spiral)]

    def test_closed_form_length_example(self):
        assert pi_length(SpiralParams(1, 2)) == 10.0

    def test_length_consistency_sweep(self):
        # acceptance-style: summed instruction lengths match the closed form
        for k, j in itertools.product(range(1, 65), (2, 4, 6)):
            total = sum(i.distance for i in pi_instructions(SpiralParams(k, j)))
            closed = pi_length(SpiralParams(k, j))
            assert abs(total - closed) <= 1e-12 * closed

    @pytest.mark.parametrize("k,j", [(1, 2), (4, 2), (8, 4), (32, 6)])
    def test_returns_to_start_exactly(self, k, j):
        poly = polyline_of(pi_instructions(SpiralParams(k, j)))
        assert poly[-1][0] == 0.0 and poly[-1][1] == 0.0


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
            total = sum(instr.distance for instr in diagonal_instructions(i))
            assert total == pytest.approx(diagonal_length(i), rel=1e-12)


class TestFullSchedule:
    def test_first_instruction(self):
        i, instr = next(full_schedule())
        assert i == 1
        assert instr == MoveInstruction("E", 0.25)

    def test_diagonal_one_has_72_instructions(self):
        sched = full_schedule()
        first = list(itertools.islice(sched, 73))
        assert all(i == 1 for i, _ in first[:72])
        assert first[72][0] == 2

    def test_prefix_cost_after_two_diagonals(self):
        total = 0.0
        for i, instr in full_schedule():
            if i > 2:
                break
            total += instr.distance
        assert total == pytest.approx(171.0 + 1147.75)


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


class TestPredictStatic:
    def test_examples(self):
        p = predict_static(4, 1 / 16)
        assert (p.a, p.b, p.y, p.cost_bound) == (2, 4, 3, 80 * 3 * 2 ** 8)
        p = predict_static(1, 0.5)
        assert (p.a, p.b, p.y) == (0, 2, 1)
        p = predict_static(8, 0.1)
        assert (p.a, p.b, p.y) == (3, 4, 4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            predict_static(0, 0.5)
        with pytest.raises(ValueError):
            predict_static(1, 0)


class TestCoverageProperty:
    @pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("j", [2, 4])
    def test_grid_within_resolution_of_spiral(self, k, j):
        from planehunt.target import _min_distance_to_polyline

        poly = polyline_of(spiral_instructions(SpiralParams(k, j)))
        half = k * 2.0 ** (-j)  # Q(2k 2^-j) has half-side k 2^-j
        g = np.linspace(-half, half, 101)
        gx, gy = np.meshgrid(g, g)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        dists = _min_distance_to_polyline(pts, poly)
        assert dists.max() < 2.0 ** (-j)


class TestVectorizedView:
    @pytest.mark.parametrize("k,j", [(1, 2), (8, 2), (16, 4)])
    def test_arrays_match_instructions(self, k, j):
        params = SpiralParams(k, j)
        legs = 8 * (k + 1)
        verts = np.array([pi_vertex(params, L) for L in range(legs + 1)])
        lengths = [pi_leg_length(params, L) for L in range(legs)]
        cum = [pi_arc_before(params, L + 1) for L in range(legs)]
        poly = polyline_of(pi_instructions(params))
        assert np.array_equal(verts, poly)
        instr_len = [i.distance for i in pi_instructions(params)]
        assert np.allclose(lengths, instr_len, rtol=0, atol=0)
        assert cum == list(np.cumsum(instr_len))
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
        instrs = [instr for _, instr in itertools.islice(full_schedule(), len(poly) - 1)]
        full = polyline_of(instrs)
        assert np.array_equal(poly[:-1], full[:-1])
        # the last leg is the stream's next leg, cut at the budget
        cut = max_cost - sum(instr.distance for instr in instrs[:-1])
        assert 0.0 <= cut <= instrs[-1].distance
        ux, uy = UNIT[instrs[-1].direction]
        assert np.array_equal(poly[-1], full[-2] + np.array([ux * cut, uy * cut]))

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
