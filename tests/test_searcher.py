import math
from fractions import Fraction

import block_arrays
import numpy as np
import pytest

from planehunt import searcher
from planehunt.experiments import sweep_dynamic
from planehunt.searcher import (
    dynamic_plan,
    dynamic_q,
    predict_dynamic,
    static_plan,
)
from planehunt.trajectory import CatchPrediction, diagonal_length, diagonal_terms, predict_static


class TestStaticPlan:
    def test_unit_speed_everywhere(self):
        plan = static_plan()
        for i in (1, 5, 20):
            assert plan.speed_of_diagonal(i) == 1.0

    def test_traversal_time_is_length(self):
        assert static_plan().traversal_time(1) == 171.0

    def test_rejects_diagonal_zero(self):
        with pytest.raises(ValueError, match="diagonal index must be >= 1"):
            static_plan().speed_of_diagonal(0)


class TestDynamicPlan:
    def test_speed_schedule(self):
        plan = dynamic_plan()
        assert plan.speed_of_diagonal(3) == 32768.0  # 2^15
        assert plan.speed_of_diagonal(1) == 32.0

    def test_t1(self):
        assert dynamic_plan().traversal_time(1) == pytest.approx(171 / 32)

    def test_time_decay_bound(self):
        # traversal time is at most 2^-2i from i = 11 on
        plan = dynamic_plan()
        for i in range(11, 21):
            assert plan.traversal_time(i) <= 2.0 ** (-2 * i)

    def test_timing_from_instructions_matches_closed_form(self):
        plan = dynamic_plan()
        for i in range(1, 9):
            summed = 0.0
            for p in diagonal_terms(i):
                # spiral(k, j) walks m 2^-j twice for m = 1..2k+2; the block adds its reverse
                spiral = tuple(m * 2.0 ** -p.j for m in range(1, 2 * p.k + 3) for _ in (0, 1))
                summed += sum(spiral + spiral[::-1])
            t_closed = plan.traversal_time(i)
            t_summed = summed / plan.speed_of_diagonal(i)
            assert abs(t_summed - t_closed) <= 1e-12 * t_closed


def _partial(n):
    """t_1 + ... + t_n for the dynamic plan, summed in dynamic_q's order."""
    plan = dynamic_plan()
    return sum(plan.traversal_time(i) for i in range(1, n + 1))


def _formula_y(D, v, r):
    """(a, b, y0) of predict_dynamic's closed formula, before the timing loop."""
    base = predict_static(D, r)
    a_prime = max(base.a, math.ceil(dynamic_q() * v)) + 1
    return base.a, base.b, max(1, a_prime + base.b // 2 - 1)


class TestDynamicQ:
    def test_lower_bounded_by_t1(self):
        assert dynamic_q() >= 171 / 32

    def test_partial_sums(self):
        t1 = 171 / 32
        t2 = diagonal_length(2) / 2.0 ** 10
        t3 = diagonal_length(3) / 2.0 ** 15
        assert t2 == pytest.approx(1.12085, abs=1e-5)
        assert t3 == pytest.approx(0.19616, abs=1e-5)
        assert dynamic_q() >= t1 + t2 + t3

    def test_stable_beyond_30_terms(self):
        assert abs(_partial(30) - _partial(40)) < 1e-9
        assert abs(dynamic_q() - _partial(30)) < 1e-9

    def test_upper_bounds_partial_sums(self):
        for upto in range(1, 49):
            assert dynamic_q() >= _partial(upto)

    def test_non_increasing_once_tail_applies(self):
        # partial(n) + 4^-n / 3 bounds q for each n >= 8; each added term
        # is at most the tail term it replaces, so 48 terms bound best
        values = [_partial(n) + 4.0 ** (-n) / 3.0 for n in range(10, 49)]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-15
        assert values[-1] == dynamic_q()

    def test_is_the_48_term_partial_sum_plus_the_geometric_tail(self):
        assert dynamic_q() == _partial(48) + 4.0 ** -48 / 3.0
        assert dynamic_q() == 6.698370077012264

    def test_tail_premise_holds_for_every_finite_speed(self):
        # the tail sum_{i > 48} 4^-i dominates the terms it replaces; the
        # speed 2^(5i) is a finite float through i = 204
        plan = dynamic_plan()
        for i in range(49, 205):
            assert plan.traversal_time(i) <= 4.0 ** -i

    def test_cached_values_bit_identical_to_uncached(self, monkeypatch):
        uncached = dynamic_q.__wrapped__
        assert dynamic_q() == uncached()
        cases = [(1, 1, 1 / 16), (4, 0.5, 1 / 4), (2, 16, 1 / 64), (8, 3, 0.01)]
        cached = [predict_dynamic(D, v, r) for D, v, r in cases]
        monkeypatch.setattr(searcher, "dynamic_q", uncached)
        assert cached == [predict_dynamic(D, v, r) for D, v, r in cases]


class TestPredictDynamic:
    def test_inert_reduction(self):
        # a' = max(2, 0) + 1 = 3, so y = 3 + 4/2 - 1 = 4
        p = predict_dynamic(4, 0, 1 / 16)
        assert _formula_y(4, 0, 1 / 16) == (2, 4, 4)
        assert p == CatchPrediction(2, 4, 4)

    def test_unit_speed_uses_q(self):
        # a' = ceil(q) + 1 = 8, so y = 8 + 4/2 - 1 = 9
        assert math.ceil(dynamic_q()) == 7
        p = predict_dynamic(1, 1, 1 / 16)
        assert _formula_y(1, 1, 1 / 16) == (0, 4, 9)
        assert (p.a, p.b, p.y) == (0, 4, 9)

    def test_condition_verified_for_returned_y(self):
        plan = dynamic_plan()
        for v in (0.5, 1, 2, 4):
            p = predict_dynamic(1, v, 1 / 16)
            assert plan.traversal_time(p.y) <= 1.0 / (v * 2.0 ** (p.b + 1))

    def test_raises_y_past_the_formula_where_the_condition_fails(self):
        # y0 = 2 misses the timing condition 1 / (v 2^(b+1)) = 0.8929, so the loop raises y to 3
        plan = dynamic_plan()
        p = predict_dynamic(1.0, 0.14, 0.25)
        assert _formula_y(1.0, 0.14, 0.25) == (0, 2, 2)  # a' = max(0, ceil(0.94)) + 1 = 2
        assert (p.a, p.b) == (0, 2)
        limit = 1.0 / (0.14 * 2.0 ** (p.b + 1))
        assert limit == pytest.approx(0.8929, abs=1e-4)
        assert plan.traversal_time(2) == pytest.approx(1.1208, abs=1e-4) and plan.traversal_time(2) > limit
        assert plan.traversal_time(3) == pytest.approx(0.1962, abs=1e-4) and plan.traversal_time(3) <= limit
        assert p.y == 3 and p.cost_bound == 61440.0
        rows = sweep_dynamic([0.14], [0.25], 1.0, 200, 7)
        assert len(rows) == 200
        assert all(row.sensed and row.diagonal <= p.y and row.cost <= p.cost_bound for row in rows)

    def test_a_float32_speed_is_taken_as_its_value(self):
        # in float32, v 2^(b + 1) overflows for b = 130, with a RuntimeWarning
        assert predict_dynamic(1.0, np.float32(1.0), 2.0 ** -130) == predict_dynamic(1.0, 1.0, 2.0 ** -130)
        assert predict_dynamic(np.float32(3.3), 2.0, np.float32(0.1)) == predict_dynamic(
            float(np.float32(3.3)), 2.0, float(np.float32(0.1))
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            predict_dynamic(0, 1, 0.5)
        with pytest.raises(ValueError):
            predict_dynamic(1, -1, 0.5)


def _outcome(f, *args):
    """f(*args), or the type and message of what it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


class TestDiagonalSumsMatchTheReference:
    """The int-built diagonal sums and the early-stopped q against block_arrays, bit for bit."""

    def test_diagonal_length_on_every_reachable_diagonal(self):
        # predict_dynamic reads traversal times through y = 204, where 2^(5y) is the last finite speed
        for i in range(1, 205):
            assert diagonal_length(i).hex() == block_arrays.diagonal_length(i).hex(), i

    def test_diagonal_length_rejects_diagonal_zero(self):
        for i in (0, -3):
            assert _outcome(diagonal_length, i) == _outcome(block_arrays.diagonal_length, i) == (
                "ValueError",
                "diagonal index must be >= 1",
            )

    @pytest.mark.parametrize("plan", [static_plan(), dynamic_plan()], ids=["static", "dynamic"])
    def test_traversal_time_of_both_plans(self, plan):
        for i in range(1, 205):
            want = block_arrays.diagonal_length(i) / plan.speed_of_diagonal(i)
            assert plan.traversal_time(i).hex() == want.hex(), i

    def test_q_keeps_its_bits(self):
        assert dynamic_q.__wrapped__().hex() == block_arrays.dynamic_q().hex() == "0x1.acb2186851738p+2"

    def test_terms_past_the_early_stop_are_below_half_an_ulp_of_the_sum(self):
        # exact rationals: each t_i from diagonal _Q_TERMS + 1 through 48 lies below half an
        # ulp of the float partial sum it would be added to, so rounding to nearest drops it
        plan = dynamic_plan()
        partial = 0.0
        for i in range(1, 49):
            t = plan.traversal_time(i)
            if i > searcher._Q_TERMS:
                assert Fraction(t) < Fraction(math.ulp(partial)) / 2, i
                assert partial + t == partial, i
            partial += t
            assert 4.0 <= partial < 8.0
        assert searcher._Q_TERMS == 25

    def test_predict_dynamic_on_a_grid_up_to_the_guard(self, monkeypatch):
        q = block_arrays.dynamic_q()
        cases = []
        for D in (0.3, 1.0, 3.0, 1000.0, 2.0**40):
            for r in (2.0, 0.25, 1 / 16, 1e-3, 2.0**-60):
                base = predict_static(D, r)
                v_max = (1023 // 5 - base.b // 2) / q  # past it, q v leaves the guard
                vs = [0.0, 1e-3, 0.14, 1.0, 16.0, 100.0, v_max / 3, v_max / 2, v_max - 1.0]
                vs += [math.nextafter(v_max, 0.0), v_max, math.nextafter(v_max, math.inf), v_max + 1.0]
                cases += [(D, v, r) for v in vs if v >= 0]
        got = [repr(_outcome(predict_dynamic, *c)) for c in cases]
        monkeypatch.setattr(searcher, "diagonal_length", block_arrays.diagonal_length)
        monkeypatch.setattr(searcher, "dynamic_q", block_arrays.dynamic_q)
        assert got == [repr(_outcome(predict_dynamic, *c)) for c in cases]
        ys = [p.y for p in (_outcome(predict_dynamic, *c) for c in cases) if isinstance(p, CatchPrediction)]
        assert len(ys) < len(cases) and max(ys) == 204  # some cases past the guard, some at it
