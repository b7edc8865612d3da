import io
import math
import re
import time
import tracemalloc
import warnings
from bisect import bisect_left

import numpy as np
import pytest
from block_arrays import _may_flag, _near_grid_line, pi_arc_before, pi_arrays, pi_leg_length, pi_vertex
from hypothesis import given, settings
from hypothesis import strategies as st

from planehunt import engine
from planehunt.engine import (
    SimConfig,
    SimOutcome,
    _corner_range,
    _first_contact_in_rings,
    _first_flagged,
    _may_reach,
    brute_force_oracle,
    simulate,
)
from planehunt.geometry import Point, first_contact_time
from planehunt.searcher import SearcherPlan, dynamic_plan, static_plan
from planehunt.target import TargetStrategy, inert, radial_flee, waypoints
from planehunt.trajectory import (
    _SIDES,
    MAX_DIAGONAL,
    SpiralParams,
    diagonal_terms,
    pi_length,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(r=0.0, max_diagonal=1)
    assert SimConfig(r=1.0).max_diagonal == MAX_DIAGONAL  # every walk ends by diagonal 12
    with pytest.raises(ValueError, match="max_diagonal must be an integer"):
        SimConfig(r=1.0, max_diagonal=None)
    with pytest.raises(ValueError):
        SimConfig(r=1.0, max_diagonal=0)
    for r in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            SimConfig(r=r, max_diagonal=2)
    for max_cost in (math.nan, -math.inf):
        with pytest.raises(ValueError):
            SimConfig(r=0.5, max_cost=max_cost)
        with pytest.raises(ValueError):
            SimConfig(r=0.5, max_cost=max_cost, max_diagonal=2)
    assert SimConfig(r=0.5, max_cost=math.inf, max_diagonal=2).max_cost == math.inf


def test_config_rejects_a_non_integer_diagonal():
    # a float cap would stop a hunt after its floor, and True would be kept as the cap
    for max_diagonal in (2.5, 2.0, True, False, np.float64(3.0), "3"):
        with pytest.raises(ValueError, match="max_diagonal must be an integer"):
            SimConfig(r=0.5, max_diagonal=max_diagonal)
    want = simulate(static_plan(), inert(Point(100, 0)), SimConfig(r=0.1, max_diagonal=2))
    for max_diagonal in (np.int64(2), np.int32(2), np.uint8(2)):
        cfg = SimConfig(r=0.1, max_diagonal=max_diagonal)
        assert cfg.max_diagonal == 2
        assert simulate(static_plan(), inert(Point(100, 0)), cfg) == want


def test_config_rejects_bool_radius_and_budget():
    # r=True would hunt with r = 1, and max_cost=True would be kept as the budget
    for kwargs in (
        {"r": True, "max_diagonal": 2},
        {"r": False, "max_diagonal": 2},
        {"r": np.True_, "max_diagonal": 2},
        {"r": 0.5, "max_cost": True},
        {"r": 0.5, "max_cost": np.True_, "max_diagonal": 2},
    ):
        with pytest.raises(ValueError, match="must be a number"):
            SimConfig(**kwargs)
    want = simulate(static_plan(), inert(Point(1.7, 0.3)), SimConfig(r=1.0, max_cost=40.0))
    for r, max_cost in ((1, 40), (np.float64(1.0), np.float64(40.0)), (np.int64(1), 40.0)):
        assert simulate(static_plan(), inert(Point(1.7, 0.3)), SimConfig(r=r, max_cost=max_cost)) == want


@pytest.mark.parametrize(
    "r, max_cost, target, reason",
    [
        (np.float64(1.0), 40.0, Point(1.7, 0.3), "sensed"),
        (np.float64(0.01), 5.0, Point(3000.0, 0.0), "cost_budget"),
        (0.01, np.float32(5.5), Point(3000.0, 0.0), "cost_budget"),
    ],
)
def test_numpy_radius_or_budget_gives_python_float_fields(r, max_cost, target, reason):
    # the stop cost is cost + arc or max_cost, a numpy float where r or max_cost is one
    out = simulate(static_plan(), inert(target), SimConfig(r=r, max_cost=max_cost))
    assert out.stop_reason == reason
    assert [type(v) for v in (out.time, out.cost, *out.agent_pos, *out.target_pos)] == [float] * 6


def test_config_diagonal_limit():
    # past MAX_DIAGONAL block arcs lose exactness and leg indices outgrow bisect
    assert SimConfig(r=0.5, max_diagonal=MAX_DIAGONAL).max_diagonal == MAX_DIAGONAL
    assert SimConfig(r=0.5, max_cost=10.0).max_diagonal == MAX_DIAGONAL
    for max_diagonal in (MAX_DIAGONAL + 1, 31, 600):
        with pytest.raises(ValueError, match="max_diagonal"):
            SimConfig(r=0.5, max_diagonal=max_diagonal)


def test_a_budget_past_the_last_diagonal_stops_there():
    cfg = SimConfig(r=0.01, max_cost=1e150)
    out = simulate(static_plan(), inert(Point(1e300, 0.0)), cfg)
    assert (out.sensed, out.stop_reason, out.diagonal) == (False, "diagonal_budget", MAX_DIAGONAL)
    assert out.agent_pos == Point(0.0, 0.0)
    assert out.cost == sum(pi_length(p) for i in range(1, MAX_DIAGONAL + 1) for p in diagonal_terms(i))


def test_config_rejects_non_finite_start():
    for start in (Point(math.nan, 0.0), Point(0.0, math.inf), Point(-math.inf, 1.0)):
        with pytest.raises(ValueError):
            SimConfig(agent_start=start, r=0.5, max_diagonal=2)


def test_config_checks_each_start_coordinate_and_keeps_the_point():
    # True was taken as 1.0, '1' raised TypeError and 10**400 OverflowError
    cases = [
        (Point(True, 0.0), "agent_start.x must be a number, got True"),
        (Point("1", 0.0), "agent_start.x must be a number, got '1'"),
        (Point(10**400, 0.0), "agent_start.x of 1329 bits is beyond the float range"),
        (Point(0.0, -math.inf), "agent_start.y must be finite, got -inf"),
    ]
    for start, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            SimConfig(agent_start=start, r=0.5)
    start = Point(1, np.float64(0.5))
    assert repr(SimConfig(agent_start=start, r=0.5).agent_start) == repr(start)


def test_config_rejects_a_start_that_is_no_point():
    # a plain pair raised AttributeError: 'tuple' object has no attribute 'x'
    with pytest.raises(ValueError, match=re.escape("agent_start (0.0, 0.0) must be a Point, not tuple")):
        SimConfig(agent_start=(0.0, 0.0))
    with pytest.raises(ValueError, match="agent_start"):
        SimConfig(r=0.5)._replace(agent_start=[1.0, 2.0])


class TestSimulateInert:
    def test_hand_traced_case(self):
        # target (1,0), r=0.5: contact at (0.5, 0) on the fifth+partial leg
        out = simulate(static_plan(), inert(Point(1, 0)), SimConfig(r=0.5, max_diagonal=2))
        assert out.sensed
        assert out.cost == pytest.approx(2.5, abs=1e-9)
        assert (out.agent_pos.x, out.agent_pos.y) == pytest.approx((0.5, 0.0), abs=1e-9)
        assert out.diagonal == 1
        assert out.time == pytest.approx(2.5)  # unit speed: time == cost

    def test_initially_within_r(self):
        out = simulate(static_plan(), inert(Point(0, 0.3)), SimConfig(r=0.5, max_diagonal=1))
        assert out.sensed and out.cost == 0.0 and out.time == 0.0

    def test_budget_exhaustion(self):
        out = simulate(
            static_plan(), inert(Point(100, 0)), SimConfig(r=0.1, max_cost=10, max_diagonal=6)
        )
        assert not out.sensed
        assert out.cost == 10.0
        assert out.stop_reason == "cost_budget"

    def test_diagonal_budget(self):
        out = simulate(static_plan(), inert(Point(100, 0)), SimConfig(r=0.1, max_diagonal=1))
        assert not out.sensed
        assert out.stop_reason == "diagonal_budget"
        assert out.cost == pytest.approx(171.0)

    def test_determinism(self):
        cfg = SimConfig(r=0.3, max_diagonal=2)
        a = simulate(static_plan(), inert(Point(0.7, -0.4)), cfg)
        b = simulate(static_plan(), inert(Point(0.7, -0.4)), cfg)
        assert a == b

    def test_static_dynamic_share_geometry(self):
        # identical sensed position and cost; only the clock differs
        cfg = SimConfig(r=0.3, max_diagonal=3)
        for target in (Point(1, 0), Point(-0.8, 1.1), Point(2.4, 2.2)):
            s = simulate(static_plan(), inert(target), cfg)
            d = simulate(dynamic_plan(), inert(target), cfg)
            assert s.sensed and d.sensed
            assert s.cost == d.cost
            assert s.agent_pos == d.agent_pos
            assert d.time < s.time

    def test_sensing_boundary(self):
        # agent-target distance stays above r before the sensing time
        p = Point(1.3, -0.7)
        cfg = SimConfig(r=0.4, max_diagonal=2)
        out = simulate(static_plan(), inert(p), cfg)
        assert out.sensed and out.cost > 0
        dist_at_hit = math.hypot(*(out.agent_pos - p))
        assert dist_at_hit == pytest.approx(cfg.r, abs=1e-9)
        from planehunt.trajectory import prefix_polyline

        # sample 1000 earlier costs along the traversed prefix
        poly = prefix_polyline(out.cost)
        seglen = np.linalg.norm(np.diff(poly, axis=0), axis=1)
        cum = np.concatenate([[0.0], np.cumsum(seglen)])
        for arc in np.linspace(0, out.cost, 1000, endpoint=False):
            idx = int(np.searchsorted(cum, arc, side="right")) - 1
            idx = min(idx, len(seglen) - 1)
            frac = (arc - cum[idx]) / seglen[idx]
            pos = poly[idx] + frac * (poly[idx + 1] - poly[idx])
            assert math.hypot(pos[0] - p.x, pos[1] - p.y) > cfg.r - 1e-6

    def test_cost_additivity(self):
        out = simulate(static_plan(), inert(Point(1, 0)), SimConfig(r=0.5, max_diagonal=1))
        # five full legs (.25+.25+.5+.5+.75) plus a partial 0.25 of the sixth
        assert out.cost == pytest.approx(0.25 + 0.25 + 0.5 + 0.5 + 0.75 + 0.25, abs=1e-9)


def test_unsensed_hunt_memory_does_not_grow_with_the_diagonal():
    # 66 blocks up to 8(2^23 + 1) legs each, read through their closed forms
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        out = simulate(static_plan(), inert(Point(3000, 0)), SimConfig(r=0.01, max_diagonal=11))
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert elapsed < 1.0
    assert (out.sensed, out.stop_reason, out.diagonal) == (False, "diagonal_budget", 11)
    blocks = [params for i in range(1, 12) for params in diagonal_terms(i)]
    assert out.legs_processed == sum(8 * (params.k + 1) for params in blocks)
    cost = 0.0
    for params in blocks:
        cost += pi_length(params)
    assert out.cost == cost


class TestSimulateMoving:
    def test_flee_then_freeze_catch(self):
        strategy = radial_flee(Point(0, 0), Point(1, 0), v=1.0, t_freeze=1 / 64)
        out = simulate(dynamic_plan(), strategy, SimConfig(r=0.25, max_diagonal=4))
        assert out.sensed
        assert math.hypot(*(out.agent_pos - out.target_pos)) == pytest.approx(0.25, abs=1e-9)

    def test_target_moving_toward_agent(self):
        strategy = waypoints([Point(5, 0), Point(1, 0)], [0, 4], v=1.0)
        out = simulate(static_plan(), strategy, SimConfig(r=0.5, max_diagonal=3))
        assert out.sensed
        assert math.hypot(*(out.agent_pos - out.target_pos)) <= 0.5 + 1e-9

    def test_escaping_target_budget(self):
        # a fast fleeing target outruns the unit-speed searcher within budget
        strategy = radial_flee(Point(0, 0), Point(2, 0), v=5.0, t_freeze=100.0)
        out = simulate(static_plan(), strategy, SimConfig(r=0.1, max_cost=50.0))
        assert not out.sensed
        assert out.cost == pytest.approx(50.0)

    def test_trace_emission(self, tmp_path):
        path = tmp_path / "trace.txt"
        strategy = waypoints([Point(1, 0), Point(1, 0.5)], [0, 1], v=0.5)
        simulate(static_plan(), strategy, SimConfig(r=0.4, max_diagonal=2), trace=str(path))
        lines = path.read_text().strip().splitlines()
        assert lines
        for line in lines:
            parts = line.split()
            assert len(parts) == 7
            float(parts[0]), float(parts[1])  # t cost parse
            assert parts[6] in {"leg_start", "leg_end", "sense", "cost_budget"}
        assert lines[-1].split()[6] == "sense"

    @pytest.mark.parametrize(
        "strategy, cfg",
        [
            (inert(Point(3, 0.1)), SimConfig(r=0.1, max_cost=150.5, max_diagonal=3)),
            (inert(Point(0.7, -0.4)), SimConfig(r=0.3, max_diagonal=2)),
            (radial_flee(Point(0, 0), Point(0.7, 0.2), v=2.0, t_freeze=0.5 / 32),
             SimConfig(r=0.0625, max_diagonal=4)),
        ],
    )
    def test_trace_leaves_outcome_unchanged(self, tmp_path, strategy, cfg):
        path = tmp_path / "trace.txt"
        plain = simulate(dynamic_plan(), strategy, cfg)
        traced = simulate(dynamic_plan(), strategy, cfg, trace=str(path))
        assert traced == plain
        lines = [line.split() for line in path.read_text().splitlines()]
        assert sum(parts[6] == "leg_start" for parts in lines) == plain.legs_processed
        assert lines[-1][1] == f"{plain.cost:.12g}"


# (speed exponent, the first diagonal it fails on): 2^inf is inf and 2^nan nan;
# 2.0 ** 2000 raises OverflowError and 2.0 ** -2000 is 0; 2^(84 * 12) = 2^1008 is
# finite, but its velocity on the shortest leg, 2^1008 / 2^-24, is not; and
# 2^(-83 * 12) is positive, but the time walked by diagonal 12's end is not finite
UNUSABLE_PLANS = [(math.inf, 1), (math.nan, 1), (2000, 1), (-2000, 1), (84, 12), (-83, 12)]


@pytest.mark.parametrize("exponent, diagonal", UNUSABLE_PLANS)
@pytest.mark.parametrize("strategy", [
    inert(Point(3.0, 1.0)),
    radial_flee(Point(0.0, 0.0), Point(3.0, 1.0), 1.0, 0.5),
    inert(Point(0.1, 0.0)),  # within r of the start: the plan is checked before that return
], ids=["inert", "fleeing", "at-start"])
def test_an_unusable_plan_raises_before_the_walk(exponent, diagonal, strategy):
    # the moving loop solves pieces unchecked, so the block table rejects a plan whose
    # speeds, leg velocities or times leave the floats, naming the plan and the diagonal
    with pytest.raises(ValueError, match=rf"^plan 'x', diagonal {diagonal}: speed <= 0, NaN, or too big or small"):
        simulate(SearcherPlan("x", exponent), strategy, SimConfig(r=0.25, max_diagonal=2))


@pytest.mark.parametrize("exponent", [math.inf, math.nan, 2000, -2000])
def test_the_oracle_rejects_an_unusable_plan(exponent):
    # without the block table's check these gave sensed=True at time 0.0 (inf), a
    # time=nan outcome (nan), OverflowError (2000) and ZeroDivisionError (-2000)
    with pytest.raises(ValueError, match=r"^plan 'x', diagonal 1: speed <= 0, NaN, or too big or small"):
        brute_force_oracle(SearcherPlan("x", exponent), inert(Point(3.0, 1.0)), SimConfig(r=0.25, max_diagonal=2), 0.01)


def test_the_searchers_plans_are_usable():
    # and so are the plans one step inside the limits of UNUSABLE_PLANS
    for plan in (static_plan(), dynamic_plan(), SearcherPlan("x", 83), SearcherPlan("x", -82)):
        assert math.isfinite(engine._block_table(plan)[-1][-2])


class TestBruteForceOracle:
    def test_hand_traced_case(self):
        cfg = SimConfig(r=0.5, max_diagonal=2)
        out = brute_force_oracle(static_plan(), inert(Point(1, 0)), cfg, step=1e-5)
        assert out.sensed
        assert out.cost == pytest.approx(2.5, abs=1e-4)

    def test_target_at_start(self):
        cfg = SimConfig(r=0.2, max_diagonal=1)
        out = brute_force_oracle(static_plan(), inert(Point(0, 0)), cfg, step=1e-3)
        assert out.sensed and out.cost == 0.0

    @pytest.mark.parametrize("step", [0.0, -1e-3, math.nan, math.inf])
    def test_rejects_a_step_that_is_not_finite_and_positive(self, step):
        # a NaN step failed in int(), and an infinite one sampled no point: sensed=False at cost
        # 1318.75 here, where simulate senses at 2.5
        cfg = SimConfig(r=0.5, max_diagonal=2)
        with pytest.raises(ValueError, match=f"^step must be finite and positive, got {step}$"):
            brute_force_oracle(static_plan(), inert(Point(1.0, 0.0)), cfg, step)

    def test_agreement_on_randomized_inert_cases(self):
        rng = np.random.default_rng(5)
        step = 1e-4
        for _ in range(30):
            theta = rng.uniform(0, 2 * math.pi)
            rad = 1.2 * math.sqrt(rng.uniform())
            r = rng.uniform(0.3, 0.6)
            p = Point(rad * math.cos(theta), rad * math.sin(theta))
            cfg = SimConfig(r=r, max_diagonal=2)
            exact = simulate(static_plan(), inert(p), cfg)
            approx = brute_force_oracle(static_plan(), inert(p), cfg, step)
            assert exact.sensed == approx.sensed
            if exact.sensed:
                assert abs(exact.cost - approx.cost) <= 10 * step

    def test_moving_target_agreement(self):
        strategy = radial_flee(Point(0, 0), Point(0.8, 0.3), v=0.5, t_freeze=0.5)
        cfg = SimConfig(r=0.3, max_diagonal=2)
        exact = simulate(static_plan(), strategy, cfg)
        approx = brute_force_oracle(static_plan(), strategy, cfg, 1e-4)
        assert exact.sensed == approx.sensed
        assert abs(exact.cost - approx.cost) <= 1e-3

    def test_waypoint_targets_match_oracle(self):
        # moving targets that stop mid-block, caught on a moving leg or
        # after stopping, some cut by a budget while still moving
        cases = [
            # the budget ends on the first leg just short of contact
            (static_plan(), waypoints([Point(0.6, 0), Point(0.6, 0.01)], [0, 10], v=0.001),
             SimConfig(r=0.4, max_cost=0.1, max_diagonal=1)),
        ]
        rng = np.random.default_rng(21)
        for case in range(60):
            plan = (static_plan(), dynamic_plan())[case % 2]
            speed = plan.speed_of_diagonal(1)
            times = np.cumsum(np.concatenate([[0.0], rng.uniform(0.5, 6.0, rng.integers(1, 4))]))
            times /= speed
            pts = [Point(*rng.uniform(-1.5, 1.5, size=2)) for _ in times]
            v = max(math.hypot(*(b - a)) / (tb - ta) for a, b, ta, tb in zip(pts, pts[1:], times, times[1:]))
            max_cost = rng.uniform(0.3, 0.9) * times[-1] * speed if case % 3 == 0 else math.inf
            cfg = SimConfig(r=rng.uniform(0.1, 0.4), max_cost=max_cost, max_diagonal=2)
            cases.append((plan, waypoints(pts, times, v * (1 + 1e-9)), cfg))
        step = 1e-3
        seen = set()
        for plan, strategy, cfg in cases:
            exact = simulate(plan, strategy, cfg)
            approx = brute_force_oracle(plan, strategy, cfg, step)
            assert (exact.sensed, exact.stop_reason, exact.diagonal) == (
                approx.sensed, approx.stop_reason, approx.diagonal
            )
            assert abs(exact.cost - approx.cost) <= 10 * step
            if exact.cost > 0:
                seen.add((exact.stop_reason, exact.time < strategy.times[-1]))
        assert {("sensed", True), ("sensed", False), ("cost_budget", True)} <= seen

    def test_subnormal_breakpoint_interval_matches_oracle(self):
        # 1 / dt overflows for a subnormal dt, and 0 * inf made the catch NaN
        P = Point(0.03125, 0.125)
        cases = [
            (TargetStrategy(times=(0.0, 2.5e-323), points=(P, P), v=1.0), SimConfig(r=0.03125, max_diagonal=1)),
            (TargetStrategy(times=(0.0, 5e-324), points=(P, P), v=1.0), SimConfig(r=0.25, max_diagonal=1)),
            (TargetStrategy(times=(0.0, 2.5e-323), points=(P, Point(P.x, P.y + 5e-324)), v=1.0),
             SimConfig(r=0.127, max_diagonal=2)),
            (TargetStrategy(times=(0.0, 1e-320, 0.5), points=(P, P, Point(0.5, 0.125)), v=1.0),
             SimConfig(r=0.07, max_diagonal=2)),
        ]
        step = 1e-3
        for strategy, cfg in cases:
            exact = simulate(static_plan(), strategy, cfg)
            approx = brute_force_oracle(static_plan(), strategy, cfg, step)
            a, q = exact.agent_pos, exact.target_pos
            assert all(math.isfinite(x) for x in (exact.time, exact.cost, a.x, a.y, q.x, q.y))
            assert (exact.sensed, exact.stop_reason, exact.diagonal) == (
                approx.sensed, approx.stop_reason, approx.diagonal
            )
            assert abs(exact.cost - approx.cost) <= 10 * step
        # a target that never moves is hunted as the inert one
        still = simulate(static_plan(), cases[0][0], cases[0][1])
        assert still == simulate(static_plan(), inert(P), cases[0][1])

    def test_unsensed_outcomes_hold_python_floats(self):
        # repr compares types too: a numpy float in agent_pos would differ from simulate's
        cases = [
            (inert(Point(0.03125, 0.125)), SimConfig(r=0.03125, max_diagonal=1), "diagonal_budget"),
            (inert(Point(3, 3)), SimConfig(r=0.03125, max_cost=7.3), "cost_budget"),
        ]
        for strategy, cfg, stop in cases:
            approx = brute_force_oracle(static_plan(), strategy, cfg, step=1e-3)
            assert approx.stop_reason == stop
            assert repr(approx) == repr(simulate(static_plan(), strategy, cfg))

    def test_distances_whose_squares_leave_the_float_range(self):
        # as squares, 1e300 against r = 1e200 compares inf <= inf, and 2e-170 against 1e-170 compares 0 <= 0
        strategy, cfg = inert(Point(1e300, 0)), SimConfig(r=1e200, max_diagonal=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far = brute_force_oracle(static_plan(), strategy, cfg, 0.01)
        assert repr(far) == repr(simulate(static_plan(), strategy, cfg))
        assert (far.sensed, far.legs_processed, far.stop_reason) == (False, 72, "diagonal_budget")
        # the samples pass through (0.25, 0), 2e-170 from the target
        near = brute_force_oracle(static_plan(), inert(Point(0.25, 2e-170)), SimConfig(r=1e-170, max_diagonal=1), 0.01)
        assert (near.sensed, near.stop_reason) == (False, "diagonal_budget")

    def test_rejects_bad_step(self):
        cfg = SimConfig(r=0.5, max_diagonal=1)
        with pytest.raises(ValueError):
            brute_force_oracle(static_plan(), inert(Point(1, 0)), cfg, step=0.0)


def _full_block_scan(verts, lengths, cum, n, q_rel, r, arc_allowance):
    """Reference for the ring window: filter and quadratic on every leg from n."""
    verts, lengths, cum = verts[n:], lengths[n:], cum[n:]
    a = verts[:-1]
    d = verts[1:] - a
    len2 = lengths * lengths
    rel = q_rel - a
    tpar = np.einsum("ij,ij->i", rel, d) / len2
    np.clip(tpar, 0.0, 1.0, out=tpar)
    closest = a + tpar[:, None] * d
    dist2 = np.einsum("ij,ij->i", q_rel - closest, q_rel - closest)
    hits = np.nonzero(dist2 <= r * r)[0]
    cum_prev = cum - lengths
    for idx in hits:
        if cum_prev[idx] >= arc_allowance:
            break
        u = d[idx] / lengths[idx]
        ra = a[idx] - q_rel
        c0 = ra @ ra - r * r
        if c0 <= 0.0:
            arc = cum_prev[idx]
        else:
            bh = ra @ u
            disc = max(bh * bh - c0, 0.0)
            ell = -bh - math.sqrt(disc)
            ell = min(max(ell, 0.0), lengths[idx])
            arc = cum_prev[idx] + ell
        if arc <= arc_allowance:
            return arc, idx + n
    return None


class TestRingWindow:
    """The ring-windowed inert kernel returns the full scan's (arc, idx) bit for bit."""

    @staticmethod
    def _check(params, n, q, r, allowance=math.inf):
        q_rel = np.array(q, dtype=np.float64)
        block = pi_arrays(params.k, params.j)
        got = _first_contact_in_rings(params, n, q_rel, r, allowance)
        want = _full_block_scan(*block, n, q_rel, r, allowance)
        assert got == want, (params, n, q, r, allowance)
        return want

    def test_seeded_targets(self):
        rng = np.random.default_rng(404)
        blocks = [p for i in (1, 2, 3, 4) for p in diagonal_terms(i)]
        hits = 0
        for case in range(600):
            params = blocks[case % len(blocks)]
            step = 2.0 ** -params.j
            legs = 8 * (params.k + 1)
            q = rng.uniform(-1.1, 1.1, size=2) * (params.k + 1) * step
            r = float(2.0 ** -rng.integers(0, 9)) if case % 2 else float(rng.uniform(0.003, 3.0))
            n = 0 if case % 3 else int(rng.integers(0, legs + 1))
            hits += self._check(params, n, q, r) is not None
        assert 300 < hits < 600

    def test_dyadic_targets_exactly_r_from_a_leg(self):
        # targets at distance exactly r from leg starts, midpoints and ends,
        # on both sides, so many sit on ring boundaries; r spans step/4..3 step
        params = SpiralParams(6, 2)
        step = 2.0 ** -params.j
        verts = pi_arrays(params.k, params.j)[0][: 4 * (params.k + 1) + 1]
        touching = 0
        for r in (step / 4, step / 2, step, 3 * step):
            for a, b in zip(verts[:-1], verts[1:]):
                for p in (a, (a + b) / 2, b):
                    for off in ((r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r)):
                        hit = self._check(params, 0, p + off, r)
                        touching += hit is not None
                        self._check(params, 13, p + off, r)
        assert touching > 500

    def test_origin_and_ring_one(self):
        for params in (SpiralParams(8, 2), SpiralParams(16, 4), SpiralParams(1, 1)):
            step = 2.0 ** -params.j
            for q in ((0.0, 0.0), (step / 4, -step / 8), (-step / 2, step / 2), (step, -step)):
                for r in (step / 8, step / 2, 2 * step):
                    for n in (0, 1, 2, 3):
                        self._check(params, n, q, r)

    def test_radius_larger_than_step(self):
        rng = np.random.default_rng(8)
        params = SpiralParams(32, 4)
        step = 2.0 ** -params.j
        for _ in range(100):
            q = rng.uniform(-2.2, 2.2, size=2)
            self._check(params, int(rng.integers(0, 40)), q, float(rng.uniform(1.5, 40) * step))

    def test_budget_before_inside_and_after_the_window(self):
        rng = np.random.default_rng(77)
        params = SpiralParams(16, 2)
        step = 2.0 ** -params.j
        _, lengths, cum = pi_arrays(params.k, params.j)
        seen = set()
        for _ in range(120):
            q = rng.uniform(-4.0, 4.0, size=2)
            r = float(rng.uniform(0.05, 0.6))
            c = max(abs(q[0]), abs(q[1]))
            # outbound legs of the unpadded ring window
            m_lo = max(1, math.ceil(2 * (c - r) / step - 1))
            m_hi = min(2 * params.k + 2, math.floor(2 * (c + r) / step + 1))
            first, last = 2 * m_lo - 2, 2 * m_hi - 1
            hit = self._check(params, 0, q, r)
            budgets = [cum[first] - lengths[first] - step / 3, (cum[first] + cum[last]) / 2,
                       cum[last] + step / 3]
            if hit is not None:
                budgets += [hit[0], np.nextafter(hit[0], 0.0), cum[hit[1]] - lengths[hit[1]]]
            for allowance in budgets:
                got = self._check(params, 0, q, r, float(allowance))
                seen.add((got is None, allowance < hit[0] if hit else None))
        assert {(True, True), (False, False)} <= seen

    def test_targets_on_a_legs_line_with_signed_zeros(self):
        # every leg is axis-aligned, so the kernel takes r.u as +-rx or +-ry: targets on
        # a leg's line (the offset across the leg is zero) and level with its start (the
        # offset along it is zero), each zero coordinate as +0.0 and as -0.0, on both
        # halves of the block, scanned from n = 0 and from the leg itself
        for params in (SpiralParams(1, 1), SpiralParams(8, 2)):
            step = 2.0 ** -params.j
            for leg in range(8 * (params.k + 1)):
                (ax, ay), (bx, by) = pi_vertex(params, leg), pi_vertex(params, leg + 1)
                ux, uy = (bx > ax) - (bx < ax), (by > ay) - (by < ay)
                length = pi_leg_length(params, leg)
                targets = [(ax + ux * f * length, ay + uy * f * length) for f in (0.25, 0.5, 1.0)]
                targets += [(ax + uy * step / 2, ay + ux * step / 2), (ax - uy * step / 2, ay - ux * step / 2)]
                signed = [(x, y) for qx, qy in targets
                          for x in ((0.0, -0.0) if qx == 0.0 else (qx,))
                          for y in ((0.0, -0.0) if qy == 0.0 else (qy,))]
                for q in signed:
                    for r in (step / 8, step / 2):
                        self._check(params, 0, q, r)
                        self._check(params, leg, q, r)

    def test_target_at_infinity_is_never_sensed(self):
        for q in ((math.inf, 0.0), (math.nan, 1.0), (-math.inf, math.inf)):
            self._check(SpiralParams(4, 2), 0, q, 0.5)

    @pytest.mark.parametrize("plan", [static_plan(), dynamic_plan()])
    def test_simulate_matches_full_scan(self, plan, monkeypatch):
        # off-origin starts, cost budgets and flee-then-freeze targets
        rng = np.random.default_rng(31)
        cases = []
        for case in range(80):
            start = Point(*rng.uniform(-3.0, 3.0, size=2)) if case % 2 else Point(0.0, 0.0)
            q = start + Point(*rng.uniform(-6.0, 6.0, size=2))
            r = float(2.0 ** -rng.integers(1, 7))
            max_cost = float(rng.uniform(5.0, 3000.0)) if case % 3 == 0 else math.inf
            strategy = (
                radial_flee(start, q, float(rng.uniform(0.5, 8.0)), float(rng.uniform(0.001, 0.2)))
                if case % 4 == 1 else inert(q)
            )
            cases.append((strategy, SimConfig(agent_start=start, r=r, max_cost=max_cost, max_diagonal=4)))
        windowed = [simulate(plan, s, cfg) for s, cfg in cases]
        monkeypatch.setattr(engine, "_first_contact_in_rings", lambda p, *a: _full_block_scan(*pi_arrays(p.k, p.j), *a))
        full = [simulate(plan, s, cfg) for s, cfg in cases]
        assert windowed == full
        reasons = {out.stop_reason for out in windowed}
        assert {"sensed", "cost_budget"} <= reasons


class TestSideScan:
    """The scalar side scan against the full numpy scan, on the cases it treats apart."""

    _check = staticmethod(TestRingWindow._check)

    def test_sides_match_pi_arrays(self):
        # the closed-form leg ends the scan computes are the block's vertices
        for k, j in ((1, 1), (6, 2), (1024, 10)):
            verts, lengths, _ = pi_arrays(k, j)
            step, legs = 2.0 ** -j, 8 * (k + 1)
            for s in range(k + 1):
                for off, (axis, sign, c_line, sign0, c0, c1) in enumerate(_SIDES):
                    a, b = np.empty(2), np.empty(2)
                    a[axis] = b[axis] = sign * (s + c_line) * step
                    a[1 - axis], b[1 - axis] = sign0 * (s + c0) * step, -sign0 * (s + c1) * step
                    leg = 4 * s + off
                    assert (verts[leg] == a).all() and (verts[leg + 1] == b).all()
                    assert (verts[legs - leg] == a).all() and (verts[legs - 1 - leg] == b).all()
                    assert lengths[leg] == lengths[legs - 1 - leg] == abs(b - a).sum()

    def test_corner_region_targets(self):
        # targets near the four corner diagonals, inside and outside the block
        rng = np.random.default_rng(5)
        hits = 0
        for k, j in ((1024, 10), (64, 6), (16, 2), (2, 1)):
            step = 2.0 ** -j
            edge = (k + 1) * step
            for _ in range(150):
                t = rng.uniform(0.0, 1.3) * edge
                q = np.array([t, t]) * rng.choice([-1.0, 1.0], size=2)
                q += rng.normal(0.0, step) * rng.choice([0.0, 0.1, 1.0, 8.0])
                r = float(step * 2.0 ** rng.uniform(-3.0, 10.0))
                hits += self._check(SpiralParams(k, j), 0, q, r) is not None
                self._check(SpiralParams(k, j), int(rng.integers(0, 8 * (k + 1))), q, r)
        assert 100 < hits < 550

    def test_corner_near_misses(self):
        # a target just past an outer corner, within r of many corner lines
        params = SpiralParams(1024, 10)
        edge = (params.k + 1) * 2.0 ** -params.j
        for r in (1.0, 0.25, 2.0 ** -8):
            for frac in (0.65, 0.7, 0.71, 0.72, 0.9):
                for sx, sy in ((1, 1), (1, -1), (-1, -1), (-1, 1)):
                    q = (sx * (edge + frac * r), sy * (edge + frac * r))
                    self._check(params, 0, q, r)

    def test_corner_range_brackets_the_passing_corners(self):
        # every corner within r lies in the range, which is at most two
        # corners wider on each side: O(1) work on a near miss
        rng = np.random.default_rng(21)
        step = 2.0 ** -10
        for _ in range(400):
            x, y = rng.uniform(-2.0, 2.0, size=2)
            if rng.random() < 0.5:
                y = x + rng.normal(0.0, 0.5)
            r = float(step * 2.0 ** rng.uniform(-3.0, 10.0))
            first, last = _corner_range(x, y, step, r, 0, 1024)
            passing = [s for s in range(1025) if (x - s * step) ** 2 + (y - s * step) ** 2 <= r * r]
            if passing:
                assert first <= passing[0] and passing[-1] <= last
                assert passing[0] - first <= 2 and last - passing[-1] <= 2
            else:
                assert last - first <= 4

    def test_radius_from_an_eighth_step_to_1024_steps(self):
        rng = np.random.default_rng(13)
        for k, j in ((1024, 10), (256, 8), (32, 4), (4, 2)):
            params, step = SpiralParams(k, j), 2.0 ** -j
            for e in range(-3, 11):
                for _ in range(6):
                    q = rng.uniform(-1.2, 1.2, size=2) * (k + 1) * step
                    self._check(params, 0, q, step * 2.0 ** e)
                    self._check(params, 0, q, float(step * 2.0 ** (e + rng.random())))

    def test_start_leg_at_side_boundaries(self):
        # n just before, at and after the first hit and the legs 4s + off around it
        rng = np.random.default_rng(17)
        params = SpiralParams(32, 4)
        step, legs = 2.0 ** -params.j, 8 * (params.k + 1)
        seen = 0
        for _ in range(60):
            q = rng.uniform(-2.0, 2.0, size=2)
            r = float(step * 2.0 ** rng.uniform(-3.0, 4.0))
            hit = self._check(params, 0, q, r)
            if hit is None:
                continue
            seen += 1
            s = hit[1] % (legs // 2) // 4
            for n in {hit[1] - 1, hit[1], hit[1] + 1, *(4 * s + off for off in range(-1, 6))}:
                if 0 <= n <= legs:
                    self._check(params, n, q, r)
        assert seen > 30

    def test_budget_at_a_flagged_legs_start(self):
        rng = np.random.default_rng(29)
        params = SpiralParams(64, 6)
        _, lengths, cum = pi_arrays(params.k, params.j)
        seen = set()
        for _ in range(80):
            q = rng.uniform(-1.1, 1.1, size=2)
            r = float(rng.uniform(0.004, 0.3))
            n = int(rng.integers(0, 8 * (params.k + 1)))
            hit = self._check(params, n, q, r)
            if hit is None:
                continue
            start = cum[hit[1]] - lengths[hit[1]]
            for allowance in (start, np.nextafter(start, 0.0), np.nextafter(start, math.inf), hit[0]):
                got = self._check(params, n, q, r, float(allowance))
                seen.add(got is None)
        assert seen == {True, False}

    @staticmethod
    def _short_of_the_ends(params, off, s0, w, par_sign, delta):
        """(target, margin): a target on line s0 of side off, past the ends of the
        kept lines, with the nearest leg end w + 2 + delta steps short of it along
        the leg; margin is the drop rule's 1e-9 (u + w) at delta = 0."""
        k, step = params.k, 2.0 ** -params.j
        axis, sign, c_line, sign0, c0, c1 = _SIDES[off]
        hi = min(k, s0 + math.floor(w))  # the last kept line: the target lies on line s0
        c_end = c0 if (par_sign > 0) == (sign0 > 0) else c1
        u = hi + w + 2.0 + delta
        q = [0.0, 0.0]
        q[axis], q[1 - axis] = sign * (s0 + c_line) * step, par_sign * (u + c_end) * step
        return tuple(q), 1e-9 * (u + w)

    def test_targets_w_plus_two_steps_past_the_leg_ends(self):
        # every side, both signs of the parallel coordinate, both halves of the block,
        # w = r / step from 1/8 to 1024: the nearest leg end w + 2 steps short of the
        # target, a few ulps either way, at and past the rule's margin, 0.5 and 1 step
        # either way, and 2 and 3 steps nearer
        seen = set()
        for params, s0 in ((SpiralParams(64, 6), 3), (SpiralParams(1024, 10), 512)):
            step, legs = 2.0 ** -params.j, 8 * (params.k + 1)
            for e in range(-3, 11):
                w = 2.0 ** e
                for off in range(4):
                    for par_sign in (1.0, -1.0):
                        q0, margin = self._short_of_the_ends(params, off, s0, w, par_sign, 0.0)
                        axis = _SIDES[off][0]
                        targets = [q0]
                        for delta in (-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, margin, 2.0 * margin):  # -2: a corner r short
                            targets.append(self._short_of_the_ends(params, off, s0, w, par_sign, delta)[0])
                        for ulps in (-3, -1, 1, 3):  # along the leg, away from the end for ulps > 0
                            q = list(q0)
                            for _ in range(abs(ulps)):
                                q[1 - axis] = math.nextafter(q[1 - axis], par_sign * ulps * math.inf)
                            targets.append(tuple(q))
                        for q in targets:
                            for n in (0, 4 * s0 + off, legs // 2 + 1):
                                seen.add(self._check(params, n, q, w * step) is None)
        assert seen == {True, False}

    def test_a_side_past_the_margin_is_neither_scanned_nor_bracketed(self, monkeypatch):
        # the target lies on the outermost line of a side, and w < 2k + 1 keeps the
        # opposite side's lines farther than r, so that side alone can keep a line (the
        # other two sides' lines lie w + 1 + delta steps away); past the margin it is
        # dropped in O(1), and within it its corners are bracketed
        visits, brackets = [], []
        scan, bracket = engine._first_on_lines, engine._corner_range
        monkeypatch.setattr(engine, "_first_on_lines", lambda *a: visits.append(a) or scan(*a))
        monkeypatch.setattr(engine, "_corner_range", lambda *a: brackets.append(a) or bracket(*a))
        for params in (SpiralParams(64, 6), SpiralParams(1024, 10)):
            k, step = params.k, 2.0 ** -params.j
            for w in (2.0 ** e for e in range(-3, 11) if 2.0 ** e < 2 * k + 1):
                for off in range(4):
                    for par_sign in (1.0, -1.0):
                        for delta in (-1.0, 0.5, 1.0):
                            q, _ = self._short_of_the_ends(params, off, k, w, par_sign, delta)
                            visits.clear()
                            brackets.clear()
                            hit = _first_flagged(k, step, q, w * step, 0)
                            if delta < 0.0:
                                assert brackets, (params, off, q, w)
                                continue
                            assert hit is None and not visits and not brackets, (params, off, q, w, delta)

    def test_extreme_magnitudes(self):
        # r*r overflows or underflows; both scans' quadratics overflow alike
        params = SpiralParams(16, 4)
        with np.errstate(over="ignore", invalid="ignore"):
            for q in ((0.0, 0.0), (1e300, 0.0), (1e-300, -1e-300), (17 / 16, 1.0), (1e20, -1e20)):
                for r in (1e-300, 1e-20, 1e150, 1e200, 1e308):
                    for n in (0, 7, 136):
                        self._check(params, n, q, r)


class TestGate:
    """_may_flag rejects a block only where the ungated side scan visits no line."""

    BLOCKS = [p for i in range(1, 6) for p in diagonal_terms(i)]

    @pytest.fixture(autouse=True)
    def _record_visits(self, monkeypatch):
        # _first_flagged scans lines of every side it keeps, so no call means none was kept
        self.visits = []
        scan = engine._first_on_lines
        monkeypatch.setattr(engine, "_first_on_lines", lambda *a: self.visits.append(a) or scan(*a))

    def _check(self, params, q, r, kinds):
        k, step = params.k, 2.0 ** -params.j
        if _may_flag(k, step, q[0], q[1], r):
            return
        self.visits.clear()
        assert _first_flagged(k, step, q, r, 0) is None, (params, q, r)
        outside = max(abs(q[0]), abs(q[1])) > (k + 2) * step + r * (1.0 + 1e-9)
        # off the grid lines the side scan keeps no line at all
        assert outside or not self.visits, (params, q, r)
        kinds.append("extent" if outside else "grid")

    def test_seeded_targets(self):
        rng = np.random.default_rng(808)
        kinds = []
        for params in self.BLOCKS:
            step = 2.0 ** -params.j
            for case in range(300):
                q = rng.uniform(-1.3, 1.3, size=2) * (params.k + 2) * step
                r = float(2.0 ** -rng.integers(0, 14)) if case % 2 else float(rng.uniform(1e-4, 2.0))
                self._check(params, (float(q[0]), float(q[1])), r, kinds)
        assert kinds.count("extent") > 1000 and kinds.count("grid") > 400

    def test_targets_r_from_a_line_and_one_ulp_either_side(self):
        # x exactly r (and r one ulp either way, and r plus a sliver) from
        # the line x = m step, y between two lines; r dyadic and not
        rng = np.random.default_rng(9)
        kinds = []
        for params in self.BLOCKS:
            step, k = 2.0 ** -params.j, params.k
            for r in (step / 8, step / 4, 3 * step / 8, step * 0.1, step * float(rng.uniform(0.01, 0.49))):
                for m in (0, 1, -1, k // 2, -k, k + 1, k + 2, -(k + 3), int(rng.integers(-k - 3, k + 4))):
                    y = (int(rng.integers(-k - 2, k + 3)) + 0.5) * step
                    for side in (1.0, -1.0):
                        x = m * step + side * r
                        for near in (x, np.nextafter(x, -math.inf), np.nextafter(x, math.inf), x + side * step / 1024):
                            self._check(params, (float(near), y), r, kinds)
                            self._check(params, (y, float(near)), r, kinds)
        assert kinds.count("extent") > 1000 and kinds.count("grid") > 1500

    def test_radius_from_an_eighth_step_to_1024_steps(self):
        rng = np.random.default_rng(14)
        kinds = []
        for params in self.BLOCKS:
            step = 2.0 ** -params.j
            for e in range(-3, 11):
                for _ in range(8):
                    q = rng.uniform(-1.5, 1.5, size=2) * (params.k + 2) * step
                    self._check(params, (float(q[0]), float(q[1])), step * 2.0 ** e, kinds)
        assert kinds.count("extent") > 400 and kinds.count("grid") > 30

    def test_extreme_magnitudes_and_negative_zero(self):
        kinds = []
        targets = [(0.0, 0.0), (1e300, 0.0), (1e-300, -1e-300), (17 / 16, 1.0), (1e20, -1e20),
                   (-0.0, -0.0), (-0.0, 1e6), (3e5, -0.0), (-0.0, 0.5 + 2.0 ** -12), (2.0 ** -12, -0.0),
                   (0.3, -0.7), (-2 / 3, 5 / 7)]
        for params in self.BLOCKS:
            for q in targets:
                for r in (1e-300, 1e-20, 2.0 ** -14, 1e150, 1e200, 1e308):
                    self._check(params, q, r, kinds)
        assert kinds.count("extent") > 150 and kinds.count("grid") > 60


class TestReach:
    """_may_reach rejects a block only where the ungated side scan flags no leg."""

    BLOCKS = TestGate.BLOCKS

    def _check(self, params, q, r, kinds):
        k, step = params.k, 2.0 ** -params.j
        flagged = _first_flagged(k, step, q, r, 0) is not None
        if _may_reach(step, q[0], q[1], r):
            kinds.append("flagged" if flagged else "kept")
            return
        assert not flagged, (params, q, r)
        # "rejected" counts only the blocks that the grid gate lets through
        kinds.append("rejected" if _may_flag(k, step, q[0], q[1], r) else "gated")

    def test_seeded_targets(self):
        # every third target has y within r of a grid line
        rng = np.random.default_rng(909)
        kinds = []
        for params in self.BLOCKS:
            step = 2.0 ** -params.j
            for case in range(300):
                x, y = rng.uniform(-1.3, 1.3, size=2) * (params.k + 2) * step
                r = float(2.0 ** -rng.integers(0, 14)) if case % 2 else float(rng.uniform(1e-4, 2.0))
                if case % 3 == 0:
                    y = round(y / step) * step + rng.uniform(-r, r)
                self._check(params, (float(x), float(y)), r, kinds)
        assert kinds.count("rejected") > 100 and kinds.count("flagged") > 1000

    def test_targets_at_the_reach_bound_and_one_ulp_either_side(self):
        # |x| = |y| + step + 2r next to the line y = m step, then x and y
        # swapped; r dyadic and not
        rng = np.random.default_rng(10)
        kinds = []
        for params in self.BLOCKS:
            step, k = 2.0 ** -params.j, params.k
            for r in (step / 8, step / 4, 3 * step / 8, step * 0.1, step * float(rng.uniform(0.01, 0.49)), 1.5 * step):
                for m in (0, 1, -1, k // 2, -k, k + 1, -(k + 1), int(rng.integers(-k - 1, k + 2))):
                    for dy in (0.0, r, -r, r / 3):
                        y = m * step + dy
                        x = abs(y) + step + 2 * r
                        for near in (x, np.nextafter(x, 0.0), np.nextafter(x, math.inf), x + step / 1024):
                            for sx in (1.0, -1.0):
                                self._check(params, (sx * float(near), y), r, kinds)
                                self._check(params, (y, sx * float(near)), r, kinds)
        assert kinds.count("rejected") > 500 and kinds.count("kept") > 1000

    def test_targets_r_from_a_leg_end(self):
        # inside and just outside the disc of radius r around a block vertex
        rng = np.random.default_rng(11)
        kinds = []
        for params in self.BLOCKS:
            step, legs = 2.0 ** -params.j, 8 * (params.k + 1)
            for leg in (*range(9), *rng.integers(0, legs, size=12), legs - 1):
                vx, vy = pi_vertex(params, int(leg))
                for r in (step / 4, step * 0.1, step * float(rng.uniform(0.01, 0.49))):
                    for angle in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
                        for scale in (1.0 - 1e-9, 1.0 + 1e-9):
                            d = r * scale
                            q = (vx + d * math.cos(angle), vy + d * math.sin(angle))
                            self._check(params, q, r, kinds)
        assert kinds.count("flagged") > 20000 and kinds.count("kept") > 4000


def _sequential_walk(plan):
    """(diagonal, params, speed, cost, t, legs) at each block start, then the end, summed block by block."""
    starts, cost, t, legs = [], 0.0, 0.0, 0
    for i in range(1, MAX_DIAGONAL + 1):
        speed = plan.speed_of_diagonal(i)
        for params in diagonal_terms(i):
            starts.append((i, params, speed, cost, t, legs))
            cost += pi_length(params)
            t += pi_length(params) / speed
            legs += 8 * (params.k + 1)
    return starts, (cost, t, legs)


def _position_scan(strategy, t):
    """TargetStrategy.position as a linear scan of the breakpoints."""
    if t <= 0:
        return strategy.points[0]
    if t >= strategy.times[-1]:
        return strategy.points[-1]
    idx = 1
    while strategy.times[idx] < t:
        idx += 1
    t0, t1 = strategy.times[idx - 1], strategy.times[idx]
    frac = (t - t0) / (t1 - t0)
    p0, p1 = strategy.points[idx - 1], strategy.points[idx]
    d = p1 - p0
    return p0 + Point(d.x * frac, d.y * frac)


def _velocity_after(strategy, t):
    """Velocity of the segment after time t, by a linear scan; zero once inert."""
    if t >= strategy.times[-1]:
        return Point(0.0, 0.0)
    idx = 1
    while strategy.times[idx] <= t:
        idx += 1
    dt = strategy.times[idx] - strategy.times[idx - 1]
    d = strategy.points[idx] - strategy.points[idx - 1]
    inv = 1.0 / dt
    if math.isinf(inv):
        return Point(d.x / dt, d.y / dt)  # a subnormal dt
    return Point(d.x * inv, d.y * inv)


def _constant_velocity_pieces(strategy, t_start, t_end):
    """(ts, te, position at ts, velocity) covering [t_start, t_end], cut at every breakpoint inside."""
    bounds = [t for t in strategy.times if t_start < t < t_end]
    cut_times = [t_start] + bounds + [t_end]
    for ts, te in zip(cut_times, cut_times[1:]):
        yield ts, te, _position_scan(strategy, ts), _velocity_after(strategy, ts)


def _moving_legs(strategy, start, params, n, t, speed, r, arc_allowance):
    """Reference for the moving walk: first contact (arc, leg index) on the first n legs, or None.

    Every leg is cut into pieces by a scan of all the breakpoints.
    """
    for idx in range(n):
        arc0 = pi_arc_before(params, idx)
        if arc0 >= arc_allowance:
            return None
        t0 = t + arc0 / speed
        length = pi_leg_length(params, idx)
        (ax, ay), (bx, by) = pi_vertex(params, idx), pi_vertex(params, idx + 1)
        vel = Point((bx - ax) * (speed / length), (by - ay) * (speed / length))
        pos = Point(float(start[0] + ax), float(start[1] + ay))
        leg_dt = min(length, arc_allowance - arc0) / speed
        for ts, te, tgt_pos, w in _constant_velocity_pieces(strategy, t0, t0 + leg_dt):
            hit = first_contact_time(pos + Point(vel.x * (ts - t0), vel.y * (ts - t0)), vel, tgt_pos, w, r, te - ts)
            if hit is not None:
                return arc0 + speed * (ts + hit - t0), idx
    return None


class _Trace:
    """The reference tracer: the walk calls it in the loop, and it writes `t cost ax ay tx ty event` lines."""

    def __init__(self, sink):
        self._own = isinstance(sink, str)
        self._fh = open(sink, "w") if self._own else sink

    def emit(self, t, cost, agent, tgt, event):
        self._fh.write(
            f"{t:.12g} {cost:.12g} {agent.x:.12g} {agent.y:.12g} "
            f"{tgt.x:.12g} {tgt.y:.12g} {event}\n"
        )

    def close(self):
        if self._own:
            self._fh.close()


def _trace_block(tracer, strategy, start, params, t, cost, speed, stop=None):
    """leg_start/leg_end lines for one block walked from its start.

    stop = (arc, idx, agent xy, sensed) ends the walk inside leg idx with
    a sense line, or with leg_end and cost_budget lines.
    """
    sx, sy = start

    def emit(arc, xy, event):
        at = float(t + arc / speed)
        agent = Point(float(xy[0]), float(xy[1]))
        tracer.emit(at, cost + arc, agent, strategy.position(at), event)

    def vertex(leg):
        x, y = pi_vertex(params, leg)
        return sx + x, sy + y

    walked = 8 * (params.k + 1) if stop is None else stop[1]
    for leg in range(walked):
        emit(pi_arc_before(params, leg), vertex(leg), "leg_start")
        emit(pi_arc_before(params, leg + 1), vertex(leg + 1), "leg_end")
    if stop is not None:
        arc, idx, xy, sensed = stop
        emit(pi_arc_before(params, idx), vertex(idx), "leg_start")
        if not sensed:
            emit(arc, xy, "leg_end")
        emit(arc, xy, "sense" if sensed else "cost_budget")


def _kernel_on_every_block(plan, strategy, cfg, tracer=None):
    """The walk before the block table: running sums, _moving_legs, and the inert kernel on every block."""
    sx, sy = float(cfg.agent_start.x), float(cfg.agent_start.y)
    start = (sx, sy)
    final = strategy.points[-1]
    q_rel = (float(final.x) - sx, float(final.y) - sy)
    t_still = strategy.times[-1]
    r = cfg.r

    def outcome(sensed, t, cost, agent, tgt, diagonal, legs, reason):
        return SimOutcome(bool(sensed), float(t), float(cost), agent, tgt, int(diagonal), int(legs), reason)

    tgt0 = strategy.position(0.0)
    if math.hypot(*(tgt0 - cfg.agent_start)) <= r:
        if tracer:
            tracer.emit(0.0, 0.0, cfg.agent_start, tgt0, "sense")
        return outcome(True, 0.0, 0.0, cfg.agent_start, tgt0, 0, 0, "sensed")
    cost, t, legs = 0.0, 0.0, 0
    for i in range(1, cfg.max_diagonal + 1):
        speed = plan.speed_of_diagonal(i)
        for params in diagonal_terms(i):
            block_legs, block_len = 8 * (params.k + 1), pi_length(params)
            allowance = cfg.max_cost - cost
            n, hit = 0, None
            if t < t_still:
                n = bisect_left(range(block_legs), t_still, key=lambda L: t + pi_arc_before(params, L) / speed)
                hit = _moving_legs(strategy, start, params, n, t, speed, r, allowance)
            if hit is None:
                hit = engine._first_contact_in_rings(params, n, q_rel, r, allowance)
            sensed = hit is not None
            if sensed or block_len >= allowance:
                arc, idx = hit if sensed else (allowance, bisect_left(
                    range(block_legs), allowance, key=lambda L: pi_arc_before(params, L + 1)))
                (ax, ay), (bx, by) = pi_vertex(params, idx), pi_vertex(params, idx + 1)
                frac = (arc - pi_arc_before(params, idx)) / pi_leg_length(params, idx)
                xy = (float(sx + (ax + frac * (bx - ax))), float(sy + (ay + frac * (by - ay))))
                t_stop = float(t + arc / speed)
                if tracer:
                    _trace_block(tracer, strategy, start, params, t, cost, speed, (arc, idx, xy, sensed))
                stop_cost = cost + arc if sensed else cfg.max_cost
                reason = "sensed" if sensed else "cost_budget"
                return outcome(sensed, t_stop, stop_cost, Point(*xy), strategy.position(t_stop), i,
                               legs + idx + 1, reason)
            if tracer:
                _trace_block(tracer, strategy, start, params, t, cost, speed)
            cost += block_len
            t += block_len / speed
            legs += block_legs
    return outcome(False, t, cost, cfg.agent_start, strategy.position(t), cfg.max_diagonal, legs, "diagonal_budget")


PLANS = {"static": static_plan(), "dynamic": dynamic_plan()}


@st.composite
def _hunts(draw):
    """A plan, a target strategy and a config that lands on the walk's gates and budgets."""
    plan = PLANS[draw(st.sampled_from(sorted(PLANS)))]
    max_diagonal = draw(st.integers(1, 4))
    blocks = [p for i in range(1, max_diagonal + 1) for p in diagonal_terms(i)]
    params = draw(st.sampled_from(blocks))
    step, k = 2.0 ** -params.j, params.k
    r = draw(st.one_of(st.sampled_from([step / 8, step / 4, 3 * step / 8, step * 0.1, step, 4 * step]),
                       st.floats(0.003, 2.0)))
    start = Point(0.0, 0.0)
    if draw(st.booleans()):
        start = Point(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    kind = draw(st.sampled_from(["line", "extent", "free"]))
    if kind == "line":
        # x exactly r from a line x = m step, one ulp either side, or a sliver past it (TestGate)
        m = draw(st.integers(-k - 3, k + 3))
        x = m * step + draw(st.sampled_from([1.0, -1.0])) * r
        y = (draw(st.integers(-k - 2, k + 2)) + 0.5) * step
    elif kind == "extent":
        # |x| at the extent test's bound (k + 2) step + r (1 + 1e-9)
        x = draw(st.sampled_from([1.0, -1.0])) * ((k + 2) * step + r * (1.0 + 1e-9))
        y = draw(st.floats(-1.0, 1.0)) * (k + 2) * step
    else:
        x, y = (draw(st.floats(-1.3, 1.3)) * (k + 2) * step for _ in range(2))
    x = draw(st.sampled_from([x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf), x + step / 1024]))
    x, y = (y, x) if draw(st.booleans()) else (x, y)
    q = start + Point(x, y)
    starts, _ = _sequential_walk(plan)
    i_block, _, speed, cost, t, _ = starts[blocks.index(params)]
    block_time = pi_length(params) / speed
    if draw(st.booleans()):
        # flee then freeze, inert from a time inside a block
        t_freeze = t + draw(st.floats(1e-3, 1.0)) * block_time
        v = draw(st.floats(0.5, 8.0))
        # radial_flee needs a flee direction: q away from the start
        strategy = radial_flee(start, q, v, t_freeze) if math.hypot(*(q - start)) > 1e-9 else inert(q)
    else:
        strategy = inert(q)
    max_cost = math.inf
    if draw(st.booleans()):
        # a budget that runs out inside the chosen block, gated out or not
        max_cost = cost + draw(st.floats(0.0, 1.0, exclude_min=True)) * pi_length(params)
    return plan, strategy, SimConfig(agent_start=start, r=r, max_cost=max_cost, max_diagonal=max_diagonal)


class TestBlockTable:
    @pytest.mark.parametrize("plan", PLANS.values(), ids=PLANS.keys())
    def test_rows_equal_a_sequential_walk(self, plan):
        rows = engine._block_table(plan)
        starts, end = _sequential_walk(plan)
        assert len(rows) == len(starts) + 1
        for row, (i, params, speed, cost, t, legs) in zip(rows, starts):
            assert row[:2] == (i, params)
            assert row[2:8] == (params.j // 2, 2.0 ** -params.j, (params.k + 2) * 2.0 ** -params.j, speed,
                                8 * (params.k + 1), pi_length(params))
            assert row[-3:] == (cost, t, legs)
            assert (type(row[-3]), type(row[-2]), type(row[-1])) == (float, float, int)
        assert rows[-1][-3:] == end
        # the rows for diagonals 1..m come first, then where diagonal m ends
        for m in range(1, MAX_DIAGONAL + 1):
            assert {row[0] for row in rows[: m * (m + 1) // 2]} == set(range(1, m + 1))
            assert rows[m * (m + 1) // 2][0] in (m + 1, None)

    def test_built_once_per_plan(self):
        assert engine._block_table(static_plan()) is engine._block_table(static_plan())
        assert engine._block_table(dynamic_plan()) is not engine._block_table(static_plan())


class TestGatedWalk:
    """simulate equals the walk that ran the inert kernel on every block, outcome and trace."""

    @given(_hunts())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_kernel_on_every_block(self, hunt):
        plan, strategy, cfg = hunt
        want = _kernel_on_every_block(plan, strategy, cfg)
        # repr: equal bits and types, and NaN equals NaN
        assert repr(simulate(plan, strategy, cfg)) == repr(want)

    @given(_hunts())
    @settings(max_examples=40, deadline=None)
    def test_trace_matches(self, hunt):
        plan, strategy, cfg = hunt
        cfg = SimConfig(agent_start=cfg.agent_start, r=cfg.r, max_cost=cfg.max_cost, max_diagonal=min(cfg.max_diagonal, 2))
        want_sink, got_sink = io.StringIO(), io.StringIO()
        want = _kernel_on_every_block(plan, strategy, cfg, _Trace(want_sink))
        assert repr(simulate(plan, strategy, cfg, trace=got_sink)) == repr(want)
        assert got_sink.getvalue() == want_sink.getvalue()

    def test_budget_inside_a_gated_out_block(self):
        # blocks the gates skip, with the budget running out inside each
        plan, q, r = static_plan(), Point(2.3, -0.71), 0.01
        caught = simulate(plan, inert(q), SimConfig(r=r, max_diagonal=4))
        starts, _ = _sequential_walk(plan)
        skipped = 0
        for i, params, speed, cost, t, legs in starts:
            if cost + pi_length(params) >= caught.cost:
                break
            step = 2.0 ** -params.j
            if _may_flag(params.k, step, q.x, q.y, r) and engine._may_reach(step, q.x, q.y, r):
                continue
            skipped += 1
            for frac in (1e-9, 0.5, 1.0 - 1e-9, 1.0):
                cfg = SimConfig(r=r, max_cost=cost + frac * pi_length(params), max_diagonal=4)
                out = simulate(plan, inert(q), cfg)
                assert out == _kernel_on_every_block(plan, inert(q), cfg)
                assert out.stop_reason == "cost_budget" and (frac == 1.0 or out.diagonal == i)
        assert skipped >= 6


def _circling(plan, radius, max_diagonal, still_frac=1.0):
    """A waypoint target circling the start three times, and cut arcs that fall inside its pieces.

    Its breakpoints are 0 and 5e-324 (a subnormal interval, where it
    stands still), every other leg start of diagonals 1..max_diagonal
    exactly, and a point inside every third leg; it stops at the last of
    the first still_frac of them.  Each cut is the cost 3/16 into a leg
    whose breakpoint inside lies 3/8 into it.
    """
    rows = engine._block_table(plan)[: max_diagonal * (max_diagonal + 1) // 2]
    times, cuts = [0.0, 5e-324], []
    for _, params, _, _, _, speed, block_legs, _, cost, t, _ in rows:
        for leg in range(block_legs):
            arc0, length = pi_arc_before(params, leg), pi_leg_length(params, leg)
            if leg % 2 == 0:
                times.append(t + arc0 / speed)
            if leg % 3 == 1:
                times.append(t + (arc0 + 0.375 * length) / speed)
                cuts.append(cost + arc0 + 0.1875 * length)
    times = sorted(set(times))
    times = times[: int(len(times) * still_frac)]
    omega = 6.0 * math.pi / times[-1]
    points = [Point(radius * math.cos(omega * t), radius * math.sin(omega * t)) for t in times]
    points[1] = points[0]
    return waypoints(points, times, radius * omega * 1.01), cuts


class TestMovingWalk:
    """The forward breakpoint walk equals the per-leg scan of every breakpoint, outcome and trace."""

    # (plan, radius, r, still_frac, cut, stop): a contact while the target
    # moves, a cost budget cut inside a piece (an index into the cuts, or
    # just before that contact, inside its leg), and a target that stops
    # inside a block
    HUNTS = [
        pytest.param("static", 1.3, 0.003, 1.0, None, "sensed", id="static-contact-while-moving"),
        pytest.param("dynamic", 1.3, 0.003, 1.0, None, "sensed", id="dynamic-contact-while-moving"),
        pytest.param("static", 2.2, 0.003, 1.0, -7, "cost_budget", id="static-cut-inside-a-piece"),
        pytest.param("dynamic", 2.2, 0.003, 1.0, -7, "cost_budget", id="dynamic-cut-inside-a-piece"),
        pytest.param("static", 1.3, 0.003, 1.0, "contact", "cost_budget", id="static-cut-before-contact"),
        pytest.param("dynamic", 1.3, 0.003, 1.0, "contact", "cost_budget", id="dynamic-cut-before-contact"),
        pytest.param("static", 2.2, 0.003, 0.6, None, "diagonal_budget", id="static-stops-inside-a-block"),
        pytest.param("dynamic", 1.3, 0.003, 0.6, None, "diagonal_budget", id="dynamic-stops-inside-a-block"),
    ]

    @pytest.mark.parametrize("name, radius, r, still_frac, cut, stop", HUNTS)
    def test_matches_the_scan_of_every_breakpoint(self, name, radius, r, still_frac, cut, stop):
        plan = PLANS[name]
        strategy, cuts = _circling(plan, radius, 3, still_frac)
        assert len(strategy.times) >= 1000
        # 0 * (1 / 5e-324) would make the first piece's velocity NaN
        assert strategy.times[1] == 5e-324 and strategy.points[1] == strategy.points[0]
        if cut == "contact":
            caught = _kernel_on_every_block(plan, strategy, SimConfig(r=r, max_diagonal=3))
            max_cost = caught.cost * (1.0 - 1e-9)
        else:
            max_cost = math.inf if cut is None else cuts[cut]
        cfg = SimConfig(r=r, max_cost=max_cost, max_diagonal=3)
        want_sink, got_sink = io.StringIO(), io.StringIO()
        want = _kernel_on_every_block(plan, strategy, cfg, _Trace(want_sink))
        assert repr(simulate(plan, strategy, cfg)) == repr(want)
        assert repr(simulate(plan, strategy, cfg, trace=got_sink)) == repr(want)
        assert got_sink.getvalue() == want_sink.getvalue()
        assert want.stop_reason == stop
        if stop != "diagonal_budget":
            assert want.time < strategy.times[-1]  # stopped while the target moves
        if cut == "contact":
            assert want.legs_processed == caught.legs_processed  # cut inside the contact's leg
        if cut is not None:
            assert want.cost == max_cost


class TestReachImpliesGridLine:
    """Wherever _may_reach keeps a term, the grid-line test keeps it too, so the walk gates on _may_reach alone."""

    STEPS = [2.0 ** -(2 * t) for t in range(1, MAX_DIAGONAL + 1)]

    def _check(self, step, qx, qy, r):
        if _may_reach(step, qx, qy, r):
            assert _near_grid_line(step, qx, qy, r), (step, qx, qy, r)
            return True
        return False

    def test_seeded_targets(self):
        rng = np.random.default_rng(1515)
        kept = 0
        for _ in range(50_000):
            step = self.STEPS[rng.integers(len(self.STEPS))]
            r = step * 2.0 ** float(rng.uniform(-6.0, 4.0))
            qx, qy = rng.uniform(-40.0, 40.0, size=2) * step
            if rng.integers(2):
                qy = round(qy / step) * step + rng.uniform(-r, r)  # near a line y = m step
            if rng.integers(2):
                qx, qy = qy, qx
            kept += self._check(step, float(qx), float(qy), r)
        assert kept > 10_000

    def test_edge_inputs(self):
        kept = 0
        for step in self.STEPS:
            mags = [0.0, 5e-324, 1e-300, step / 2, step, 3 * step, 1.0, 2.0 ** 13, 1e150, 1e300]
            for r in (5e-324, 1e-300, step / 8, step * 0.1, step, 4 * step, 1.0, 1e150, 1e200, 1e308):
                near = [m * step + d for m in (0, 1, 7) for d in (r, -r, math.nextafter(r, 0.0), r * (1 + 1e-9))]
                values = mags + near
                values += [-v for v in values]
                for qx in values:
                    for qy in values:
                        kept += self._check(step, qx, qy, r)
        assert kept > 100_000


def _trace_lines(out):
    """The lines a trace of the walk that ended in out has."""
    return 1 if out.legs_processed == 0 else 2 * out.legs_processed + (out.stop_reason == "cost_budget")


class TestTraceBudget:
    """simulate counts a trace's lines from the outcome and refuses one past MAX_TRACE_LINES before writing."""

    @given(_hunts())
    @settings(max_examples=40, deadline=None)
    def test_line_count_matches_the_reference_trace(self, hunt):
        plan, strategy, cfg = hunt
        cfg = SimConfig(agent_start=cfg.agent_start, r=cfg.r, max_cost=cfg.max_cost, max_diagonal=min(cfg.max_diagonal, 2))
        sink = io.StringIO()
        out = _kernel_on_every_block(plan, strategy, cfg, _Trace(sink))
        lines = sink.getvalue().count("\n")
        assert lines == _trace_lines(out)
        # the budget admits exactly that many lines
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "MAX_TRACE_LINES", lines)
            got = io.StringIO()
            assert repr(simulate(plan, strategy, cfg, trace=got)) == repr(out)
            assert got.getvalue() == sink.getvalue()
            mp.setattr(engine, "MAX_TRACE_LINES", lines - 1)
            untouched = io.StringIO()
            with pytest.raises(ValueError, match="MAX_TRACE_LINES"):
                simulate(plan, strategy, cfg, trace=untouched)
            assert untouched.getvalue() == ""

    def test_sensed_at_the_start_is_one_line(self):
        sink = io.StringIO()
        out = simulate(static_plan(), inert(Point(0.1, 0.0)), SimConfig(r=0.5, max_diagonal=1), trace=sink)
        assert (out.legs_processed, _trace_lines(out)) == (0, 1)
        assert sink.getvalue() == "0 0 0 0 0.1 0 sense\n"

    def test_over_the_budget_raises_before_the_path_is_opened(self, tmp_path):
        # sensed after 178,874,446 legs, in well under a millisecond untraced
        path = tmp_path / "trace.txt"
        cfg = SimConfig(r=0.01, max_diagonal=12)
        out = simulate(static_plan(), inert(Point(3000.0, 0.0)), cfg)
        assert out.sensed and out.legs_processed == 178_874_446
        assert _trace_lines(out) > engine.MAX_TRACE_LINES
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="MAX_TRACE_LINES"):
            simulate(static_plan(), inert(Point(3000.0, 0.0)), cfg, trace=str(path))
        assert time.perf_counter() - t0 < 1.0
        assert not path.exists()

    def test_a_path_object_writes_the_bytes_of_its_string(self, tmp_path):
        # an os.PathLike trace raised AttributeError ('PosixPath' has no write) after the walk
        cfg = SimConfig(r=0.5, max_diagonal=2)
        by_str, by_path = tmp_path / "str.txt", tmp_path / "path.txt"
        out = simulate(static_plan(), inert(Point(1.0, 0.0)), cfg, trace=str(by_str))
        assert repr(simulate(static_plan(), inert(Point(1.0, 0.0)), cfg, trace=by_path)) == repr(out)
        assert by_path.read_bytes() == by_str.read_bytes() != b""
        over = tmp_path / "over.txt"
        with pytest.raises(ValueError, match="MAX_TRACE_LINES"):
            simulate(static_plan(), inert(Point(3000.0, 0.0)), SimConfig(r=0.01, max_diagonal=12), trace=over)
        assert not over.exists()


class TestOverflowingRadius:
    """r*r == inf: where |q|^2 overflows too, every contact quadratic is NaN and the walk skips the kernel."""

    TARGETS = [
        inert(Point(1e300, 0.0)),
        inert(Point(-1e200, 1e200)),
        inert(Point(1.5e154, 1e-3)),
        # ends within r = 1e200 of the start, with a square that overflows
        waypoints([Point(1e250, 0.0), Point(1e155, 0.0)], [0.0, 1e-3], 1e254),
    ]

    @pytest.mark.parametrize("plan", PLANS.values(), ids=PLANS.keys())
    @pytest.mark.parametrize("strategy", TARGETS)
    def test_matches_the_kernel_on_every_block(self, plan, strategy):
        for max_diagonal in (1, 2, 3):
            cfg = SimConfig(r=1e200, max_diagonal=max_diagonal)
            assert repr(simulate(plan, strategy, cfg)) == repr(_kernel_on_every_block(plan, strategy, cfg))

    def test_only_r_squared_overflows(self):
        # r*r is inf and |q|^2 is not: every block passes the extent test,
        # and the inert kernel runs from the leg boundary t = 0.25 on
        strategy = waypoints([Point(1e250, 0.0), Point(1e150, 0.0)], [0.0, 0.25], 1e254)
        cfg = SimConfig(r=1e200, max_diagonal=1)
        out = simulate(static_plan(), strategy, cfg)
        assert (out.sensed, out.time, out.cost, out.agent_pos) == (True, 0.25, 0.25, Point(0.25, 0.0))
        assert (out.legs_processed, out.stop_reason) == (2, "sensed")
        assert repr(out) == repr(_kernel_on_every_block(static_plan(), strategy, cfg))
        # the oracle counts the contact at leg 0's end
        want = brute_force_oracle(static_plan(), strategy, cfg, 1e-3)
        assert (want.sensed, want.time, want.cost, want.legs_processed) == (True, 0.25, 0.25, 1)
        assert (want.agent_pos, want.target_pos) == (out.agent_pos, out.target_pos)

    def test_the_default_budget_finishes_fast(self):
        # every block reached the kernel: 0.05 s at diagonal 4, 15 s at 8,
        # about an hour at 12
        for max_diagonal in (8, MAX_DIAGONAL):
            t0 = time.perf_counter()
            out = simulate(static_plan(), inert(Point(1e300, 0.0)), SimConfig(r=1e200, max_diagonal=max_diagonal))
            assert time.perf_counter() - t0 < 1.0
            assert (out.sensed, out.diagonal, out.stop_reason) == (False, max_diagonal, "diagonal_budget")


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="r*r and |a - q|^2 both overflow: the kernel gives up")
def test_a_target_within_r_is_sensed_where_both_squares_overflow():
    # the target stops 1e155 from the start, far inside r = 1e200, and the searcher returns to the start
    strategy = waypoints([Point(1e250, 0.0), Point(1e155, 0.0)], [0.0, 1e-3], 1e254)
    assert simulate(static_plan(), strategy, SimConfig(r=1e200, max_diagonal=12)).sensed


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="r*r and |a - q|^2 both underflow: 0 - 0 <= 0")
def test_a_target_farther_than_r_is_not_sensed_where_both_squares_underflow():
    # the first leg runs along y = 0, whose closest approach 2e-170 exceeds r = 1e-170
    out = simulate(static_plan(), inert(Point(0.25, 2e-170)), SimConfig(r=1e-170, max_diagonal=1))
    assert not out.sensed


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="the moving loop forms a piece's arc from absolute times")
def test_a_still_target_declared_moving_is_hunted_as_the_inert_one():
    # under the dynamic plan the clock nears q = 6.7, where an ulp is 2^-50, and the loop
    # forms each piece's horizon and contact arc as differences of absolute times (end - ts,
    # ts + hit - t0): the arc is quantized to 2^(5i - 50), and on diagonal 8 the cost is
    # 2.4e-5 off.  At P = (-2.9, 4.05) and r = 2^-15 the hunt senses 205 r from the target
    # on diagonal 9, but takes 17 s; the static plan hunts both to the same bits
    p, cfg = Point(1.1, -7.4), SimConfig(r=2.0 ** -13, max_diagonal=12)
    still = waypoints([p, p], [0.0, 100.0], 1.0)
    assert repr(simulate(dynamic_plan(), still, cfg)) == repr(simulate(dynamic_plan(), inert(p), cfg))


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="r*r and |q0 - p0|^2 both overflow: disc is NaN")
def test_first_contact_time_takes_a_start_within_r_where_both_squares_overflow():
    # the target stands 1e155 from the searcher, far inside r = 1e200
    assert first_contact_time(Point(0, 0), Point(0, 0), Point(1e155, 0), Point(0, 0), 1e200, 1.0) == 0.0


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="r*r and the closest square both underflow: 0 <= 0")
def test_first_contact_time_finds_no_contact_where_both_squares_underflow():
    # the searcher passes the target at t = 0.5, 2e-170 away, beyond r = 1e-170
    assert first_contact_time(Point(0, 0), Point(1, 0), Point(0.5, 2e-170), Point(0, 0), 1e-170, 1.0) is None


class TestNumpyFloatConfig:
    """A numpy float32 r or max_cost hunts as the Python float of its value, not in float32."""

    def test_a_float32_radius(self):
        # in float32, r * r rounds up and senses the target 1.7e-5 beyond r
        r = np.float32(0.15892547369003296)
        strategy = inert(Point(-5.8501720942015805, 5.558939790995723))
        cfg = SimConfig(r=r, max_diagonal=8)
        assert type(cfg.r) is float and cfg.r == r
        want = simulate(static_plan(), strategy, SimConfig(r=float(r), max_diagonal=8))
        assert repr(simulate(static_plan(), strategy, cfg)) == repr(want)

    def test_a_float32_budget(self):
        # in float32, max_cost - cost rounds the cut, and the stop lands 9e-16 off the budget's point
        max_cost = np.float32(2848.542)
        strategy = inert(Point(-7.311780282316228, 5.566728670062528))
        cfg = SimConfig(r=0.01, max_cost=max_cost, max_diagonal=8)
        assert type(cfg.max_cost) is float and cfg.max_cost == max_cost
        want = simulate(static_plan(), strategy, SimConfig(r=0.01, max_cost=float(max_cost), max_diagonal=8))
        assert want.stop_reason == "cost_budget"
        assert repr(simulate(static_plan(), strategy, cfg)) == repr(want)
