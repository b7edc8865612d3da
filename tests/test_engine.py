import math

import numpy as np
import pytest

from planehunt.engine import SimConfig, brute_force_oracle, simulate
from planehunt.geometry import Point
from planehunt.searcher import dynamic_plan, static_plan
from planehunt.target import inert, radial_flee, waypoints


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(r=0.0, max_diagonal=1)
    with pytest.raises(ValueError):
        SimConfig(r=1.0)  # no budget at all
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
        dist_at_hit = (out.agent_pos - p).norm()
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


class TestSimulateMoving:
    def test_flee_then_freeze_catch(self):
        strategy = radial_flee(Point(0, 0), Point(1, 0), v=1.0, t_freeze=1 / 64)
        out = simulate(dynamic_plan(), strategy, SimConfig(r=0.25, max_diagonal=4))
        assert out.sensed
        assert (out.agent_pos - out.target_pos).norm() == pytest.approx(0.25, abs=1e-9)

    def test_target_moving_toward_agent(self):
        strategy = waypoints([Point(5, 0), Point(1, 0)], [0, 4], v=1.0)
        out = simulate(static_plan(), strategy, SimConfig(r=0.5, max_diagonal=3))
        assert out.sensed
        assert (out.agent_pos - out.target_pos).norm() <= 0.5 + 1e-9

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
            v = max((b - a).norm() / (tb - ta) for a, b, ta, tb in zip(pts, pts[1:], times, times[1:]))
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

    def test_rejects_bad_step(self):
        cfg = SimConfig(r=0.5, max_diagonal=1)
        with pytest.raises(ValueError):
            brute_force_oracle(static_plan(), inert(Point(1, 0)), cfg, step=0.0)
