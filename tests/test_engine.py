import math

import numpy as np
import pytest

from planehunt import engine
from planehunt.engine import (
    _SIDES,
    SimConfig,
    _corner_range,
    _first_contact_in_rings,
    brute_force_oracle,
    simulate,
)
from planehunt.geometry import Point
from planehunt.searcher import dynamic_plan, static_plan
from planehunt.target import inert, radial_flee, waypoints
from planehunt.trajectory import SpiralParams, diagonal_terms, pi_arrays


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


def test_config_rejects_non_finite_start():
    for start in (Point(math.nan, 0.0), Point(0.0, math.inf), Point(-math.inf, 1.0)):
        with pytest.raises(ValueError):
            SimConfig(agent_start=start, r=0.5, max_diagonal=2)


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
        got = _first_contact_in_rings(*block, n, q_rel, r, allowance)
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
        monkeypatch.setattr(engine, "_first_contact_in_rings", _full_block_scan)
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

    def test_extreme_magnitudes(self):
        # r*r overflows or underflows; both scans' quadratics overflow alike
        params = SpiralParams(16, 4)
        with np.errstate(over="ignore", invalid="ignore"):
            for q in ((0.0, 0.0), (1e300, 0.0), (1e-300, -1e-300), (17 / 16, 1.0), (1e20, -1e20)):
                for r in (1e-300, 1e-20, 1e150, 1e200, 1e308):
                    for n in (0, 7, 136):
                        self._check(params, n, q, r)
