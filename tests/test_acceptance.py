"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints a single pass line (run pytest with -s to see them).
"""

import itertools
import math
import time

import numpy as np
import pytest
from block_arrays import _min_distance_to_polyline, diagonal_length_bound, pi_arrays

from planehunt.coverage import adversarial_static_placement, impossibility_report, tube_area
from planehunt.engine import SimConfig, brute_force_oracle, simulate
from planehunt.experiments import sweep_dynamic, sweep_static
from planehunt.geometry import Point
from planehunt.searcher import static_plan
from planehunt.target import inert
from planehunt.trajectory import SpiralParams, diagonal_length, pi_length, prefix_polyline


def _report(name, start, detail=""):
    extra = f" ({detail})" if detail else ""
    print(f"PASS {name} in {time.time() - start:.2f}s{extra}")


def test_criterion_1_length_formulas():
    start = time.time()
    for k, j in itertools.product(range(1, 65), (2, 4, 6)):
        closed = pi_length(SpiralParams(k, j))
        summed = sum(pi_arrays(k, j)[1].tolist())
        assert abs(summed - closed) <= 1e-12 * closed
        assert closed == 2 * (2 * k + 2) * (2 * k + 3) * 2.0 ** (-j)
    for i in range(1, 21):
        assert diagonal_length(i) <= diagonal_length_bound(i)
    assert time.time() - start < 5.0
    _report("criterion 1: length formulas", start)


def test_criterion_2_coverage_property():
    start = time.time()
    worst = 0.0
    for k in (1, 2, 4, 8, 16):
        for j in (2, 4):
            poly = pi_arrays(k, j)[0][: 4 * (k + 1) + 1]  # spiral(k, j)
            half = k * 2.0 ** (-j)  # half-side of Q(2k 2^-j)
            g = np.linspace(-half, half, 101)
            gx, gy = np.meshgrid(g, g)
            pts = np.column_stack([gx.ravel(), gy.ravel()])
            dists = _min_distance_to_polyline(pts, poly)
            assert dists.max() < 2.0 ** (-j), f"coverage fails for k={k}, j={j}"
            worst = max(worst, dists.max() * 2.0 ** j)
    assert time.time() - start < 30.0
    _report("criterion 2: spiral coverage", start, f"worst dist/resolution {worst:.3f}")


def test_criterion_3_static_end_to_end():
    start = time.time()
    Ds = [1, 2, 4, 8, 16]
    rs = [1 / 4, 1 / 16, 1 / 64, 1 / 256]
    rows = sweep_static(Ds, rs, samples=50, seed=20240717)
    assert len(rows) == len(Ds) * len(rs) * 50
    for row in rows:
        assert row.sensed, f"unsensed run {row.run_id} (D={row.D}, r={row.r})"
        assert row.cost <= row.cost_bound
        assert row.cost_bound == 80 * row.predicted_y * 2.0 ** (2 * row.predicted_y + 2)
    assert time.time() - start < 120.0
    _report(
        "criterion 3: static sweep",
        start,
        f"{len(rows)} runs, max cost ratio {max(r.ratio for r in rows):.2f}",
    )


def test_criterion_4_oracle_equivalence():
    start = time.time()
    step = 1e-5
    # hand-traced case first
    cfg = SimConfig(r=0.5, max_diagonal=2)
    exact = simulate(static_plan(), inert(Point(1, 0)), cfg)
    approx = brute_force_oracle(static_plan(), inert(Point(1, 0)), cfg, step)
    assert exact.cost == pytest.approx(2.5, abs=1e-9)
    assert approx.cost == pytest.approx(2.5, abs=1e-4)

    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(0, 2 * math.pi)
        rad = 1.2 * math.sqrt(rng.uniform())
        r = rng.uniform(0.3, 0.6)
        p = Point(rad * math.cos(theta), rad * math.sin(theta))
        cfg = SimConfig(r=r, max_diagonal=2)
        exact = simulate(static_plan(), inert(p), cfg)
        approx = brute_force_oracle(static_plan(), inert(p), cfg, step)
        assert exact.sensed and approx.sensed
        diff = abs(exact.cost - approx.cost)
        worst = max(worst, diff)
        assert diff <= 1e-4
    assert time.time() - start < 120.0
    _report("criterion 4: oracle equivalence", start, f"worst |dcost| {worst:.2e}")


def test_criterion_5_dynamic_end_to_end():
    start = time.time()
    vs = [0, 1, 2, 4]
    rs = [1 / 4, 1 / 16]
    rows = sweep_dynamic(vs, rs, D=1, samples=50, seed=20240717)
    for row in rows:
        assert row.sensed, f"unsensed run {row.run_id} (v={row.v}, r={row.r})"
        assert row.diagonal <= row.predicted_y

    static_rows = sweep_static([1], rs, samples=50, seed=20240717)
    v0 = [row for row in rows if row.v == 0]
    assert [row.cost for row in v0] == [row.cost for row in static_rows]
    assert time.time() - start < 180.0
    _report(
        "criterion 5: dynamic sweep",
        start,
        f"{len(rows)} runs, max catch diagonal {max(r.diagonal for r in rows)}",
    )


def test_criterion_6_tube_area_bound():
    start = time.time()
    # one sensed prefix per (D, r) cell of the static sweep, desk-sized cells
    cells = [(1, 1 / 4), (2, 1 / 4), (4, 1 / 16), (8, 1 / 16), (4, 1 / 64), (2, 1 / 64)]
    for D, r in cells:
        row = sweep_static([D], [r], samples=1, seed=20240717)[0]
        assert row.sensed
        prefix = prefix_polyline(row.cost)
        report = tube_area(prefix, r, grid_res=256)
        slack = 4.0 * report.cell_diagonal * report.trajectory_length
        assert report.estimated_area <= report.analytic_bound + slack, (
            f"tube area {report.estimated_area} exceeds "
            f"{report.analytic_bound} + {slack} for D={D}, r={r}"
        )
    assert time.time() - start < 60.0
    _report("criterion 6: tube-area bound", start, f"{len(cells)} prefixes at 256^2")


def test_criterion_7_adversarial_placement():
    start = time.time()
    rng = np.random.default_rng(99)
    checked = 0
    for trial in range(50):
        n_legs = rng.integers(1, 12)
        steps = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)], size=n_legs)
        scale = rng.uniform(0.2, 1.0)
        traj = np.vstack([[0, 0], np.cumsum(steps, axis=0) * scale]).astype(float)
        length = float(np.linalg.norm(np.diff(traj, axis=0), axis=1).sum())
        i = 2 if trial % 2 == 0 else 3
        results = adversarial_static_placement(traj, i, grid_res=64)
        for j, D_j, r_j, witness in results:
            ring_area = (2.0 ** j) ** 2 if j == 1 else (2.0 ** j) ** 2 - (2.0 ** (j - 1)) ** 2
            if 2 * r_j * length + math.pi * r_j ** 2 >= ring_area / 2:
                continue  # tube could cover half the ring; no witness promised
            assert witness is not None, f"no witness for ring {j}, trajectory length {length}"
            w = np.array([[witness.x, witness.y]])
            assert _min_distance_to_polyline(w, traj)[0] > r_j
            checked += 1
    assert checked > 0
    _report("criterion 7: adversarial placement", start, f"{checked} witnesses verified")


def test_criterion_8_impossibility_certifier():
    start = time.time()
    report = impossibility_report(2, 1.0, 12)
    assert report.crossover_m >= 1
    assert all(row.exceeds for row in report.rows[report.crossover_m - 1 :])  # row m - 1 is m
    assert abs(report.slope - 3.0) <= 0.05
    assert time.time() - start < 1.0
    _report(
        "criterion 8: impossibility certifier",
        start,
        f"crossover m={report.crossover_m}, slope {report.slope:.4f}",
    )
