"""Frozen output digests: traces, seeded outcomes, SVG and demo output.

Every sha256 below was recorded from the array-based engine that the
closed-form block functions replaced, so any change to a trace line, an
outcome field or a drawn vertex shows here.
"""

import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from planehunt.cli import run
from planehunt.engine import SimConfig, simulate
from planehunt.experiments import sweep_dynamic, sweep_static, write_rows_csv
from planehunt.geometry import Point
from planehunt.searcher import dynamic_plan, static_plan
from planehunt.target import inert, radial_flee, waypoints

ROOT = Path(__file__).resolve().parent.parent

# name -> (simulate arguments, sha256 of stdout, sha256 of the trace file);
# None stands for the waypoint file below
TRACE_CASES = {
    "inert-cost-budget": (
        ["--target", "30,0.1", "--r", "0.1", "--max-cost", "600.3", "--max-diagonal", "3"],
        "20882b9c220eebbe07362b570e4912f4c281b5df531dbaa8bbe13e03566d945b",
        "e68aa8fa88228470521a98ccee8af780262c1cb68489de2f003e2cde2369f601",
    ),
    "flee-then-freeze": (
        ["--algo", "dynamic", "--target", "1,0.2", "--v", "2", "--t-freeze", "0.015625",
         "--r", "0.0625", "--max-diagonal", "4"],
        "132d378f8f4a6f9a353070a8903ba5dcc1610a124b800fa78972a77c5e649386",
        "410073b558eb9c33036cf1c88dd5cc9fe06fdfd0fc7d5ba588484c9b25fe69d2",
    ),
    "waypoints": (
        None,
        "d523460b1c66fe6cf00db10f6034f5731f50043c0d255f13f90a4657c5d18b8b",
        "82fb0c7ac2d49362e74dfd97eaf904b05b7cafaa1a8897e247205ea0df59c784",
    ),
    "diagonal-budget": (
        ["--algo", "dynamic", "--target", "100,-3", "--r", "0.1", "--max-diagonal", "2"],
        "8f82ddec23c80039caa4c0929a98ed27a9ddfc7e928f240f2816435c50829484",
        "0a7c3514df3f14b89be1fa032af0f66d5ee9c90124c3c6bc29e4a177769530ec",
    ),
}

SEEDED_OUTCOMES_SHA = "abb4157277f2293ebcc69fb2bccf346eafabdf08a427c2b78c4aadddd25b73b0"
EXPORT_SVG_SHA = "a196ba2bef88743ec0bc944c4d008c887ea4d55a1e76d3e523e14769a3468f53"
DEMO_SHAS = {
    "demo_dynamic_pursuit.py": "bb7f5fbc95e850b05d7a96276e8e53e95608c149e6d65705ca15e36a59dd14a4",
    "demo_lower_bounds.py": "2a7a4f7ac663c83df2a66c16b208c81395b091d98ecd8f0074f2145b81929bf0",
    "demo_static_search.py": "f24ca617d6084dacdaf0aba69698b9abe660b6bf4eeb5a3d8d0fd8b014e8fe17",
}

# the benchmark's two sweeps at its reference seed 7, and at sweep seed 1001 (the
# first command after it in a `bench/run.py --seed 1` run), as `write_rows_csv`
# writes them: (sweep, arguments, sha256 of the CSV bytes).  The seed-7 static
# digest is that of bench/reference/static_hunts.csv.gz unpacked.  They reach
# diagonal 7 and r = 2^-8, where no other golden goes, and depend on libm's cos
# and sin, which draw the targets
SWEEP_CASES = {
    "static_hunts": (
        sweep_static, ([1.0, 2.0, 4.0, 8.0, 16.0], [0.25, 0.0625, 0.015625, 0.00390625], 200, 7),
        "9e9185247566e7c365bbb80c39a31ae2bcb01d95ce71e7705bc55c885292b079",
    ),
    "pursuit_hunts": (
        sweep_dynamic, ([1.0, 4.0, 16.0], [0.0625, 0.015625, 0.00390625], 1.0, 30, 7),
        "cc87a1a993d4a25b84461faf54f667b470c3cf61532cd0d09f5749318137f8e9",
    ),
    "static_hunts_seed1001": (
        sweep_static, ([1.0, 2.0, 4.0, 8.0, 16.0], [0.25, 0.0625, 0.015625, 0.00390625], 200, 1001),
        "d5b22da492be8f4282483f926f377809abd74208b19a412c4cd5b38bd091567e",
    ),
    "pursuit_hunts_seed1001": (
        sweep_dynamic, ([1.0, 4.0, 16.0], [0.0625, 0.015625, 0.00390625], 1.0, 30, 1001),
        "1f4cb193974895bce4617addd50295111b80536aa7015a31e3bed22cac35a64e",
    ),
}

WAYPOINT_FILE = "v 1.5\n0 2 0.5\n1 1.5 -0.25\n2.5 0.75 1\n"


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def trace_digest(name, tmp_path):
    """(sha256 of stdout, sha256 of the trace file) of one `simulate --trace` case."""
    args = TRACE_CASES[name][0]
    if args is None:
        wp = tmp_path / "wp.txt"
        wp.write_text(WAYPOINT_FILE)
        args = ["--waypoints", str(wp), "--r", "0.2", "--max-diagonal", "3"]
    trace = tmp_path / f"{name}.trace"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["simulate", *args, "--trace", str(trace)]) == 0
    return _sha(out.getvalue().encode()), _sha(trace.read_bytes())


def seeded_outcomes():
    """600 seeded hunts: both plans, off-origin starts, cost budgets, flee and waypoint targets."""
    rng = np.random.default_rng(600)
    outcomes = []
    for case in range(600):
        plan = (static_plan(), dynamic_plan())[case % 2]
        start = Point(*rng.uniform(-3.0, 3.0, size=2)) if case % 3 else Point(0.0, 0.0)
        q = start + Point(*rng.uniform(-5.0, 5.0, size=2))
        r = float(2.0 ** -rng.integers(1, 7)) if case % 5 else float(rng.uniform(0.01, 1.0))
        max_cost = float(rng.uniform(2.0, 2500.0)) if case % 4 == 0 else math.inf
        kind = case % 6
        if kind == 1:
            strategy = radial_flee(start, q, float(rng.uniform(0.5, 8.0)), float(rng.uniform(0.001, 0.3)))
        elif kind == 3:
            speed = plan.speed_of_diagonal(1)
            times = np.cumsum(np.concatenate([[0.0], rng.uniform(0.5, 6.0, rng.integers(1, 4))])) / speed
            pts = [start + Point(*rng.uniform(-2.0, 2.0, size=2)) for _ in times]
            v = max(math.hypot(*(b - a)) / (tb - ta) for a, b, ta, tb in zip(pts, pts[1:], times, times[1:]))
            strategy = waypoints(pts, times, v * (1 + 1e-9))
        else:
            strategy = inert(q)
        cfg = SimConfig(agent_start=start, r=r, max_cost=max_cost, max_diagonal=4)
        outcomes.append(simulate(plan, strategy, cfg))
    return outcomes


def svg_digest(tmp_path):
    out = tmp_path / "prefix.svg"
    assert run(["export-svg", "--max-cost", "400", "--out", str(out)]) == 0
    return _sha(out.read_bytes())


def demo_digests():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    got = {}
    for demo in sorted((ROOT / "demos").glob("demo_*.py")):
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True, check=True, env=env)
        got[demo.name] = _sha(proc.stdout)
    return got


@pytest.mark.parametrize("name", sorted(TRACE_CASES))
def test_simulate_trace_bytes(name, tmp_path):
    _, stdout_sha, trace_sha = TRACE_CASES[name]
    assert trace_digest(name, tmp_path) == (stdout_sha, trace_sha)


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_bench_sweep_bytes(name, tmp_path):
    sweep, args, sha = SWEEP_CASES[name]
    out = tmp_path / f"{name}.csv"
    write_rows_csv(sweep(*args), out)
    assert _sha(out.read_bytes()) == sha


def test_seeded_outcome_reprs():
    outcomes = seeded_outcomes()
    assert {o.stop_reason for o in outcomes} == {"sensed", "cost_budget", "diagonal_budget"}
    assert _sha(repr(outcomes).encode()) == SEEDED_OUTCOMES_SHA


def test_export_svg_bytes(tmp_path):
    assert svg_digest(tmp_path) == EXPORT_SVG_SHA


def test_demos_run_with_recorded_stdout():
    assert demo_digests() == DEMO_SHAS
