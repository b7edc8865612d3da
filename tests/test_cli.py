import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import planehunt
from planehunt import cli
from planehunt.cli import run
from planehunt.coverage import MAX_GRID_RES
from planehunt.engine import SimConfig, simulate
from planehunt.experiments import sweep_dynamic, sweep_static, write_rows_csv
from planehunt.geometry import Point
from planehunt.searcher import static_plan
from planehunt.target import inert


def test_simulate_static_example(capsys):
    code = run(["simulate", "--algo", "static", "--target", "1,0", "--r", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sensed=True" in out
    assert "cost=2.5" in out


def test_simulate_matches_library(capsys):
    run(["simulate", "--target", "0.7,-0.2", "--r", "0.3", "--max-diagonal", "3"])
    out = capsys.readouterr().out
    lib = simulate(static_plan(), inert(Point(0.7, -0.2)), SimConfig(r=0.3, max_diagonal=3))
    assert f"cost={lib.cost:.9g}" in out
    assert f"diagonal={lib.diagonal}" in out


def test_simulate_far_target_at_the_default_diagonal_budget(capsys):
    # an unsensed hunt through diagonal 11, caught on diagonal 12
    code = run(["simulate", "--target", "3000,0", "--r", "0.01"])
    out = capsys.readouterr().out
    lib = simulate(static_plan(), inert(Point(3000, 0)), SimConfig(r=0.01, max_diagonal=12))
    assert code == 0
    assert out == (
        f"sensed={lib.sensed} cost={lib.cost:.9g} time={lib.time:.9g} "
        f"agent=({lib.agent_pos.x:.9g},{lib.agent_pos.y:.9g}) "
        f"target=({lib.target_pos.x:.9g},{lib.target_pos.y:.9g}) "
        f"diagonal={lib.diagonal} legs={lib.legs_processed} stop={lib.stop_reason}\n"
    )


@pytest.mark.parametrize(
    "budget",
    [
        ["--max-diagonal", "600"],  # pi_length is inf from diagonal 255 on
        ["--max-cost", "5.805395323986941e+21", "--max-diagonal", "60"],  # ends in diagonal 31
        ["--max-cost", "1e150", "--max-diagonal", "240"],
        ["--max-diagonal", "13"],
    ],
)
def test_simulate_rejects_a_diagonal_past_the_limit_exit_2(budget, capsys):
    # each of the first two exited 1 with "Python int too large to convert to C ssize_t"
    code = run(["simulate", "--target", "1e300,0", "--r", "0.01", *budget])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "max_diagonal" in captured.err


def test_simulate_trace_over_the_line_budget_exit_2_without_a_file(tmp_path, capsys):
    # sensed after 178,874,446 legs: two trace lines a leg is far past MAX_TRACE_LINES
    path = tmp_path / "trace.txt"
    t0 = time.perf_counter()
    code = run(["simulate", "--target", "3000,0", "--r", "0.01", "--max-diagonal", "12", "--trace", str(path)])
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "MAX_TRACE_LINES" in captured.err
    assert not path.exists()


def test_simulate_huge_cost_budget_stops_at_the_default_diagonal(capsys):
    code = run(["simulate", "--target", "1e300,0", "--r", "0.01", "--max-cost", "1e150"])
    out = capsys.readouterr().out
    assert code == 0
    assert "agent=(0,0)" in out and "diagonal=12 " in out and "stop=diagonal_budget" in out


def test_simulate_waypoints_file(tmp_path, capsys):
    wp = tmp_path / "wp.txt"
    wp.write_text("v 1.0\n0 2 0\n1 1 0\n")
    code = run(["simulate", "--waypoints", str(wp), "--r", "0.5", "--max-diagonal", "3"])
    assert code == 0
    assert "sensed=True" in capsys.readouterr().out


def test_simulate_rejects_a_target_without_a_comma_exit_2(capsys):
    code = run(["simulate", "--target", "1", "--r", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "expected x,y got '1'" in captured.err


def test_simulate_rejects_nan_radius_exit_2(capsys):
    code = run(["simulate", "--target", "1,0", "--r", "nan", "--max-diagonal", "2"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["nan,0", "inf,0", "0,-inf"])
def test_simulate_rejects_non_finite_target_exit_2(target, capsys):
    code = run(["simulate", "--target", target, "--r", "0.5", "--max-diagonal", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error" in err and "finite" in err


def test_simulate_rejects_non_finite_waypoint_exit_2(tmp_path, capsys):
    wp = tmp_path / "wp.txt"
    wp.write_text("v 1.0\n0 2 0\ninf 1 0\n")
    code = run(["simulate", "--waypoints", str(wp), "--r", "0.5", "--max-diagonal", "2"])
    assert code == 2
    assert "finite" in capsys.readouterr().err


def test_simulate_rejects_an_infinite_waypoint_speed_exit_2(tmp_path, capsys):
    # exited 0 with sensed=True cost=31.5 before
    wp = tmp_path / "wp.txt"
    wp.write_text("v inf\n0 2 0\n")
    code = run(["simulate", "--waypoints", str(wp), "--r", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("text", ["v\n0 2 0\n", "v 1 2\n0 2 0\n", "v 1\n0 2 0\nv 4\n"])
def test_simulate_rejects_a_malformed_waypoint_header_exit_2(text, tmp_path, capsys):
    # a bare `v` exited 1 with "list index out of range"; the others ran
    wp = tmp_path / "wp.txt"
    wp.write_text(text)
    code = run(["simulate", "--waypoints", str(wp), "--r", "0.5", "--max-diagonal", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: {wp}:" in captured.err and "header line" in captured.err


@pytest.mark.parametrize("text, lineno, field", [("v abc\n0 2 0\n", 1, "abc"), ("v 1\n0 2 zz\n", 2, "zz")])
def test_simulate_names_the_line_of_a_non_numeric_waypoint_field_exit_2(text, lineno, field, tmp_path, capsys):
    # the diagnostic was only "could not convert string to float"
    wp = tmp_path / "wp.txt"
    wp.write_text(text)
    code = run(["simulate", "--waypoints", str(wp), "--r", "0.5", "--max-diagonal", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: {wp}:{lineno}: could not convert string to float: '{field}'" in captured.err


@pytest.mark.parametrize("argv", [
    ["--target", "1e300,0", "--v", "1", "--t-freeze", "10", "--r", "0.01"],
    ["--target", "1e200,1e200", "--v", "1", "--t-freeze", "10", "--r", "0.5"],
    ["--algo", "dynamic", "--target", "2e154,0", "--v", "1", "--t-freeze", "10", "--r", "0.01"],
])
def test_simulate_a_far_moving_target_is_not_sensed(argv, capsys):
    # printed sensed=True cost=nan time=nan agent=(nan,nan) and exited 0
    code = run(["simulate", *argv, "--max-diagonal", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("sensed=False ") and out.endswith(" stop=diagonal_budget\n")
    assert "nan" not in out


def test_simulate_requires_one_target_source(capsys):
    code = run(["simulate", "--r", "0.5"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--v", "3"],
    ["--t-freeze", "0.2"],
    ["--v", "3", "--t-freeze", "0.2"],
    ["--t-freeze=-1"],
])
def test_simulate_rejects_flee_flags_with_waypoints_exit_2(flags, tmp_path, capsys):
    # hunted the file's target with exit 0, dropping both flags
    wp = tmp_path / "wp.txt"
    wp.write_text("v 1.0\n0 2 0\n1 1 0\n")
    code = run(["simulate", "--waypoints", str(wp), "--r", "0.5", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--waypoints" in captured.err


def test_sweep_static_golden_against_library(tmp_path):
    out = tmp_path / "cli.csv"
    code = run([
        "sweep-static", "--D", "1,2,4", "--r", "0.25,0.0625",
        "--samples", "5", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    golden = tmp_path / "lib.csv"
    write_rows_csv(sweep_static([1.0, 2.0, 4.0], [0.25, 0.0625], 5, 7), str(golden))
    assert out.read_bytes() == golden.read_bytes()
    with open(out) as fh:
        assert sum(1 for _ in csv.reader(fh)) == 31  # header + 3*2*5 rows


def test_sweep_static_frozen_bytes(tmp_path):
    # frozen sha256 of both outputs: the golden tests above compare the CLI
    # with the library through the same writer, so they miss a shared change
    csv_out, jsonl_out = tmp_path / "s.csv", tmp_path / "s.jsonl"
    code = run([
        "sweep-static", "--D", "1,2,4,8,16", "--r", "0.25,0.0625,0.015625,0.00390625",
        "--samples", "5", "--seed", "7", "--out", str(csv_out), "--jsonl", str(jsonl_out),
    ])
    assert code == 0
    assert hashlib.sha256(csv_out.read_bytes()).hexdigest() == (
        "52a4968ac6947981031b5bf3c143d1e446e66b376939f3c273d2bcc33ef64706"
    )
    assert hashlib.sha256(jsonl_out.read_bytes()).hexdigest() == (
        "001f473f529ff18dc771ae7c68fd005e602020fea86b88deceb169f859d4ebe5"
    )


def test_sweep_dynamic_frozen_bytes(tmp_path):
    # frozen sha256 of the pursuit benchmark's sweep at 5 samples: flee
    # hunts reach the inert kernel with legs of a block already taken
    out = tmp_path / "d.csv"
    code = run([
        "sweep-dynamic", "--v", "1,4,16", "--r", "0.0625,0.015625,0.00390625", "--D", "1",
        "--samples", "5", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "2f7793b14c0f91201d6e6190db14553658f01e49b27e4e7f7a8ef2b5d9957126"
    )


def test_sweep_dynamic_frozen_bytes_with_inert_cells(tmp_path):
    # frozen sha256 of both outputs, recorded before the two sweeps shared
    # one worker: v = 0 cells hunt inert targets with the dynamic plan
    csv_out, jsonl_out = tmp_path / "d.csv", tmp_path / "d.jsonl"
    code = run([
        "sweep-dynamic", "--v", "0,1,4", "--r", "0.25,0.0625", "--D", "2",
        "--samples", "5", "--seed", "7", "--out", str(csv_out), "--jsonl", str(jsonl_out),
    ])
    assert code == 0
    assert hashlib.sha256(csv_out.read_bytes()).hexdigest() == (
        "a9cb39f940019a6cded8f93130a75eacc1aaea6e3ea880f8955fc17f6dc499ea"
    )
    assert hashlib.sha256(jsonl_out.read_bytes()).hexdigest() == (
        "e030625de9533dd4437c11b2ad32acf28dc9485f2c3e4e37c2cf18b950c5e103"
    )


def test_sweep_dynamic_runs(tmp_path):
    out = tmp_path / "dyn.csv"
    code = run([
        "sweep-dynamic", "--v", "0,1", "--r", "0.25",
        "--D", "1", "--samples", "3", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    golden = tmp_path / "lib.csv"
    write_rows_csv(sweep_dynamic([0.0, 1.0], [0.25], 1.0, 3, 7), str(golden))
    assert out.read_bytes() == golden.read_bytes()


def test_sweep_guard_violation_exit_2(capsys):
    code = run(["sweep-static", "--D", "4096", "--r", "0.25", "--samples", "1", "--seed", "0"])
    assert code == 2
    assert "guard" in capsys.readouterr().err


# every float, as test_experiments.TestGuard draws them
ANY_FLOAT = st.one_of(
    st.floats(),
    st.sampled_from([5e-324, 1e308, 2048.0, 4096.0, 2.0**-22, 2.0**-23]),
    st.floats(2.0**-3, 2.0**12),
    st.floats(2.0**-24, 4.0),
)


@given(D=ANY_FLOAT, r=ANY_FLOAT, v=st.one_of(ANY_FLOAT, st.floats(0.0, 16.0)))
@example(D=1.0, r=1.0, v=1.0)
@example(D=5e-324, r=0.25, v=1.0)
@settings(max_examples=100, deadline=None)
def test_sweep_exits_2_without_output_exactly_where_the_library_raises(D, r, v):
    sweeps = (
        (["sweep-static", f"--D={D!r}"], lambda: sweep_static([D], [r], 2, 0)),
        (["sweep-dynamic", f"--v={v!r}", f"--D={D!r}"], lambda: sweep_dynamic([v], [r], D, 2, 0)),
    )
    with tempfile.TemporaryDirectory() as tmp:
        for command, sweep in sweeps:
            try:
                sweep()
                admitted = True
            except ValueError:
                admitted = False
            out = os.path.join(tmp, "rows.csv")
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run([*command, f"--r={r!r}", "--samples", "2", "--seed", "0", "--out", out])
            if admitted:
                assert code == 0 and os.path.exists(out)
                os.remove(out)
            else:
                assert code == 2 and "guard" in stderr.getvalue()
                assert stdout.getvalue() == "" and not os.path.exists(out)


@pytest.mark.parametrize("command", [
    ["sweep-static", "--D", "1", "--r", "1"],
    ["sweep-static", "--D", "0.25", "--r", "0.25"],
    ["sweep-static", "--D", "0.25", "--r", "0.5"],
    ["sweep-dynamic", "--v", "0,1", "--r", "1", "--D", "1"],
])
def test_sweep_ratio_is_nan_where_the_growth_term_is_not_positive(command, capsys):
    # D = r exited 1 on a division by zero; D < r read -0.0
    assert run([*command, "--samples", "2", "--seed", "0"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert rows and all(row["sensed"] == "True" and row["ratio"] == "nan" for row in rows)


@pytest.mark.parametrize("command", [
    ["sweep-static", "--D", "1", "--r", "0.25"],
    ["sweep-dynamic", "--v", "0,1", "--r", "0.25", "--D", "1"],
])
def test_sweep_negative_seed_exit_2_before_output(command, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = run([*command, "--samples", "2", "--seed", "-1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "seed must be >= 0" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["sweep-static", "--D", "1", "--r", "0.25"],
    ["sweep-dynamic", "--v", "0,1", "--r", "0.25", "--D", "1"],
])
@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_sweep_jobs_below_one_exit_2_before_output(command, jobs, tmp_path, capsys):
    # --jobs -4 ran serially and exited 0
    out = tmp_path / "rows.csv"
    code = run([*command, "--samples", "2", "--seed", "1", "--jobs", jobs, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "jobs must be >= 1" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["sweep-static", "--D", "1,2", "--r", "0.25,0.0625"],
    ["sweep-dynamic", "--v", "0,1", "--r", "0.25", "--D", "1"],
])
def test_sweep_to_stdout_writes_the_out_file_bytes(command, tmp_path, capsys):
    # without --out the CSV went to a reopened /dev/stdout, past sys.stdout
    argv = [*command, "--samples", "3", "--seed", "7"]
    assert run([*argv, "--out", str(tmp_path / "rows.csv")]) == 0
    assert run(argv) == 0
    assert capsys.readouterr().out.encode() == (tmp_path / "rows.csv").read_bytes()


def test_sweep_to_stdout_appends_to_a_redirected_file(tmp_path):
    # `>> runs.csv` lost the file's earlier lines: the reopen truncated it
    argv = ["sweep-static", "--D", "1", "--r", "0.25", "--samples", "2", "--seed", "7"]
    assert run([*argv, "--out", str(tmp_path / "rows.csv")]) == 0
    runs = tmp_path / "runs.csv"
    runs.write_bytes(b"earlier,line\r\n")
    env = {**os.environ, "PYTHONPATH": str(Path(planehunt.__file__).resolve().parents[1])}
    with open(runs, "ab") as fh:
        subprocess.run([sys.executable, "-m", "planehunt.cli", *argv], stdout=fh, env=env, check=True)
    assert runs.read_bytes() == b"earlier,line\r\n" + (tmp_path / "rows.csv").read_bytes()


def test_impossibility_table(capsys):
    code = run(["impossibility", "--c", "2", "--d", "1", "--m-max", "12"])
    out = capsys.readouterr().out
    assert code == 0
    assert "crossover_m=1" in out
    assert "*" in out  # crossover row marked


@pytest.mark.parametrize("argv", [
    ["--c", "2", "--d", "nan"],
    ["--c", "2", "--d", "inf"],
    ["--c", "2", "--m-max", "600"],
])
def test_impossibility_rejects_non_finite_input_exit_2(argv, capsys):
    # --d nan and --d inf printed nan and inf columns with exit 0, and
    # --m-max 600 exited 1 on an OverflowError
    code = run(["impossibility", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in captured.err


@pytest.mark.parametrize("d, code", [("1e-300", 2), ("1e-280", 0)])
def test_impossibility_exits_2_without_output_where_a_ratio_overflows(d, code, capsys):
    # --d 1e-300 printed inf in the ratio column with exit 0
    assert run(["impossibility", "--c", "2", "--d", d]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == "" and "float range" in captured.err
    else:
        assert len(captured.out.splitlines()) == 14 and "inf" not in captured.out


def test_impossibility_speed_exponent_past_the_float_range_exits_2_without_output(capsys):
    # exited 1 with "int too large to convert to float"
    assert run(["impossibility", "--c", "1" + "0" * 309]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "float range" in captured.err


@pytest.mark.parametrize("flags", [
    ["--v", "nan"],
    ["--v", "inf"],
    ["--v", "-1"],
    ["--v", "1", "--t-freeze", "nan"],
    ["--v", "1", "--t-freeze", "inf"],
    ["--t-freeze=-inf"],
    ["--t-freeze=-1"],
])
def test_simulate_rejects_a_bad_flee_speed_or_freeze_time_exit_2(flags, capsys):
    # --v nan, inf and -1 hunted an inert target with exit 0 before, and so did --t-freeze -1
    code = run(["simulate", "--target", "5,0", "--r", "0.5", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "must be finite" in captured.err


def test_adversary_report(capsys):
    code = run(["adversary", "--i", "2", "--max-cost", "10", "--grid-res", "64"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("j D_j r_j")
    assert len(lines) == 3


def test_adversary_benchmark_command_golden(capsys):
    code = run(["adversary", "--i", "4", "--max-cost", "4000", "--grid-res", "128"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "j D_j r_j witness_x witness_y tube_area tube_bound",
        "1 2 0.00390625 -0.9921875 -0.9921875 10.4618806 31.2500479",
        "2 4 0.015625 -1.953125 -1.953125 41.2158436 125.000767",
        "3 8 0.0625 -3.90625 -3.90625 158.708679 500.012272",
        "4 16 0.25 none none 284.554932 2000.19635",
    ]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--i", "2", "--max-cost", "100000", "--grid-res", "512"],
         "86db67cbc16d94fd919f24e3773d80908aa2d28f6ecab7fb10c77927d77c671f"),
        (["--i", "5", "--max-cost", "30000", "--grid-res", "1024"],
         "613c7eac97c11368230bb70509ada4226862aec6b7598883b2c4b98818be0ba1"),
    ],
    ids=["i2-512", "i5-1024"],
)
def test_adversary_long_prefix_digests(argv, digest, capsys):
    # frozen sha256 of stdout, recorded from the rasterizer that tested every
    # (segment, cell) pair of each box: these prefixes' legs cross the grids
    code = run(["adversary", *argv])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_adversary_short_prefix_in_one_corner_digest(capsys):
    # frozen sha256 of stdout, recorded while the rasterizer's run ends still
    # covered the whole grid: the 13-vertex prefix reaches only one corner of
    # ring 2's 1024^2 grid, so run ends over the boxes' span cover a part of it
    code = run(["adversary", "--i", "2", "--max-cost", "10", "--grid-res", "1024"])
    assert code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "74b8d4ec7fd5412d6e4946dbe3d4c702cd9f7b352c9b842190cbdd25886fcf82"


@pytest.mark.parametrize("max_cost", ["nan", "inf"])
def test_adversary_rejects_nonfinite_max_cost(max_cost, capsys):
    code = run(["adversary", "--i", "2", "--max-cost", max_cost, "--grid-res", "32"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "max_cost" in captured.err


def test_adversary_rejects_a_huge_prefix_before_output(capsys):
    code = run(["adversary", "--i", "1", "--max-cost", "1e12", "--grid-res", "32"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "vertices" in captured.err


@pytest.mark.parametrize("i, grid_res", [("2", "16"), ("2", "31"), ("0", "64")])
def test_adversary_bad_sizes_exit_2_before_output(i, grid_res, capsys):
    code = run(["adversary", "--i", i, "--max-cost", "10", "--grid-res", grid_res])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in captured.err


@pytest.mark.parametrize("i", ["538", "1024"])
def test_adversary_rejects_a_ring_count_past_537_before_output(i, capsys):
    # --i 538 printed the header, then exited 2 on the innermost radius
    # 2^-1076 = 0; --i 1024 exited 1 on the OverflowError of 2.0 ** 1024
    code = run(["adversary", "--i", i, "--max-cost", "10", "--grid-res", "32"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "537" in captured.err


@pytest.mark.parametrize("i", ["511", "537"])
def test_adversary_rejects_a_ring_square_past_the_float_range_before_output(i, capsys):
    # ring i's square has side 2^i, so its squared grid offsets pass 2^1022
    code = run(["adversary", "--i", i, "--max-cost", "10", "--grid-res", "32"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "beyond the float range" in captured.err


def test_adversary_rejects_a_grid_above_the_cap_before_output(capsys):
    code = run(["adversary", "--i", "1", "--max-cost", "10", "--grid-res", str(MAX_GRID_RES + 1)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--grid-res" in captured.err


@pytest.mark.parametrize("max_cost", ["nan", "inf"])
def test_export_svg_rejects_nonfinite_max_cost(max_cost, tmp_path, capsys):
    out = tmp_path / "t.svg"
    code = run(["export-svg", "--max-cost", max_cost, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "max_cost" in captured.err
    assert not out.exists()


def test_export_svg_rejects_a_huge_prefix(tmp_path, capsys):
    out = tmp_path / "t.svg"
    code = run(["export-svg", "--max-cost", "1e12", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "vertices" in captured.err
    assert not out.exists()


def test_export_svg(tmp_path, capsys):
    out = tmp_path / "t.svg"
    code = run(["export-svg", "--max-cost", "10", "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_export_svg_into_a_missing_directory_exits_1(tmp_path, capsys):
    out = tmp_path / "missing" / "t.svg"
    code = run(["export-svg", "--max-cost", "10", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    # as the trace, CSV and JSONL paths fail: open()'s own message, naming the path once
    assert captured.err.startswith("runtime error: [Errno 2] ") and captured.err.count(str(out)) == 1


def test_unknown_flag_exits_2(capsys):
    assert run(["simulate", "--bogus", "1"]) == 2


def test_help_lists_flags(capsys):
    code = run(["simulate", "--help"])
    out = capsys.readouterr().out
    assert code == 0
    assert "--r" in out and "length units" in out


# the required flags of each command: with them, a bad flag is left to the top-level parser
REQUIRED = {
    "simulate": ["--r", "1", "--target", "1,0"],
    "sweep-static": ["--r", "1", "--seed", "1", "--D", "1"],
    "sweep-dynamic": ["--r", "1", "--seed", "1", "--v", "1"],
    "adversary": ["--i", "1", "--max-cost", "1"],
    "impossibility": ["--c", "2"],
    "export-svg": ["--max-cost", "1", "--out", "p.svg"],
}


def _parsed(parse, argv):
    """(exit code, stdout, stderr) of parse(argv), which returns an exit code or raises SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = int(exc.code or 0)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [[], ["--help"], ["--bogus"], ["nope"]]
    + [[name, *extra] for name in REQUIRED for extra in (["--help"], ["--bogus"], ["--i", "x"])]
    + [[name, *flags, "--bogus"] for name, flags in REQUIRED.items()],
)
def test_each_command_parses_as_the_full_parser(argv):
    # compared in one interpreter, not with goldens: Python versions word help differently
    assert set(REQUIRED) == set(cli._COMMANDS)
    code, out, err = _parsed(run, argv)
    assert code in (0, 2) and out + err
    assert (code, out, err) == _parsed(cli.build_parser(None).parse_args, argv)


def test_run_adds_the_arguments_of_the_named_command_only(monkeypatch):
    added = []
    for name, (text, add_args, handler) in list(cli._COMMANDS.items()):
        counted = functools.partial(lambda name, add_args, p: (added.append(name), add_args(p)), name, add_args)
        monkeypatch.setitem(cli._COMMANDS, name, (text, counted, handler))
    assert _parsed(run, ["impossibility", "--c", "2"])[0] == 0
    assert added == ["impossibility"]
    added.clear()
    assert _parsed(run, ["--help"])[0] == 0
    assert added == list(cli._COMMANDS)


def test_every_readme_command_exits_0(tmp_path, monkeypatch, capsys):
    # run in a scratch directory holding README's waypoint example as path.txt
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", readme, re.M | re.S)
    (tmp_path / "path.txt").write_text(next(b for b in blocks if re.search(r"^v \S+$", b, re.M)))
    commands = [shlex.split(line)[1:] for b in blocks for line in b.splitlines() if line.startswith("planehunt ")]
    assert len(commands) >= 8
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run(argv) == 0, (argv, capsys.readouterr().err)


# Runs in a fresh interpreter: the hunt commands first, then the commands
# that need numpy.  Each digest covers the command's stdout (the output
# directory replaced by OUT) and then its output files.
FRESH_PROCESS_RUN = r"""
import contextlib
import hashlib
import io
import json
import os
import sys

import planehunt
import planehunt.cli as cli

out_dir = sys.argv[1]
wp = os.path.join(out_dir, "wp.txt")
with open(wp, "w") as fh:
    fh.write("v 1.5\n0 2 0.5\n1 1.5 -0.25\n2.5 0.75 1\n")
digests = {}


def run(name, argv, files=()):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    h = hashlib.sha256(buf.getvalue().replace(out_dir, "OUT").encode())
    for f in files:
        with open(os.path.join(out_dir, f), "rb") as fh:
            h.update(fh.read())
    digests[name] = [code, h.hexdigest()]


def o(name):
    return os.path.join(out_dir, name)


run("simulate-inert", ["simulate", "--target", "1.7,0.3", "--r", "0.1"])
run("simulate-flee", ["simulate", "--algo", "dynamic", "--target", "1,0.2", "--v", "2",
                      "--t-freeze", "0.015625", "--r", "0.0625", "--max-diagonal", "4"])
run("simulate-waypoints", ["simulate", "--waypoints", wp, "--r", "0.2", "--max-diagonal", "3"])
run("simulate-trace", ["simulate", "--target", "30,0.1", "--r", "0.1", "--max-cost", "600.3",
                       "--max-diagonal", "3", "--trace", o("t.trace")], ["t.trace"])
run("sweep-static", ["sweep-static", "--D", "1,4", "--r", "0.25,0.0625", "--samples", "10", "--seed", "7",
                     "--out", o("s.csv"), "--jsonl", o("s.jsonl")], ["s.csv", "s.jsonl"])
run("sweep-dynamic", ["sweep-dynamic", "--v", "0,1,4", "--r", "0.25,0.0625", "--samples", "5", "--seed", "7",
                      "--out", o("d.csv"), "--jsonl", o("d.jsonl")], ["d.csv", "d.jsonl"])
loaded = [m for m in ("numpy", "xml.etree", "concurrent.futures.process") if m in sys.modules]
run("adversary", ["adversary", "--i", "3", "--max-cost", "500", "--grid-res", "64"])
run("impossibility", ["impossibility", "--c", "2"])
run("export-svg", ["export-svg", "--max-cost", "300", "--out", o("p.svg")], ["p.svg"])
print(json.dumps({"loaded": loaded, "digests": digests}))
"""

# (exit code, sha256) per command, recorded before the package deferred its numpy imports
FRESH_PROCESS_DIGESTS = {
    "simulate-inert": [0, "8032c8808c84e109936969be982cfe268c57c9282bd056575eec36b3d0b08981"],
    "simulate-flee": [0, "132d378f8f4a6f9a353070a8903ba5dcc1610a124b800fa78972a77c5e649386"],
    "simulate-waypoints": [0, "d523460b1c66fe6cf00db10f6034f5731f50043c0d255f13f90a4657c5d18b8b"],
    "simulate-trace": [0, "aebd0ebe2732f956235873964f735565b8fd96bfd6c720729cf19cff744ead79"],
    "sweep-static": [0, "250d8a96a55ca2d99d7bb15d1db7382796c07ebd851593abd2eb28b4c278fe05"],
    "sweep-dynamic": [0, "d4d67888509d91bcd97ba32b95207e8f1d73b96fc38df83a9a22e75e9eb71fd8"],
    "adversary": [0, "68053ee72dbd5d7a7d26aac0b39157de6c9587d6131856c9d8f277e7abedcbe3"],
    "impossibility": [0, "6182534166a858db160d41befb5df97ec8bcd08d24f0ef4fa89397f98c6c8e39"],
    "export-svg": [0, "011f57c237d320f68d8c20751a64e095b9ae36babaa579e53aca143f3af6c862"],
}


def test_hunt_commands_leave_numpy_unloaded(tmp_path):
    # simulate and both sweeps import neither numpy, xml.etree nor the
    # process pool; adversary, impossibility and export-svg load numpy
    # later in the same process, with unchanged output
    src = Path(planehunt.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS_RUN, str(tmp_path)], env=env, capture_output=True, text=True, check=True
    )
    report = json.loads(done.stdout)
    assert report["loaded"] == []
    assert report["digests"] == FRESH_PROCESS_DIGESTS


def test_impossibility_leaves_numpy_unloaded():
    # importing the CLI loads neither statistics nor xml.etree, and the
    # impossibility table runs without numpy
    src = Path(planehunt.__file__).resolve().parents[1]
    script = (
        "import contextlib, io, json, sys\n"
        "import planehunt.cli as cli\n"
        "imported = [m for m in ('numpy', 'statistics', 'xml.etree') if m in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.run(['impossibility', '--c', '2'])\n"
        "print(json.dumps([imported, code, 'numpy' in sys.modules]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [[], 0, False]


def test_importing_the_cli_adds_no_heavy_module():
    # every command starts by importing the CLI: its records are NamedTuples,
    # and json, numpy and statistics are imported by the functions that use
    # them.  Only what the import adds counts, as a site hook may load some
    # of these first; the script imports nothing else before it.
    src = Path(planehunt.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import planehunt.cli\n"
        "heavy = ('dataclasses', 'json', 'numpy', 'statistics', 'xml.etree')\n"
        "print(sorted(m for m in heavy if m in sys.modules and m not in before))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


# every float option of the commands that take one, apart from the sweeps'
FLOAT_OPTIONS = [
    (["simulate", "--max-diagonal", "2"], ["--r", "--v", "--t-freeze", "--max-cost"]),
    (["simulate", "--algo", "dynamic", "--max-diagonal", "2", "--r", "0.25"], ["--v", "--t-freeze", "--max-cost"]),
    (["adversary", "--i", "1", "--grid-res", "32"], ["--max-cost"]),
    (["impossibility", "--c", "2"], ["--d"]),
    (["export-svg"], ["--max-cost"]),
]


@given(
    case=st.sampled_from(FLOAT_OPTIONS),
    values=st.lists(ANY_FLOAT, min_size=6, max_size=6),
)
@example(case=FLOAT_OPTIONS[3], values=[1e-300] * 6)
@settings(max_examples=150, deadline=None)
def test_a_float_option_exits_0_with_finite_output_or_2_with_none(case, values):
    command, options = case
    argv = [*command, *(f"{flag}={value!r}" for flag, value in zip(options, values))]
    if command[0] == "simulate":
        argv.append(f"--target={values[-2]!r},{values[-1]!r}")
    with tempfile.TemporaryDirectory() as tmp:
        if command[0] == "export-svg":
            argv += ["--out", os.path.join(tmp, "p.svg")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(argv)
        out = stdout.getvalue().replace(tmp, "OUT")
    assert code in (0, 2), stderr.getvalue()
    if code == 2:
        assert out == ""
    else:
        assert "nan" not in out and "inf" not in out
