import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planehunt
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
    code = run(["sweep-static", "--D", "64", "--r", "0.25", "--samples", "1", "--seed", "0"])
    assert code == 2
    assert "guard" in capsys.readouterr().err


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
    assert "seed must be a non-negative integer" in captured.err
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
    assert "jobs must be an integer >= 1" in captured.err
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


@pytest.mark.parametrize("flags", [
    ["--v", "nan"],
    ["--v", "inf"],
    ["--v", "-1"],
    ["--v", "1", "--t-freeze", "nan"],
    ["--v", "1", "--t-freeze", "inf"],
    ["--t-freeze=-inf"],
])
def test_simulate_rejects_a_bad_flee_speed_or_freeze_time_exit_2(flags, capsys):
    # --v nan, inf and -1 hunted an inert target with exit 0 before
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


def test_unknown_flag_exits_2(capsys):
    assert run(["simulate", "--bogus", "1"]) == 2


def test_help_lists_flags(capsys):
    code = run(["simulate", "--help"])
    out = capsys.readouterr().out
    assert code == 0
    assert "--r" in out and "length units" in out


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
