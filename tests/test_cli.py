import csv
import hashlib

import pytest

from planehunt.cli import run
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


def test_impossibility_table(capsys):
    code = run(["impossibility", "--c", "2", "--d", "1", "--m-max", "12"])
    out = capsys.readouterr().out
    assert code == 0
    assert "crossover_m=1" in out
    assert "*" in out  # crossover row marked


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


@pytest.mark.parametrize("i, grid_res", [("2", "16"), ("2", "31"), ("0", "64")])
def test_adversary_bad_sizes_exit_2_before_output(i, grid_res, capsys):
    code = run(["adversary", "--i", i, "--max-cost", "10", "--grid-res", grid_res])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in captured.err


@pytest.mark.parametrize("max_cost", ["nan", "inf"])
def test_export_svg_rejects_nonfinite_max_cost(max_cost, tmp_path, capsys):
    out = tmp_path / "t.svg"
    code = run(["export-svg", "--max-cost", max_cost, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "max_cost" in captured.err
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
