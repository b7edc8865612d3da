"""tools/ab_hunts.py, the in-process A/B timing of a benchmark workload, on one checkout against itself."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_checkout_against_itself_gives_equal_digests():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_hunts.py"), str(ROOT), str(ROOT),
         "--workload", "pursuit_hunts", "--seed", "7", "--repeats", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "pursuit_hunts, seed 7: 270 hunts x 2 repeats" in proc.stdout
    digests = re.findall(r"^(parent|change) +median +[0-9.]+ us per hunt  outcomes sha256 ([0-9a-f]{64})$",
                         proc.stdout, re.MULTILINE)
    assert [side for side, _ in digests] == ["parent", "change"]
    assert digests[0][1] == digests[1][1]
    # one change / parent ratio of median times per repeat, then their least and greatest
    spread = re.findall(r"^per repeat change / parent ((?:[0-9.]+ )+) min ([0-9.]+)  max ([0-9.]+)$",
                        proc.stdout, re.MULTILINE)
    assert len(spread) == 1
    listed, low, high = spread[0]
    ratios = [float(x) for x in listed.split()]
    assert len(ratios) == 2 and (float(low), float(high)) == (min(ratios), max(ratios)) and min(ratios) > 0


def test_differing_outcomes_exit_1(tmp_path):
    # a change whose simulate reports every hunt one leg later
    change = tmp_path / "change" / "src" / "planehunt"
    shutil.copytree(ROOT / "src" / "planehunt", change, ignore=shutil.ignore_patterns("__pycache__"))
    call = "    out = _simulate(plan, strategy, cfg)\n"
    text = (change / "engine.py").read_text()
    assert text.count(call) == 1
    (change / "engine.py").write_text(text.replace(call, call + "    out = out._replace(legs_processed=out.legs_processed + 1)\n"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_hunts.py"), str(ROOT), str(tmp_path / "change"),
         "--workload", "pursuit_hunts", "--repeats", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "outcomes differ" in proc.stderr


def test_command_mode_on_a_checkout_against_itself_gives_equal_csv_bytes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_hunts.py"), str(ROOT), str(ROOT),
         "--workload", "pursuit_hunts", "--seed", "7", "--repeats", "3", "--command"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "pursuit_hunts, seeds 7..9: 3 commands per side, cli.run in process" in proc.stdout
    digests = re.findall(r"^(parent|change) +median +[0-9.]+ ms per command  csv sha256 ([0-9a-f]{64})$",
                         proc.stdout, re.MULTILINE)
    assert [side for side, _ in digests] == ["parent", "change"]
    assert digests[0][1] == digests[1][1]
    # one change / parent ratio of command times per pair, their least and greatest, and the pairs won
    spread = re.findall(r"^per pair change / parent ((?:[0-9.]+ )+) min ([0-9.]+)  max ([0-9.]+)$",
                        proc.stdout, re.MULTILINE)
    assert len(spread) == 1
    listed, low, high = spread[0]
    ratios = [float(x) for x in listed.split()]
    assert len(ratios) == 3 and (float(low), float(high)) == (min(ratios), max(ratios)) and min(ratios) > 0
    won = re.findall(r"^change lower in ([0-9]+) of 3 pairs$", proc.stdout, re.MULTILINE)
    assert won == [str(sum(ratio < 1 for ratio in ratios))]


def test_command_mode_exits_1_when_the_csv_bytes_differ(tmp_path):
    # a change whose CSV header lists the fields in reverse
    change = tmp_path / "change" / "src" / "planehunt"
    shutil.copytree(ROOT / "src" / "planehunt", change, ignore=shutil.ignore_patterns("__pycache__"))
    fields = "SWEEP_FIELDS = SweepRow._fields\n"
    text = (change / "experiments.py").read_text()
    assert text.count(fields) == 1
    (change / "experiments.py").write_text(text.replace(fields, "SWEEP_FIELDS = SweepRow._fields[::-1]\n"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_hunts.py"), str(ROOT), str(tmp_path / "change"),
         "--workload", "pursuit_hunts", "--seed", "7", "--repeats", "2", "--command"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "csv bytes differ at seeds 7 8" in proc.stderr


def test_command_mode_on_the_adversary_report_against_itself_gives_equal_stdout():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_hunts.py"), str(ROOT), str(ROOT),
         "--workload", "adversary_report", "--repeats", "2", "--command"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "adversary_report, seeds 7..8: 2 commands per side, cli.run in process" in proc.stdout
    # the report writes no CSV: each side's digest is of its standard output
    digests = re.findall(r"^(parent|change) +median +[0-9.]+ ms per command  stdout sha256 ([0-9a-f]{64})$",
                         proc.stdout, re.MULTILINE)
    assert [side for side, _ in digests] == ["parent", "change"]
    assert digests[0][1] == digests[1][1]
    assert re.search(r"^change lower in [0-2] of 2 pairs$", proc.stdout, re.MULTILINE)


def test_command_mode_exits_1_when_the_adversary_report_differs(tmp_path):
    # a change whose report header names its columns in another order
    change = tmp_path / "change" / "src" / "planehunt"
    shutil.copytree(ROOT / "src" / "planehunt", change, ignore=shutil.ignore_patterns("__pycache__"))
    header = '"j D_j r_j witness_x witness_y tube_area tube_bound"'
    text = (change / "cli.py").read_text()
    assert text.count(header) == 1
    (change / "cli.py").write_text(text.replace(header, '"j D_j r_j witness_y witness_x tube_area tube_bound"'))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_hunts.py"), str(ROOT), str(tmp_path / "change"),
         "--workload", "adversary_report", "--repeats", "2", "--command"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "stdout bytes differ at seeds 7 8" in proc.stderr


def test_the_adversary_report_needs_command_mode():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_hunts.py"), str(ROOT), str(ROOT), "--workload", "adversary_report"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "time it with --command" in proc.stderr


def test_a_negative_seed_exits_2_before_any_run():
    # it ended in the sweep's ValueError traceback
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_hunts.py"), str(ROOT), str(ROOT), "--workload", "pursuit_hunts",
         "--seed", "-1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "--seed must be at least 0" in proc.stderr and "Traceback" not in proc.stderr
