"""In-process A/B timing of one benchmark workload's hunts, or its whole command, on two checkouts.

Usage: python3 tools/ab_hunts.py PARENT CHANGE --workload {static_hunts,pursuit_hunts,adversary_report}
                                 [--seed K] [--repeats N] [--command]

PARENT and CHANGE are checkout roots.  Each one's src/planehunt is
imported under a package name of its own (planehunt_parent,
planehunt_change), so both live in one process.  The hunts are those
that the sweep of bench/run.py's STATIC_SWEEP or PURSUIT_SWEEP runs at
sweep seed K: each side runs its own sweep once, with its `simulate`
wrapped to record every call's arguments, so the hunts are built by the
sweep itself.  Then each side's `simulate` is timed per hunt,
interleaved: hunt by hunt, one side and then the other, with the side
that goes first alternating from hunt to hunt and from repeat to repeat.
Every hunt thus sees nearly the same machine load on both sides, which
makes the comparison robust to other load on a shared host.

Prints the median time per hunt of each side, their ratio, each
repeat's ratio of the two sides' median times with the least and the
greatest of them (the spread behind the pooled ratio), and the sha256 of
each side's outcome reprs in hunt order.  Exits 1 when the two digests
differ.

Only warm `simulate` calls are timed.  Set-up work of a sweep, such as
sampling, building targets, `dynamic_q` (computed once per process) and
`predict_dynamic`, is done before the clock and never shows here.

--command times the whole command instead: each side's `cli.run` of the
workload's argv (bench/run.py's workload_argv, which writes the CSV to a
file) at sweep seeds K, K+1, ..., K+N-1, one pair of commands per seed,
interleaved, with the side that goes first alternating from pair to
pair, after one untimed pair at seed K that warms both sides (so
once-per-process work such as `dynamic_q` is left out).  Prints the
median time per command of each side, their ratio, each pair's ratio
with the least and the greatest of them, the number of pairs the change
won, and the sha256 of each side's CSV files in seed order.  Exits 1
when the CSV bytes differ at any seed.  A gain in argument parsing,
imports or first-call caches shows only in fresh-process pairs of
`bench/run.py`.

adversary_report runs only with --command.  The report writes no CSV,
so each command's digest is the sha256 of its standard output, and the
report is seed-free: every pair runs the same argv, and the seeds only
number the pairs.
"""

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load_package(checkout, side):
    """Import checkout/src/planehunt as the package planehunt_<side>."""
    name = f"planehunt_{side}"
    src = Path(checkout).resolve() / "src" / "planehunt"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def load_bench():
    """bench/run.py as a module: its sweep definitions and workload_argv."""
    sys.path.insert(0, str(ROOT / "bench"))  # bench/run.py imports its sibling `checks`
    try:
        spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return bench


def record_hunts(package, sweep, seed):
    """The (plan, strategy, cfg) of every hunt of the sweep, in the sweep's order."""
    experiments = importlib.import_module(f"{package.__name__}.experiments")
    simulate, calls = experiments.simulate, []

    def recording(*args):
        calls.append(args)
        return simulate(*args)

    (_, outer), (_, inner) = sweep["outer"], sweep["inner"]
    experiments.simulate = recording
    try:
        if sweep["algorithm"] == "static":
            experiments.sweep_static(outer, inner, sweep["samples"], seed)
        else:
            experiments.sweep_dynamic(outer, inner, sweep["fixed"]["D"], sweep["samples"], seed)
    finally:
        experiments.simulate = simulate
    return calls


def time_hunts(packages, hunts, repeats):
    """Per side, every hunt's wall times and its outcomes of the last repeat."""
    clock = time.perf_counter
    times = {side: [] for side in SIDES}
    outcomes = {side: [None] * len(hunts["parent"]) for side in SIDES}
    for rep in range(repeats):
        for h in range(len(hunts["parent"])):
            for side in (SIDES if (rep + h) % 2 == 0 else SIDES[::-1]):
                simulate = packages[side].simulate
                args = hunts[side][h]
                t0 = clock()
                out = simulate(*args)
                times[side].append(clock() - t0)
                outcomes[side][h] = out
    return times, outcomes


def output_kind(bench, workload):
    """What a workload's command writes: a CSV file, or its report on standard output."""
    return "stdout" if bench.WORKLOADS[workload][0] == "adversary" else "csv"


def time_commands(packages, bench, workload, seed, pairs, tmp):
    """Per side, the wall time of `cli.run` at seeds seed..seed + pairs - 1, and the sha256 of each output."""
    clock = time.perf_counter
    runs = {side: importlib.import_module(f"{packages[side].__name__}.cli").run for side in SIDES}
    times = {side: [] for side in SIDES}
    digests = {side: [] for side in SIDES}
    to_stdout = output_kind(bench, workload) == "stdout"
    for pair in range(-1, pairs):  # pair -1, at seed, warms both sides and is not kept
        argv_seed = seed + max(pair, 0)
        for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
            out = Path(tmp) / f"{side}.csv"
            argv = bench.workload_argv(workload, argv_seed, out)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                t0 = clock()
                code = runs[side](argv)
                elapsed = clock() - t0
            if code != 0:
                raise RuntimeError(f"the {side} command {argv} exited {code}")
            if pair >= 0:
                times[side].append(elapsed)
                written = stdout.getvalue().encode() if to_stdout else out.read_bytes()
                digests[side].append(hashlib.sha256(written).hexdigest())
    return times, digests


def compare_commands(packages, bench, args):
    """The --command mode: print the whole-command timing; 1 when the output bytes differ at any seed."""
    with tempfile.TemporaryDirectory() as tmp:
        times, digests = time_commands(packages, bench, args.workload, args.seed, args.repeats, tmp)
    medians = {side: statistics.median(times[side]) for side in SIDES}
    ratios = [change / parent for parent, change in zip(times["parent"], times["change"])]
    last, kind = args.seed + args.repeats - 1, output_kind(bench, args.workload)
    print(f"workload {args.workload}, seeds {args.seed}..{last}: {args.repeats} commands per side, cli.run in process")
    for side in SIDES:
        joined = hashlib.sha256("".join(digests[side]).encode()).hexdigest()
        print(f"{side:6s} median {medians[side] * 1e3:8.2f} ms per command  {kind} sha256 {joined}")
    print(f"change / parent {medians['change'] / medians['parent']:.4f}")
    listed = " ".join(f"{ratio:.4f}" for ratio in ratios)
    print(f"per pair change / parent {listed}  min {min(ratios):.4f}  max {max(ratios):.4f}")
    print(f"change lower in {sum(ratio < 1 for ratio in ratios)} of {args.repeats} pairs")
    differ = [args.seed + i for i, (a, b) in enumerate(zip(digests["parent"], digests["change"])) if a != b]
    if differ:
        print(f"{kind} bytes differ at seeds {' '.join(map(str, differ))}", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout root of the parent")
    parser.add_argument("change", help="checkout root of the change")
    parser.add_argument("--workload", required=True, choices=("static_hunts", "pursuit_hunts", "adversary_report"))
    parser.add_argument("--seed", type=int, default=7, help="sweep seed (default 7, the benchmark's reference)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed passes over every hunt, or with --command pairs of commands (default 5)")
    parser.add_argument("--command", action="store_true",
                        help="time each side's whole CLI command at seeds K..K+N-1 instead of its hunts")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be at least 0")
    if args.workload == "adversary_report" and not args.command:
        parser.error("adversary_report runs no hunts; time it with --command")

    bench = load_bench()
    packages = {side: load_package(path, side) for side, path in zip(SIDES, (args.parent, args.change))}
    if args.command:
        return compare_commands(packages, bench, args)
    sweep = {"static_hunts": bench.STATIC_SWEEP, "pursuit_hunts": bench.PURSUIT_SWEEP}[args.workload]
    hunts = {side: record_hunts(packages[side], sweep, args.seed) for side in SIDES}
    if len(hunts["parent"]) != len(hunts["change"]):
        print(f"the sides ran {len(hunts['parent'])} and {len(hunts['change'])} hunts", file=sys.stderr)
        return 1
    times, outcomes = time_hunts(packages, hunts, args.repeats)

    medians, digests = {}, {}
    for side in SIDES:
        medians[side] = statistics.median(times[side])
        digests[side] = hashlib.sha256(repr(outcomes[side]).encode()).hexdigest()
    n = len(hunts["parent"])  # times[side] holds the n hunts of one repeat after another
    per_repeat = {side: [statistics.median(times[side][rep * n:(rep + 1) * n]) for rep in range(args.repeats)]
                  for side in SIDES}
    ratios = [change / parent for parent, change in zip(per_repeat["parent"], per_repeat["change"])]
    print(f"workload {args.workload}, seed {args.seed}: {n} hunts x {args.repeats} repeats")
    for side in SIDES:
        print(f"{side:6s} median {medians[side] * 1e6:8.2f} us per hunt  outcomes sha256 {digests[side]}")
    print(f"change / parent {medians['change'] / medians['parent']:.4f}")
    listed = " ".join(f"{ratio:.4f}" for ratio in ratios)
    print(f"per repeat change / parent {listed}  min {min(ratios):.4f}  max {max(ratios):.4f}")
    if digests["parent"] != digests["change"]:
        print("outcomes differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
