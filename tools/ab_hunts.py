"""In-process A/B timing of one benchmark workload's hunts on two checkouts.

Usage: python3 tools/ab_hunts.py PARENT CHANGE --workload {static_hunts,pursuit_hunts}
                                 [--seed K] [--repeats N]

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
`predict_dynamic`, is done before the clock and never shows here; a gain
there shows only in fresh-process pairs of `bench/run.py`.
"""

import argparse
import hashlib
import importlib
import importlib.util
import statistics
import sys
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


def load_sweeps():
    """bench/run.py's sweep definitions, by workload name."""
    sys.path.insert(0, str(ROOT / "bench"))  # bench/run.py imports its sibling `checks`
    try:
        spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return {"static_hunts": bench.STATIC_SWEEP, "pursuit_hunts": bench.PURSUIT_SWEEP}


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout root of the parent")
    parser.add_argument("change", help="checkout root of the change")
    parser.add_argument("--workload", required=True, choices=("static_hunts", "pursuit_hunts"))
    parser.add_argument("--seed", type=int, default=7, help="sweep seed (default 7, the benchmark's reference)")
    parser.add_argument("--repeats", type=int, default=5, help="timed passes over every hunt (default 5)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    sweep = load_sweeps()[args.workload]
    packages = {side: load_package(path, side) for side, path in zip(SIDES, (args.parent, args.change))}
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
