"""Command-line front door: simulate, sweeps, adversary checks, export.

Thin wrappers over the library; the same inputs through library calls
produce identical output.  Exit codes: 0 success, 2 validation error,
1 runtime error.
"""

import argparse
import math
import sys

from .coverage import MAX_GRID_RES, adversarial_static_placement, impossibility_report, tube_area
from .engine import SimConfig, simulate
from .experiments import (
    export_svg,
    sweep_dynamic,
    sweep_static,
    write_rows_csv,
    write_rows_jsonl,
)
from .geometry import Point
from .searcher import dynamic_plan, static_plan
from .target import inert, load_waypoints, radial_flee
from .trajectory import MAX_DIAGONAL, prefix_polyline


def _point(text):
    try:
        x, y = text.split(",")
        return Point(float(x), float(y))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected x,y got {text!r}") from exc


def _floats(text):
    return [float(tok) for tok in text.split(",")]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="planehunt",
        description="Search and pursuit in the plane with square-spiral schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one searcher against one target")
    sim.add_argument("--algo", choices=["static", "dynamic"], default="static",
                     help="searcher speed profile")
    sim.add_argument("--target", type=_point, help="inert target position x,y (length units)")
    sim.add_argument("--waypoints", help="waypoint strategy file (`v <bound>` header, `t x y` lines)")
    sim.add_argument("--v", type=float, default=0.0, help="flee speed of the target (length/time)")
    sim.add_argument("--t-freeze", type=float, default=0.0, help="flee-then-freeze switch time (time units)")
    sim.add_argument("--r", type=float, required=True, help="sensing radius (length units)")
    sim.add_argument("--max-cost", type=float, default=math.inf, help="arc-length budget (length units)")
    sim.add_argument("--max-diagonal", type=int, default=MAX_DIAGONAL,
                     help=f"diagonal budget (index, 1..{MAX_DIAGONAL})")
    sim.add_argument("--trace", help="write per-event trace lines `t cost ax ay tx ty event` to this path")

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--r", type=_floats, required=True, help="comma list of sensing radii (length units)")
    sweep.add_argument("--samples", type=int, default=10, help="targets per parameter cell")
    sweep.add_argument("--seed", type=int, required=True, help="RNG seed (mandatory, reproducibility)")
    sweep.add_argument("--jobs", type=int, default=1, help="parallel workers; output order is deterministic")
    sweep.add_argument("--out", help="CSV output path (stdout if omitted)")
    sweep.add_argument("--jsonl", help="optional line-delimited JSON output path")

    sst = sub.add_parser("sweep-static", parents=[sweep], help="seeded sweep of the unit-speed searcher")
    sst.add_argument("--D", type=_floats, required=True, help="comma list of distance bounds (length units)")

    sdy = sub.add_parser("sweep-dynamic", parents=[sweep], help="seeded sweep of the accelerating searcher")
    sdy.add_argument("--v", type=_floats, required=True, help="comma list of target speed bounds (length/time)")
    sdy.add_argument("--D", type=float, default=1.0, help="initial distance bound (length units)")

    adv = sub.add_parser("adversary", help="hidden-target witnesses and tube report for a schedule prefix")
    adv.add_argument("--i", type=int, required=True, help="ring count (annuli 1..i), 1..510")
    adv.add_argument("--max-cost", type=float, required=True, help="trajectory prefix arc length (length units)")
    adv.add_argument("--grid-res", type=int, default=256, help=f"witness grid resolution per ring, 32..{MAX_GRID_RES}")

    imp = sub.add_parser("impossibility", help="polynomial-speed contradiction table")
    imp.add_argument("--c", type=int, required=True, help="speed exponent (speed <= t^c), c >= 2")
    imp.add_argument("--d", type=float, default=1.0, help="constant of the optimal cost to beat")
    imp.add_argument("--m-max", type=int, default=12, help="sweep v=2^m, r=2^-m for m=1..m-max")

    svg = sub.add_parser("export-svg", help="draw a schedule prefix as a standalone SVG")
    svg.add_argument("--max-cost", type=float, required=True, help="prefix arc length (length units)")
    svg.add_argument("--out", required=True, help="output SVG path")
    return parser


def _cmd_simulate(args):
    if (args.target is None) == (args.waypoints is None):
        raise ValueError("give exactly one of --target or --waypoints")
    if not (math.isfinite(args.v) and args.v >= 0):
        raise ValueError(f"--v must be finite and >= 0, got {args.v}")
    if not math.isfinite(args.t_freeze):
        raise ValueError(f"--t-freeze must be finite, got {args.t_freeze}")
    if args.waypoints is not None:
        if args.v or args.t_freeze:  # the file declares its own motion
            raise ValueError("--v and --t-freeze apply to --target, not to --waypoints")
        strategy = load_waypoints(args.waypoints)
    elif args.v > 0:
        strategy = radial_flee(Point(0.0, 0.0), args.target, args.v, args.t_freeze)
    else:
        strategy = inert(args.target)
    plan = dynamic_plan() if args.algo == "dynamic" else static_plan()
    cfg = SimConfig(r=args.r, max_cost=args.max_cost, max_diagonal=args.max_diagonal)
    out = simulate(plan, strategy, cfg, trace=args.trace)
    print(
        f"sensed={out.sensed} cost={out.cost:.9g} time={out.time:.9g} "
        f"agent=({out.agent_pos.x:.9g},{out.agent_pos.y:.9g}) "
        f"target=({out.target_pos.x:.9g},{out.target_pos.y:.9g}) "
        f"diagonal={out.diagonal} legs={out.legs_processed} stop={out.stop_reason}"
    )
    return 0


def _cmd_sweep(args):
    if args.command == "sweep-static":
        rows = sweep_static(args.D, args.r, args.samples, args.seed, jobs=args.jobs)
    else:
        rows = sweep_dynamic(args.v, args.r, args.D, args.samples, args.seed, jobs=args.jobs)
    write_rows_csv(rows, args.out or None)
    if args.jsonl:
        write_rows_jsonl(rows, args.jsonl)
    return 0


def _cmd_adversary(args):
    # every row is computed before the first line is printed, so a
    # report that fails prints nothing
    if not 32 <= args.grid_res <= MAX_GRID_RES:
        raise ValueError(f"--grid-res must be in 32..{MAX_GRID_RES}, got {args.grid_res}")
    prefix = prefix_polyline(args.max_cost)
    lines = ["j D_j r_j witness_x witness_y tube_area tube_bound"]
    for j, D_j, r_j, witness in adversarial_static_placement(prefix, args.i, grid_res=args.grid_res):
        report = tube_area(prefix, r_j, grid_res=min(args.grid_res, 256))
        wtxt = "none none" if witness is None else f"{witness.x:.9g} {witness.y:.9g}"
        lines.append(f"{j} {D_j:g} {r_j:g} {wtxt} {report.estimated_area:.9g} {report.analytic_bound:.9g}")
    print("\n".join(lines))
    return 0


def _cmd_impossibility(args):
    report = impossibility_report(args.c, args.d, args.m_max)
    print("m v r min_catch_time min_cost optimal_cost ratio exceeds crossover")
    for m, row in enumerate(report.rows, 1):
        mark = "*" if m == report.crossover_m else ""
        print(
            f"{m} {row.v:g} {row.r:g} {row.min_catch_time:.6g} "
            f"{row.min_cost:.6g} {row.optimal_cost:.6g} {row.min_cost / row.optimal_cost:.6g} "
            f"{row.exceeds} {mark}"
        )
    print(f"# crossover_m={report.crossover_m} slope={report.slope:.4f} beta={report.beta:g}")
    return 0


def _cmd_export_svg(args):
    prefix = prefix_polyline(args.max_cost)
    export_svg(prefix, args.out)
    print(args.out)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep-static": _cmd_sweep,
    "sweep-dynamic": _cmd_sweep,
    "adversary": _cmd_adversary,
    "impossibility": _cmd_impossibility,
    "export-svg": _cmd_export_svg,
}


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - single-line diagnostic contract
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
