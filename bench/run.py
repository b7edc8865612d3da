"""planehunt benchmark: seeded CLI workloads, output checks, traced layers.

    python3 bench/run.py --workload static_hunts --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 7

Every command of a run is one `planehunt` CLI invocation executed through
`planehunt.cli.run(argv)` in a fresh Python process (bench/child.py) with
`--jobs 1`, one process at a time, so caches start cold as they do for a
user.  A run repeats the workload's command for --seconds seconds: the
first at the reference seed, checked against the recorded reference rows,
and command k after it at sweep seed 1000 * --seed + k.  Every command's
output is checked.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced commands on the reference inputs and prints the per-layer
metrics, whose self times account for the traced run_s.  The last line
of standard output is one JSON object: correct, attempted, failed,
metrics.  A full record of the run goes to .bench_out/results/.  See
bench/README.md for the metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference"
REFERENCE_SEED = 7
CHILD_TIMEOUT_S = 150
MIN_COMMANDS = 3  # untraced commands per --trace 0 run
MIN_TRACED = 2  # traced and untraced commands each per --trace 1 run

STATIC_SWEEP = {
    "command": "sweep-static",
    "outer": ("D", [1.0, 2.0, 4.0, 8.0, 16.0]),
    "inner": ("r", [0.25, 0.0625, 0.015625, 0.00390625]),
    "fixed": {"v": 0.0},
    "extra_argv": [],
    "samples": 200,
    "algorithm": "static",
}
PURSUIT_SWEEP = {
    "command": "sweep-dynamic",
    "outer": ("v", [1.0, 4.0, 16.0]),
    "inner": ("r", [0.0625, 0.015625, 0.00390625]),
    "fixed": {"D": 1.0},
    "extra_argv": ["--D", "1"],
    "samples": 30,
    "algorithm": "dynamic",
}
ADVERSARY = {"i": 4, "max_cost": 4000.0, "grid_res": 128, "tube_grid_res": 128}

# name -> (kind, parameters, reference file)
WORKLOADS = {
    "static_hunts": ("sweep", STATIC_SWEEP, "static_hunts.csv.gz"),
    "pursuit_hunts": ("sweep", PURSUIT_SWEEP, "pursuit_hunts.csv.gz"),
    "adversary_report": ("adversary", ADVERSARY, "adversary_report.txt"),
}

# Per-layer metrics: (name, unit, span name, field).  Field is the span
# statistic ("spans", "self_s", "total_s") or None for a work count.
PER_LAYER = (
    ("trajectory.pi_arrays.calls", "count", "trajectory.pi_arrays", "spans"),
    ("trajectory.pi_arrays.self_s", "s", "trajectory.pi_arrays", "self_s"),
    ("trajectory.pi_arrays.legs_built", "count", "trajectory.pi_arrays", None),
    ("engine.simulate.calls", "count", "engine.simulate", "spans"),
    ("engine.simulate.self_s", "s", "engine.simulate", "self_s"),
    ("engine.legs", "count", "engine.simulate", None),
    ("engine.legs_per_s", "1/s", "engine.simulate", None),
    ("engine.path.inert", "count", "engine.path.inert", None),
    ("engine.path.event_driven", "count", "engine.path.event_driven", None),
    ("geometry.first_contact_time.calls", "count", "geometry.first_contact_time", "spans"),
    ("geometry.first_contact_time.self_s", "s", "geometry.first_contact_time", "self_s"),
    ("geometry.first_contact_time.hit_ratio", "ratio", "geometry.first_contact_time", None),
    ("target.constant_velocity_pieces.calls", "count", "target.constant_velocity_pieces", None),
    ("target.constant_velocity_pieces.self_s", "s", "target.constant_velocity_pieces", "self_s"),
    ("target.position.calls", "count", "target.position", "spans"),
    ("target.position.self_s", "s", "target.position", "self_s"),
    ("trajectory.full_schedule.items", "count", "trajectory.full_schedule", None),
    ("trajectory.full_schedule.self_s", "s", "trajectory.full_schedule", "self_s"),
    ("searcher.dynamic_q.calls", "count", "searcher.dynamic_q", "spans"),
    ("searcher.dynamic_q.self_s", "s", "searcher.dynamic_q", "self_s"),
    ("searcher.predict_dynamic.self_s", "s", "searcher.predict_dynamic", "self_s"),
    ("experiments.sample_target.self_s", "s", "experiments.sample_target", "self_s"),
    ("experiments.self_s", "s", "experiments", "self_s"),
    ("experiments.write_rows_csv.self_s", "s", "experiments.write_rows_csv", "self_s"),
    ("experiments.write_rows_csv.bytes", "B", "experiments.write_rows_csv", None),
    ("target.adversarial_static_placement.self_s", "s", "target.adversarial_static_placement", "self_s"),
    ("target.adversarial_static_placement.candidate_segment_pairs", "count",
     "target.adversarial_static_placement", None),
    ("coverage.tube_area.calls", "count", "coverage.tube_area", "spans"),
    ("coverage.tube_area.self_s", "s", "coverage.tube_area", "self_s"),
    ("coverage.tube_area.grid_cells", "count", "coverage.tube_area", None),
    ("trajectory.prefix_polyline.self_s", "s", "trajectory.prefix_polyline", "self_s"),
    ("trajectory.prefix_polyline.vertices", "count", "trajectory.prefix_polyline", None),
    ("cli.run.self_s", "s", "cli.run", "self_s"),
    ("trace.run_s", "s", None, None),
    ("trace.untraced_run_s", "s", None, None),
    ("trace.overhead_s", "s", None, None),
    ("trace.remainder_s", "s", None, None),
)

# Printed and recorded, but left out of the JSON metrics that gate a
# change: the tail latency of a hunt moves with other load on a shared host
# by more than the largest bound a metric may have (its ten-seed quartile
# spread on static_hunts was 0.37 of its median on a 2-core VM).
REPORTED_ONLY = ("latency_tail_ms",)

# Work counts a traced command derives from its own inputs; they must
# repeat exactly between commands of the same code and seed.
WORK_COUNTS = (
    "engine.legs",
    "trajectory.pi_arrays.legs_built",
    "target.adversarial_static_placement.candidate_segment_pairs",
    "coverage.tube_area.grid_cells",
    "trajectory.prefix_polyline.vertices",
    "experiments.write_rows_csv.bytes",
    "trajectory.full_schedule.items",
    "geometry.first_contact_time.hits",
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an output check failure)."""


def machine_facts():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "loadavg_at_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def workload_argv(name, seed, out_path):
    kind, params, _ = WORKLOADS[name]
    if kind == "adversary":
        return ["adversary", "--i", str(params["i"]), "--max-cost", f"{params['max_cost']:g}",
                "--grid-res", str(params["grid_res"])]
    outer_name, outer = params["outer"]
    inner_name, inner = params["inner"]
    argv = [params["command"],
            f"--{outer_name}", ",".join(f"{x:g}" for x in outer),
            f"--{inner_name}", ",".join(f"{x:g}" for x in inner),
            *params["extra_argv"]]
    return argv + ["--samples", str(params["samples"]), "--seed", str(seed),
                   "--jobs", "1", "--out", str(out_path)]


def run_child(argv, trace, spans_path=None):
    """Run one command in a fresh process; returns the child's record."""
    spec = json.dumps({"argv": argv, "trace": trace, "spans_path": str(spans_path)})
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), spec],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"command {argv} exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child for {argv} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        record = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        raise BenchError(f"child for {argv} printed no record: {proc.stdout[-500:]!r}") from exc
    record["setup_s"] = record.pop("ready") - spawn
    record["stderr"] = proc.stderr
    return record


class Run:
    """Commands of one workload run and their check results."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.kind, self.params, ref_file = WORKLOADS[name]
        self.tail_pct = None
        self.absent = []
        self.reference = checks.read_reference(REFERENCE / ref_file)
        self.seeded = self.kind == "sweep"
        self.time_bound = checks.dynamic_time_bound() if name == "pursuit_hunts" else None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.records = []
        self.digests = {}
        self.traced_counts = []
        (OUT / "rows").mkdir(parents=True, exist_ok=True)
        (OUT / "spans").mkdir(parents=True, exist_ok=True)

    def command(self, seed, trace):
        """Run, check and record one command; returns its record."""
        csv_path = OUT / "rows" / f"{self.name}.csv"
        spans_path = OUT / "spans" / f"{self.name}.npz"
        if csv_path.exists():
            csv_path.unlink()
        argv = workload_argv(self.name, seed, csv_path)
        rec = run_child(argv, trace, spans_path)
        rec.update(argv=argv, seed=seed, trace=trace)
        output = rec["stdout"]
        if self.kind == "sweep":
            output = csv_path.read_text() if csv_path.exists() else ""
        self._check(rec, output, seed)
        self.records.append(rec)
        return rec

    def _check(self, rec, output, seed):
        reference = self.reference if (seed == REFERENCE_SEED or not self.seeded) else None
        if self.kind == "sweep":
            attempted, failed, problems = checks.check_sweep(
                output, self.params, seed, reference, self.time_bound)
        else:
            attempted, failed, problems = checks.check_adversary(output, self.params, reference)
        if rec["exit_code"] != 0:
            failed = attempted
            problems.insert(0, f"exit code {rec['exit_code']}: {rec['stderr'].strip()[-300:]}")
        digest = hash(output)
        if self.digests.setdefault(seed, digest) != digest:
            failed = attempted
            problems.insert(0, "output differs from an earlier command with the same seed")
        if rec["trace"]:
            counts = {k: rec["counts"].get(k, 0) for k in WORK_COUNTS}
            if self.traced_counts and counts != self.traced_counts[0]:
                failed = attempted
                problems.insert(0, f"work counts {counts} differ from {self.traced_counts[0]}")
            self.traced_counts.append(counts)
        rec["ops"], rec["failed_ops"] = attempted, failed
        self.attempted += attempted
        self.failed += failed
        self.problems += [f"{rec['argv'][0]} seed={seed}: {p}" for p in problems]

    def commands(self, trace):
        return [r for r in self.records if r["trace"] == trace]


def execute(name, seed, seconds, trace):
    """One run of one workload; returns (Run, metrics {name: (value, unit, samples)})."""
    run = Run(name, seed)
    start = time.monotonic()
    if not trace:
        while len(run.records) < MIN_COMMANDS or time.monotonic() - start < seconds:
            run.command(command_seed(run, len(run.records)), trace=False)
        return run, end_to_end_metrics(run)
    # Traced and untraced commands all use the reference inputs: tracing must
    # not change the output, and the work counts must repeat exactly, also
    # between runs and commits.
    while (min(len(run.commands(False)), len(run.commands(True))) < MIN_TRACED
           or time.monotonic() - start < seconds):
        trace_next = len(run.commands(True)) < len(run.commands(False))
        run.command(command_seed(run, 0), trace=trace_next)
    return run, per_layer_metrics(run)


def command_seed(run, k):
    """Sweep seed of a run's k-th command.

    Command 0 uses the reference seed, so every run is checked against the
    reference rows.  The others draw new targets (1000 * seed + k), which
    averages the seed-to-seed variation in work over the run instead of
    repeating one draw.
    """
    if not run.seeded:
        return run.seed
    return REFERENCE_SEED if k == 0 else run.seed * 1000 + k


def tail_percentile(n):
    """Highest of the usual percentiles with at least ten of n samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def end_to_end_metrics(run):
    commands = run.commands(False)
    run_s = [r["run_s"] for r in commands]
    # One latency sample per hunt, or per report on the adversary.  The
    # median is taken over the pooled samples.  The tail is taken per
    # command and the median over commands reported: a pooled tail is set
    # by whichever commands ran during a slow stretch of the host.
    if run.kind == "sweep":
        per_command = [np.asarray(r["hunt_s"]) * 1e3 for r in commands]
    else:
        per_command = [np.array([t * 1e3]) for t in run_s]
    tail = tail_percentile(min(s.size for s in per_command))
    samples = np.concatenate(per_command)
    n = samples.size
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in run.records), "s", len(run.records)),
        "run_s": (statistics.median(run_s), "s", len(run_s)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in commands), "MB", len(commands)),
        "latency_p50_ms": (np.percentile(samples, 50), "ms", n),
        "latency_tail_ms": (statistics.median(np.percentile(s, tail) for s in per_command), "ms", n),
    }
    run.tail_pct = tail
    return {k: (float(v), u, n) for k, (v, u, n) in metrics.items()}


def per_layer_metrics(run):
    traced = run.commands(True)
    untraced = run.commands(False)
    present = set(traced[0]["present"])

    def median_of(fn):
        return float(statistics.median(fn(r) for r in traced))

    def span(rec, span_name, field):
        return rec["layers"].get(span_name, {}).get(field, 0)

    def count(rec, key):
        return rec["counts"].get(key, 0)

    def legs_per_s(rec):
        inclusive = span(rec, "engine.simulate", "total_s")
        return count(rec, "engine.legs") / inclusive if inclusive > 0 else 0.0

    def hit_ratio(rec):
        calls = span(rec, "geometry.first_contact_time", "spans")
        return count(rec, "geometry.first_contact_time.hits") / calls if calls else 0.0

    def remainder(rec):
        return rec["run_s"] - sum(layer["self_s"] for layer in rec["layers"].values())

    traced_run_s = median_of(lambda r: r["run_s"])
    untraced_run_s = float(statistics.median(r["run_s"] for r in untraced))
    special = {
        "engine.legs": lambda r: count(r, "engine.legs"),
        "engine.legs_per_s": legs_per_s,
        "geometry.first_contact_time.hit_ratio": hit_ratio,
        "trace.run_s": lambda r: r["run_s"],
        "trace.untraced_run_s": lambda r: untraced_run_s,
        "trace.overhead_s": lambda r: traced_run_s - untraced_run_s,
        "trace.remainder_s": remainder,
    }
    metrics = {}
    run.absent = sorted({s for _, _, s, _ in PER_LAYER if s is not None} - present)
    for name, unit, span_name, field in PER_LAYER:
        if name in special:
            value = median_of(special[name])
        elif field is not None:
            value = median_of(lambda r: span(r, span_name, field))
        else:
            value = median_of(lambda r: count(r, name))
        metrics[name] = (value, unit, len(traced))
    return metrics


def report(run, metrics, trace, facts):
    """Print metric lines and write the results file; returns the result object."""
    tag = f"{run.name} seed={run.seed} trace={int(trace)}"
    for name, (value, unit, n) in metrics.items():
        pct = f"p{run.tail_pct:g}, " if name == "latency_tail_ms" else ""
        print(f"{tag} {name} = {value:.6g} {unit} ({pct}n={n})")
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"{tag} error_rate = {error_rate:.6g} ratio (n={run.attempted})")
    for name in run.absent:
        print(f"{tag} absent: {name} (its metrics read 0)")
    for problem in run.problems[:20]:
        print(f"{tag} CHECK FAILED: {problem}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()
                    if name not in REPORTED_ONLY},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = {
        "workload": run.name, "seed": run.seed, "trace": int(trace),
        "machine": dict(facts, numpy=run.records[0]["numpy"], child_python=run.records[0]["python"]),
        "result": result,
        "metrics": {name: {"value": value, "unit": unit, "samples": n}
                    for name, (value, unit, n) in metrics.items()},
        "tail_percentile": run.tail_pct,
        "error_rate": error_rate,
        "absent": run.absent,
        "problems": run.problems,
        "commands": [
            {k: r[k] for k in ("argv", "seed", "trace", "exit_code", "setup_s", "run_s",
                               "peak_rss_mb", "ops", "failed_ops")}
            | ({"counts": r["counts"], "layers": r["layers"], "missing": r["missing"],
                "spans": r["spans"]} if r["trace"] else {})
            for r in run.records
        ],
    }
    path = OUT / "results" / f"{run.name}-seed{run.seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "planehunt" / "cli.py").is_file():
        print(f"error: no planehunt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    facts = machine_facts()
    print("machine " + json.dumps(facts))
    jobs = ([(args.workload, bool(args.trace))] if args.workload != "all"
            else [(w, t) for w in WORKLOADS for t in (False, True)])
    results = {}
    try:
        for name, trace in jobs:
            run, metrics = execute(name, args.seed, args.seconds, trace)
            results[(name, trace)] = report(run, metrics, trace, facts)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for (name, _), r in results.items()
                        for m, v in r["metrics"].items()},
        }
    else:
        final = results[jobs[0]]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
