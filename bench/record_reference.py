"""Record the reference outputs the benchmark checks its runs against.

    python3 bench/record_reference.py

Runs each workload's command once at the reference seed, through the same
child process as the benchmark, and writes its output to bench/reference/.
Re-record only when a change to the program's output is intended and
explained; otherwise the reference would stop catching a regression.
"""

import gzip
import sys

import run


def main():
    run.REFERENCE.mkdir(exist_ok=True)
    (run.OUT / "rows").mkdir(parents=True, exist_ok=True)
    for name, (kind, _, ref_file) in run.WORKLOADS.items():
        csv_path = run.OUT / "rows" / f"{name}-reference.csv"
        rec = run.run_child(run.workload_argv(name, run.REFERENCE_SEED, csv_path), trace=False)
        if rec["exit_code"] != 0:
            print(f"{name}: exit code {rec['exit_code']}: {rec['stderr']}", file=sys.stderr)
            return 1
        target = run.REFERENCE / ref_file
        if kind == "sweep":
            target.write_bytes(gzip.compress(csv_path.read_bytes(), mtime=0))
        else:
            target.write_text(rec["stdout"])
        print(f"{name}: wrote {target.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
