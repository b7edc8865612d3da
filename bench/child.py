"""One benchmark command: a `planehunt` CLI invocation in a fresh process.

Run by bench/run.py as `python3 bench/child.py '<json spec>'`; not meant
to be run by hand.  The spec holds the CLI argv, whether to trace, and
where to write spans.  The process imports `planehunt.cli` from the
checkout's `src/` (the moment that import finishes ends set-up), runs
`planehunt.cli.run(argv)` once with its standard output captured, and
prints one JSON object describing the command on its own standard output.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import planehunt.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402


def _install_hunt_timer(latencies):
    """One perf_counter pair around each hunt, at the sweeps' lookup point."""
    import planehunt.experiments as experiments

    simulate = experiments.simulate
    clock = time.perf_counter
    add = latencies.append

    def timed(*args, **kwargs):
        t0 = clock()
        result = simulate(*args, **kwargs)
        add(clock() - t0)
        return result

    experiments.simulate = timed


def main():
    spec = json.loads(sys.argv[1])
    source = Path(planehunt.cli.__file__).resolve()
    if not source.is_relative_to((ROOT / "src").resolve()):
        print(f"planehunt imported from {source}, not from the checkout", file=sys.stderr)
        return 3

    out = {"ready": READY, "python": platform.python_version(), "numpy": numpy.__version__}
    captured = io.StringIO()
    tracer = None
    latencies = []
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        with contextlib.redirect_stdout(captured):
            code, run_s = tracer.run_root(planehunt.cli.run, spec["argv"])
    else:
        _install_hunt_timer(latencies)
        with contextlib.redirect_stdout(captured):
            t0 = time.perf_counter()
            code = planehunt.cli.run(spec["argv"])
            run_s = time.perf_counter() - t0

    out.update(
        exit_code=code,
        run_s=run_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        stdout=captured.getvalue(),
        hunt_s=latencies,
    )
    if tracer is not None:
        out.update(
            layers=tracer.layer_times(),
            counts=tracer.work_counts(),
            present=sorted(tracer.present),
            missing=tracer.missing,
            spans=len(tracer.start),
        )
        tracer.save(spec["spans_path"])
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
