"""Desk-scale parameter sweeps certifying the cost bounds empirically.

Both searcher algorithms carry Theta((log scale + log 1/r) scale^2 / r)
cost bounds; at desk scale we check them as explicit constants: every
sensed run must stay below 80 y 2^(2y+2) for its predicted catch
diagonal y, and the ratio of cost to the bound's growth term must stay
bounded across the sweep.  Sweeps are seeded and byte-reproducible;
target samples are keyed by (seed, D, r, sample index) so that sweeps
sharing those values draw identical targets.
"""

import csv
import json
import math
import os
import struct
import xml.etree.ElementTree as ET
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coverage import poly_speed_certificate
from .engine import SimConfig, simulate
from .geometry import Point
from .searcher import dynamic_plan, predict_dynamic, static_plan
from .target import inert, radial_flee
from .trajectory import predict_static

# Desk-scale guards: keep the static catch diagonal <= 7 and the simulated
# dynamic search within diagonal 9, so runs stay near 10^5-10^6 legs.
MAX_D = 16.0
MIN_R = 2.0 ** (-8)
MAX_V = 16.0
DYNAMIC_MAX_DIAGONAL = 9

SWEEP_FIELDS = (
    "run_id",
    "D",
    "r",
    "v",
    "algorithm",
    "sensed",
    "cost",
    "time",
    "diagonal",
    "predicted_y",
    "cost_bound",
    "ratio",
    "seed",
)


@dataclass(frozen=True)
class SweepRow:
    run_id: int
    D: float
    r: float
    v: float
    algorithm: str
    sensed: bool
    cost: float
    time: float
    diagonal: int
    predicted_y: int
    cost_bound: float
    ratio: float
    seed: int


def _float_key(x):
    # stable 64-bit key from the bit pattern, for seed derivation
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def sample_target(seed, D, r, sample_idx):
    """Deterministic uniform draw from the disc of radius D.

    Keyed by values, not loop indices, so a static sweep and a dynamic
    sweep with the same (seed, D, r) draw the same target positions.
    """
    rng = np.random.default_rng(
        [seed, _float_key(D), _float_key(r), sample_idx]
    )
    # the same two doubles, and the same products, as uniform(0, 2 pi) then uniform()
    u0, u1 = rng.random(2)
    theta = 2.0 * math.pi * u0
    rad = D * math.sqrt(u1)
    return Point(rad * math.cos(theta), rad * math.sin(theta))


def _growth_term(scale, r):
    return (math.log2(scale) + math.log2(1.0 / r)) * scale * scale / r


def _check_guard(Ds, rs, vs=()):
    for D in Ds:
        if not 0 < D <= MAX_D:
            raise ValueError(f"D={D} outside the desk-scale guard 0 < D <= {MAX_D}")
    for r in rs:
        if not MIN_R <= r:
            raise ValueError(f"r={r} below the desk-scale guard r >= {MIN_R}")
    for v in vs:
        if not 0 <= v <= MAX_V:
            raise ValueError(f"v={v} outside the desk-scale guard 0 <= v <= {MAX_V}")


def _static_cell(args):
    D, r, samples, seed, run_id0 = args
    pred = predict_static(D, r)
    cfg = SimConfig(r=r, max_diagonal=pred.y)
    plan = static_plan()
    rows = []
    for s in range(samples):
        p = sample_target(seed, D, r, s)
        out = simulate(plan, inert(p), cfg)
        ratio = out.cost / _growth_term(D, r) if out.sensed else math.nan
        rows.append(
            SweepRow(
                run_id=run_id0 + s,
                D=D,
                r=r,
                v=0.0,
                algorithm="static",
                sensed=out.sensed,
                cost=out.cost,
                time=out.time,
                diagonal=out.diagonal,
                predicted_y=pred.y,
                cost_bound=pred.cost_bound,
                ratio=ratio,
                seed=seed,
            )
        )
    return rows


def sweep_static(Ds, rs, samples, seed, jobs=1):
    """Simulate the unit-speed searcher against seeded inert targets."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _check_guard(Ds, rs)
    cells = []
    run_id = 0
    for D in Ds:
        for r in rs:
            cells.append((D, r, samples, seed, run_id))
            run_id += samples
    return _run_cells(_static_cell, cells, jobs)


def flee_time_from_plan(plan, arc=0.5):
    """Time at which the plan has traversed `arc` units of path length.

    The flee-then-freeze adversary lets the target run exactly while the
    searcher covers its first half unit of arc.
    """
    from .trajectory import diagonal_length

    covered = 0.0
    t = 0.0
    i = 1
    while True:
        speed = plan.speed_of_diagonal(i)
        length = diagonal_length(i)
        if covered + length >= arc:
            return t + (arc - covered) / speed
        covered += length
        t += length / speed
        i += 1


def _dynamic_cell(args):
    v, r, D, samples, seed, run_id0 = args
    plan = dynamic_plan()
    pred = predict_dynamic(D, v, r)
    cfg = SimConfig(r=r, max_diagonal=min(pred.y, DYNAMIC_MAX_DIAGONAL))
    t_freeze = flee_time_from_plan(plan) if v > 0 else 0.0
    origin = Point(0.0, 0.0)
    M = max(D, v, 1.0)
    rows = []
    for s in range(samples):
        p = sample_target(seed, D, r, s)
        if v > 0:
            strategy = radial_flee(origin, p, v, t_freeze)
        else:
            strategy = inert(p)
        out = simulate(plan, strategy, cfg)
        ratio = out.cost / _growth_term(M, r) if out.sensed else math.nan
        rows.append(
            SweepRow(
                run_id=run_id0 + s,
                D=D,
                r=r,
                v=v,
                algorithm="dynamic",
                sensed=out.sensed,
                cost=out.cost,
                time=out.time,
                diagonal=out.diagonal,
                predicted_y=pred.y,
                cost_bound=pred.cost_bound,
                ratio=ratio,
                seed=seed,
            )
        )
    return rows


def sweep_dynamic(vs, rs, D, samples, seed, jobs=1):
    """Simulate the accelerating searcher against flee-then-freeze targets.

    v = 0 entries fall back to inert targets and share target draws with
    sweep_static under the same (seed, D, r), so their cost columns match.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _check_guard([D], rs, vs)
    cells = []
    run_id = 0
    for v in vs:
        for r in rs:
            cells.append((v, r, D, samples, seed, run_id))
            run_id += samples
    return _run_cells(_dynamic_cell, cells, jobs)


def _run_cells(worker, cells, jobs):
    if jobs <= 1 or len(cells) <= 1:
        results = [worker(c) for c in cells]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells), os.cpu_count() or 1)) as pool:
            results = list(pool.map(worker, cells))
    rows = [row for cell_rows in results for row in cell_rows]
    rows.sort(key=lambda row: row.run_id)
    return rows


@dataclass(frozen=True)
class ImpossibilityRow:
    m: int
    v: float
    r: float
    min_catch_time: float
    min_cost: float
    optimal_cost: float
    ratio: float
    exceeds: bool


@dataclass(frozen=True)
class ImpossibilityReport:
    c: int
    d: float
    rows: tuple
    crossover_m: int  # first m from which min_cost > optimal_cost onward, or -1
    slope: float  # fitted d log(min_cost) / d log(v^2/r) over the last 4 rows
    beta: float  # analytic exponent (c+1)/(c-1)


def impossibility_report(c, d, m_max):
    """Tabulate the polynomial-speed contradiction along v=2^m, r=2^-m."""
    if m_max < 4:
        raise ValueError("m_max must be >= 4")
    rows = []
    for m in range(1, m_max + 1):
        cert = poly_speed_certificate(c, 2.0 ** m, 2.0 ** (-m), d)
        rows.append(
            ImpossibilityRow(
                m=m,
                v=cert.v,
                r=cert.r,
                min_catch_time=cert.min_catch_time,
                min_cost=cert.min_cost,
                optimal_cost=cert.optimal_cost,
                ratio=cert.min_cost / cert.optimal_cost,
                exceeds=cert.exceeds,
            )
        )
    crossover = -1
    for idx in range(len(rows)):
        if all(row.exceeds for row in rows[idx:]):
            crossover = rows[idx].m
            break
    tail = rows[-4:]
    xs = [math.log(row.v * row.v / row.r) for row in tail]
    ys = [math.log(row.min_cost) for row in tail]
    slope = float(np.polyfit(xs, ys, 1)[0])
    return ImpossibilityReport(
        c=c,
        d=d,
        rows=tuple(rows),
        crossover_m=crossover,
        slope=slope,
        beta=(c + 1) / (c - 1),
    )


def write_rows_csv(rows, path):
    """Comma-separated sweep rows with the fixed documented header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_FIELDS)
        for row in rows:
            writer.writerow([getattr(row, f) for f in SWEEP_FIELDS])


def write_rows_jsonl(rows, path):
    """Line-delimited JSON variant of the sweep output."""
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps({f: getattr(row, f) for f in SWEEP_FIELDS}) + "\n")


def export_svg(prefix, events, path, target_path=None, canvas=800.0, margin=40.0):
    """Standalone vector drawing of a trajectory prefix.

    prefix: (n+1, 2) polyline of the searcher; events: sequence of
    (label, Point) markers (e.g. ("sense", p)); target_path: optional
    polyline of the target.  Coordinates are scaled to a fixed canvas.
    """
    prefix = np.asarray(prefix, dtype=np.float64)
    if prefix.ndim != 2 or prefix.shape[0] < 1:
        raise ValueError("prefix polyline must be a nonempty (n, 2) array")
    pts = [prefix]
    if target_path is not None:
        pts.append(np.asarray(target_path, dtype=np.float64))
    if events:
        pts.append(np.array([[p.x, p.y] for _, p in events]))
    allpts = np.vstack(pts)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = max(hi[0] - lo[0], hi[1] - lo[1], 1e-12)
    scale = (canvas - 2 * margin) / span

    def to_canvas(p):
        # y flipped: SVG y grows downward
        return (
            margin + (p[0] - lo[0]) * scale,
            canvas - margin - (p[1] - lo[1]) * scale,
        )

    root = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=f"{canvas:g}",
        height=f"{canvas:g}",
        viewBox=f"0 0 {canvas:g} {canvas:g}",
    )
    d = "M{:.3f} {:.3f}".format(*to_canvas(prefix[0]))
    for p in prefix[1:]:
        d += "L{:.3f} {:.3f}".format(*to_canvas(p))
    ET.SubElement(root, "path", d=d, fill="none", stroke="black")
    if target_path is not None and len(target_path) > 1:
        td = "M{:.3f} {:.3f}".format(*to_canvas(target_path[0]))
        for p in target_path[1:]:
            td += "L{:.3f} {:.3f}".format(*to_canvas(p))
        ET.SubElement(root, "path", d=td, fill="none", stroke="red")
    sx, sy = to_canvas(prefix[0])
    ET.SubElement(root, "circle", cx=f"{sx:.3f}", cy=f"{sy:.3f}", r="4", fill="blue")
    for label, p in events:
        ex, ey = to_canvas((p.x, p.y))
        ET.SubElement(
            root, "circle", cx=f"{ex:.3f}", cy=f"{ey:.3f}", r="4",
            fill="red", **{"data-label": label},
        )
    try:
        ET.ElementTree(root).write(path)
    except OSError as exc:
        raise OSError(f"failed to write SVG to {path}: {exc}") from exc
    return path
