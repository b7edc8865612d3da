"""Output checks for the benchmark workloads, independent of planehunt.

Nothing here imports the package under test.  The schedule prefix, the
certified time bound q and the point-to-prefix distances are recomputed
from the paper's definitions, so a defect in the program cannot hide by
also being in its checker.

Each check returns (attempted, failed, problems): one operation is one
sweep row (a hunt) or one adversary ring, and an operation fails when any
check on it fails.
"""

import csv
import gzip
import io
import math

import numpy as np

REL_TOL = 1e-9  # cost, time and ratio against the reference rows
PRINT_REL_TOL = 1e-8  # values the CLI prints with 9 significant digits
EXACT_FIELDS = ("run_id", "D", "r", "v", "algorithm", "seed", "sensed", "diagonal",
                "predicted_y", "cost_bound")
CLOSE_FIELDS = ("cost", "time", "ratio")
MAX_PROBLEMS = 10


def read_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def read_reference(path):
    if path.suffix == ".gz":
        return gzip.decompress(path.read_bytes()).decode()
    return path.read_text()


# -- closed forms recomputed from the paper's definitions ------------------


def _diagonal_blocks(i):
    """(k, j) of the out-and-back spirals on diagonal i: k = 2^(i+1+t), j = 2t."""
    return [(2 ** (i + 1 + t), 2 * t) for t in range(1, i + 1)]


def dynamic_time_bound(terms=48, tail_start=10):
    """Certified bound q on the accelerating searcher's total time.

    Diagonal i has length sum over its blocks of 2(2k+2)(2k+3) 2^-j and is
    walked at speed 2^(5i); beyond the exact terms the per-diagonal time is
    dominated by 4^-i.
    """
    total = 0.0
    for i in range(1, terms + 1):
        length = sum(2.0 * (2 * k + 2) * (2 * k + 3) * 2.0 ** (-j) for k, j in _diagonal_blocks(i))
        total += length / 2.0 ** (5 * i)
    return total + 4.0 ** (-max(terms, tail_start)) / 3.0


def _block_legs(k, j):
    step = 2.0 ** (-j)
    out = []
    for m in range(1, 2 * k + 3):
        d = m * step
        out += [((1.0, 0.0), d), ((0.0, -1.0), d)] if m % 2 else [((-1.0, 0.0), d), ((0.0, 1.0), d)]
    back = [((-ux, -uy), d) for (ux, uy), d in reversed(out)]
    return out + back


def schedule_prefix(max_cost):
    """Vertices of the square-spiral schedule walked up to arc length max_cost."""
    x = y = 0.0
    pts = [(x, y)]
    remaining = max_cost
    i = 0
    while remaining > 0:
        i += 1
        for k, j in _diagonal_blocks(i):
            for (ux, uy), d in _block_legs(k, j):
                d = min(d, remaining)
                x, y = x + ux * d, y + uy * d
                pts.append((x, y))
                remaining -= d
                if remaining <= 0:
                    return np.array(pts)
    return np.array(pts)


def distance_to_polyline(p, polyline):
    """Exact Euclidean distance from point p to the polyline."""
    a = polyline[:-1]
    d = polyline[1:] - a
    len2 = (d * d).sum(axis=1)
    rel = np.asarray(p) - a
    t = np.divide((rel * d).sum(axis=1), len2, out=np.zeros_like(len2), where=len2 > 0)
    t = np.clip(t, 0.0, 1.0)
    gap = rel - t[:, None] * d
    return float(np.sqrt((gap * gap).sum(axis=1)).min())


def in_ring(p, j, center):
    """Ring j: Chebyshev distance in (2^(j-2), 2^(j-1)], the full square for j = 1."""
    cheb = max(abs(p[0] - center[0]), abs(p[1] - center[1]))
    return cheb <= 2.0 ** (j - 1) and (j == 1 or cheb > 2.0 ** (j - 2))


# -- sweeps -----------------------------------------------------------------


def _close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _as_value(field, text):
    if field in ("run_id", "seed", "diagonal", "predicted_y"):
        return int(text)
    if field in ("algorithm", "sensed"):
        return text
    return float(text)


def expected_keys(sweep, seed):
    """(run_id, D, r, v, algorithm, seed) of every row the sweep must emit."""
    outer_name, outer_values = sweep["outer"]
    inner_name, inner_values = sweep["inner"]
    keys = []
    for outer in outer_values:
        for inner in inner_values:
            for _ in range(sweep["samples"]):
                vals = dict(sweep["fixed"], **{outer_name: outer, inner_name: inner})
                keys.append((len(keys), vals["D"], vals["r"], vals["v"], sweep["algorithm"], seed))
    return keys


def check_sweep(text, sweep, seed, reference=None, time_bound=None):
    """Check every row of a sweep CSV.

    Each row must be sensed, cost <= cost_bound and diagonal <= predicted_y;
    with time_bound, also time <= time_bound.  The rows must be exactly the
    expected (run_id, D, r, v, algorithm, seed) grid.  With reference rows,
    the exact fields must match exactly and cost, time and ratio to a
    relative REL_TOL.
    """
    rows = read_rows(text)
    keys = expected_keys(sweep, seed)
    ref_rows = read_rows(reference) if reference is not None else None
    problems = []
    failed = 0
    for idx, key in enumerate(keys):
        row = rows[idx] if idx < len(rows) else None
        errs = _row_problems(row, key, time_bound)
        if not errs and ref_rows is not None:
            errs += _reference_problems(row, ref_rows[idx] if idx < len(ref_rows) else None)
        if errs:
            failed += 1
            if len(problems) < MAX_PROBLEMS:
                problems.append(f"row {idx}: " + "; ".join(errs))
    if len(rows) > len(keys):
        problems.append(f"{len(rows) - len(keys)} unexpected extra rows")
        failed += len(rows) - len(keys)
    return len(keys), min(failed, len(keys)), problems


def _row_problems(row, key, time_bound):
    if row is None:
        return ["missing"]
    try:
        got = tuple(_as_value(f, row[f]) for f in ("run_id", "D", "r", "v", "algorithm", "seed"))
        sensed = row["sensed"] == "True"
        cost, cost_bound = float(row["cost"]), float(row["cost_bound"])
        diagonal, predicted_y = int(row["diagonal"]), int(row["predicted_y"])
        t = float(row["time"])
    except (KeyError, ValueError) as exc:
        return [f"unparsable ({exc})"]
    errs = []
    if got != key:
        errs.append(f"key {got} != expected {key}")
    if not sensed:
        errs.append("not sensed")
    if not cost <= cost_bound:
        errs.append(f"cost {cost} > cost_bound {cost_bound}")
    if not diagonal <= predicted_y:
        errs.append(f"diagonal {diagonal} > predicted_y {predicted_y}")
    if time_bound is not None and not t <= time_bound:
        errs.append(f"time {t} > q {time_bound}")
    return errs


def _reference_problems(row, ref):
    if ref is None:
        return ["no reference row"]
    errs = []
    for f in EXACT_FIELDS:
        if _as_value(f, row[f]) != _as_value(f, ref[f]):
            errs.append(f"{f} {row[f]} != reference {ref[f]}")
    for f in CLOSE_FIELDS:
        if not _close(float(row[f]), float(ref[f])):
            errs.append(f"{f} {row[f]} != reference {ref[f]}")
    return errs


# -- adversary report -------------------------------------------------------


def _parse_report(text):
    lines = [ln.split() for ln in text.strip().splitlines()]
    if not lines or lines[0] != "j D_j r_j witness_x witness_y tube_area tube_bound".split():
        raise ValueError("missing report header")
    return lines[1:]


def witness_pattern(text):
    """'W' for a ring with a witness, '-' for a covered ring."""
    return "".join("-" if fields[3] == "none" else "W" for fields in _parse_report(text))


def check_adversary(text, adversary, reference):
    """Check every ring of an `adversary` report.

    A witness must lie in ring j and farther than r_j from the prefix, by
    this module's own distance computation; the witness/none pattern must
    match the reference; each tube area must be at most the sausage bound
    2 r L + pi r^2 plus the rasterization slack 4 * cell diagonal * L.
    """
    rings = adversary["i"]
    try:
        rows = _parse_report(text)
        expected = witness_pattern(reference)
    except ValueError as exc:
        return rings, rings, [str(exc)]
    prefix = schedule_prefix(adversary["max_cost"])
    length = float(np.sqrt((np.diff(prefix, axis=0) ** 2).sum(axis=1)).sum())
    problems = []
    failed = 0
    for j in range(1, rings + 1):
        fields = rows[j - 1] if j - 1 < len(rows) else None
        errs = _ring_problems(fields, j, rings, prefix, length, adversary["tube_grid_res"])
        if not errs and j - 1 < len(expected):
            got = "-" if fields[3] == "none" else "W"
            if got != expected[j - 1]:
                errs.append(f"witness pattern {got!r} != reference {expected[j - 1]!r}")
        if errs:
            failed += 1
            problems.append(f"ring {j}: " + "; ".join(errs))
    return rings, failed, problems


def _ring_problems(fields, j, rings, prefix, length, grid_res):
    if fields is None or len(fields) != 7:
        return ["missing or malformed line"]
    try:
        jj, D_j, r_j = int(fields[0]), float(fields[1]), float(fields[2])
        area, bound = float(fields[5]), float(fields[6])
    except ValueError as exc:
        return [f"unparsable ({exc})"]
    r_exact = 2.0 ** (-2 * (rings - j + 1))
    errs = []
    if (jj, D_j, r_j) != (j, 2.0 ** j, r_exact):
        errs.append(f"ring header {fields[:3]} != {(j, 2.0 ** j, r_exact)}")
    if fields[3] != "none":
        w = (float(fields[3]), float(fields[4]))
        if not in_ring(w, j, prefix[0]):
            errs.append(f"witness {w} outside ring {j}")
        dist = distance_to_polyline(w, prefix)
        if not dist > r_exact:
            errs.append(f"witness {w} within {dist} <= r_j of the prefix")
    own_bound = 2.0 * r_exact * length + math.pi * r_exact * r_exact
    if abs(bound - own_bound) > PRINT_REL_TOL * own_bound:
        errs.append(f"tube_bound {bound} != 2 r L + pi r^2 = {own_bound}")
    extent = prefix.max(axis=0) - prefix.min(axis=0) + 2.0 * r_exact
    slack = 4.0 * math.hypot(*(extent / grid_res)) * length
    if not area <= own_bound + slack:
        errs.append(f"tube_area {area} > bound {own_bound} + slack {slack}")
    return errs
