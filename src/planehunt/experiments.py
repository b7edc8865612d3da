"""Desk-scale parameter sweeps certifying the cost bounds empirically.

Both searcher algorithms carry Theta((log scale + log 1/r) scale^2 / r)
cost bounds; at desk scale we check them as explicit constants: every
sensed run must stay below 80 y 2^(2y+2) for its predicted catch
diagonal y, and the ratio of cost to the bound's growth term must stay
bounded across the sweep.  Sweeps are seeded and byte-reproducible;
target samples are keyed by (seed, D, r, sample index) so that sweeps
sharing those values draw identical targets.

Each target is the draw numpy's `default_rng([seed, key(D), key(r), i])`
gives, bit for bit, computed in Python ints from numpy's own algorithm:
`SeedSequence` entropy mixing (pool of four 32-bit words), then PCG64 (a
128-bit LCG with XSL-RR output) seeded from four of its 64-bit words,
then `Generator.random()`, which keeps the top 53 bits of each output.
The pool after a cell's (seed, key(D), key(r)) words is mixed once per
cell, and each target then mixes in only its index.

Both sweeps run on one worker: sweep_static and sweep_dynamic check the
desk-scale guard and list one cell per parameter pair, with its plan,
prediction, diagonal cap and growth scale, and _sweep runs the cells
serially or on a process pool and joins their rows in cell order.  The
static sweep's cells have v = 0, so its targets are inert.

The sweeps import neither numpy nor, at --jobs 1, the process pool;
impossibility_report and export_svg import numpy (and export_svg
xml.etree) when they are called.
"""

import contextlib
import csv
import json
import math
import operator
import os
import struct
import sys
from dataclasses import dataclass, fields
from numbers import Integral

from .coverage import poly_speed_certificate
from .engine import SimConfig, simulate
from .geometry import Point
from .searcher import dynamic_plan, predict_dynamic, static_plan
from .target import inert, radial_flee
from .trajectory import diagonal_length, predict_static

# Desk-scale guards: keep the static catch diagonal <= 7 and the simulated
# dynamic search within diagonal 9, so runs stay near 10^5-10^6 legs.
MAX_D = 16.0
MIN_R = 2.0 ** (-8)
MAX_V = 16.0
DYNAMIC_MAX_DIAGONAL = 9

# export_svg draws on a square canvas of this side, inside this border
SVG_CANVAS = 800.0
SVG_MARGIN = 40.0


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


SWEEP_FIELDS = tuple(f.name for f in fields(SweepRow))


def _float_key(x):
    # stable 64-bit key from the bit pattern, for seed derivation
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


# numpy's SeedSequence (numpy/random/bit_generator.pyx): uint32 hash and
# mix constants and the pool size, and its seed coercion's word mask
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK53 = 2**53 - 1
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h), high word then low
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341


def _int_words(n):
    """n as SeedSequence coerces an int: little-endian 32-bit words, 0 as [0]."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hashes(h, mult, count):
    """(xor, multiplier) pairs of `count` successive SeedSequence hashes from constant h, and the next h.

    A hash maps x to (x ^ h) * h' mod 2^32, then x ^ (x >> 16), where
    h' = h * mult is the next constant: the constants advance the same way
    whatever value they hash.
    """
    out = []
    for _ in range(count):
        nxt = h * mult & _MASK32
        out.append((h, nxt))
        h = nxt
    return out, h


def _seed_pool(entropy):
    """SeedSequence's pool after it absorbs the 32-bit words of `entropy`, and its next hash constant."""
    consts, h = _hashes(_INIT_A, _MULT_A, _POOL_SIZE * max(len(entropy), _POOL_SIZE))
    consts = iter(consts)

    def hashmix(value):
        x, m = next(consts)
        value = (value ^ x) * m & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool, h


# generate_state's eight hashes, of pool words 0, 1, 2, 3, 0, 1, 2, 3
_STATE_HASHES = _hashes(_INIT_B, _MULT_B, 8)[0]


def _lanes(values):
    """One Python int holding `values` (each below 2^64) as little-endian 64-bit lanes."""
    return int.from_bytes(struct.pack(f"<{len(values)}Q", *values), "little")


def _random2(s0, s1, i0, i1):
    """The first two Generator.random() doubles of PCG64 seeded from the uint64 words s0 s1 i0 i1.

    numpy seeds PCG64 with state s0 << 64 | s1 and increment
    (i0 << 64 | i1) << 1 | 1.  Seeding steps the LCG from 0 (which gives
    the increment), adds the state and steps again; each draw steps once
    and keeps the top 53 bits of the XSL-RR output, hi ^ lo rotated right
    by the top six bits of hi, which are the bits of x:x shifted right by
    the rotation plus 11.
    """
    inc = (i0 << 65 | i1 << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
    state = (state * _PCG_MULT + inc) & _MASK128
    hi = state >> 64
    x = (hi ^ state) & _MASK64
    u0 = (x << 64 | x) >> ((hi >> 58) + 11) & _MASK53
    state = (state * _PCG_MULT + inc) & _MASK128
    hi = state >> 64
    x = (hi ^ state) & _MASK64
    u1 = (x << 64 | x) >> ((hi >> 58) + 11) & _MASK53
    return u0 * (1.0 / 9007199254740992.0), u1 * (1.0 / 9007199254740992.0)


def sample_targets(seed, D, r, indices):
    """Deterministic uniform draws from the disc of radius D, one per index.

    Keyed by values, not loop indices, so a static sweep and a dynamic
    sweep with the same (seed, D, r) draw the same target positions.
    Target i takes the first two doubles of numpy's
    `default_rng([seed, _float_key(D), _float_key(r), i]).random(2)`, bit
    for bit, in Python ints: SeedSequence -> PCG64 -> random().  Ints are
    coerced to 32-bit words as numpy coerces them.

    The 32-bit stages run once over every index, as the 64-bit lanes of
    one Python int: a lane holds a 32-bit word, its products with 32-bit
    constants stay below 2^64, and a subtraction is taken from a lane
    value 2^32 higher, so no lane carries or borrows into the next.  When
    the prefix words of (seed, key(D), key(r)) fill the pool (4 words or
    more) and every index is one word, the pool after the prefix, the hash
    constants that come next and the pool's mix products are computed
    once, and each index takes four hash-and-mix steps; otherwise each
    index runs the whole entropy mixing.  generate_state's eight hashes
    follow in lanes too, and the three 128-bit LCG steps run per index.
    """
    prefix = [w for n in (seed, _float_key(D), _float_key(r)) for w in _int_words(n)]
    indices = [operator.index(i) for i in indices]
    n = len(indices)
    if n == 0:
        return []
    ones = _lanes([1] * n)
    mask = _MASK32 * ones

    def hash_lanes(v, x, m):
        v = (v ^ x * ones) * m & mask
        return v ^ v >> 16 & mask

    if len(prefix) >= _POOL_SIZE and all(0 <= i <= _MASK32 for i in indices):
        pool, h = _seed_pool(prefix)
        words = _lanes(indices)
        pools = []
        for p, (x, m) in zip(pool, _hashes(h, _MULT_A, _POOL_SIZE)[0]):
            # mix(p, hashmix(i)) = (L p - R hashmix(i)) mod 2^32, then x ^ (x >> 16)
            v = ((_MIX_MULT_L * p & _MASK32) + 2**32) * ones - (_MIX_MULT_R * hash_lanes(words, x, m) & mask) & mask
            pools.append(v ^ v >> 16 & mask)
    else:
        pools = [_lanes(col) for col in zip(*(_seed_pool(prefix + _int_words(i))[0] for i in indices))]
    state = [hash_lanes(pools[k % _POOL_SIZE], x, m) for k, (x, m) in enumerate(_STATE_HASHES)]
    # little-endian pairs of the eight 32-bit words are the uint64 words s0 s1 i0 i1
    s0, s1, i0, i1 = (
        struct.unpack(f"<{n}Q", (state[2 * j] | state[2 * j + 1] << 32).to_bytes(8 * n, "little")) for j in range(4)
    )
    points = []
    for u0, u1 in map(_random2, s0, s1, i0, i1):
        # the same products as uniform(0, 2 pi) then uniform()
        theta = 2.0 * math.pi * u0
        rad = D * math.sqrt(u1)
        points.append(Point(rad * math.cos(theta), rad * math.sin(theta)))
    return points


def _growth_term(scale, r):
    return (math.log2(scale) + math.log2(1.0 / r)) * scale * scale / r


def _check_draws(samples, seed):
    if samples < 1:
        raise ValueError("samples must be >= 1")
    # a bool would pass for 0 or 1 and reach the CSV seed column as True or False
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


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


def _cell(args):
    """Rows of one (D, r, v) cell: `samples` seeded hunts of `plan`.

    A target with v > 0 flees radially until t_freeze; otherwise it is
    inert.  The ratio divides cost by the growth term at `scale`.
    """
    plan, D, r, v, t_freeze, pred, max_diagonal, scale, samples, seed, run_id0 = args
    cfg = SimConfig(r=r, max_diagonal=max_diagonal)
    growth = _growth_term(scale, r)
    rows = []
    for s, p in enumerate(sample_targets(seed, D, r, range(samples))):
        strategy = radial_flee(Point(0.0, 0.0), p, v, t_freeze) if v > 0 else inert(p)
        out = simulate(plan, strategy, cfg)
        rows.append(
            SweepRow(
                run_id=run_id0 + s,
                D=D,
                r=r,
                v=v,
                algorithm=plan.name,
                sensed=out.sensed,
                cost=out.cost,
                time=out.time,
                diagonal=out.diagonal,
                predicted_y=pred.y,
                cost_bound=pred.cost_bound,
                ratio=out.cost / growth if out.sensed else math.nan,
                seed=seed,
            )
        )
    return rows


def _sweep(plan, cells, samples, seed, jobs):
    """Run the cells serially or on a process pool; rows come in cell order."""
    if isinstance(jobs, bool) or not isinstance(jobs, Integral) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    work = [(plan, *cell, samples, seed, i * samples) for i, cell in enumerate(cells)]
    if jobs <= 1 or len(work) <= 1:
        return [row for args in work for row in _cell(args)]
    from concurrent.futures import ProcessPoolExecutor  # deferred: only a pool pays for its import

    with ProcessPoolExecutor(max_workers=min(jobs, len(work), os.cpu_count() or 1)) as pool:
        return [row for rows in pool.map(_cell, work) for row in rows]


def sweep_static(Ds, rs, samples, seed, jobs=1):
    """Simulate the unit-speed searcher against seeded inert targets."""
    _check_draws(samples, seed)
    _check_guard(Ds, rs)
    cells = []
    for D in Ds:
        for r in rs:
            pred = predict_static(D, r)
            cells.append((D, r, 0.0, 0.0, pred, pred.y, D))
    return _sweep(static_plan(), cells, samples, seed, jobs)


def flee_time_from_plan(plan, arc=0.5):
    """Time at which the plan has traversed `arc` units of path length.

    The flee-then-freeze adversary lets the target run exactly while the
    searcher covers its first half unit of arc.
    """
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


def sweep_dynamic(vs, rs, D, samples, seed, jobs=1):
    """Simulate the accelerating searcher against flee-then-freeze targets.

    v = 0 entries fall back to inert targets and share target draws with
    sweep_static under the same (seed, D, r), so their cost columns match.
    """
    _check_draws(samples, seed)
    _check_guard([D], rs, vs)
    plan = dynamic_plan()
    cells = []
    for v in vs:
        t_freeze = flee_time_from_plan(plan) if v > 0 else 0.0
        for r in rs:
            pred = predict_dynamic(D, v, r)
            cells.append((D, r, v, t_freeze, pred, min(pred.y, DYNAMIC_MAX_DIAGONAL), max(D, v, 1.0)))
    return _sweep(plan, cells, samples, seed, jobs)


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
    import numpy as np

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


def write_rows_csv(rows, path=None):
    """Comma-separated sweep rows with the fixed documented header; path None writes to sys.stdout."""
    with open(path, "w", newline="") if path is not None else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_FIELDS)
        for row in rows:
            writer.writerow([getattr(row, f) for f in SWEEP_FIELDS])


def write_rows_jsonl(rows, path):
    """Line-delimited JSON variant of the sweep output."""
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps({f: getattr(row, f) for f in SWEEP_FIELDS}) + "\n")


def export_svg(prefix, path):
    """Standalone vector drawing of a trajectory prefix.

    prefix: (n+1, 2) polyline of the searcher, scaled to a fixed
    SVG_CANVAS square with an SVG_MARGIN border; its start is marked.
    """
    import xml.etree.ElementTree as ET

    import numpy as np

    prefix = np.asarray(prefix, dtype=np.float64)
    if prefix.ndim != 2 or prefix.shape[0] < 1:
        raise ValueError("prefix polyline must be a nonempty (n, 2) array")
    lo = prefix.min(axis=0)
    hi = prefix.max(axis=0)
    span = max(hi[0] - lo[0], hi[1] - lo[1], 1e-12)
    scale = (SVG_CANVAS - 2 * SVG_MARGIN) / span

    def to_canvas(p):
        # y flipped: SVG y grows downward
        return (
            SVG_MARGIN + (p[0] - lo[0]) * scale,
            SVG_CANVAS - SVG_MARGIN - (p[1] - lo[1]) * scale,
        )

    root = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=f"{SVG_CANVAS:g}",
        height=f"{SVG_CANVAS:g}",
        viewBox=f"0 0 {SVG_CANVAS:g} {SVG_CANVAS:g}",
    )
    d = "M{:.3f} {:.3f}".format(*to_canvas(prefix[0]))
    for p in prefix[1:]:
        d += "L{:.3f} {:.3f}".format(*to_canvas(p))
    ET.SubElement(root, "path", d=d, fill="none", stroke="black")
    sx, sy = to_canvas(prefix[0])
    ET.SubElement(root, "circle", cx=f"{sx:.3f}", cy=f"{sy:.3f}", r="4", fill="blue")
    try:
        ET.ElementTree(root).write(path)
    except OSError as exc:
        raise OSError(f"failed to write SVG to {path}: {exc}") from exc
    return path
