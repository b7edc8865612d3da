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
One hash and one mix, on ints that hold a 32-bit word in each 64-bit
lane, serve two paths: the pool after a cell's (seed, key(D), key(r))
words is mixed once per cell, and each target then mixes in only its
index; a prefix under four words or an index of 2^32 or more instead
mixes each target's whole entropy.

Both sweeps run on one worker: sweep_static and sweep_dynamic check their
arguments and the guard and list one cell per parameter pair, with its
prediction and growth scale.  _cell hunts a cell, serially or in a process
pool's worker, and returns plain (sensed, cost, time, diagonal) tuples;
_sweep builds every row from its cell's own objects, in cell order.  Every
hunt walks at most MAX_DIAGONAL diagonals.  The static sweep's cells have
v = 0, so its targets are inert.

The sweeps import neither numpy nor, at --jobs 1, the process pool;
export_svg takes its polyline through coverage.as_polyline, which
imports numpy when it is called.  Sweep rows are NamedTuples, written to
CSV in csv.writer's bytes, streamed, with the fields a cell's rows share
formatted once per cell, and to JSONL by their _asdict(), with a nan
written as null so that every line is strict JSON.
"""

import contextlib
import csv
import io
import math
import operator
import os
import struct
import sys
from numbers import Integral
from typing import NamedTuple

from .coverage import as_polyline
from .engine import SimConfig, simulate
from .geometry import Point
from .searcher import dynamic_plan, predict_dynamic, static_plan
from .target import inert, radial_flee
from .trajectory import MAX_DIAGONAL, predict_static

# The guard admits a cell when predict_static(D, r).y < MAX_DIAGONAL = 12
# and 0 <= v <= MAX_V, and every hunt walks at most MAX_DIAGONAL diagonals.
# Block arcs are exact through diagonal 11 (`trajectory`), where an
# admitted static hunt is caught.  A flee-then-freeze target moves at most
# MAX_V * flee_time_from_plan(dynamic_plan()) = 16/64 = 0.25, which raises
# the static catch diagonal of its end point by at most one, so a cap of 12
# catches every admitted flee; a cap of 11 left 1 of 400 hunts with v = 16
# unsensed at D = 32, r = 2^-14.
MAX_V = 16.0

# export_svg draws on a square canvas of this side, inside this border
SVG_CANVAS = 800.0
SVG_MARGIN = 40.0


class SweepRow(NamedTuple):
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


SWEEP_FIELDS = SweepRow._fields


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


def _hash_consts(h, mult):
    """The (xor, multiplier) pairs of successive SeedSequence hashes from constant h, without end.

    A hash maps x to (x ^ h) * h' mod 2^32, then x ^ (x >> 16), where
    h' = h * mult is the next constant: the constants advance the same way
    whatever value they hash.
    """
    while True:
        nxt = h * mult & _MASK32
        yield h, nxt
        h = nxt


def _hash(v, consts, ones=1):
    """SeedSequence's hash of each 32-bit lane of v, with the next constant of consts.

    v holds one 32-bit word in each 64-bit lane of `ones` (1 for a plain
    word); the products with 32-bit constants stay below 2^64, so no lane
    carries into the next.
    """
    x, m = next(consts)
    mask = _MASK32 * ones
    v = (v ^ x * ones) * m & mask
    return v ^ v >> 16 & mask


def _absorb(pool, word, consts, ones=1, skip=None):
    """Mix the hash of `word` into each pool word but pool[skip], in place, lane by lane.

    SeedSequence's mix(p, y) is v = (L p - R y) mod 2^32, then
    v ^ (v >> 16); the subtraction is taken from a lane value 2^32 higher,
    so no lane borrows from the next.
    """
    mask = _MASK32 * ones
    for dst in range(_POOL_SIZE):
        if dst != skip:
            y = _hash(word, consts, ones)
            v = (_MIX_MULT_L * pool[dst] & mask) + (ones << 32) - (_MIX_MULT_R * y & mask) & mask
            pool[dst] = v ^ v >> 16 & mask


def _seed_pool(entropy, consts):
    """SeedSequence's pool after it absorbs the 32-bit words of `entropy`, hashing with consts.

    The pool starts as the hashes of the first four words (0 past the
    end), mixes each of its words into the others, then absorbs each
    further word.
    """
    pool = [_hash(entropy[i] if i < len(entropy) else 0, consts) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        _absorb(pool, pool[src], consts, skip=src)
    for word in entropy[_POOL_SIZE:]:
        _absorb(pool, word, consts)
    return pool


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

    The 32-bit stages run on lane ints, one Python int with a 32-bit word
    in each 64-bit lane (a plain word is one lane): one hash (_hash, fed
    by the running constants of _hash_consts) and one mix (_absorb) serve
    them all, in one of two paths.  When the prefix words of (seed,
    key(D), key(r)) fill the pool (4 words or more) and every index is one
    word, the prefix is absorbed once and each index then in its lane, as
    SeedSequence absorbs an extra word; otherwise each index absorbs its
    whole entropy and the pools are put in lanes.  generate_state's eight
    hashes follow in lanes too, and the three 128-bit LCG steps run per
    index.
    """
    D = float(D)  # a numpy float32 D draws at its value, not in float32
    prefix = [w for n in (seed, _float_key(D), _float_key(r)) for w in _int_words(n)]
    indices = [operator.index(i) for i in indices]
    n = len(indices)
    if n == 0:
        return []
    ones = _lanes([1] * n)
    if len(prefix) >= _POOL_SIZE and all(0 <= i <= _MASK32 for i in indices):
        # the prefix is absorbed once, then each index in its lane
        consts = _hash_consts(_INIT_A, _MULT_A)
        pools = [p * ones for p in _seed_pool(prefix, consts)]
        _absorb(pools, _lanes(indices), consts, ones)
    else:
        # each index absorbs its whole entropy
        pools = (_seed_pool(prefix + _int_words(i), _hash_consts(_INIT_A, _MULT_A)) for i in indices)
        pools = [_lanes(col) for col in zip(*pools)]
    # generate_state hashes pool words 0, 1, 2, 3, 0, 1, 2, 3
    consts = _hash_consts(_INIT_B, _MULT_B)
    state = [_hash(pools[k % _POOL_SIZE], consts, ones) for k in range(8)]
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


def _check_draws(samples, seed, jobs):
    """Reject a bad samples, seed or jobs before any prediction, draw or hunt."""
    # a bool would pass for 0 or 1, and a float or a string fail later with a TypeError
    if isinstance(samples, bool) or not isinstance(samples, Integral):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    # a bool would pass for 0 or 1 and reach the CSV seed column as True or False
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if isinstance(jobs, bool) or not isinstance(jobs, Integral) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")


def _check_guard(Ds, rs, vs=()):
    for D in Ds:
        for r in rs:
            try:
                y = predict_static(D, r).y
            except ValueError as exc:
                raise ValueError(f"D={D}, r={r} outside the guard: {exc}") from None
            if y >= MAX_DIAGONAL:
                raise ValueError(f"D={D}, r={r} outside the guard: predicted catch diagonal {y} >= {MAX_DIAGONAL}")
    for v in vs:
        if not 0 <= v <= MAX_V:
            raise ValueError(f"v={v} outside the guard 0 <= v <= {MAX_V}")


def _cell(args):
    """(sensed, cost, time, diagonal) of each of one (D, r, v) cell's `samples` seeded hunts of `plan`.

    A target with v > 0 flees radially until t_freeze; otherwise, or if it
    starts on the searcher's start, where it is caught at t = 0, it is
    inert.  A pool worker sends back these plain tuples.
    """
    plan, D, r, v, t_freeze, samples, seed = args
    cfg = SimConfig(r=r, max_diagonal=MAX_DIAGONAL)
    origin = Point(0.0, 0.0)
    hunts = []
    for p in sample_targets(seed, D, r, range(samples)):
        out = simulate(plan, radial_flee(origin, p, v, t_freeze) if v > 0 and p != origin else inert(p), cfg)
        hunts.append((out.sensed, out.cost, out.time, out.diagonal))
    return hunts


def _sweep(plan, cells, samples, seed, jobs):
    """Hunt the cells serially or on a process pool, and build their rows here, in cell order.

    Each row holds its cell's own D, r, v, name, y, bound and seed objects,
    as _csv_lines expects.  The ratio divides cost by the growth term at
    the cell's scale; it is nan for an unsensed row and where that term is
    not positive (scale <= r).
    """
    work = [(plan, D, r, v, t_freeze, samples, seed) for D, r, v, t_freeze, _, _ in cells]
    hunts = map(_cell, work)  # lazy: the pool below replaces it before any hunt
    if jobs > 1 and len(work) > 1:
        from concurrent.futures import ProcessPoolExecutor  # deferred: only a pool pays for its import

        with ProcessPoolExecutor(max_workers=min(jobs, len(work), os.cpu_count() or 1)) as pool:
            hunts = list(pool.map(_cell, work))
    name, rows = plan.name, []
    for (D, r, v, _, pred, scale), cell in zip(cells, hunts):
        growth, y, bound = _growth_term(scale, r), pred.y, pred.cost_bound
        for sensed, cost, time, diagonal in cell:
            ratio = cost / growth if sensed and growth > 0 else math.nan
            # by position, in SWEEP_FIELDS order: a keyword build takes over twice as long
            rows.append(SweepRow(len(rows), D, r, v, name, sensed, cost, time, diagonal, y, bound, ratio, seed))
    return rows


def sweep_static(Ds, rs, samples, seed, jobs=1):
    """Simulate the unit-speed searcher against seeded inert targets."""
    _check_draws(samples, seed, jobs)
    _check_guard(Ds, rs)
    # Python floats: a numpy float32 D or r would draw, hunt and write its rows in float32
    Ds, rs = list(map(float, Ds)), list(map(float, rs))
    cells = [(D, r, 0.0, 0.0, predict_static(D, r), D) for D in Ds for r in rs]
    return _sweep(static_plan(), cells, samples, seed, jobs)


def flee_time_from_plan(plan):
    """Time at which the plan has traversed its first half unit of arc.

    The flee-then-freeze adversary lets the target run exactly while the
    searcher covers that half unit.  It lies in the first block of the
    schedule (k = 8, j = 2, arc length 171), which the plan walks at the
    speed of diagonal 1.
    """
    return 0.5 / plan.speed_of_diagonal(1)


def sweep_dynamic(vs, rs, D, samples, seed, jobs=1):
    """Simulate the accelerating searcher against flee-then-freeze targets.

    v = 0 entries fall back to inert targets and share target draws with
    sweep_static under the same (seed, D, r), so their cost columns match.
    """
    _check_draws(samples, seed, jobs)
    _check_guard([D], rs, vs)
    D, rs, vs = float(D), list(map(float, rs)), list(map(float, vs))  # as in sweep_static
    plan = dynamic_plan()
    cells = []
    for v in vs:
        t_freeze = flee_time_from_plan(plan) if v > 0 else 0.0
        for r in rs:
            cells.append((D, r, v, t_freeze, predict_dynamic(D, v, r), max(D, v, 1.0)))
    return _sweep(plan, cells, samples, seed, jobs)


def _csv_fields(*fields):
    """The fields as csv.writer (excel dialect) writes them in a row, comma-joined, without the line end."""
    buf = io.StringIO()
    # one more, empty field: csv.writer writes a row of one empty field as ""
    csv.writer(buf).writerow((*fields, None))
    return buf.getvalue()[:-3]


def _csv_lines(rows):
    """csv.writer's (excel dialect) line for each row, one at a time.

    A row's D, r, v, algorithm, predicted_y, cost_bound and seed are
    formatted once for each run of rows that hold the same objects there,
    as a cell's rows do.  csv.writer writes str() of a field, so the other
    six are formatted with str() where they are ints, bools and floats,
    which need no quotes; a row with any other type there goes through
    csv.writer whole.
    """
    cell = None
    for row in rows:
        run_id, D, r, v, name, sensed, cost, time, diagonal, y, bound, ratio, seed = row
        if cell is None or D is not cell[0] or r is not cell[1] or v is not cell[2] or name is not cell[3] or (
            y is not cell[4] or bound is not cell[5] or seed is not cell[6]
        ):
            cell = D, r, v, name, y, bound, seed
            head, mid, tail = _csv_fields(D, r, v, name), _csv_fields(y, bound), _csv_fields(seed)
        if type(run_id) is type(diagonal) is int and type(sensed) is bool and (
            type(cost) is type(time) is type(ratio) is float
        ):
            yield f"{run_id!s},{head},{sensed!s},{cost!s},{time!s},{diagonal!s},{mid},{ratio!s},{tail}\r\n"
        else:
            yield _csv_fields(*row) + "\r\n"


def write_rows_csv(rows, path=None):
    """Comma-separated sweep rows with the fixed documented header; path None writes to sys.stdout.

    The bytes are csv.writer's (excel dialect); the lines are streamed.
    """
    with open(path, "w", newline="") if path is not None else contextlib.nullcontext(sys.stdout) as fh:
        csv.writer(fh).writerow(SWEEP_FIELDS)
        fh.writelines(_csv_lines(rows))


def write_rows_jsonl(rows, path):
    """Line-delimited JSON variant of the sweep output, one strict JSON object per row.

    A nan field (an unsensed row's ratio, or one whose growth term is not
    positive) is written as null, not as the bare token NaN, which no
    strict parser reads.  json is imported here, as no other command needs
    it at start.
    """
    import json

    with open(path, "w") as fh:
        for row in rows:
            # x != x only for a nan, which JSON cannot hold
            fh.write(json.dumps({k: None if x != x else x for k, x in row._asdict().items()}, allow_nan=False) + "\n")


def export_svg(prefix, path):
    """Standalone vector drawing of a trajectory prefix.

    prefix: (n+1, 2) polyline of the searcher, scaled to a fixed
    SVG_CANVAS square with an SVG_MARGIN border; its start is marked.
    The document is three elements, written as one ASCII line.
    """
    prefix = as_polyline(prefix)
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

    sx, sy = to_canvas(prefix[0])
    d = f"M{sx:.3f} {sy:.3f}" + "".join("L{:.3f} {:.3f}".format(*to_canvas(p)) for p in prefix[1:])
    side = f"{SVG_CANVAS:g}"
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" height="{side}" viewBox="0 0 {side} {side}">'
        f'<path d="{d}" fill="none" stroke="black" />'
        f'<circle cx="{sx:.3f}" cy="{sy:.3f}" r="4" fill="blue" /></svg>'
    )
    try:
        with open(path, "w") as fh:
            fh.write(svg)
    except OSError as exc:
        raise OSError(f"failed to write SVG to {path}: {exc}") from exc
    return path
