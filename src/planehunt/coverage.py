"""The adversary's side: tube areas, hidden-target witnesses, cost floors.

The key geometric fact is the sausage bound: the set of points within r
of a curve of length x has area at most 2rx + pi r^2, so a search path
too short for a ring leaves part of it uncovered, and a target can hide
there.  tube_area measures that set with the grid rasterizer
_covered_cells, and the witness search adversarial_static_placement
finds a hiding point in each ring with the same rasterizer, on the same
segment table (_segments) and point-to-segment formula (_dist2).  The
rasterizer makes one pass over (segment, grid line) rows: in each row
the cells that an axis-aligned segment surely covers form one run, the
cells surely beyond r are skipped, and _dist2 decides the rest, so its
masks are the bits that _dist2 gives on every cell; one rounding margin
(_margin) draws those lines there and in the witness search's exact
skip (_far).  Both callers, and experiments.export_svg, take the path
through the one polyline check as_polyline, which rejects a wrong
shape, non-finite vertices and an extent past the float range.  The
certifier functions evaluate the closed-form lower bounds on search cost
that follow from it, plus the impossibility certificate for a searcher
whose speed is at most t^c, which pays alpha (v^2/r)^beta, and the
table of those certificates (impossibility_report).

tube_area and the witness search also need the polyline's box, widened
to hold their grid, to have w^2 + h^2 <= 2^1022 (_check_extent), so that
no squared step or grid offset leaves the float range.
"""

import math
import sys
from typing import NamedTuple

from .geometry import Point, fma_dot

# (segment, cell) or (point, segment) pairs per exact distance pass, and four
# times the (segment, grid line) rows per _covered_cells group: each float
# temporary is then at most 64 KB, and memory is bounded before the run starts.
PAIR_BUDGET = 2**13
# largest grid_res of tube_area and the witness grid: a witness search holds a
# 1-byte mask per cell, the rasterizer's run ends of at most 2 bytes per cell of
# the span its boxes reach plus one 64 KB slab, and one block of candidates, so
# 4096^2 cells take at most about 52 MB
MAX_GRID_RES = 4096
# most unmarked witness candidates confirmed per exact distance check; the
# chunks grow 1, 2, 4, ... up to it, as the first candidate is often the witness
WITNESS_CHUNK = 256


class CoverageReport(NamedTuple):
    trajectory_length: float
    r: float
    estimated_area: float
    analytic_bound: float  # 2 r x + pi r^2
    grid_res: int
    cell_area: float
    cell_diagonal: float


class PolySpeedCertificate(NamedTuple):
    c: int
    v: float
    r: float
    min_catch_time: float
    min_cost: float
    optimal_cost: float
    exceeds: bool
    beta: float


def area_bound(length, r):
    """Area bound 2 r x + pi r^2 for the r-tube around a curve of length x; ValueError past the float range."""
    if not (math.isfinite(length) and length >= 0 and math.isfinite(r) and r > 0):
        raise ValueError("require finite length >= 0 and finite r > 0")
    length, r = float(length), float(r)  # a numpy float32 would give a float32 bound, and warn on overflow
    bound = 2.0 * r * length + math.pi * r * r
    if not math.isfinite(bound):  # Python floats: inf, with no warning
        raise ValueError(f"the area bound of length {length:g} and r = {r:g} is beyond the float range")
    return bound


def _ranges(starts, lengths):
    """Concatenated aranges: starts[k], ..., starts[k] + lengths[k] - 1 for each k."""
    import numpy as np

    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)


def _dist2(gx, gy, a0, a1, d0, d1, len2):
    """Squared distance from points (gx, gy) to segments a + [0, 1] d.

    The one point-to-segment formula of the package: t is the projection
    parameter clipped to [0, 1], and the result is ex*ex + ey*ey for the
    offset e from the closest point a + t d (numpy's float64 x**2 is x*x).  Elementwise only, so it gives
    the same bits on broadcast rows and columns as on flat arrays of
    (segment, point) pairs, whatever the BLAS.  len2 is the caller's
    |d|^2 with zero replaced by 1, so a zero-length segment gets t = 0 and
    is the point a.  A quotient past the float range rounds to +-inf,
    which the clip takes to 1 or 0, as it would the exact parameter.
    """
    import numpy as np

    with np.errstate(over="ignore"):  # a tiny len2 may round t to +-inf, which the clip keeps
        t = ((gx - a0) * d0 + (gy - a1) * d1) / len2
    np.clip(t, 0.0, 1.0, out=t)
    return (gx - (a0 + t * d0)) ** 2 + (gy - (a1 + t * d1)) ** 2


def _segments(polyline):
    """The segment table of an (n, 2) polyline: its columns and its boxes.

    The columns are a0, a1, d0, d1, len2 for the segments a + [0, 1] d,
    where len2 is d0*d0 + d1*d1 with zero replaced by 1, so a zero-length
    segment gets t = 0 in _dist2 and is the point a.  The boxes are
    lo_x, hi_x, lo_y, hi_y of a and the rounded a + d.  A one-vertex
    polyline is one zero-length segment at its vertex.
    """
    import numpy as np

    if len(polyline) == 1:
        polyline = np.vstack([polyline, polyline])
    a = polyline[:-1]
    d = polyline[1:] - a
    a0, a1, d0, d1 = a[:, 0], a[:, 1], d[:, 0], d[:, 1]
    len2 = d0 * d0 + d1 * d1
    len2[len2 == 0.0] = 1.0
    b0, b1 = a0 + d0, a1 + d1
    boxes = (np.minimum(a0, b0), np.maximum(a0, b0), np.minimum(a1, b1), np.maximum(a1, b1))
    return (a0, a1, d0, d1, len2), boxes


def _margin(r, big):
    """The rounding margin of an exact decision at radius r among coordinates at most big in magnitude.

    It is 1e-9 r + 1e-12 big.  A point that exact arithmetic puts farther
    than r + margin from a segment's box is farther than r in _dist2's
    rounded arithmetic too, and for an axis-aligned segment whose step
    has a normal square, one within r - margin is within r: each rounding
    there moves an offset by a few ulps of big, or a square by a few ulps
    of r^2, far less than the margin (_covered_cells and _far rest on
    this).  That needs r*r to be a normal float, as a subnormal square
    loses its relative precision; below that the margin is inf, so
    nothing is decided by it.
    """
    return 1e-9 * r + 1e-12 * big if r * r >= sys.float_info.min else math.inf


def _chunks(sizes, budget):
    """Slices of consecutive sizes whose sum is at most budget, or of one size alone."""
    import numpy as np

    ends = np.cumsum(sizes)
    i = 0
    while i < len(sizes):
        start, i = i, max(int(np.searchsorted(ends, ends[i] - sizes[i] + budget, side="right")), i + 1)
        yield slice(start, i)


def _covered_cells(xs, ys, polyline, r):
    """Mask of the grid cells whose centre lies within r of the polyline.

    xs and ys are the sorted cell-centre coordinates along each axis; the
    result is a bool array of shape (len(xs), len(ys)).  This is the one
    rasterizer behind tube_area and the adversary's witness search.  A
    cell is marked where _dist2 <= r^2 for a segment whose r-inflated box
    (_segments, located on xs and ys with searchsorted) holds it, and one
    pass (_runs) finds those cells while evaluating _dist2 on few of them.

    Each box is cut into rows, one per grid line along its segment: grid
    rows for a horizontal segment, grid columns for every other.  In the
    column x, at distance e from the box's [lo_x, hi_x], the cells within
    rad of the box are the run [lo_y - h, hi_y + h] with
    h = sqrt((rad - e)(rad + e)), none where e >= rad.  With the margin m
    (_margin) of r and of the largest magnitude among the cell centres and
    box coordinates, a row's box cells fall in three classes:
      * within rad = r - m, sure.  For an axis-aligned segment _dist2
        clips t to 0 or 1, or puts a + t d within a few ulps of the
        segment's point level with the cell, so each offset and square it
        forms is within rounding of the exact one, and its distance is at
        most r;
      * beyond rad = r + m, skipped, as _far skips a box: a + t d lies in
        the box by monotone rounding, so the computed distance exceeds r;
      * the rest get _dist2 <= r^2.
    So the mask is the one that _dist2 <= r^2 gives on every cell of every
    box, bit for bit.  The margin alone decides where that argument
    fails.  A slanted segment, and one whose step has a square below the
    normal floats (a nonzero one has an inexact t; a zero-length one is
    a disc, kept whole so that one comparison decides), get m = inf, and
    so does every segment where r*r is subnormal (_margin); where m >= r
    no cell is sure.  Such a box is tested whole, as every box was
    before.  Where r + m or the run's ends round to inf, the whole box is
    kept.

    Runs are merged with no count per cell: a run [b, c) of a grid line
    writes c at b, and a running maximum along the line marks each cell
    that lies before the largest end so far.  Each of the two passes
    (runs along y, then along x) holds its run ends only over the span
    of grid indices that its boxes reach (_runs), and marks that window
    of the mask.  Along the columns the maximum is one numpy accumulate;
    down the rows, where numpy's accumulate is several times slower, it
    is one vector maximum per row, in slabs of about 8 PAIR_BUDGET cells,
    each compared and OR-ed into the mask at once while it is in cache.
    So besides the 1-byte mask a pass holds at most 2 bytes per cell of
    its span (1 byte where the span is under 256 cells along its lines)
    and one slab's comparison, bounded before the run starts.  A
    one-vertex polyline is a disc.

    len2 is each segment's |d|^2 rounded as one fma, fma(d1, d1, d0*d0)
    (geometry.fma_dot), so masks are the same bits on every CPU.  Where d0
    or d1 is zero that is the other square rounded once, which
    d0*d0 + d1*d1 gives too, so only slanted segments call fma_dot.  That
    rounding is the one difference from the witness confirmer (_far,
    through _min_dist2), which evaluates the same _dist2 with the len2 of
    _segments, d0*d0 + d1*d1, for every segment.
    A zero-length segment gets len2 = 1: its t is exactly 0 and the test
    is the disc around its vertex.
    """
    import numpy as np

    (a0, a1, d0, d1, len2), (lo_x, hi_x, lo_y, hi_y) = _segments(polyline)
    ix0, ix1 = np.searchsorted(xs, lo_x - r, side="left"), np.searchsorted(xs, hi_x + r, side="right")
    iy0, iy1 = np.searchsorted(ys, lo_y - r, side="left"), np.searchsorted(ys, hi_y + r, side="right")
    slanted = (d0 != 0.0) & (d1 != 0.0)
    len2[slanted] = [fma_dot(x, y, x, y) or 1.0 for x, y in zip(d0[slanted].tolist(), d1[slanted].tolist())]
    m = _margin(r, max(-xs[0], xs[-1], -ys[0], ys[-1], *(np.abs(b).max() for b in (lo_x, hi_x, lo_y, hi_y))))
    margin = np.where(slanted | (d0 * d0 + d1 * d1 < sys.float_info.min), np.inf, m)
    rad = r + np.stack([margin, -margin])  # the skip beyond the first, the sure cells within the second

    along_x = (d1 == 0.0) & (d0 != 0.0)
    marked = np.zeros((len(xs), len(ys)), dtype=bool)
    table = (a0, a1, d0, d1, len2, lo_x, hi_x, lo_y, hi_y, ix0, ix1, iy0, iy1)
    ends, x0, y0 = _runs(xs, ys, r, rad, ~along_x, table, "C")
    np.maximum.accumulate(ends, axis=1, out=ends)
    nx, ny = ends.shape[0], ends.shape[1] - 1
    np.greater(ends[:, :-1], np.arange(ny, dtype=ends.dtype), out=marked[x0 : x0 + nx, y0 : y0 + ny])
    del ends
    table = (a1, a0, d1, d0, len2, lo_y, hi_y, lo_x, hi_x, iy0, iy1, ix0, ix1)
    ends, y0, x0 = _runs(ys, xs, r, rad, along_x, table, "F")
    ends = ends.T[:-1]  # C order; the last row only takes the empty runs at the span's end
    window = marked[x0 : x0 + len(ends), y0 : y0 + ends.shape[1]]
    rows, prev = max(1, 8 * PAIR_BUDGET // max(ends.shape[1], 1)), 0
    for k in range(0, len(ends), rows):
        slab = ends[k : k + rows]
        for row in slab:
            prev = np.maximum(prev, row, out=row)
        window[k : k + rows] |= slab > np.arange(k, k + len(slab), dtype=ends.dtype)[:, None]
    return marked


def _runs(xs, ys, r, rad, chosen, table, order):
    """The run ends of the chosen segments over their boxes' span, one row per (segment, grid column).

    table holds the segment columns of _dist2 (a0, a1, d0, d1, len2),
    then the boxes (lo_x, hi_x, lo_y, hi_y) and the indices of their
    inflated boxes on xs and ys (ix0, ix1, iy0, iy1); rad holds each
    segment's skip and sure radius.  The rows of a segment are the
    columns ix0..ix1 - 1 of its box, and its runs lie along y
    (_covered_cells swaps x and y for runs along x).  Returns ends, x0
    and y0: the chosen nonempty boxes span [x0, x1) x [y0, y1] of the
    grid (an empty span is x0 = y0 = 0), and ends is an
    (x1 - x0, y1 - y0 + 1) array in the given memory order, of the least
    unsigned type that holds y1 - y0, with every index shifted by
    (x0, y0).  A run [b, c) of column i writes c at ends[i, b] where that
    is larger, and the last entry of a column takes the empty runs at the
    span's end.  Rows are taken in groups of
    at most PAIR_BUDGET // 4 (or one segment), as a row's temporaries
    are a few times a pair's, and the cells between a row's sure run and
    its skipped ends get _dist2 <= r^2 in chunks of at most PAIR_BUDGET
    pairs (or one run); each hit is a run of one cell.
    """
    import numpy as np

    lo_x, hi_x, lo_y, hi_y, ix0, ix1, iy0, iy1 = table[5:]
    chosen = np.flatnonzero(chosen & (ix0 < ix1) & (iy0 < iy1))
    ix0, ix1 = ix0[chosen], ix1[chosen]  # per chosen segment; the other columns stay per segment
    x1, y1 = ix1.max(initial=0), iy1[chosen].max(initial=0)
    x0, y0 = ix0.min(initial=x1), iy0[chosen].min(initial=y1)
    xs, ys = xs[x0:x1], ys[y0:y1]
    ends = np.zeros((x1 - x0, y1 - y0 + 1), dtype=np.min_scalar_type(y1 - y0), order=order)
    nx = ix1 - ix0
    flat = ends.ravel(order="K")  # a view: ends is contiguous in one order or the other
    step_x, step_y = (s // ends.itemsize for s in ends.strides)
    for g in _chunks(nx, PAIR_BUDGET // 4):
        seg = np.repeat(chosen[g], nx[g])
        ix = _ranges(ix0[g] - x0, nx[g])
        e = np.maximum(np.maximum(lo_x[seg] - xs[ix], xs[ix] - hi_x[seg]), 0.0)
        rs = rad.take(seg, axis=1)  # the gather of rad[:, seg], without its slower indexing path
        with np.errstate(over="ignore"):  # rad^2 and the run's ends may round to inf, which keeps the whole box
            h = np.where(e < rs, np.sqrt(np.maximum((rs - e) * (rs + e), 0.0)), -np.inf)
            (a, b), (d, c) = np.searchsorted(ys, lo_y[seg] - h, "left"), np.searchsorted(ys, hi_y[seg] + h, "right")
        # the row's box cells within the skip radius are [a, d), and the sure run [b, c) lies within them
        a = np.maximum(a, iy0[seg] - y0)
        d = np.maximum(np.minimum(d, iy1[seg] - y0), a)
        b = np.minimum(np.maximum(b, a), d)  # np.clip, without its Python wrapper
        c = np.minimum(np.maximum(c, b), d)
        base = ix * step_x
        np.maximum.at(flat, base + b * step_y, c.astype(flat.dtype))
        first, size = np.concatenate([a, c]), np.concatenate([b - a, d - c])
        for p in _chunks(size, PAIR_BUDGET):
            row = (np.arange(p.start, p.stop) % seg.size).repeat(size[p])
            iy, pair = _ranges(first[p], size[p]), seg[row]
            hit = _dist2(xs[ix[row]], ys[iy], *(col[pair] for col in table[:5])) <= r * r
            np.maximum.at(flat, base[row[hit]] + iy[hit] * step_y, (iy[hit] + 1).astype(flat.dtype))
    return ends, x0, y0


def as_polyline(polyline):
    """polyline as an (n, 2) float64 array, else ValueError.

    The one check of every function that takes the path as a polyline:
    tube_area, the witness search and experiments.export_svg.  It needs
    n >= 1, finite vertices, and a finite extent max - min along each
    axis.  Rounding is monotone, so the extent bounds the difference
    between any two vertices: the segment table is built from finite
    steps, and the grid and the canvas from a finite extent.
    """
    import numpy as np

    polyline = np.asarray(polyline, dtype=np.float64)
    if polyline.ndim != 2 or polyline.shape[0] < 1 or polyline.shape[1] != 2:
        raise ValueError("polyline must be an (n, 2) array with n >= 1")
    with np.errstate(over="ignore"):  # between finite vertices max - min can only overflow, to inf
        if not (np.isfinite(polyline).all() and np.isfinite(np.ptp(polyline, axis=0)).all()):
            raise ValueError("polyline must have finite vertices and a finite extent")
    return polyline


def _check_extent(extent, margin):
    """ValueError unless a polyline's box, widened by margin, has w^2 + h^2 <= 2^1022.

    extent is the polyline's max - min along each axis, and the widened
    box must hold every grid cell centre too.  Each squared step, grid
    offset and distance that _segments and _dist2 form is then at most
    w^2 + h^2, and so is each dot product of two such differences, so
    numpy never overflows on them, rounding included.
    """
    w, h = (float(e) + margin for e in extent)
    if not w * w + h * h <= 2.0 ** 1022:  # Python floats: inf, with no warning
        raise ValueError(f"a {w:g} x {h:g} box of polyline and grid puts squared distances beyond the float range")


def tube_area(polyline, r, grid_res=256):
    """Rasterized area of the set of points within r of the polyline.

    Counts the cells of a grid_res x grid_res grid over the r-inflated
    bounding box that the shared bounding-box rasterizer (_covered_cells)
    marks as within r of the polyline; the estimate carries a
    discretization slack of 4 * cell diagonal * length.  The inflated box
    must have w^2 + h^2 <= 2^1022, so that no squared step or grid offset
    leaves the float range (_check_extent), the area bound must be
    finite, and the float spacing at the grid's coordinates must be at
    most two cells along each axis, so that rounding moves no cell centre
    by more than a cell; else ValueError.  The last fails where the box
    is under grid_res / 2 times the float spacing at its coordinates, as
    for r = 1 around x = 1e17, where its cells would be 0 wide.
    """
    import numpy as np

    if not (math.isfinite(r) and r > 0):
        raise ValueError("r must be finite and positive")
    r = float(r)  # a numpy float32 would round r * r, and every squared distance compared to it, to float32
    if not 32 <= grid_res <= MAX_GRID_RES:
        raise ValueError(f"grid_res must be in 32..{MAX_GRID_RES}, got {grid_res}")
    polyline = as_polyline(polyline)
    lo, hi = polyline.min(axis=0), polyline.max(axis=0)
    _check_extent(hi - lo, 2 * r)
    lo, hi = lo - r, hi + r

    dx = (hi[0] - lo[0]) / grid_res
    dy = (hi[1] - lo[1]) / grid_res
    xs = lo[0] + (np.arange(grid_res) + 0.5) * dx
    ys = lo[1] + (np.arange(grid_res) + 0.5) * dy
    spacing = np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
    if not (spacing[0] <= 2 * dx and spacing[1] <= 2 * dy):
        raise ValueError(f"the grid of r = {r:g} at ({lo[0]:g}, {lo[1]:g}) needs cells finer than the floats there, "
                         "beyond the float range")
    length = float(np.linalg.norm(np.diff(polyline, axis=0), axis=1).sum())
    bound = area_bound(length, r)
    marked = _covered_cells(xs, ys, polyline, r)

    cell_area = float(dx * dy)
    return CoverageReport(
        trajectory_length=length,
        r=r,
        estimated_area=float(marked.sum()) * cell_area,
        analytic_bound=bound,
        grid_res=grid_res,
        cell_area=cell_area,
        cell_diagonal=math.hypot(dx, dy),
    )


def _min_dist2(px, py, segments):
    """Squared distance from each point (px, py) to the nearest of the segments."""
    import numpy as np

    best = np.full(len(px), np.inf)
    px, py = px[:, None], py[:, None]
    # chunk over segments to bound the (points x segments) temporaries
    for s in _chunks(np.full(len(segments[0]), len(px)), PAIR_BUDGET):
        dist2 = _dist2(px, py, *(c[None, s] for c in segments))
        np.minimum(best, dist2.min(axis=1), out=best)
    return best


def _far(px, py, segments, boxes, r):
    """Which points (px, py) lie farther than r from every segment, exactly.

    The points are tested only against the segments whose bounding box
    meets the points' bounding box inflated by pad; with none left, every
    point is far.  The skip is exact.  By monotone rounding, the closest
    point a + t d that _dist2 computes lies inside the box of a and the
    rounded a + d, which boxes holds.  A skipped box lies more than about
    pad from every point along x or y, so each computed offset, square,
    sum and root there stays within a few ulps of that gap, which exceeds
    r.  pad is r plus the margin (_margin) of r and the points' largest
    magnitude, which covers the rounding of the box test too; a box
    coordinate larger than that lies farther from the points by its
    excess.  Where r*r is subnormal the margin is inf, and no segment is
    skipped.
    """
    import numpy as np

    lo_x, hi_x, lo_y, hi_y = boxes
    x0, x1, y0, y1 = px.min(), px.max(), py.min(), py.max()
    pad = r + _margin(r, max(-x0, x1, -y0, y1))
    with np.errstate(over="ignore"):  # x1 + pad may round to inf, which keeps every box
        near = np.flatnonzero((lo_x <= x1 + pad) & (hi_x >= x0 - pad) & (lo_y <= y1 + pad) & (hi_y >= y0 - pad))
    if near.size == 0:
        return np.ones(len(px), dtype=bool)
    return np.sqrt(_min_dist2(px, py, [c[near] for c in segments])) > r


def adversarial_static_placement(polyline, i, grid_res=256):
    """Hidden-target witnesses against a partial search trajectory.

    For each ring index j in 1..i the adversary pairs distance scale
    D_j = 2^j with sensing radius r_j = 2^(-2(i-j+1)) and hides the target
    in the ring Q(2^j) \\ Q(2^(j-1)) around the searcher's start.  A grid
    of grid_res^2 candidates per ring is searched for a point farther than
    r_j from every point of the trajectory; the first such point (in grid
    order) is returned as the witness, or None when the grid is covered.
    i runs from 1 to 537, where r_1 = 2^-1074 is the least positive
    float, and grid_res from 16 to MAX_GRID_RES.  The polyline's box,
    widened by the side 2^i of ring i's square, must have
    w^2 + h^2 <= 2^1022, so that no squared step or grid offset leaves
    the float range; else ValueError (_check_extent).  So i is at most
    510.

    The candidates that the trajectory covers are marked by the bounding-box
    rasterizer that tube_area uses (_covered_cells), run at r_j shrunk by
    one part in 1e9 so that rounding can only leave a covered cell
    unmarked, never mark a far one.  The unmarked in-ring cells, as flat
    indices into the grid (no per-cell coordinates are built), one block
    of grid rows at a time, are then confirmed in grid order, in chunks of
    1, 2, 4, ... up to WITNESS_CHUNK candidates within each block, by the
    exact sqrt(_min_dist2(...)) > r_j, taken over only the segments near
    the chunk (_far, which skips the others exactly).
    So the witness is the one a scan of every candidate through that
    exact check would return.  Both distances are _dist2; they differ
    only in the len2 of slanted segments, so on axis-aligned legs (every
    schedule leg) they agree bit for bit, and on slanted ones in the last
    bits, which the shrunk radius covers while coordinates and segment
    lengths stay below about 1e6 r_j.

    Returns a list of (j, D_j, r_j, witness Point or None).
    """
    import numpy as np

    if not 1 <= i <= 537:  # the innermost radius 2^-2i is 0 past 537
        raise ValueError(f"require 1 <= i <= 537, got {i}")
    if not 16 <= grid_res <= MAX_GRID_RES:
        raise ValueError(f"require 16 <= grid_res <= {MAX_GRID_RES}, got {grid_res}")
    polyline = as_polyline(polyline)
    _check_extent(np.ptp(polyline, axis=0), 2.0 ** i)
    center = polyline[0]
    segments, boxes = _segments(polyline)
    # the candidates are taken a block of grid rows at a time, 32 PAIR_BUDGET
    # cells (2^18): one block's flat indices take at most 2 MB
    rows = 32 * PAIR_BUDGET // grid_res
    results = []
    for j in range(1, i + 1):
        D_j = 2.0 ** j
        r_j = 2.0 ** (-2 * (i - j + 1))
        half = 2.0 ** (j - 1)
        xs = center[0] + (np.arange(grid_res) + 0.5) / grid_res * 2 * half - half
        ys = center[1] + (np.arange(grid_res) + 0.5) / grid_res * 2 * half - half
        covered = _covered_cells(xs, ys, polyline, r_j * (1.0 - 1e-9))
        ax, ay = np.abs(xs - center[0]), np.abs(ys - center[1])
        witness, size = None, 1
        for row0 in range(0, grid_res, rows):
            bx = ax[row0 : row0 + rows]
            # ring j is Q(2^j) minus Q(2^(j-1)), by per-axis tests: no float per cell
            ring = (bx <= half)[:, None] & (ay <= half)[None, :]
            if j > 1:
                ring &= (bx > half / 2)[:, None] | (ay > half / 2)[None, :]
            idx = np.flatnonzero(ring & ~covered[row0 : row0 + rows]) + row0 * grid_res
            s = 0
            while s < idx.size:
                cells = idx[s : s + size]
                px, py = xs[cells // grid_res], ys[cells % grid_res]
                far = np.flatnonzero(_far(px, py, segments, boxes, r_j))
                if far.size:
                    witness = Point(float(px[far[0]]), float(py[far[0]]))
                    break
                s, size = s + size, min(2 * size, WITNESS_CHUNK)
            if witness is not None:
                break
        del covered  # before the next ring's rasterizer runs
        results.append((j, D_j, r_j, witness))
    return results


def _log_term(big, r):
    return math.log2(big) + math.log2(1.0 / r)


def static_lb(D, r):
    """Cost lower bound (1/16)(log2 D + log2 1/r) D^2 / r for inert targets."""
    if not (math.isfinite(D) and math.isfinite(r) and D > 0 and r > 0):
        raise ValueError("D and r must be finite and positive")
    D, r = float(D), float(r)  # a numpy float32 would give a float32 bound
    term = _log_term(D, r)
    if term <= 0:
        raise ValueError(
            f"(D={D}, r={r}) lies outside the bound's regime: log2 D + log2 1/r <= 0"
        )
    return term * D * D / r / 16.0


def dynamic_lb(v, r, t0):
    """Cost lower bound (t0^2/128)(log2 v + log2 1/r) v^2 / r for moving targets.

    t0 is the time the flee-then-freeze adversary lets the target run; the
    witness region is a square of side v*t0/2.
    """
    if not all(math.isfinite(x) and x > 0 for x in (v, r, t0)):
        raise ValueError("v, r and t0 must be finite and positive")
    v, r, t0 = float(v), float(r), float(t0)  # a numpy float32 would give a float32 bound
    term = _log_term(v, r)
    if term <= 0:
        raise ValueError(
            f"(v={v}, r={r}) lies outside the bound's regime: log2 v + log2 1/r <= 0"
        )
    return t0 * t0 / 128.0 * term * v * v / r


def poly_speed_certificate(c, v, r, d):
    """Contradiction certificate for a searcher with speed at most t^c.

    Such a searcher needs time at least ((c+1) v^2 / 2r)^(1/(c-1)) to
    reach a fleeing target, hence cost at least
    min_cost = (1/(c+1)) ((c+1) v^2 / 2r)^((c+1)/(c-1)) = alpha (v^2/r)^beta
    with beta = (c+1)/(c-1) > 1 and alpha = ((c+1)/2)^beta / (c+1).
    `exceeds` is set once that cost surpasses the optimal
    d (log2 v + log2 1/r) v^2 / r.  v, r and d must be finite,
    and so must c + 1 as a float, every cost and min_cost / optimal_cost:
    past the float range it raises ValueError.
    """
    if not isinstance(c, int) or c < 2:
        raise ValueError("require integer speed exponent c >= 2 (c = 1 degenerates)")
    if not all(math.isfinite(x) for x in (v, r, d)):
        raise ValueError(f"v, r and d must be finite, got v={v}, r={r}, d={d}")
    # numpy float32s would compute the certificate in float32, and overflow with a warning
    v, r, d = float(v), float(r), float(d)
    if v < 1 or not (0 < r < 1) or d <= 0:
        raise ValueError("require v >= 1, 0 < r < 1, d > 0")
    if c + 1 > sys.float_info.max:  # (c + 1) * v would raise OverflowError converting c + 1
        # its bit count, as an int past 4300 digits does not convert to str
        raise ValueError(f"c of {c.bit_length()} bits puts the certificate beyond the float range")
    base = (c + 1) * v * v / (2.0 * r)
    min_catch_time = base ** (1.0 / (c - 1))
    try:
        min_cost = base ** ((c + 1) / (c - 1)) / (c + 1)
    except OverflowError:  # float ** raises where * gives inf
        min_cost = math.inf
    optimal_cost = d * _log_term(v, r) * v * v / r
    finite = all(math.isfinite(x) for x in (base, min_cost, optimal_cost))
    if not (finite and optimal_cost > 0 and math.isfinite(min_cost / optimal_cost)):
        raise ValueError(f"(c={c}, v={v}, r={r}, d={d}) puts the certificate beyond the float range")
    return PolySpeedCertificate(
        c=c,
        v=v,
        r=r,
        min_catch_time=min_catch_time,
        min_cost=min_cost,
        optimal_cost=optimal_cost,
        exceeds=min_cost > optimal_cost,
        beta=(c + 1) / (c - 1),
    )


class ImpossibilityReport(NamedTuple):
    rows: tuple  # the PolySpeedCertificate of m = 1..m_max, in order
    crossover_m: int  # first m from which min_cost > optimal_cost onward, or -1
    slope: float  # fitted d log(min_cost) / d log(v^2/r) over the last 4 rows
    beta: float  # analytic exponent (c+1)/(c-1)


def impossibility_report(c, d, m_max):
    """Tabulate the polynomial-speed contradiction along v=2^m, r=2^-m.

    Row m - 1 is the certificate of v = 2^m, r = 2^-m.  statistics is
    imported here, as its import would add fractions and decimal to every
    command's start.
    """
    from statistics import linear_regression

    if m_max < 4:
        raise ValueError("m_max must be >= 4")
    rows = tuple(poly_speed_certificate(c, 2.0 ** m, 2.0 ** (-m), d) for m in range(1, m_max + 1))
    crossover = -1
    for idx in range(len(rows)):
        if all(row.exceeds for row in rows[idx:]):
            crossover = idx + 1
            break
    tail = rows[-4:]
    xs = [math.log(row.v * row.v / row.r) for row in tail]
    ys = [math.log(row.min_cost) for row in tail]
    return ImpossibilityReport(
        rows=rows,
        crossover_m=crossover,
        slope=linear_regression(xs, ys).slope,
        beta=(c + 1) / (c - 1),
    )
