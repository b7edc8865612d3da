"""Deterministic continuous-time simulation of searcher vs target.

One exact engine serves every target, every plan, traced or not.  It
walks the schedule one out-and-back block at a time as `pi_arrays`
vertex arrays: each block starts and ends at the searcher's start, and
the clock inside a block is its arc length over the diagonal's speed.
Targets are piecewise linear and inert after their last breakpoint, so
the few legs that start while the target still moves are split at its
breakpoints and each piece is solved as an exact quadratic; for every
later leg the first contact with the target's final point is found by a
scalar scan of the block's sides.  A trace is written from the same block
arrays and never changes the result.

Each block is an origin-centred square spiral with step 2^-j whose legs
lie on four families of axis lines (_SIDES), walked out and then back.
The inert test is a distance filter followed by an exact quadratic on the
first leg it flags, and the scan returns what that test returns on every
leg in walking order, bit for bit:
  * the filter's closest point lies on the leg's own line, so its squared
    distance is at least o*o for the target's perpendicular offset o, and
    a leg with o*o > r*r is skipped exactly: O(1 + r/step) lines per side
    remain;
  * a remaining leg that stops short of the target has its end vertex as
    closest point; these corners lie on one diagonal line, so a quadratic
    bounds the ones within r and only those are tested;
  * the other legs get the filter in Python floats, which rounds as numpy
    does: einsum over two columns is x0*y0 + x1*y1, and the rest is
    elementwise;
  * the quadratic keeps numpy's 1-D `@`, whose BLAS dot does not round as
    x0*y0 + x1*y1 does.
"""

import math
from dataclasses import dataclass
from itertools import count

import numpy as np

from .geometry import Point, first_contact_time
from .trajectory import UNIT, diagonal_terms, full_schedule, pi_arrays

# The outbound half of a block, in units of its step: leg 4s + off lies on
# the line perp = sign * (s + c_line) and runs along the other axis from
# sign0 * (s + c0) to -sign0 * (s + c1).  The return leg 8(k+1) - 1 - L
# retraces outbound leg L.
#   (perp axis, sign, c_line, sign0, c0, c1)
_SIDES = (
    (1, 1, 0, -1, 0, 1),  # E: y = s, x from -s to s + 1
    (0, 1, 1, 1, 0, 1),  # S: x = s + 1, y from s to -(s + 1)
    (1, -1, 1, 1, 1, 1),  # W: y = -(s + 1), x from s + 1 to -(s + 1)
    (0, -1, 1, -1, 1, 1),  # N: x = -(s + 1), y from -(s + 1) to s + 1
)
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class SimConfig:
    agent_start: Point = Point(0.0, 0.0)
    r: float = 1.0
    max_cost: float = math.inf
    max_diagonal: int = None

    def __post_init__(self):
        if not (math.isfinite(self.agent_start.x) and math.isfinite(self.agent_start.y)):
            raise ValueError("agent_start must be finite")
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError("sensing radius r must be finite and positive")
        if not self.max_cost > 0:
            raise ValueError("max_cost must be positive")
        if math.isinf(self.max_cost) and self.max_diagonal is None:
            raise ValueError("need a finite max_cost or max_diagonal")
        if self.max_diagonal is not None and self.max_diagonal < 1:
            raise ValueError("max_diagonal must be >= 1")


@dataclass(frozen=True)
class SimOutcome:
    sensed: bool
    time: float
    cost: float
    agent_pos: Point
    target_pos: Point
    diagonal: int
    legs_processed: int
    stop_reason: str  # "sensed" | "cost_budget" | "diagonal_budget"


class _Trace:
    """Line-per-event trace: `t cost ax ay tx ty event`."""

    def __init__(self, sink):
        self._own = isinstance(sink, str)
        self._fh = open(sink, "w") if self._own else sink

    def emit(self, t, cost, agent, tgt, event):
        self._fh.write(
            f"{t:.12g} {cost:.12g} {agent.x:.12g} {agent.y:.12g} "
            f"{tgt.x:.12g} {tgt.y:.12g} {event}\n"
        )

    def close(self):
        if self._own:
            self._fh.close()


def simulate(plan, strategy, cfg, trace=None):
    """Run one searcher plan against one target strategy.

    Stops at the first of: sensing (distance <= r), the arc-length budget
    max_cost, or the end of diagonal max_diagonal.  Deterministic; the
    optional trace records the walk without changing it.
    """
    tracer = _Trace(trace) if trace is not None else None
    try:
        return _simulate(plan, strategy, cfg, tracer)
    finally:
        if tracer is not None:
            tracer.close()


def _outcome(sensed, t, cost, agent, tgt, diagonal, legs, reason):
    return SimOutcome(
        sensed=bool(sensed),
        time=float(t),
        cost=float(cost),
        agent_pos=agent,
        target_pos=tgt,
        diagonal=int(diagonal),
        legs_processed=int(legs),
        stop_reason=reason,
    )


def _simulate(plan, strategy, cfg, tracer):
    start = np.array([cfg.agent_start.x, cfg.agent_start.y])
    final = strategy.points[-1]
    q_rel = np.array([final.x, final.y]) - start
    t_still = strategy.times[-1]  # the target is inert from here on

    tgt0 = strategy.position(0.0)
    if (tgt0 - cfg.agent_start).norm() <= cfg.r:
        if tracer:
            tracer.emit(0.0, 0.0, cfg.agent_start, tgt0, "sense")
        return _outcome(True, 0.0, 0.0, cfg.agent_start, tgt0, 0, 0, "sensed")

    cost = 0.0
    t = 0.0
    legs = 0
    for i in count(1):
        if cfg.max_diagonal is not None and i > cfg.max_diagonal:
            tgt = strategy.position(t)
            return _outcome(False, t, cost, cfg.agent_start, tgt, i - 1, legs, "diagonal_budget")
        speed = plan.speed_of_diagonal(i)
        for params in diagonal_terms(i):
            verts, lengths, cum = pi_arrays(params.k, params.j)
            allowance = cfg.max_cost - cost
            # legs that start before t_still see a moving target
            n = 0 if t >= t_still else int(np.searchsorted(t + (cum - lengths) / speed, t_still))
            hit = _first_contact_moving(strategy, start, verts, lengths, cum, n, t, speed, cfg.r, allowance)
            if hit is None:
                hit = _first_contact_in_rings(verts, lengths, cum, n, q_rel, cfg.r, allowance)
            sensed = hit is not None
            if sensed or cum[-1] >= allowance:
                arc, idx = hit if sensed else (allowance, int(np.searchsorted(cum, allowance)))
                xy = start + _point_at_arc(verts, lengths, cum, arc, idx)
                t_stop = float(t + arc / speed)
                if tracer:
                    _trace_block(tracer, strategy, start, verts, cum, t, cost, speed, (arc, idx, xy, sensed))
                agent, tgt = Point(float(xy[0]), float(xy[1])), strategy.position(t_stop)
                stop_cost = cost + arc if sensed else cfg.max_cost
                reason = "sensed" if sensed else "cost_budget"
                return _outcome(sensed, t_stop, stop_cost, agent, tgt, i, legs + idx + 1, reason)
            if tracer:
                _trace_block(tracer, strategy, start, verts, cum, t, cost, speed)
            block_len = cum[-1]
            cost += block_len
            t += block_len / speed
            legs += lengths.size


def _first_contact_moving(strategy, start, verts, lengths, cum, n, t, speed, r, arc_allowance):
    """First contact (arc, leg index) on the first n legs of a block, or None.

    The target may still move during these legs, so each leg is split at
    the target's breakpoints and every constant-velocity piece is solved
    exactly; only the first arc_allowance of arc length is admissible.
    """
    for idx in range(n):
        arc0 = cum[idx] - lengths[idx]
        if arc0 >= arc_allowance:
            return None
        t0 = t + arc0 / speed
        u = (verts[idx + 1] - verts[idx]) * (speed / lengths[idx])
        vel = Point(float(u[0]), float(u[1]))
        pos = Point(float(start[0] + verts[idx, 0]), float(start[1] + verts[idx, 1]))
        leg_dt = min(lengths[idx], arc_allowance - arc0) / speed
        for ts, te, tgt_pos, w in strategy.constant_velocity_pieces(t0, t0 + leg_dt):
            hit = first_contact_time(pos + vel.scaled(ts - t0), vel, tgt_pos, w, r, te - ts)
            if hit is not None:
                return arc0 + speed * (ts + hit - t0), idx
    return None


def _first_contact_in_rings(verts, lengths, cum, n, q_rel, r, arc_allowance):
    """First contact (arc, leg index) on legs n.. of a pi_arrays block, or None.

    The block has 8(k+1) legs, its first leg is one step long and q_rel
    is the inert target relative to the block origin; only the first
    arc_allowance of arc length is admissible (cost budget truncation).
    The result is that of the distance filter and quadratic run on every
    leg from n in walking order: the first leg whose filtered squared
    distance is <= r*r gets the exact contact arc, and the scan stops at
    the first leg that starts at or after arc_allowance.  _first_flagged
    finds that leg with scalar arithmetic; the quadratic stays on numpy's
    1-D `@`, whose BLAS dot rounds differently from x0*y0 + x1*y1.
    """
    qx, qy = float(q_rel[0]), float(q_rel[1])
    if not (math.isfinite(qx) and math.isfinite(qy)):
        return None  # no leg is within r of a target at infinity
    k, step = lengths.size // 8 - 1, float(lengths[0])
    idx = _first_flagged(k, step, (qx, qy), r, n)
    while idx is not None:
        cum_prev = cum[idx] - lengths[idx]
        if cum_prev >= arc_allowance:
            return None
        # exact first-contact arc on this leg: |a + u*l - q|^2 = r^2
        a = verts[idx]
        u = (verts[idx + 1] - a) / lengths[idx]
        ra = a - q_rel
        c0 = ra @ ra - r * r
        if c0 <= 0.0:
            arc = cum_prev
        else:
            bh = ra @ u  # half of the linear coefficient
            disc = max(bh * bh - c0, 0.0)
            ell = -bh - math.sqrt(disc)
            arc = cum_prev + min(max(ell, 0.0), lengths[idx])
        if arc <= arc_allowance:
            return arc, idx
        idx = _first_flagged(k, step, (qx, qy), r, idx + 1)
    return None


def _first_flagged(k, step, q, r, n):
    """Index of the first leg from n whose distance filter passes, or None.

    The filter of leg a -> b, in Python floats as numpy rounds it row by
    row (einsum over two columns is x0*y0 + x1*y1, the rest elementwise):
        t = clip((q - a).(b - a) / |b - a|^2, 0, 1)
        dist2 = |q - (a + t (b - a))|^2 <= r*r.
    Per side, only the lines within r of the target are kept, and on them
    the legs that stop short of it are tested at their end vertex
    (_first_corner) and the others with the filter (_first_on_lines); see
    the module docstring for why both are exact.
    """
    legs = 8 * (k + 1)
    rr = r * r
    if rr == math.inf:
        return n if n < legs else None  # every finite distance passes
    if max(abs(q[0]), abs(q[1])) > (k + 2) * step + r * (1.0 + 1e-9):
        return None  # farther than r from every leg, by a step of margin for rounding
    w = r / step
    sides = []
    for off, (axis, sign, c_line, sign0, c0, c1) in enumerate(_SIDES):
        q_perp, q_par = q[axis], q[1 - axis]
        # lines s with |o| <= r, with a margin far above the rounding
        p = sign * q_perp
        mid = p / step - c_line
        pad = 1e-12 * (abs(mid) + w)
        lo, hi = max(0, math.ceil(mid - w - pad)), min(k, math.floor(mid + w + pad))
        if lo > hi:
            continue
        # the leg end on the target's side lies at |parallel| (s + c_end) step;
        # legs s < cov stop short of the target's parallel coordinate P
        P = abs(q_par)
        c_end = c0 if (q_par >= 0.0) == (sign0 > 0) else c1
        cov = min(max(math.ceil(P / step - c_end), lo), hi + 1)
        while cov > lo and P <= (cov - 1 + c_end) * step:
            cov -= 1
        while cov <= hi and P > (cov + c_end) * step:
            cov += 1
        corners = (cov, cov - 1)
        if cov > lo:
            corners = _corner_range(p - c_line * step, P - c_end * step, step, r, lo, cov - 1)
        corner = (p, c_line, P, c_end, *corners)
        line = (q_perp, q_par, sign, c_line, sign0, c0, c1)
        sides.append((off, lo, hi, cov, corner, line))

    first = None
    for off, lo, hi, cov, corner, line in sides:
        lo = max(lo, (n - off + 3) // 4)  # outbound leg 4s + off >= n
        if first is not None and 4 * lo + off > first:
            continue
        s = _first_corner(*corner, step, rr, lo, hi, False)
        if s is None:
            s = _first_on_lines(*line, step, rr, max(lo, cov), hi, False)
        if s is not None and (first is None or 4 * s + off < first):
            first = 4 * s + off
    if first is not None:
        return first
    n_back = max(n, legs // 2)
    for off, lo, hi, cov, corner, line in sides:
        hi = min(hi, (legs - 1 - n_back - off) // 4)  # return leg legs-1-4s-off >= n
        if first is not None and legs - 1 - 4 * hi - off > first:
            continue
        s = _first_on_lines(*line, step, rr, max(lo, cov), hi, True)
        if s is None:
            s = _first_corner(*corner, step, rr, lo, hi, True)
        if s is not None and (first is None or legs - 1 - 4 * s - off < first):
            first = legs - 1 - 4 * s - off
    return first


def _first_on_lines(q_perp, q_par, sign, c_line, sign0, c0, c1, step, rr, lo, hi, back):
    """First s of lo..hi (from hi down if back) whose leg passes the filter."""
    for s in range(hi, lo - 1, -1) if back else range(lo, hi + 1):
        o = q_perp - sign * (s + c_line) * step
        if o * o > rr:
            continue  # exact skip: dist2 >= fl(o*o)
        a, b = sign0 * (s + c0) * step, -sign0 * (s + c1) * step
        if back:
            a, b = b, a
        d = b - a
        t = min(max((q_par - a) * d / (d * d), 0.0), 1.0)
        e = q_par - (a + t * d)
        if e * e + o * o <= rr:
            return s
    return None


def _corner_range(x, y, step, r, lo, hi):
    """The s of lo..hi whose corner can pass the filter, as (first, last).

    Corner s is at offsets x - s step and y - s step from the target, so
    its real squared distance is 2 (s step - (x+y)/2)^2 + g^2 with
    g = |x - y| / sqrt 2, and only the s within sqrt((r^2 - g^2) / 2) /
    step of (x+y) / (2 step) come within r.  The slack widens that range
    far beyond the rounding of the filter and of this estimate.
    """
    slack = 1e-12 * (abs(x) + abs(y) + r)
    g = max(abs(x - y) * _SQRT_HALF - slack, 0.0)
    gap = (r + slack - g) * (r + slack + g)
    if gap < 0.0:
        return lo, lo - 1  # the corner line stays farther than r
    mid = (x + y) / (2.0 * step)
    half = (math.sqrt(0.5 * gap) + slack) / step + 1.0
    first = lo if mid - half <= lo else hi + 1 if mid - half > hi else math.ceil(mid - half)
    last = hi if mid + half >= hi else lo - 1 if mid + half < lo else math.floor(mid + half)
    return first, last


def _first_corner(p, c_line, P, c_end, first, last, step, rr, lo, hi, back):
    """First s of first..last and lo..hi (from the top if back) whose corner passes the filter."""
    lo, hi = max(lo, first), min(hi, last)
    for s in range(hi, lo - 1, -1) if back else range(lo, hi + 1):
        e, o = P - (s + c_end) * step, p - (s + c_line) * step
        if e * e + o * o <= rr:
            return s
    return None


def _point_at_arc(verts, lengths, cum, arc, idx):
    cum_prev = cum[idx] - lengths[idx]
    frac = (arc - cum_prev) / lengths[idx]
    return verts[idx] + frac * (verts[idx + 1] - verts[idx])


def _trace_block(tracer, strategy, start, verts, cum, t, cost, speed, stop=None):
    """leg_start/leg_end lines for one block walked from its start.

    stop = (arc, idx, agent xy, sensed) ends the walk inside leg idx with
    a sense line, or with leg_end and cost_budget lines.
    """

    def emit(arc, xy, event):
        at = float(t + arc / speed)
        agent = Point(float(xy[0]), float(xy[1]))
        tracer.emit(at, cost + arc, agent, strategy.position(at), event)

    walked = len(cum) if stop is None else stop[1]
    prev = 0.0
    for leg in range(walked):
        emit(prev, start + verts[leg], "leg_start")
        emit(cum[leg], start + verts[leg + 1], "leg_end")
        prev = cum[leg]
    if stop is not None:
        arc, idx, xy, sensed = stop
        emit(prev, start + verts[idx], "leg_start")
        if not sensed:
            emit(arc, xy, "leg_end")
        emit(arc, xy, "sense" if sensed else "cost_budget")


def brute_force_oracle(plan, strategy, cfg, step):
    """Fixed-arc-step reference simulation, independent of `simulate`.

    Advances the searcher `step` units of arc at a time and checks the
    plain distance condition at each sample; converges to the exact
    result as step -> 0.  Vectorized per leg but otherwise naive.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    bp_t = np.array(strategy.times)
    bp_x = np.array([p.x for p in strategy.points])
    bp_y = np.array([p.y for p in strategy.points])

    pos = np.array([cfg.agent_start.x, cfg.agent_start.y])
    t = 0.0
    cost = 0.0
    legs = 0

    def target_at(times):
        return np.column_stack(
            [np.interp(times, bp_t, bp_x), np.interp(times, bp_t, bp_y)]
        )

    tgt0 = strategy.position(0.0)
    if math.hypot(tgt0.x - pos[0], tgt0.y - pos[1]) <= cfg.r:
        return _outcome(True, 0.0, 0.0, cfg.agent_start, tgt0, 0, 0, "sensed")

    for i, instr in full_schedule():
        if cfg.max_diagonal is not None and i > cfg.max_diagonal:
            tp = strategy.position(t)
            return _outcome(False, t, cost, Point(*pos), tp, i - 1, legs, "diagonal_budget")
        speed = plan.speed_of_diagonal(i)
        ux, uy = UNIT[instr.direction]
        leg_len = min(instr.distance, cfg.max_cost - cost)
        truncated = leg_len < instr.distance

        n = int(math.ceil(leg_len / step))
        arcs = np.minimum((np.arange(1, n + 1)) * step, leg_len)
        ax = pos[0] + ux * arcs
        ay = pos[1] + uy * arcs
        times = t + arcs / speed
        tgt = target_at(times)
        d2 = (ax - tgt[:, 0]) ** 2 + (ay - tgt[:, 1]) ** 2
        hits = np.nonzero(d2 <= cfg.r * cfg.r)[0]
        if hits.size:
            h = hits[0]
            return _outcome(
                True,
                float(times[h]),
                cost + float(arcs[h]),
                Point(float(ax[h]), float(ay[h])),
                Point(float(tgt[h, 0]), float(tgt[h, 1])),
                i,
                legs + 1,
                "sensed",
            )
        pos = pos + np.array([ux * leg_len, uy * leg_len])
        t += leg_len / speed
        cost += leg_len
        legs += 1
        if truncated or cost >= cfg.max_cost:
            tp = strategy.position(t)
            return _outcome(False, t, cost, Point(*pos), tp, i, legs, "cost_budget")
    raise AssertionError("schedule is infinite")  # pragma: no cover
