"""Deterministic continuous-time simulation of searcher vs target.

One exact engine serves every target, every plan, traced or not.  It
walks the schedule one out-and-back block at a time through the block's
closed form in `trajectory`, in constant memory: each block starts and
ends at the searcher's start, and the clock inside a block is its arc
length over the diagonal's speed.  The cost, time and legs at each block
start come from a per-plan table (_block_table), summed once in walking
order.  Targets are piecewise linear and inert after their last
breakpoint, so the few legs that start while the target still moves are
split at its breakpoints, which one forward walk over their index finds
(one bisection at the block start, then leg by leg), and each piece is
solved as an exact quadratic; for every later leg the first contact with
the target's final point is found by a scalar scan of the block's sides.
A trace is written from the same closed form and never changes the
result.

Each block is an origin-centred square spiral with step 2^-j whose legs
lie on four families of axis lines (_SIDES), walked out and then back.
The inert test is a distance filter followed by an exact quadratic on the
first leg it flags, and the scan returns what that test returns on every
leg in walking order, bit for bit:
  * O(1) gates skip a block that lies farther than r from the target
    by a step of margin, and a block with no axis line x = m step or
    y = m step within r of it.  Every leg lies on such a line, so no leg
    of a skipped block passes the filter; off the lines the side scan
    would keep no line either, as the gate's margin is ten times the
    scan's.  A second O(1) check skips a block whose lines within r
    hold no leg long enough to come within r of the target; a block it
    keeps passes the grid-line test too.  Only the extent test depends on
    the block's k; the reach check depends on its step alone, so the walk
    runs it, in place of the grid-line test, once per term t (step 4^-t);
  * the filter's closest point lies on the leg's own line, so its squared
    distance is at least o*o for the target's perpendicular offset o, and
    a leg with o*o > r*r is skipped exactly: O(1 + r/step) lines per side
    remain;
  * on a remaining leg that stops short of the target the filter's t
    clips to exactly 0 or 1, so its closest point is the leg's end vertex,
    exactly; these corners lie on one diagonal line, so a quadratic bounds
    the ones within r and only those are tested;
  * every tested leg gets the filter in Python floats, which rounds as
    numpy does: einsum over two columns is x0*y0 + x1*y1, and the rest is
    elementwise;
  * the quadratic rounds each 2-vector dot as one fma, fma(x1, y1, x0*y0),
    exactly (geometry.fma_dot).  The recorded sweeps came from OpenBLAS's
    Haswell `ddot`, which rounds a 2-vector dot that way, and fma_dot
    gives the same bits on every CPU and BLAS.  The hot path makes no
    numpy call; numpy is left to brute_force_oracle, which imports it
    when it is called.
"""

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from numbers import Integral, Real

from .geometry import Point, first_contact_time, fma_dot
from .trajectory import (
    _SIDES,
    MAX_DIAGONAL,
    UNIT,
    diagonal_terms,
    full_schedule,
    pi_arc_before,
    pi_leg_length,
    pi_length,
    pi_vertex,
)

_SQRT_HALF = math.sqrt(0.5)
# the sides of _SIDES flattened with their offset: (off, axis, sign, c_line, sign0, c0, c1)
_SIDE_ROWS = tuple((off, *side) for off, side in enumerate(_SIDES))


@dataclass(frozen=True)
class SimConfig:
    """Sensing radius and budgets of one hunt; max_diagonal None means MAX_DIAGONAL."""

    agent_start: Point = Point(0.0, 0.0)
    r: float = 1.0
    max_cost: float = math.inf
    max_diagonal: int = None

    def __post_init__(self):
        if not (math.isfinite(self.agent_start.x) and math.isfinite(self.agent_start.y)):
            raise ValueError("agent_start must be finite")
        for name in ("r", "max_cost"):
            value = getattr(self, name)
            # numpy's bool_ is no Real; its ints and floats are
            if not isinstance(value, Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError("sensing radius r must be finite and positive")
        if not self.max_cost > 0:
            raise ValueError("max_cost must be positive")
        if math.isinf(self.max_cost) and self.max_diagonal is None:
            raise ValueError("need a finite max_cost or max_diagonal")
        if self.max_diagonal is None:
            object.__setattr__(self, "max_diagonal", MAX_DIAGONAL)
        if isinstance(self.max_diagonal, bool) or not isinstance(self.max_diagonal, Integral):
            raise ValueError(f"max_diagonal must be an integer, got {self.max_diagonal!r}")
        if not 1 <= self.max_diagonal <= MAX_DIAGONAL:
            raise ValueError(f"max_diagonal must be in 1..{MAX_DIAGONAL}, got {self.max_diagonal}")


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
    """SimOutcome from values of its field types; cost may be a numpy float (a moving target's)."""
    return SimOutcome(sensed, t, float(cost), agent, tgt, diagonal, legs, reason)


@functools.lru_cache(maxsize=None)
def _block_table(plan):
    """The start of every block the plan may walk, in walking order, then its end.

    Row b is (diagonal, params, term, step, extent, speed, legs of the
    block, arc length of the block, cost, time, legs walked before it); the
    diagonals 1..m are the first m (m + 1) / 2 rows, and the cost, time and
    legs of row m (m + 1) / 2 are where diagonal m ends (the last row holds
    only those three).  They are the running sums the walk used to keep,
    added in the same order, so they are the same floats.  extent is
    (k + 2) step, the half-width past which _may_flag rejects a block.
    """
    rows = []
    cost, t, legs = 0.0, 0.0, 0
    for i in range(1, MAX_DIAGONAL + 1):
        speed = plan.speed_of_diagonal(i)
        for params in diagonal_terms(i):
            block_legs, block_len, step = 8 * (params.k + 1), pi_length(params), 2.0 ** (-params.j)
            rows.append((i, params, params.j // 2, step, (params.k + 2) * step, speed, block_legs, block_len,
                         cost, t, legs))
            cost += block_len
            t += block_len / speed
            legs += block_legs
    rows.append((None,) * 8 + (cost, t, legs))
    return tuple(rows)


def _simulate(plan, strategy, cfg, tracer):
    sx, sy = float(cfg.agent_start.x), float(cfg.agent_start.y)
    start = (sx, sy)
    final = strategy.points[-1]
    qx, qy = float(final.x) - sx, float(final.y) - sy
    q_rel = (qx, qy)
    t_still = strategy.times[-1]  # the target is inert from here on
    r, max_cost = cfg.r, cfg.max_cost

    tgt0 = strategy.position(0.0)
    if (tgt0 - cfg.agent_start).norm() <= r:
        if tracer:
            tracer.emit(0.0, 0.0, cfg.agent_start, tgt0, "sense")
        return _outcome(True, 0.0, 0.0, cfg.agent_start, tgt0, 0, 0, "sensed")

    # the inert kernel's gates: _may_flag's extent test per block, and
    # _may_reach (which implies _may_flag's grid-line test) once per term,
    # as it depends on the step alone
    if r * r < math.inf:
        far = max(abs(qx), abs(qy))  # inf for a target at infinity: no leg is within r of it
    elif fma_dot(qx, qy, qx, qy) < math.inf:
        far = -math.inf  # every finite distance passes the filter
    else:
        # |q|^2 overflows, and so does every leg start's (legs stay within
        # 2^13 of the start, below ulp(2^512) = 2^460): every contact
        # quadratic is inf - inf = NaN, and the kernel rejects each leg
        far = math.inf
    margin = r * (1.0 + 1e-9)
    term_gate = [None] * (MAX_DIAGONAL + 1)

    rows = _block_table(plan)
    n_blocks = cfg.max_diagonal * (cfg.max_diagonal + 1) // 2
    for i, params, term, step, extent, speed, block_legs, block_len, cost, t, legs in rows[:n_blocks]:
        allowance = max_cost - cost
        n, hit = 0, None
        if t < t_still:  # legs that start before t_still see a moving target
            n, hit = _first_contact_moving(strategy, start, params, t, speed, r, allowance)
        if hit is None and far <= extent + margin:
            gate = term_gate[term]
            if gate is None:
                gate = term_gate[term] = _may_reach(step, qx, qy, r)
            if gate:
                hit = _first_contact_in_rings(params, n, q_rel, r, allowance)
        sensed = hit is not None
        if sensed or block_len >= allowance:
            arc, idx = hit if sensed else (allowance, bisect_left(
                range(block_legs), allowance, key=lambda L: pi_arc_before(params, L + 1)
            ))
            (ax, ay), (bx, by) = pi_vertex(params, idx), pi_vertex(params, idx + 1)
            frac = (arc - pi_arc_before(params, idx)) / pi_leg_length(params, idx)
            xy = (float(sx + (ax + frac * (bx - ax))), float(sy + (ay + frac * (by - ay))))
            t_stop = float(t + arc / speed)
            if tracer:
                _trace_block(tracer, strategy, start, params, t, cost, speed, (arc, idx, xy, sensed))
            agent, tgt = Point(*xy), strategy.position(t_stop)
            stop_cost = cost + arc if sensed else max_cost
            reason = "sensed" if sensed else "cost_budget"
            return _outcome(sensed, t_stop, stop_cost, agent, tgt, i, legs + idx + 1, reason)
        if tracer:
            _trace_block(tracer, strategy, start, params, t, cost, speed)
    cost, t, legs = rows[n_blocks][-3:]
    tgt = strategy.position(t)
    return _outcome(False, t, cost, cfg.agent_start, tgt, int(cfg.max_diagonal), legs, "diagonal_budget")


def _first_contact_moving(strategy, start, params, t, speed, r, arc_allowance):
    """(n, hit) for the legs of a block that start while the target moves.

    n is the first leg that starts at or after the target's last
    breakpoint (or where the arc budget runs out), from which the inert
    kernel takes over; hit is the first contact (arc, leg index) before
    it, or None.  Each leg is split at the target's breakpoints, and every
    constant-velocity piece is solved exactly; only the first
    arc_allowance of arc length is admissible.  Leg starts only grow, so
    one bisection at the block start and then a forward walk find each
    leg's first breakpoint.
    """
    times, points = strategy.times, strategy.points
    legs, t_still = 8 * (params.k + 1), times[-1]
    after = bisect_right(times, t)  # the first breakpoint after the leg start
    for idx in range(legs):
        arc0 = pi_arc_before(params, idx)
        t0 = t + arc0 / speed
        if t0 >= t_still or arc0 >= arc_allowance:
            return idx, None
        while times[after] <= t0:
            after += 1
        length = pi_leg_length(params, idx)
        (ax, ay), (bx, by) = pi_vertex(params, idx), pi_vertex(params, idx + 1)
        vel = Point((bx - ax) * (speed / length), (by - ay) * (speed / length))
        pos = Point(float(start[0] + ax), float(start[1] + ay))
        te = t0 + min(length, arc_allowance - arc0) / speed
        ts, b = t0, after
        while True:  # the piece from ts to the next breakpoint b or to te
            end = times[b] if b < len(times) and times[b] < te else te
            hit = first_contact_time(pos + vel.scaled(ts - t0), vel, strategy.position(ts),
                                     _segment_velocity(times, points, b), r, end - ts)
            if hit is not None:
                return idx, (arc0 + speed * (ts + hit - t0), idx)
            if end == te:
                break
            ts, b = end, b + 1
    return legs, None


def _segment_velocity(times, points, b):
    """Velocity on the segment that ends at breakpoint b; zero past the last one."""
    if b == len(times):
        return Point(0.0, 0.0)
    dt = times[b] - times[b - 1]
    d = points[b] - points[b - 1]
    inv = 1.0 / dt
    if math.isinf(inv):
        # a subnormal dt: 0 * inf would be NaN, while d / dt is finite
        # (the speed check bounds |d| / dt)
        return Point(d.x / dt, d.y / dt)
    return d.scaled(inv)


def _first_contact_in_rings(params, n, q_rel, r, arc_allowance):
    """First contact (arc, leg index) on legs n.. of block params, or None.

    q_rel is the inert target relative to the block origin; only the first
    arc_allowance of arc length is admissible (cost budget truncation).
    The result is that of the distance filter and quadratic run on every
    leg from n in walking order: the first leg whose filtered squared
    distance is <= r*r gets the exact contact arc, and the scan stops at
    the first leg that starts at or after arc_allowance.  _first_flagged
    finds that leg with scalar arithmetic, and the quadratic rounds each
    2-vector dot as one fma (geometry.fma_dot), so contact arcs are the
    same bits on every CPU.  The scan is exact on any block; the walk
    calls it only on blocks that pass _may_flag's extent test and _may_reach.
    """
    qx, qy = float(q_rel[0]), float(q_rel[1])
    if not (math.isfinite(qx) and math.isfinite(qy)):
        return None  # no leg is within r of a target at infinity
    k, step = params.k, 2.0 ** (-params.j)
    idx = _first_flagged(k, step, (qx, qy), r, n)
    while idx is not None:
        cum_prev = pi_arc_before(params, idx)
        if cum_prev >= arc_allowance:
            return None
        # exact first-contact arc on this leg: |a + u*l - q|^2 = r^2
        length = pi_leg_length(params, idx)
        (ax, ay), (bx, by) = pi_vertex(params, idx), pi_vertex(params, idx + 1)
        ux, uy = (bx - ax) / length, (by - ay) / length
        rx, ry = ax - qx, ay - qy
        c0 = fma_dot(rx, ry, rx, ry) - r * r
        if c0 <= 0.0:
            arc = cum_prev
        else:
            bh = fma_dot(rx, ry, ux, uy)  # half of the linear coefficient
            disc = max(bh * bh - c0, 0.0)
            ell = -bh - math.sqrt(disc)
            arc = cum_prev + min(max(ell, 0.0), length)
        if arc <= arc_allowance:
            return arc, idx
        idx = _first_flagged(k, step, (qx, qy), r, idx + 1)
    return None


def _may_flag(k, step, qx, qy, r):
    """Whether a leg of block (k, step) can pass the filter, in O(1); False is exact.

    False means one of two things.  The target is farther than r from the
    whole block, by a step of margin for rounding.  Or no axis line
    x = m step or y = m step comes within r of it: _first_flagged keeps a
    side's line s only if s is within w + pad of that side's mid, and mid
    is +-qx / step or +-qy / step shifted by an integer, so every side is
    empty when both qx / step and qy / step are farther than w + 10 pad
    from every integer (ten times the pad covers mid's rounding).
    _simulate applies the extent test per block, from _block_table, and
    _may_reach, which implies the grid-line test, once per term.
    """
    if r * r == math.inf:
        return True  # every finite distance passes the filter
    if max(abs(qx), abs(qy)) > (k + 2) * step + r * (1.0 + 1e-9):
        return False
    x, y, w = qx / step, qy / step, r / step
    tol = w + 1e-11 * (max(abs(x), abs(y)) + 1.0 + w)
    return abs(math.remainder(x, 1.0)) <= tol or abs(math.remainder(y, 1.0)) <= tol


def _may_reach(step, qx, qy, r):
    """Whether a grid line within r of the target has a leg that reaches it, in O(1); False is exact.

    Every leg on the line y = m step spans |x| <= (|m| + 1) step (_SIDES),
    and the same holds with x and y swapped.  A line y = m step within r
    has |m| step <= |qy| + r, so a leg on it can pass the filter only if
    |qx| <= |qy| + step + 2r; likewise a line x = m step only if
    |qy| <= |qx| + step + 2r.  Its w and tol are _may_flag's grid-line
    test's, as |q| / step is |q / step| exactly, and each branch needs one
    of that test's remainders within tol, so True here implies True there.
    """
    if r * r == math.inf:
        return True  # every finite distance passes the filter
    x, y, w = abs(qx) / step, abs(qy) / step, r / step
    tol = w + 1e-11 * (max(x, y) + 1.0 + w)
    reach = 1.0 + w + tol
    return (abs(math.remainder(y, 1.0)) <= tol and x <= y + reach) or (
        abs(math.remainder(x, 1.0)) <= tol and y <= x + reach
    )


def _first_flagged(k, step, q, r, n):
    """Index of the first leg from n whose distance filter passes, or None.

    The filter of leg a -> b, in Python floats as numpy rounds it row by
    row (einsum over two columns is x0*y0 + x1*y1, the rest elementwise):
        t = clip((q - a).(b - a) / |b - a|^2, 0, 1)
        dist2 = |q - (a + t (b - a))|^2 <= r*r.
    Per side, only the lines within r of the target are kept, and of
    their legs that stop short of it only the corners that _corner_range
    brackets; every kept leg gets the filter (_first_on_lines).  See the
    module docstring for why that is exact.  The walk gates the block
    with _may_flag's extent test and _may_reach first, so a target
    outside the block's extent, off every grid line or past the ends of
    the legs on its lines rarely gets here; the scan is exact without
    them.
    """
    legs = 8 * (k + 1)
    rr = r * r
    if rr == math.inf:
        return n if n < legs else None  # every finite distance passes
    w = r / step
    # one row per side that keeps a line: (off, corners first..last, lines cov..hi, line)
    sides = []
    for off, axis, sign, c_line, sign0, c0, c1 in _SIDE_ROWS:
        q_perp, q_par = q[axis], q[1 - axis]
        # lines s with |o| <= r, with a margin far above the rounding
        p = sign * q_perp
        mid = p / step - c_line
        pad = 1e-12 * (abs(mid) + w)
        lo, hi = math.ceil(mid - w - pad), math.floor(mid + w + pad)
        if lo < 0:
            lo = 0
        if hi > k:
            hi = k
        if lo > hi:
            continue
        # the leg end on the target's side lies at |parallel| (s + c_end) step;
        # legs s < cov stop short of the target's parallel coordinate P
        P = abs(q_par)
        c_end = c0 if (q_par >= 0.0) == (sign0 > 0) else c1
        cov = math.ceil(P / step - c_end)
        if cov < lo:
            cov = lo
        elif cov > hi + 1:
            cov = hi + 1
        while cov > lo and P <= (cov - 1 + c_end) * step:
            cov -= 1
        while cov <= hi and P > (cov + c_end) * step:
            cov += 1
        first, last = cov, cov - 1
        if cov > lo:
            first, last = _corner_range(p - c_line * step, P - c_end * step, step, r, lo, cov - 1)
        sides.append((off, first, last, cov, hi, q_perp, q_par, sign, c_line, sign0, c0, c1))

    # outbound leg 4s + off is return leg legs - 1 - 4s - off.  Each pass
    # keeps the legs from n to the first one found so far: out, corners
    # before lines, each range from its first line; back, lines before
    # corners, each range from its last line
    found, top = None, legs - 1
    for off, first, last, cov, hi, q_perp, q_par, sign, c_line, sign0, c0, c1 in sides:
        s_lo, s_hi = (n - off + 3) // 4, (top - off) // 4
        s, lo, up = None, (first if first > s_lo else s_lo), (last if last < s_hi else s_hi)
        if lo <= up:
            s = _first_on_lines(q_perp, q_par, sign, c_line, sign0, c0, c1, step, rr, lo, up, False)
        if s is None:
            lo, up = (cov if cov > s_lo else s_lo), (hi if hi < s_hi else s_hi)
            if lo <= up:
                s = _first_on_lines(q_perp, q_par, sign, c_line, sign0, c0, c1, step, rr, lo, up, False)
        if s is not None:
            found = top = 4 * s + off
    if found is not None:
        return found
    bottom = 0  # outbound index of the return leg found so far
    for off, first, last, cov, hi, q_perp, q_par, sign, c_line, sign0, c0, c1 in sides:
        s_lo, s_hi = (bottom - off + 3) // 4, (legs - 1 - n - off) // 4
        s, lo, up = None, (cov if cov > s_lo else s_lo), (hi if hi < s_hi else s_hi)
        if lo <= up:
            s = _first_on_lines(q_perp, q_par, sign, c_line, sign0, c0, c1, step, rr, lo, up, True)
        if s is None:
            lo, up = (first if first > s_lo else s_lo), (last if last < s_hi else s_hi)
            if lo <= up:
                s = _first_on_lines(q_perp, q_par, sign, c_line, sign0, c0, c1, step, rr, lo, up, True)
        if s is not None:
            bottom = 4 * s + off
            found = legs - 1 - bottom
    return found


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


def _trace_block(tracer, strategy, start, params, t, cost, speed, stop=None):
    """leg_start/leg_end lines for one block walked from its start.

    stop = (arc, idx, agent xy, sensed) ends the walk inside leg idx with
    a sense line, or with leg_end and cost_budget lines.
    """
    sx, sy = start

    def emit(arc, xy, event):
        at = float(t + arc / speed)
        agent = Point(float(xy[0]), float(xy[1]))
        tracer.emit(at, cost + arc, agent, strategy.position(at), event)

    def vertex(leg):
        x, y = pi_vertex(params, leg)
        return sx + x, sy + y

    walked = 8 * (params.k + 1) if stop is None else stop[1]
    for leg in range(walked):
        emit(pi_arc_before(params, leg), vertex(leg), "leg_start")
        emit(pi_arc_before(params, leg + 1), vertex(leg + 1), "leg_end")
    if stop is not None:
        arc, idx, xy, sensed = stop
        emit(pi_arc_before(params, idx), vertex(idx), "leg_start")
        if not sensed:
            emit(arc, xy, "leg_end")
        emit(arc, xy, "sense" if sensed else "cost_budget")


def brute_force_oracle(plan, strategy, cfg, step):
    """Fixed-arc-step reference simulation, independent of `simulate`.

    Advances the searcher `step` units of arc at a time and checks the
    plain distance condition at each sample; converges to the exact
    result as step -> 0.  Vectorized per leg but otherwise naive.
    """
    import numpy as np

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
        if i > cfg.max_diagonal:
            tp = strategy.position(t)
            return _outcome(False, float(t), cost, Point(*pos.tolist()), tp, i - 1, legs, "diagonal_budget")
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
            return _outcome(False, float(t), cost, Point(*pos.tolist()), tp, i, legs, "cost_budget")
    raise AssertionError("schedule is infinite")  # pragma: no cover
