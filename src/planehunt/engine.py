"""Deterministic continuous-time simulation of searcher vs target.

One exact engine serves every target, every plan, traced or not.  It
walks the schedule one out-and-back block at a time through the block's
closed form in `trajectory`, in constant memory: each block starts and
ends at the searcher's start, and the clock inside a block is its arc
length over the diagonal's speed.  The cost, time and legs at each block
start come from a per-plan table (_block_table), summed once in walking
order.  Targets are piecewise linear and inert after their last
breakpoint, so the few legs that start while the target still moves are
split at its breakpoints, which one bisection per leg finds, and each
piece is decided the way a leg of the inert scan is, by its closest
point, before a clamped quadratic root gives the time
(geometry.contact_time, the unchecked core of first_contact_time, the
moving loop's one contact call); for every later leg the first contact
with the target's final point is found by a scalar scan of the block's
sides.  The table rejects an unusable plan (a speed that is not positive,
or a leg velocity or time past the float range) with ValueError before
any leg is walked, whatever the target, so every piece is finite.
A trace is written after the walk, from its outcome.

Per leg the work is float arithmetic on locals: one closed-form call
(trajectory.pi_leg) gives a leg's ends, arc and length to the moving
loop, to the inert quadratic, to the stop and to the trace (a cost
budget's stop finds its leg by trajectory.pi_leg_at), and a moving piece
reads the target's position and velocity as numbers
(TargetStrategy.state) and builds no Point.  A moving leg of a
two-breakpoint waypoint hunt costs about 3.5 us, against 10-13 us through
Points and the checked first_contact_time (2-core x86 VM, Python 3.11).

Each block is an origin-centred square spiral with step 2^-j whose legs
lie on four families of axis lines (_SIDES), walked out and then back;
the return half retraces the same lines, so one loop scans both halves
over the same side rows, the outbound half first.
The inert test is a distance filter followed by an exact quadratic on the
first leg it flags, and the scan returns what that test returns on every
leg in walking order, bit for bit:
  * two O(1) gates skip a block where no leg can pass the filter.  The
    extent test skips a block that lies farther than r from the target
    by a step of margin.  The reach test (_may_reach) skips a block
    where no axis line x = m step or y = m step (every leg lies on one)
    comes within r of the target, or where the legs on the lines that do
    all end before they come within r of it.  Only the extent test
    depends on the block's k; the reach test depends on its step alone,
    so the walk runs it once per term t (step 4^-t);
  * the filter's closest point lies on the leg's own line, so its squared
    distance is at least o*o for the target's perpendicular offset o, and
    a leg with o*o > r*r is skipped exactly: O(1 + r/step) lines per side
    remain;
  * on a remaining leg that stops short of the target the filter's t
    clips to exactly 0 or 1, so its closest point is the leg's end vertex,
    exactly; these corners lie on one diagonal line, so a quadratic bounds
    the ones within r and only those are tested;
  * a side is scanned only if it can flag a leg (_first_flagged drops the
    rest): its range of kept lines is not negative, and it has a line
    whose legs span the target or a corner in the quadratic's bracket.
    Where every kept leg stops short, a side whose nearest leg end lies
    more than w + 2 steps short of the target along the leg (w = r / step,
    with a relative margin of 1e-9) is dropped in O(1), with no bracket:
    every corner then lies farther than r + 2 steps from the target along
    the leg alone, so the filter, which rounds far less than a step,
    passes none;
  * every tested leg gets the filter in Python floats, which rounds as
    numpy does: einsum over two columns is x0*y0 + x1*y1, and the rest is
    elementwise;
  * the quadratic rounds its 2-vector dots as one fma, fma(x1, y1,
    x0*y0), exactly (geometry.fma_dot).  The recorded sweeps came from
    OpenBLAS's Haswell `ddot`, which rounds a 2-vector dot that way, and
    fma_dot gives the same bits on every CPU and BLAS.  Every leg is
    axis-aligned, so the direction u is (+-1, 0) or (0, +-1) exactly and
    the linear coefficient (a - q).u is +-rx or +-ry, the fma's value up
    to the sign of a zero, which only adds +-0 to the arc.  The hot path
    makes no numpy call; numpy is left to brute_force_oracle, which
    imports it when it is called.
"""

import contextlib
import functools
import math
import os
from bisect import bisect_right
from itertools import islice
from typing import NamedTuple

from .geometry import Point, check_float, check_int, contact_time, fma_dot
from .trajectory import _SIDES, MAX_DIAGONAL, diagonal_terms, pi_leg, pi_leg_at, pi_length

_SQRT_HALF = math.sqrt(0.5)
# the sides of _SIDES flattened with their offset: (off, axis, sign, c_line, sign0, c0, c1)
_SIDE_ROWS = tuple((off, *side) for off, side in enumerate(_SIDES))
# trace lines a run may write, about 50-130 MB at 47 bytes a line
MAX_TRACE_LINES = 2**20


class _SimConfig(NamedTuple):
    agent_start: Point
    r: float
    max_cost: float
    max_diagonal: int


class SimConfig(_SimConfig):
    """Sensing radius and budgets of one hunt; every walk ends by diagonal max_diagonal <= MAX_DIAGONAL."""

    __slots__ = ()

    def __new__(cls, agent_start=Point(0.0, 0.0), r=1.0, max_cost=math.inf, max_diagonal=MAX_DIAGONAL):
        if not isinstance(agent_start, Point):
            raise ValueError(f"agent_start {agent_start!r} must be a Point, not {type(agent_start).__name__}")
        check_float(agent_start.x, "agent_start.x")  # the Point is kept as given: the goldens pin its repr
        check_float(agent_start.y, "agent_start.y")
        r = check_float(r, "sensing radius r", "positive")
        max_cost = check_float(max_cost, "max_cost", "positive", finite=False)
        max_diagonal = check_int(max_diagonal, "max_diagonal", 1, MAX_DIAGONAL)
        return super().__new__(cls, agent_start, r, max_cost, max_diagonal)

    # _replace builds through _make, so a replaced field is checked as a new one is
    _make = classmethod(lambda cls, iterable: cls(*iterable))


class SimOutcome(NamedTuple):
    sensed: bool
    time: float
    cost: float
    agent_pos: Point
    target_pos: Point
    diagonal: int
    legs_processed: int
    stop_reason: str  # "sensed" | "cost_budget" | "diagonal_budget"


def simulate(plan, strategy, cfg, trace=None):
    """Run one searcher plan against one target strategy.

    Stops at the first of: sensing (distance <= r), the arc-length budget
    max_cost, or the end of diagonal max_diagonal.  Deterministic.  A
    trace (a str or os.PathLike path, or an open text file) is written
    after the walk, from its outcome; one longer than MAX_TRACE_LINES
    raises ValueError before the path is opened.
    """
    out = _simulate(plan, strategy, cfg)
    if trace is not None:
        lines = 2 * out.legs_processed + (out.stop_reason == "cost_budget") if out.legs_processed else 1
        if lines > MAX_TRACE_LINES:
            raise ValueError(f"the trace would have {lines} lines, more than MAX_TRACE_LINES = {MAX_TRACE_LINES}")
        with open(trace, "w") if isinstance(trace, (str, os.PathLike)) else contextlib.nullcontext(trace) as fh:
            _write_trace(fh, plan, strategy, cfg, out)
    return out


def _outcome(sensed, t, cost, agent, tgt, diagonal, legs, reason):
    """SimOutcome from values of its field types; cost may be a numpy float, where the target's times are."""
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
    (k + 2) step: every leg of the block lies within (k + 1) step of its
    origin in both coordinates, so a target farther than extent + r along
    x or y is farther than r from the whole block, by a step of margin.

    The table is the one place the walk reads the plan's speeds, and it
    rejects an unusable plan with a ValueError naming the plan and the
    diagonal: where a speed cannot be formed (2.0 ** n past the float
    range) or is not positive, where a leg's velocity, the speed over the
    shortest leg (2^-24), is not finite, or where the time walked by the
    diagonal's end is not.  So every time and velocity of the walk is a
    finite float.
    """
    rows = []
    cost, t, legs = 0.0, 0.0, 0
    try:
        for i in range(1, MAX_DIAGONAL + 1):
            speed = plan.speed_of_diagonal(i)
            for params in diagonal_terms(i):
                block_legs, block_len, step = 8 * (params.k + 1), pi_length(params), 2.0 ** (-params.j)
                rows.append((i, params, params.j // 2, step, (params.k + 2) * step, speed, block_legs, block_len,
                             cost, t, legs))
                cost += block_len
                t += block_len / speed
                legs += block_legs
            # the walk's leg velocity is speed / length, and the shortest leg is 2^-24 long
            if not (0.0 < speed / 2.0 ** -24 < math.inf and t < math.inf):
                raise ArithmeticError
    except ArithmeticError:  # also a speed 2.0 ** n past the float range, and a zero speed's division
        raise ValueError(f"plan {plan.name!r}, diagonal {i}: speed <= 0, NaN, or too big or small for floats") from None
    rows.append((None,) * 8 + (cost, t, legs))
    return tuple(rows)


def _simulate(plan, strategy, cfg):
    agent_start, r, max_cost, max_diagonal = cfg
    (x0, y0), tgt0, final = agent_start, strategy.points[0], strategy.points[-1]
    sx, sy = float(x0), float(y0)
    start = (sx, sy)
    qx, qy = float(final[0]) - sx, float(final[1]) - sy
    q_rel = (qx, qy)
    t_still = strategy.times[-1]  # the target is inert from here on

    rows = _block_table(plan)  # first: it rejects an unusable plan, whatever the target
    if math.hypot(tgt0[0] - x0, tgt0[1] - y0) <= r:  # tgt0 is position(0.0)
        return SimOutcome(True, 0.0, 0.0, agent_start, tgt0, 0, 0, "sensed")

    # the inert kernel's gates: the extent test per block, and _may_reach
    # once per term, as it depends on the step alone
    if r * r < math.inf or fma_dot(qx, qy, qx, qy) < math.inf:
        # inf for a target at infinity: no leg is within r of it.  Where
        # only r*r overflows, |q| < r, so every block passes the extent test
        far = max(abs(qx), abs(qy))
    else:
        # |q|^2 overflows, and so does every leg start's (legs stay within
        # 2^13 of the start, below ulp(2^512) = 2^460): every contact
        # quadratic is inf - inf = NaN, and the kernel rejects each leg
        far = math.inf
    margin = r * (1.0 + 1e-9)
    term_gate = [None] * (MAX_DIAGONAL + 1)

    n_blocks = max_diagonal * (max_diagonal + 1) // 2
    for i, params, term, step, extent, speed, block_legs, block_len, cost, t, legs in islice(rows, n_blocks):
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
            arc, idx = hit if sensed else (allowance, pi_leg_at(params, allowance))
            ax, ay, bx, by, arc0, length = pi_leg(params, idx)
            frac = (arc - arc0) / length
            t_stop = float(t + arc / speed)
            agent = Point(float(sx + (ax + frac * (bx - ax))), float(sy + (ay + frac * (by - ay))))
            tgt = strategy.position(t_stop)
            stop_cost = cost + arc if sensed else max_cost
            reason = "sensed" if sensed else "cost_budget"
            return _outcome(sensed, t_stop, stop_cost, agent, tgt, i, legs + idx + 1, reason)
    cost, t, legs = rows[n_blocks][-3:]
    tgt = strategy.position(t)
    return _outcome(False, t, cost, agent_start, tgt, max_diagonal, legs, "diagonal_budget")


def _write_trace(fh, plan, strategy, cfg, out):
    """Write the walk that ended in `out`, one `t cost ax ay tx ty event` line per event.

    Each of the out.legs_processed legs walked has a leg_start line and,
    but for the leg that a sensing or cost_budget stop cuts, a leg_end
    line; then come the stop's lines at out.time and out.agent_pos: sense,
    or leg_end and cost_budget.  Times, costs and positions are the walk's
    own sums from the block table, so every line has the walk's bits.
    """
    sx, sy = float(cfg.agent_start.x), float(cfg.agent_start.y)
    ends = out.legs_processed - (out.stop_reason != "diagonal_budget")  # legs walked to their end

    def emit(at, cost, agent, event):
        tgt = strategy.position(at)
        fh.write(f"{at:.12g} {cost:.12g} {agent.x:.12g} {agent.y:.12g} {tgt.x:.12g} {tgt.y:.12g} {event}\n")

    for _, params, _, _, _, speed, block_legs, _, cost, t, legs in _block_table(plan):
        if legs >= out.legs_processed:
            break

        def vertex_line(arc, x, y, event):
            emit(float(t + arc / speed), cost + arc, Point(float(sx + x), float(sy + y)), event)

        for leg in range(min(block_legs, out.legs_processed - legs)):
            ax, ay, bx, by, arc, length = pi_leg(params, leg)
            vertex_line(arc, ax, ay, "leg_start")
            if legs + leg < ends:
                # the arc before the next leg, exactly: a trace of at most MAX_TRACE_LINES
                # lines ends long before diagonal 12, so every arc is a step count below 2^53
                vertex_line(arc + length, bx, by, "leg_end")
        stop_cost = cost + (cfg.max_cost - cost)  # the walk's sum, where a cost_budget stop cuts this block
    if out.stop_reason == "cost_budget":
        emit(out.time, stop_cost, out.agent_pos, "leg_end")
        emit(out.time, stop_cost, out.agent_pos, "cost_budget")
    elif out.sensed:
        emit(out.time, out.cost, out.agent_pos, "sense")


def _first_contact_moving(strategy, start, params, t, speed, r, arc_allowance):
    """(n, hit) for the legs of a block that start while the target moves.

    n is the first leg that starts at or after the target's last
    breakpoint (or where the arc budget runs out), from which the inert
    kernel takes over; hit is the first contact (arc, leg index) before
    it, or None.  Each leg is split at the target's breakpoints, and every
    constant-velocity piece is solved exactly; only the first
    arc_allowance of arc length is admissible.  One bisection per leg
    finds the first breakpoint after its start.  A leg is one pi_leg call
    and a piece one TargetStrategy.state call and one contact_time call on
    Python floats, with no Point: the values first_contact_time would get,
    without its checks, which a validated target and a plan that passed
    _block_table always pass (finite positions, velocities and horizons).
    """
    times, state = strategy.times, strategy.state
    legs, n_times, t_still = 8 * (params.k + 1), len(times), times[-1]
    for idx in range(legs):
        ax, ay, bx, by, arc0, length = pi_leg(params, idx)
        t0 = t + arc0 / speed
        if t0 >= t_still or arc0 >= arc_allowance:
            return idx, None
        vx, vy = (bx - ax) * (speed / length), (by - ay) * (speed / length)
        px, py = float(start[0] + ax), float(start[1] + ay)
        te = t0 + min(length, arc_allowance - arc0) / speed
        ts, b = t0, bisect_right(times, t0)  # b: the first breakpoint after the leg start
        while True:  # the piece from ts to the next breakpoint b or to te
            end = times[b] if b < n_times and times[b] < te else te
            # Python floats, as first_contact_time takes them: the target's may be numpy's
            qx, qy, wx, wy = state(ts, b)
            dt = ts - t0
            hit = contact_time(float(px + vx * dt), float(py + vy * dt), vx, vy,
                               float(qx), float(qy), float(wx), float(wy), r, float(end - ts))
            if hit is not None:
                return idx, (arc0 + speed * (ts + hit - t0), idx)
            if end == te:
                break
            ts, b = end, b + 1
    return legs, None


def _first_contact_in_rings(params, n, q_rel, r, arc_allowance):
    """First contact (arc, leg index) on legs n.. of block params, or None.

    q_rel is the inert target relative to the block origin; only the first
    arc_allowance of arc length is admissible (cost budget truncation).
    The result is that of the distance filter and quadratic run on every
    leg from n in walking order: the first leg whose filtered squared
    distance is <= r*r gets the exact contact arc, and the scan stops at
    the first leg that starts at or after arc_allowance.  _first_flagged
    finds that leg with scalar arithmetic, and the quadratic rounds |a - q|^2
    as one fma (geometry.fma_dot), so contact arcs are the same bits on
    every CPU.  The scan is exact on any block; the walk
    calls it only on blocks that pass the extent test and _may_reach.
    """
    qx, qy = float(q_rel[0]), float(q_rel[1])
    q = (qx, qy)
    if not (math.isfinite(qx) and math.isfinite(qy)):
        return None  # no leg is within r of a target at infinity
    k, step = params.k, 2.0 ** (-params.j)
    idx = _first_flagged(k, step, q, r, n)
    while idx is not None:
        ax, ay, bx, by, cum_prev, length = pi_leg(params, idx)
        if cum_prev >= arc_allowance:
            return None
        # exact first-contact arc on this leg: |a + u*l - q|^2 = r^2
        rx, ry = ax - qx, ay - qy
        c0 = fma_dot(rx, ry, rx, ry) - r * r
        if c0 <= 0.0:
            arc = cum_prev
        else:
            # half the linear coefficient, r.u: the leg is axis-aligned, so u is (+-1, 0) or
            # (0, +-1) exactly and fma_dot's r.u is +-rx or +-ry, up to the sign of a zero,
            # which only adds +-0 to cum_prev
            bh = rx if bx > ax else -rx if bx < ax else ry if by > ay else -ry
            # max and min without the calls: a conditional that keeps the same operand
            disc = bh * bh - c0
            ell = -bh - math.sqrt(0.0 if disc < 0.0 else disc)
            arc = cum_prev + (0.0 if ell < 0.0 else length if ell > length else ell)
        if arc <= arc_allowance:
            return arc, idx
        idx = _first_flagged(k, step, q, r, idx + 1)
    return None


def _may_reach(step, qx, qy, r):
    """Whether a grid line within r of the target has a leg that reaches it, in O(1); False is exact.

    _first_flagged keeps a side's line s only if s lies within w + pad of
    the side's mid, which is +-qx / step or +-qy / step shifted by an
    integer, with pad = 1e-12 (|mid| + w).  tol is at least w + 10 pad,
    which covers mid's rounding, so where |qy| / step lies farther than
    tol from every integer no side keeps a line y = m step, and likewise
    for x.  Every leg on the line y = m step spans |x| <= (|m| + 1) step
    (_SIDES), and the same holds with x and y swapped.  A line y = m step
    within r has |m| step <= |qy| + r, so a leg on it can pass the filter
    only if |qx| <= |qy| + step + 2r; likewise a line x = m step only if
    |qy| <= |qx| + step + 2r.  reach is that bound over step, widened by
    tol.
    """
    if r * r == math.inf:
        return True  # every finite distance passes the filter
    # |qx| / step is |qx / step| exactly; the conditionals are abs and max without the calls
    x, y, w = qx / step, qy / step, r / step
    x, y = (-x if x < 0.0 else x), (-y if y < 0.0 else y)
    tol = w + 1e-11 * ((x if x > y else y) + 1.0 + w)
    reach = 1.0 + w + tol
    return (x <= y + reach and -tol <= math.remainder(y, 1.0) <= tol) or (
        y <= x + reach and -tol <= math.remainder(x, 1.0) <= tol
    )


def _first_flagged(k, step, q, r, n):
    """Index of the first leg from n whose distance filter passes, or None.

    The filter of leg a -> b, in Python floats as numpy rounds it row by
    row (einsum over two columns is x0*y0 + x1*y1, the rest elementwise):
        t = clip((q - a).(b - a) / |b - a|^2, 0, 1)
        dist2 = |q - (a + t (b - a))|^2 <= r*r.
    Per side, only the lines within r of the target are kept, and of
    their legs that stop short of it only the corners that _corner_range
    brackets; every kept leg gets the filter (_first_on_lines).  A side
    gets a row only if it can flag a leg; three rules drop the others:
      * negative line range: floor(mid + w + pad) < 0, before its lo and
        cov are computed;
      * corner-only, far short: every kept line stops short of the target
        (cov > hi), and the nearest end, on line hi, lies more than w + 2
        steps short along the leg, u - hi > w + 2 + 1e-9 (u + w) with
        u = P / step - c_end.  Every corner then lies more than r + 2 steps
        from the target along the leg alone, which no rounding of the
        filter can bring within r, so the side is dropped in O(1), without
        _corner_range;
      * nothing to scan: the corner bracket is empty and no line spans
        the target.
    Then one loop scans both halves of the block over the same rows: out,
    the first leg from n; back, the return leg nearest the turn, as the
    return half walks the outbound legs in reverse.  See the module
    docstring for why that is exact.  The walk gates the block with the extent test and
    _may_reach first, so a target outside the block's extent, off every
    grid line or past the ends of the legs on its lines rarely gets here;
    the scan is exact without them.
    """
    legs = 8 * (k + 1)
    rr = r * r
    if rr == math.inf:
        return n if n < legs else None  # every finite distance passes
    w = r / step
    # one row per side that can flag a leg: (off, corners, lines, side), each range (first, last)
    sides = []
    for off, axis, sign, c_line, sign0, c0, c1 in _SIDE_ROWS:
        q_perp, q_par = q[axis], q[1 - axis]
        # lines s with |o| <= r, with a margin far above the rounding
        p = sign * q_perp
        mid = p / step - c_line
        pad = 1e-12 * (abs(mid) + w)
        upper = mid + w + pad
        if upper < 0.0:
            continue  # floor(upper) < 0: no line s >= 0 is kept
        hi, lo = math.floor(upper), math.ceil(mid - w - pad)
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
        # exact: P / step is (step is a power of two), and so is - c_end (0 or 1) where the clip keeps it
        u = P / step - c_end
        cov = math.ceil(u)
        if cov > hi:
            # every kept leg stops short: past the margin, its nearest end lies more than r + 2 steps short
            if u - hi > w + 2.0 + 1e-9 * (u + w):
                continue
            cov = hi + 1
        elif cov < lo:
            cov = lo
        corners = (cov, cov - 1)
        if cov > lo:
            corners = _corner_range(p - c_line * step, P - c_end * step, step, r, lo, cov - 1)
            if cov > hi and corners[0] > corners[1]:
                continue  # no corner within r and no spanning line
        sides.append((off, corners, (cov, hi), (q_perp, q_par, sign, c_line, sign0, c0, c1)))

    # outbound leg 4s + off is return leg legs - 1 - 4s - off.  Each pass
    # keeps a window [bottom, top] of outbound indices and narrows it to the
    # leg found so far: out, the first from n, corners before lines, each
    # range from its first line, lowering the top; back, the last up to
    # legs - 1 - n, lines before corners, each range from its last line,
    # raising the bottom
    for back in (False, True):
        bottom, top = (0, legs - 1 - n) if back else (n, legs - 1)
        found = None
        for off, corners, lines, side in sides:
            s_lo, s_hi = (bottom - off + 3) // 4, (top - off) // 4
            for first, last in (lines, corners) if back else (corners, lines):
                lo, up = (first if first > s_lo else s_lo), (last if last < s_hi else s_hi)
                if lo <= up:
                    s = _first_on_lines(side, step, rr, lo, up, back)
                    if s is not None:
                        found = 4 * s + off
                        bottom, top = (found, top) if back else (bottom, found)
                        break
        if found is not None:
            return legs - 1 - found if back else found
    return None


def _first_on_lines(side, step, rr, lo, hi, back):
    """First s of lo..hi (from hi down if back) whose leg on side passes the filter."""
    q_perp, q_par, sign, c_line, sign0, c0, c1 = side
    for s in range(hi, lo - 1, -1) if back else range(lo, hi + 1):
        o = q_perp - sign * (s + c_line) * step
        if o * o > rr:
            continue  # exact skip: dist2 >= fl(o*o)
        a, b = sign0 * (s + c0) * step, -sign0 * (s + c1) * step
        if back:
            a, b = b, a
        d = b - a
        t = (q_par - a) * d / (d * d)
        t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t  # min(max(t, 0.0), 1.0), without the calls
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


def brute_force_oracle(plan, strategy, cfg, step):
    """Fixed-arc-step reference simulation, independent of `simulate`.

    Walks the schedule leg by leg through its closed form (each leg's
    direction and length from pi_leg), keeping its own running position,
    time, cost and leg count, and shares no gate or kernel with
    `simulate`; it shares only the block table's check of the plan, so an
    unusable plan raises simulate's ValueError.  It advances the searcher
    `step` units of arc at a time and checks the plain distance condition
    at each sample, by hypot, so no square leaves the float range; it
    converges to the exact result as step -> 0.  Vectorized per leg but
    otherwise naive.
    """
    import numpy as np

    step = check_float(step, "step", "positive")  # a NaN step fails in int(), an infinite one samples no point
    _block_table(plan)  # for its check alone: an unusable plan raises simulate's ValueError
    bp_t = np.array(strategy.times)
    bp_x = np.array([p.x for p in strategy.points])
    bp_y = np.array([p.y for p in strategy.points])

    pos = np.array([cfg.agent_start.x, cfg.agent_start.y])
    t, cost, legs = 0.0, 0.0, 0
    tgt0 = strategy.position(0.0)
    if math.hypot(tgt0.x - pos[0], tgt0.y - pos[1]) <= cfg.r:
        return _outcome(True, 0.0, 0.0, cfg.agent_start, tgt0, 0, 0, "sensed")

    for i in range(1, cfg.max_diagonal + 1):
        speed = plan.speed_of_diagonal(i)
        for params in diagonal_terms(i):
            for leg in range(8 * (params.k + 1)):
                ax, ay, bx, by, _, distance = pi_leg(params, leg)
                ux, uy = (bx > ax) - (bx < ax), (by > ay) - (by < ay)
                leg_len = min(distance, cfg.max_cost - cost)

                n = int(math.ceil(leg_len / step))
                arcs = np.minimum((np.arange(1, n + 1)) * step, leg_len)
                px, py = pos[0] + ux * arcs, pos[1] + uy * arcs
                times = t + arcs / speed
                tx, ty = np.interp(times, bp_t, bp_x), np.interp(times, bp_t, bp_y)
                hits = np.nonzero(np.hypot(px - tx, py - ty) <= cfg.r)[0]
                if hits.size:
                    h = hits[0]
                    agent, tgt = Point(float(px[h]), float(py[h])), Point(float(tx[h]), float(ty[h]))
                    return _outcome(True, float(times[h]), cost + float(arcs[h]), agent, tgt, i, legs + 1, "sensed")
                pos = pos + np.array([ux * leg_len, uy * leg_len])
                t += leg_len / speed
                cost += leg_len
                legs += 1
                if leg_len < distance or cost >= cfg.max_cost:
                    tgt = strategy.position(t)
                    return _outcome(False, float(t), cost, Point(*pos.tolist()), tgt, i, legs, "cost_budget")
    tgt = strategy.position(t)
    return _outcome(False, float(t), cost, Point(*pos.tolist()), tgt, cfg.max_diagonal, legs, "diagonal_budget")
