"""Deterministic continuous-time simulation of searcher vs target.

One exact engine serves every target, every plan, traced or not.  It
walks the schedule one out-and-back block at a time as `pi_arrays`
vertex arrays: each block starts and ends at the searcher's start, and
the clock inside a block is its arc length over the diagonal's speed.
Targets are piecewise linear and inert after their last breakpoint, so
the few legs that start while the target still moves are split at its
breakpoints and each piece is solved as an exact quadratic; every later
leg goes through a vectorized per-block test against the target's final
point.  A trace is written from the same block arrays and never changes
the result.

Each block is an origin-centred square spiral with step 2^-j, and every
point of a ring-m leg has Chebyshev norm in [(m-1)/2, (m+1)/2] * step, so
only the rings with 2(c - r)/step - 1 <= m <= 2(c + r)/step + 1, for a
target at Chebyshev norm c, can come within r of it.  The vectorized test
runs only on the legs of that ring window, padded by RING_PAD rings, on
the way out and on the way back; the result is the same as a scan of the
whole block.
"""

import math
from dataclasses import dataclass
from itertools import count

import numpy as np

from .geometry import Point, first_contact_time
from .trajectory import UNIT, diagonal_terms, full_schedule, pi_arrays

# rings of margin on each side of the exact ring window: one step of
# Chebyshev radius, far above the rounding of the distance filter
RING_PAD = 2


@dataclass(frozen=True)
class SimConfig:
    agent_start: Point = Point(0.0, 0.0)
    r: float = 1.0
    max_cost: float = math.inf
    max_diagonal: int = None

    def __post_init__(self):
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

    The block has 8(k+1) legs and its first leg is one step long.
    Outbound leg L lies in ring m = L // 2 + 1 and return leg
    8(k+1) - 1 - L retraces it, so the ring window of the module docstring
    is one leg range on the way out and one on the way back.  Both are
    clipped to rings 1..2k+2 and to legs at or after n, and their legs go
    through _first_contact_in_block together, in leg order: one call per
    block, as a call costs more than the few legs of a window.
    """
    legs = lengths.size
    step = lengths[0]
    c = max(abs(q_rel[0]), abs(q_rel[1]))
    if not math.isfinite(c):
        return None  # no leg is within r of a target at infinity
    m_lo = max(1, math.ceil(2.0 * (c - r) / step - 1.0) - RING_PAD)
    m_hi = min(legs // 4, math.floor(2.0 * (c + r) / step + 1.0) + RING_PAD)
    idx = np.concatenate([
        np.arange(max(2 * m_lo - 2, n), 2 * m_hi),
        np.arange(max(legs - 2 * m_hi, n), legs + 2 - 2 * m_lo),
    ])
    if idx.size == 0:
        return None
    a, b = verts.take(idx, axis=0), verts.take(idx + 1, axis=0)
    hit = _first_contact_in_block(a, b, lengths.take(idx), cum.take(idx), q_rel, r, arc_allowance)
    return None if hit is None else (hit[0], int(idx[hit[1]]))


def _first_contact_in_block(a, b, lengths, cum, q_rel, r, arc_allowance):
    """First contact (arc, position in a) among some legs of a block, or None.

    Leg i runs from a[i] to b[i], in walking order, with its length and
    cumulative block arc length; q_rel is the inert target relative to
    the block origin, and only the first arc_allowance of arc length is
    admissible (cost budget truncation).
    The engine passes only the legs of the ring window.  A leg outside the
    window padded by RING_PAD rings is more than r + step from the target
    in Chebyshev norm, while the float filter below errs by a few ulps of
    the block's coordinates, at most (k+1) * step; so the padding leaves
    out no leg the filter could flag, and the first hit is that of a scan
    of the whole block.
    """
    d = b - a
    len2 = lengths * lengths
    rel = q_rel - a
    tpar = np.einsum("ij,ij->i", rel, d) / len2
    np.clip(tpar, 0.0, 1.0, out=tpar)
    closest = a + tpar[:, None] * d
    off = q_rel - closest
    dist2 = np.einsum("ij,ij->i", off, off)
    hits = np.nonzero(dist2 <= r * r)[0]
    cum_prev = cum - lengths
    for idx in hits:
        if cum_prev[idx] >= arc_allowance:
            break
        # exact first-contact arc on this leg: |a + u*l - q|^2 = r^2
        u = d[idx] / lengths[idx]
        ra = a[idx] - q_rel
        c0 = ra @ ra - r * r
        if c0 <= 0.0:
            arc = cum_prev[idx]
        else:
            bh = ra @ u  # half of the linear coefficient
            disc = max(bh * bh - c0, 0.0)
            ell = -bh - math.sqrt(disc)
            ell = min(max(ell, 0.0), lengths[idx])
            arc = cum_prev[idx] + ell
        if arc <= arc_allowance:
            return arc, idx
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
