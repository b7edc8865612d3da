"""Square-spiral search trajectories.

The searcher's path is built from three layers:

  * spiral(k, j): a rectangular spiral of 4(k+1) axis-aligned legs with
    step 2^-j.  While walking it the agent passes within 2^-j of every
    point of the square of side 2k * 2^-j centered at its start.
  * out_and_back(k, j): the spiral followed by its exact reverse, so the
    agent returns to its start point.
  * diagonal(i): the concatenation of out-and-back trajectories whose
    parameters lie on the i-th diagonal of the doubling grid: term t of
    {1..i} uses k = 2^(i+1+t), j = 2t.  Each diagonal both enlarges the
    searched square and refines the resolution.

The full schedule is the infinite concatenation diagonal(1) diagonal(2)...
Nothing here materializes it: diagonal(12) alone has ~2^26 legs.  Each
out-and-back block is read through its closed form: pi_leg gives one
leg's two ends, the arc before it and its length in O(1) from the axis
lines of _SIDES, and pi_leg_at finds the leg at an arc by bisection on
it.  Each value is an integer count of steps, exact in Python ints, times
2^-j, so it is exact below 2^53 steps: through diagonal 11, where a float
running sum of the legs is exact and equal to it.  A simulation walks at
most MAX_DIAGONAL = 12 diagonals.

CatchPrediction is the guarantee of either searcher: caught by diagonal
y, at cost at most 80 y 2^(2y+2), which it sets from y.  predict_static
builds it here, and searcher.predict_dynamic for a moving target.
"""

import math
from bisect import bisect_left
from itertools import chain, count, islice
from typing import NamedTuple

from .geometry import check_float, check_int

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

# prefix_polyline refuses prefixes with more vertices than this (arc
# length about 6.85e5, inside diagonal 6).  `adversary --i 4` at its
# default grid takes about 0.7 s on a prefix this long, 2-core x86 VM, and
# grows linearly with it; the tests use at most 12,392, the demos and bench
# at most 3,215.
MAX_PREFIX_VERTICES = 2**16

# The last diagonal a simulation may walk: the CLI default, and the largest
# any test, demo or benchmark uses.  Block arcs are exact through diagonal
# 11; further out the blocks soon have more legs than a machine-size index
# (diagonal 30) and pi_length overflows to inf (diagonal 255).
MAX_DIAGONAL = 12


class _SpiralParams(NamedTuple):
    k: int
    j: int


class SpiralParams(_SpiralParams):
    __slots__ = ()

    def __new__(cls, k, j):
        return super().__new__(cls, check_int(k, "k", 1), check_int(j, "j", 1))

    # _replace builds through _make, so a replaced field is checked as a new one is
    _make = classmethod(lambda cls, iterable: cls(*iterable))


class _CatchPrediction(NamedTuple):
    a: int
    b: int
    y: int
    cost_bound: float


class CatchPrediction(_CatchPrediction):
    """Guaranteed catch diagonal y of either searcher, and its cost bound.

    Built as CatchPrediction(a, b, y): a and b are the distance and
    resolution indices the prediction starts from.  cost_bound is
    80 y 2^(2y+2), set from y; ValueError where it is beyond the float
    range (y >= 504).  Pickled, made (_make) and replaced (_replace), like
    built, from (a, b, y): a replaced y gets its own cost_bound, and
    cost_bound is no argument.
    """

    __slots__ = ()

    def __new__(cls, a, b, y):
        if 2 * y + 2 + math.log2(80 * y) >= 1024:  # y >= 504
            raise ValueError(f"the cost bound of catch diagonal {y} is beyond the float range")
        return super().__new__(cls, a, b, y, 80.0 * y * 2.0 ** (2 * y + 2))

    def __getnewargs__(self):
        return self.a, self.b, self.y

    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def _replace(self, **fields):
        return type(self)(**{"a": self.a, "b": self.b, "y": self.y, **fields})


def ceil_log2(x):
    """Smallest integer a with 2**a >= x, exact for every positive finite x."""
    m, e = math.frexp(check_float(x, "x", "positive"))  # x = m 2^e with 0.5 <= m < 1
    return e - 1 if m == 0.5 else e


def pi_length(params):
    """Closed-form length of out_and_back(k, j), for params (k, j)."""
    k, j = params
    return 2.0 * (2 * k + 2) * (2 * k + 3) * 2.0 ** (-j)


def diagonal_terms(i):
    """Spiral parameters along diagonal i: term t is (2^(i+1+t), 2t)."""
    i = check_int(i, "diagonal index", 1)
    return [SpiralParams(2 ** (i + 1 + t), 2 * t) for t in range(1, i + 1)]


def diagonal_length(i):
    """Length of diagonal i: pi_length of each term, summed in term order.

    Each term is the int pair (k, j) of diagonal_terms, with no SpiralParams
    built.  The sum is exact through diagonal 11, as the block arcs are;
    past it, it rounds.
    """
    i = check_int(i, "diagonal index", 1)
    return sum(pi_length((2 ** (i + 1 + t), 2 * t)) for t in range(1, i + 1))


def predict_static(D, r):
    """Catch diagonal and cost bound for a target at distance <= D.

    a = ceil(log2 D); b = smallest even integer >= ceil(log2 1/r),
    clamped to >= 2; the catch happens by diagonal y = max(a, 1) + b/2 - 1,
    the diagonal holding the spiral of resolution 2^-b whose covered
    square contains the disc of radius D.  Clamping a and b covers
    D <= 1 and r >= 1, where the doubling grid has no row/column.
    Raises ValueError where the cost bound is not a finite float.
    """
    D, r = check_float(D, "D", "positive"), check_float(r, "r", "positive")
    if 1.0 / r == math.inf:  # r < 2^-1024: y > 512
        raise ValueError(f"r={r} puts the cost bound beyond the float range")
    a = ceil_log2(D)
    b = ceil_log2(1.0 / r)
    if b % 2 == 1:
        b += 1
    b = max(2, b)
    # row indices start at 1, so the catch spiral lives in row max(a, 1);
    # for a >= 1 this is the plain formula a + b/2 - 1
    y = max(a, 1) + b // 2 - 1
    return CatchPrediction(a, b, y)


def pi_leg(params, leg):
    """(ax, ay, bx, by, arc_before, length) of leg `leg` (0-based) of out_and_back(k, j).

    The leg runs from (ax, ay) to (bx, by) after arc_before of arc.  The
    first L legs out make ceil(L/2) (floor(L/2) + 1) steps, and outbound
    leg L makes floor(L/2) + 1.  A return leg retraces outbound leg
    8(k+1) - 1 - leg from its end to its start, and the arc before it
    mirrors the arc before leg 8(k+1) - leg.
    """
    k, step = params[0], 2.0 ** -params[1]
    back = 8 * k + 7 - leg
    out = back if back < leg else leg  # the outbound leg on the same line
    s, off = out >> 2, out & 3
    axis, sign, c_line, sign0, c0, c1 = _SIDES[off]
    perp, a, b = sign * (s + c_line) * step, sign0 * (s + c0) * step, -sign0 * (s + c1) * step
    if back < leg:
        a, b = b, a
    m = 8 * k + 8 - leg  # past the turn the arc mirrors the arc before leg m: pi_length(params) - arc
    n = m if m < leg else leg
    arc = (n - n // 2) * (n // 2 + 1) * step
    if m < leg:
        arc = 2.0 * (2 * k + 2) * (2 * k + 3) * step - arc
    length = (out // 2 + 1) * step
    return (perp, a, perp, b, arc, length) if axis == 0 else (a, perp, b, perp, arc, length)


def pi_leg_at(params, arc):
    """Index of the first leg of out_and_back(k, j) whose end arc reaches arc, 0 <= arc <= pi_length(params).

    Legs 0..8k+6 end where the next one starts; the last leg, 8k+7, ends
    at the block's length, so it is the answer where no earlier leg is.
    """
    return bisect_left(range(8 * params.k + 7), arc, key=lambda L: pi_leg(params, L + 1)[4])


def _leg_ends(params, legs):
    """End points (x, y) of the first `legs` legs of out_and_back(k, j), one pi_leg call per outbound leg.

    Return leg 8k+7-L retraces outbound leg L with the same floats, so it
    ends where outbound leg L starts: at the end of outbound leg L - 1, or
    at the block's origin for L = 0.
    """
    out = [pi_leg(params, L)[2:4] for L in range(min(legs, 4 * params.k + 4))]
    return islice(chain(out, out[-2::-1], ((0.0, 0.0),)), legs)


def prefix_polyline(max_cost):
    """Vertices of the schedule walked until arc length max_cost.

    Reconstructs the exact path a searcher traversed when it stopped at
    cost max_cost (the final leg is truncated at the budget).  The vertex
    count follows from the block lengths before any vertex is built, and
    a prefix of more than MAX_PREFIX_VERTICES vertices raises ValueError.
    """
    import numpy as np

    max_cost = check_float(max_cost, "max_cost", "nonnegative")
    walked, remaining, n_vertices = [], max_cost, 1
    for params in chain.from_iterable(map(diagonal_terms, count(1))):
        legs, ends_here = 8 * (params.k + 1), pi_length(params) >= remaining
        if ends_here:  # the walk stops on the first leg whose end arc reaches the budget
            legs = 1 + pi_leg_at(params, remaining)
        walked.append((params, legs))
        n_vertices += legs
        if n_vertices > MAX_PREFIX_VERTICES:
            raise ValueError(f"prefix of arc length {max_cost:g} has more than {MAX_PREFIX_VERTICES} vertices")
        if ends_here:
            break
        remaining -= pi_length(params)
    xy = chain.from_iterable(chain.from_iterable(_leg_ends(p, n) for p, n in walked))
    pts = np.fromiter(chain((0.0, 0.0), xy), np.float64, 2 * n_vertices).reshape(-1, 2)
    # cut the last leg at the budget: a + u * d for its unit direction u
    a, (_, _, _, _, arc0, length) = pts[-2], pi_leg(params, legs - 1)
    pts[-1] = a + (pts[-1] - a) / length * (remaining - arc0)
    return pts
