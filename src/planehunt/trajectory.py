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
Nothing here materializes it: diagonal(12) alone has ~2^26 legs.  The
instruction streams are lazy, and the engine and prefix_polyline read each
block through its closed form: pi_vertex, pi_leg_length and pi_arc_before
give one vertex, leg or arc in O(1) from the axis lines of _SIDES.  Each
is an integer count of steps, exact in Python ints, times 2^-j, so it is
exact below 2^53 steps: through diagonal 11, where a float running sum of
the legs is exact and equal to it.  A simulation walks at most
MAX_DIAGONAL = 12 diagonals.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, count

DIRECTIONS = ("N", "E", "S", "W")
UNIT = {"N": (0.0, 1.0), "E": (1.0, 0.0), "S": (0.0, -1.0), "W": (-1.0, 0.0)}

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
# default grid takes about 9 s on a prefix this long, 2-core x86 VM, and
# grows linearly with it; the tests, demos and bench use at most 3,215.
MAX_PREFIX_VERTICES = 2**16

# The last diagonal a simulation may walk: the CLI default, and the largest
# any test, demo or benchmark uses.  Block arcs are exact through diagonal
# 11; further out the blocks soon have more legs than a machine-size index
# (diagonal 30) and pi_length overflows to inf (diagonal 255).
MAX_DIAGONAL = 12


@dataclass(frozen=True)
class MoveInstruction:
    """One leg of a polygonal trajectory: go `direction` for `distance`."""

    direction: str
    distance: float

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")
        if not self.distance > 0:
            raise ValueError("distance must be positive")


@dataclass(frozen=True)
class SpiralParams:
    k: int
    j: int

    def __post_init__(self):
        if self.k < 1 or self.j < 1:
            raise ValueError("spiral parameters require k >= 1 and j >= 1")


@dataclass(frozen=True)
class CatchPrediction:
    """Guaranteed catch diagonal and cost bound for the static searcher."""

    a: int
    b: int
    y: int
    cost_bound: float


def ceil_log2(x):
    """Smallest integer a with 2**a >= x, exact for every positive finite x."""
    if not (math.isfinite(x) and x > 0):
        raise ValueError("ceil_log2 requires a finite positive argument")
    m, e = math.frexp(x)  # x = m 2^e with 0.5 <= m < 1
    return e - 1 if m == 0.5 else e


def spiral_instructions(params):
    """Yield the 4(k+1) legs of spiral(k, j) in walking order."""
    step = 2.0 ** (-params.j)
    for m in range(1, 2 * params.k + 3):
        d = m * step
        if m % 2 == 1:
            yield MoveInstruction("E", d)
            yield MoveInstruction("S", d)
        else:
            yield MoveInstruction("W", d)
            yield MoveInstruction("N", d)


def _spiral_reverse_instructions(params):
    # reverse order, opposite directions: retraces the spiral to its start
    step = 2.0 ** (-params.j)
    for m in range(2 * params.k + 2, 0, -1):
        d = m * step
        if m % 2 == 1:
            yield MoveInstruction("N", d)
            yield MoveInstruction("W", d)
        else:
            yield MoveInstruction("S", d)
            yield MoveInstruction("E", d)


def pi_instructions(params):
    """Yield the out-and-back trajectory: spiral(k, j) then its reverse."""
    yield from spiral_instructions(params)
    yield from _spiral_reverse_instructions(params)


def pi_length(params):
    """Closed-form length of the out-and-back trajectory."""
    k, j = params.k, params.j
    return 2.0 * (2 * k + 2) * (2 * k + 3) * 2.0 ** (-j)


def diagonal_terms(i):
    """Spiral parameters along diagonal i: term t is (2^(i+1+t), 2t)."""
    if i < 1:
        raise ValueError("diagonal index must be >= 1")
    return [SpiralParams(2 ** (i + 1 + t), 2 * t) for t in range(1, i + 1)]


def diagonal_length(i):
    """Exact length of diagonal i, summed from closed forms."""
    return sum(pi_length(p) for p in diagonal_terms(i))


def diagonal_length_bound(i):
    """The analytic bound 40 * i * 2^(2i+2) on diagonal_length(i)."""
    return 40.0 * i * 2.0 ** (2 * i + 2)


def diagonal_instructions(i):
    for params in diagonal_terms(i):
        yield from pi_instructions(params)


def full_schedule():
    """Infinite stream of (diagonal index, instruction)."""
    for i in count(1):
        for instr in diagonal_instructions(i):
            yield i, instr


def _cost_bound(y):
    """80 y 2^(2y+2), the cost bound of a catch by diagonal y, while it is a finite float."""
    if 2 * y + 2 + math.log2(80 * y) >= 1024:  # y >= 504
        raise ValueError(f"the cost bound of catch diagonal {y} is beyond the float range")
    return 80.0 * y * 2.0 ** (2 * y + 2)


def predict_static(D, r):
    """Catch diagonal and cost bound for a target at distance <= D.

    a = ceil(log2 D); b = smallest even integer >= ceil(log2 1/r),
    clamped to >= 2; the catch happens by diagonal y = max(a, 1) + b/2 - 1,
    the diagonal holding the spiral of resolution 2^-b whose covered
    square contains the disc of radius D.  Clamping a and b covers
    D <= 1 and r >= 1, where the doubling grid has no row/column.
    Raises ValueError where the cost bound is not a finite float.
    """
    if not (math.isfinite(D) and math.isfinite(r) and D > 0 and r > 0):
        raise ValueError("D and r must be finite and positive")
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
    return CatchPrediction(a=a, b=b, y=y, cost_bound=_cost_bound(y))


def pi_vertex(params, legs_walked):
    """(x, y) after legs_walked legs of out_and_back(k, j), and after 8(k+1) - legs_walked legs."""
    back = 8 * (params.k + 1) - legs_walked
    s, off = divmod(back if back < legs_walked else legs_walked, 4)
    axis, sign, c_line, sign0, c0, _ = _SIDES[off]
    step = 2.0 ** (-params.j)
    perp, par = sign * (s + c_line) * step, sign0 * (s + c0) * step
    return (perp, par) if axis == 0 else (par, perp)


def pi_leg_length(params, leg):
    """Length of leg `leg` (0-based) of out_and_back(k, j)."""
    back = 8 * params.k + 7 - leg
    return ((back if back < leg else leg) // 2 + 1) * 2.0 ** (-params.j)


def pi_arc_before(params, leg):
    """Arc walked on out_and_back(k, j) before leg `leg` (0..8(k+1)).

    The first L legs out make ceil(L/2) (floor(L/2) + 1) steps; the return mirrors them.
    """
    back = 8 * (params.k + 1) - leg
    if back < leg:
        return pi_length(params) - pi_arc_before(params, back)
    return (leg - leg // 2) * (leg // 2 + 1) * 2.0 ** (-params.j)


def prefix_polyline(max_cost):
    """Vertices of the schedule walked until arc length max_cost.

    Reconstructs the exact path a searcher traversed when it stopped at
    cost max_cost (the final leg is truncated at the budget).  The vertex
    count follows from the block lengths before any vertex is built, and
    a prefix of more than MAX_PREFIX_VERTICES vertices raises ValueError.
    """
    import numpy as np

    if not (math.isfinite(max_cost) and max_cost >= 0):
        raise ValueError(f"max_cost must be finite and nonnegative, got {max_cost}")
    walked, remaining, n_vertices = [], max_cost, 1
    for params in chain.from_iterable(map(diagonal_terms, count(1))):
        legs, ends_here = 8 * (params.k + 1), pi_length(params) >= remaining
        if ends_here:  # the walk stops on the first leg whose end arc reaches the budget
            legs = 1 + bisect_left(range(legs), remaining, key=lambda L: pi_arc_before(params, L + 1))
        walked.append((params, legs))
        n_vertices += legs
        if n_vertices > MAX_PREFIX_VERTICES:
            raise ValueError(f"prefix of arc length {max_cost:g} has more than {MAX_PREFIX_VERTICES} vertices")
        if ends_here:
            break
        remaining -= pi_length(params)
    xy = chain.from_iterable(pi_vertex(p, L) for p, n in walked for L in range(1, n + 1))
    pts = np.fromiter(chain((0.0, 0.0), xy), np.float64, 2 * n_vertices).reshape(-1, 2)
    # cut the last leg at the budget: a + u * d for its unit direction u
    a, last = pts[-2], legs - 1
    pts[-1] = a + (pts[-1] - a) / pi_leg_length(params, last) * (remaining - pi_arc_before(params, last))
    return pts
