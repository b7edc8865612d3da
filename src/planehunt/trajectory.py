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
Streams are lazy throughout; diagonal(12) alone has ~2^26 instructions,
so nothing here materializes full instruction lists.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import count

import numpy as np

DIRECTIONS = ("N", "E", "S", "W")
OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}
UNIT = {"N": (0.0, 1.0), "E": (1.0, 0.0), "S": (0.0, -1.0), "W": (-1.0, 0.0)}


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

    def reversed(self):
        return MoveInstruction(OPPOSITE[self.direction], self.distance)


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
    """Smallest integer a with 2**a >= x, robust to float rounding."""
    if x <= 0:
        raise ValueError("ceil_log2 requires a positive argument")
    a = math.ceil(math.log2(x))
    while 2.0 ** a < x:
        a += 1
    while 2.0 ** (a - 1) >= x:
        a -= 1
    return a


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


def predict_static(D, r):
    """Catch diagonal and cost bound for a target at distance <= D.

    a = ceil(log2 D); b = smallest even integer >= ceil(log2 1/r),
    clamped to >= 2; the catch happens by diagonal y = max(a, 1) + b/2 - 1,
    the diagonal holding the spiral of resolution 2^-b whose covered
    square contains the disc of radius D.  Clamping a and b covers
    D <= 1 and r >= 1, where the doubling grid has no row/column.
    """
    if D <= 0 or r <= 0:
        raise ValueError("D and r must be positive")
    a = ceil_log2(D)
    b = ceil_log2(1.0 / r)
    if b % 2 == 1:
        b += 1
    b = max(2, b)
    # row indices start at 1, so the catch spiral lives in row max(a, 1);
    # for a >= 1 this is the plain formula a + b/2 - 1
    y = max(a, 1) + b // 2 - 1
    return CatchPrediction(a=a, b=b, y=y, cost_bound=80.0 * y * 2.0 ** (2 * y + 2))


# --- vectorized views -----------------------------------------------------
#
# The simulation engine and the coverage tests need whole trajectories
# as numpy arrays.  Out-and-back trajectories start and end at the origin,
# so per-(k, j) arrays are position-independent and cacheable.


@lru_cache(maxsize=64)
def pi_arrays(k, j):
    """(vertices, leg lengths, cumulative lengths) of out_and_back(k, j).

    vertices has shape (n+1, 2) and starts/ends at the origin; lengths
    and cumulative lengths have shape (n,), n = 8(k+1).
    """
    step = 2.0 ** (-j)
    m = np.arange(1, 2 * k + 3, dtype=np.float64)
    dist = np.repeat(m, 2) * step  # spiral leg lengths in order
    n_half = dist.size
    dx = np.zeros(n_half)
    dy = np.zeros(n_half)
    odd = (np.repeat(m, 2) % 2) == 1
    first_of_pair = np.arange(n_half) % 2 == 0
    dx[odd & first_of_pair] = 1.0  # E
    dy[odd & ~first_of_pair] = -1.0  # S
    dx[~odd & first_of_pair] = -1.0  # W
    dy[~odd & ~first_of_pair] = 1.0  # N
    disp_out = np.column_stack([dx, dy]) * dist[:, None]
    disp = np.concatenate([disp_out, -disp_out[::-1]])
    verts = np.concatenate([np.zeros((1, 2)), np.cumsum(disp, axis=0)])
    lengths = np.concatenate([dist, dist[::-1]])
    return verts, lengths, np.cumsum(lengths)


def polyline_of(instructions, start=(0.0, 0.0)):
    """Materialize instructions into an (n+1, 2) vertex array."""
    pts = [np.asarray(start, dtype=np.float64)]
    for instr in instructions:
        ux, uy = UNIT[instr.direction]
        pts.append(pts[-1] + np.array([ux * instr.distance, uy * instr.distance]))
    return np.array(pts)


def prefix_polyline(max_cost, start=(0.0, 0.0)):
    """Vertices of the schedule walked until arc length max_cost.

    Reconstructs the exact path a searcher traversed when it stopped at
    cost max_cost (the final leg is truncated at the budget).
    """
    if not (math.isfinite(max_cost) and max_cost >= 0):
        raise ValueError(f"max_cost must be finite and nonnegative, got {max_cost}")
    pts = [np.asarray(start, dtype=np.float64)]
    remaining = max_cost
    for _, instr in full_schedule():
        ux, uy = UNIT[instr.direction]
        d = min(instr.distance, remaining)
        pts.append(pts[-1] + np.array([ux * d, uy * d]))
        remaining -= d
        if remaining <= 0:
            break
    return np.array(pts)
