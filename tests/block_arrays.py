"""Whole-block numpy views of the schedule, kept as test references.

Verbatim copies of the array helpers the engine used before it read each
block through the closed forms in `planehunt.trajectory`: the tests
compare those closed forms, the kernel and prefix_polyline with them.
"""

from functools import lru_cache

import numpy as np

from planehunt.trajectory import UNIT


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
