"""Planar primitives: points, exact 2-vector dots, and first-contact times.

first_contact_time has no tolerance: the closest approach of the relative
motion over [0, horizon] decides whether two points come within r, as the
engine's inert scan decides a leg by its closest point, and only then
does the clamped root of the contact quadratic give the time.  Where the
quadratic's discriminant leaves the float range it reports no contact.
contact_time is that decision and root on Python floats, without the
input checks: the engine's moving loop calls it once per piece.

Everything here is a pure function over immutable values, safe to call
from any number of workers.
"""

import math
from typing import NamedTuple

# fma_dot's fast path: 2^27 + 1 splits a double into two 26-bit halves
# (Veltkamp), and factors within 2^-480..2^480 keep the split finite and
# every partial product of the error-free product clear of underflow
_SPLIT = 134217729.0
_SPLIT_LO, _SPLIT_HI = 2.0 ** -480, 2.0 ** 480


class Point(NamedTuple):
    """A position or displacement in the plane (length units).

    A NamedTuple, so also the tuple (x, y); + and - are vector sums.
    """

    x: float
    y: float

    def __add__(self, other):
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return Point(self.x - other.x, self.y - other.y)


def fma_dot(x0, x1, y0, y1):
    """The 2-vector dot x0*y0 + x1*y1 rounded as fma(x1, y1, x0*y0), in Python floats.

    x0*y0 is rounded once, then x1*y1 is added to it exactly and the sum
    rounded once (to nearest, ties to even), as an IEEE fma does; the
    package's contact quadratic and rasterizer round every 2-vector dot
    this way, so their bits do not depend on the BLAS or the CPU.  In
    range, x1*y1 is split into h + l exactly (Dekker's product of
    Veltkamp halves) and math.fsum rounds h + l + x0*y0 once; otherwise
    the sum is formed exactly from as_integer_ratio and rounded by int
    true division.  Signed zeros, infinities and NaNs follow IEEE fma.
    """
    p = x0 * y0
    if _SPLIT_LO < abs(x1) < _SPLIT_HI and _SPLIT_LO < abs(y1) < _SPLIT_HI:
        h = x1 * y1
        c = _SPLIT * x1
        xh = c - (c - x1)
        xl = x1 - xh
        c = _SPLIT * y1
        yh = c - (c - y1)
        yl = y1 - yh
        # fsum cannot overflow here: |h| < 2^960 and its error term is smaller,
        # so with |p| <= DBL_MAX no partial sum reaches 2^1024 - 2^970, where
        # fsum overflows; a non-finite p takes fsum's inf/nan path, which never
        # raises OverflowError
        return math.fsum((h, ((xh * yh - h) + xh * yl + xl * yh) + xl * yl, p))
    return _fma_exact(x1, y1, p)


def _fma_exact(x, y, z):
    """fma(x, y, z) for any floats, from the exact rational x*y + z."""
    if not (math.isfinite(x) and math.isfinite(y)):
        return x * y + z  # x*y is inf or nan
    if not math.isfinite(z):
        return z  # x*y is finite
    if x == 0.0 or y == 0.0:
        return x * y + z  # x*y is an exact signed zero
    (nx, dx), (ny, dy), (nz, dz) = x.as_integer_ratio(), y.as_integer_ratio(), z.as_integer_ratio()
    num = nx * ny * dz + nz * dx * dy
    try:
        return num / (dx * dy * dz)  # correctly rounded; an exact cancellation is +0
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def first_contact_time(p0, u, q0, w, r, horizon):
    """Earliest t in [0, horizon] with |(p0 + u t) - (q0 + w t)| <= r.

    Sensing is non-strict (<= r).  Returns None when the two points never
    come within r before the horizon.  Both points move at constant
    velocity, so their offset is d0 + rel t.  Contact is decided at its
    closest approach: tc = -(d0.rel) / |rel|^2 clipped to [0, horizon] (0
    where rel is 0), and the points meet iff |d0 + rel tc|^2 <= r*r; a NaN
    there is no contact.  On contact the time is the smaller root of
    |d0 + rel t|^2 = r^2, (-b - sqrt(disc)) / 2a, with disc clamped at 0
    and t clamped to [0, horizon].  Also None when disc leaves the float
    range, as it does once the squared separation times the squared
    relative speed passes about 1e308.  r, the positions and the
    velocities must be finite, and the horizon nonnegative (inf allowed).
    """
    if not 0.0 < r < math.inf:
        raise ValueError(f"sensing radius must be finite and positive, got {r}")
    if not horizon >= 0.0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    # unpacked once: a NamedTuple field read is a descriptor call, a local is not
    (p0x, p0y), (ux, uy), (q0x, q0y), (wx, wy) = p0, u, q0, w
    if not all(map(math.isfinite, (p0x, p0y, ux, uy, q0x, q0y, wx, wy))):
        raise ValueError("positions and velocities must be finite")
    # Python floats: a numpy float32 would round every product below to float32
    return contact_time(*map(float, (p0x, p0y, ux, uy, q0x, q0y, wx, wy, r, horizon)))


def contact_time(p0x, p0y, ux, uy, q0x, q0y, wx, wy, r, horizon):
    """first_contact_time on Python floats, unchecked: its decision and root, and nothing else.

    The caller guarantees what first_contact_time checks: finite
    positions and velocities, 0 < r < inf and horizon >= 0.
    """
    d0x, d0y = q0x - p0x, q0y - p0y
    relx, rely = wx - ux, wy - uy
    c = d0x * d0x + d0y * d0y - r * r
    if c <= 0.0:
        return 0.0
    a = relx * relx + rely * rely
    dot = d0x * relx + d0y * rely
    # the closest approach over [0, horizon] decides: unless the points
    # close, it is at t = 0, beyond r; a NaN is no contact.  The clips are
    # comparisons: a min or max call costs more than the float arithmetic
    if not (dot < 0.0 and a > 0.0):
        return None
    tc = -dot / a
    if tc > horizon:
        tc = horizon
    ex, ey = d0x + relx * tc, d0y + rely * tc
    if not ex * ex + ey * ey <= r * r:
        return None
    b = 2.0 * dot
    disc = b * b - 4.0 * a * c
    if not math.isfinite(disc):
        return None
    t = (-b - math.sqrt(disc if disc > 0.0 else 0.0)) / (2.0 * a)
    return 0.0 if t < 0.0 else t if t < horizon else horizon
