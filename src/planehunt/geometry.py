"""Planar primitives: points, exact 2-vector dots, and first-contact times.

Everything here is a pure function over immutable values, safe to call
from any number of workers.
"""

import math
from dataclasses import dataclass

# Tolerances (see module notes): a quadratic root is accepted when the
# residual of the discriminant is within ROOT_TOL of zero; reported
# contact times are meaningful to TIME_TOL.
ROOT_TOL = 1e-12
TIME_TOL = 1e-9

# Relative motion slower than sqrt(LINEAR_EPS) is treated as constant
# distance; avoids catastrophic cancellation in the quadratic.
LINEAR_EPS = 1e-18

# fma_dot's fast path: 2^27 + 1 splits a double into two 26-bit halves
# (Veltkamp), and factors within 2^-480..2^480 keep the split finite and
# every partial product of the error-free product clear of underflow
_SPLIT = 134217729.0
_SPLIT_LO, _SPLIT_HI = 2.0 ** -480, 2.0 ** 480


@dataclass(frozen=True)
class Point:
    """A position or displacement in the plane (length units)."""

    x: float
    y: float

    def __add__(self, other):
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return Point(self.x - other.x, self.y - other.y)

    def scaled(self, s):
        return Point(self.x * s, self.y * s)

    def dot(self, other):
        return self.x * other.x + self.y * other.y

    def norm(self):
        return math.hypot(self.x, self.y)


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
        try:
            return math.fsum((h, ((xh * yh - h) + xh * yl + xl * yh) + xl * yl, p))
        except OverflowError:  # a partial sum past the float range: round it exactly
            pass
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
    velocity, so contact reduces to a quadratic in t.  Also None when its
    discriminant leaves the float range, as it does once the squared
    separation times the squared relative speed passes about 1e308: the
    graze test cannot be evaluated there.
    """
    if r <= 0:
        raise ValueError("sensing radius must be positive")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    d0 = q0 - p0
    rel = w - u
    c = d0.dot(d0) - r * r
    if c <= 0.0:
        return 0.0
    a = rel.dot(rel)
    if a < LINEAR_EPS:
        # constant separation beyond r
        return None
    b = 2.0 * d0.dot(rel)
    disc = b * b - 4.0 * a * c
    if not math.isfinite(disc):
        return None
    if disc < 0.0:
        # accept a graze whose residual is within rounding of zero; the
        # tolerance is relative because -disc / 4a is the squared-distance
        # miss, which an absolute floor would let grow as a shrinks
        scale = max(b * b, abs(4.0 * a * c))
        if disc < -ROOT_TOL * scale:
            return None
        disc = 0.0
    t = (-b - math.sqrt(disc)) / (2.0 * a)
    if t < 0.0:
        if t < -TIME_TOL:
            return None  # closest approach was in the past
        t = 0.0
    if t > horizon:
        return None
    return t
