"""Searcher plans: the shared trajectory schedule plus a speed profile.

Both searchers walk the identical schedule of `trajectory`; they differ
only in how fast each diagonal is traversed.  The static searcher moves
at unit speed (cost and elapsed time coincide); the exponential searcher
uses speed 2^(5i) on diagonal i, which makes the total traversal time of
all diagonals converge to a constant q (dynamic_q).  q is the float sum of
t_1 .. t_48 plus a geometric tail, and that sum stops at diagonal 25: each
later t_i is below half an ulp of the sum, so it would round away.
predict_dynamic states its guarantee as trajectory's CatchPrediction, the
one prediction type of both searchers.
"""

import functools
import math
from typing import NamedTuple

from .geometry import check_float, check_int
from .trajectory import CatchPrediction, diagonal_length, predict_static


class SearcherPlan(NamedTuple):
    """Immutable description of a searcher: trajectory plus speeds."""

    name: str
    speed_exponent: int  # speed on diagonal i is 2**(speed_exponent * i)

    def speed_of_diagonal(self, i):
        return 2.0 ** (self.speed_exponent * check_int(i, "diagonal index", 1))

    def traversal_time(self, i):
        return diagonal_length(i) / self.speed_of_diagonal(i)


def static_plan():
    """Unit-speed searcher; cost is identically elapsed time."""
    return SearcherPlan(name="static", speed_exponent=0)


def dynamic_plan():
    """Exponentially accelerating searcher: speed 2^(5i) on diagonal i."""
    return SearcherPlan(name="dynamic", speed_exponent=5)


# dynamic_q's float sum of t_i stops after this diagonal, with the bits of the sum through diagonal 48
_Q_TERMS = 25


@functools.lru_cache(maxsize=None)
def dynamic_q():
    """Certified upper bound on the dynamic plan's total traversal time.

    The float sum t_1 + ... + t_48, plus the geometric tail
    sum_{i > 48} 4^-i = 4^-48 / 3, which dominates the remaining terms
    since t_i <= 4^-i from i = 9 on.  The sum stops at _Q_TERMS = 25 with
    the same bits: every partial sum lies in [4, 8) (t_1 = 5.34), where
    half an ulp is 2^-51, and from diagonal 26 on t_i <= 4^-i <= 2^-52,
    so rounding to nearest drops each of t_26 .. t_48.  Cached because
    predict_dynamic asks for it once per sweep cell.
    """
    plan = dynamic_plan()
    partial = sum(plan.traversal_time(i) for i in range(1, _Q_TERMS + 1))
    return partial + 4.0 ** (-48) / 3.0


def predict_dynamic(D, v, r):
    """Catch diagonal for a target of speed <= v starting within D.

    a and b are predict_static's.  With a' = max(a, ceil(q v)) + 1, the
    formula gives y0 = max(1, a' + b/2 - 1), and y is raised from there
    to the least index where the timing condition t_y <= 1 / (v 2^(b+1))
    holds, keeping the bound sound at small indices.
    Raises ValueError, before any loop, where the result leaves the float
    range: the timing condition divides by the speed 2^(5y), finite through
    y = 204, and the cost bound is finite through y = 503.
    """
    v = check_float(v, "v", "nonnegative")
    base = predict_static(D, r)  # which checks D and r
    a, b = base.a, base.b
    plan = dynamic_plan()
    q = dynamic_q()
    # the formula below gives y = max(a, ceil(q v)) + b/2, past y_max exactly when this test holds
    y_max = 1023 // plan.speed_exponent if v > 0 else math.inf
    if max(a, q * v) > y_max - b // 2:
        raise ValueError(f"catch diagonal past {y_max}, where the speed 2^(5y) is beyond the float range")
    a_prime = max(a, math.ceil(q * v)) + 1
    y = max(1, a_prime + b // 2 - 1)
    # t_y falls about 8x per step against a fixed bound > 0
    while v > 0 and plan.traversal_time(y) > 1.0 / (v * 2.0 ** (b + 1)):
        y += 1
    return CatchPrediction(a, b, y)
