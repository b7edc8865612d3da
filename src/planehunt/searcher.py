"""Searcher plans: the shared trajectory schedule plus a speed profile.

Both searchers walk the identical schedule of `trajectory`; they differ
only in how fast each diagonal is traversed.  The static searcher moves
at unit speed (cost and elapsed time coincide); the exponential searcher
uses speed 2^(5i) on diagonal i, which makes the total traversal time of
all diagonals converge to a constant q.
"""

import functools
import math
from dataclasses import dataclass

from .trajectory import _cost_bound, diagonal_length, predict_static

# Per-diagonal traversal time decays like 2^(-2i) once i >= 11; the tail
# of the time series is certified by that geometric bound.
TAIL_START = 10
DEFAULT_Q_TERMS = 48


@dataclass(frozen=True)
class SearcherPlan:
    """Immutable description of a searcher: trajectory plus speeds."""

    name: str
    speed_exponent: int  # speed on diagonal i is 2**(speed_exponent * i)

    def speed_of_diagonal(self, i):
        if i < 1:
            raise ValueError("diagonal index must be >= 1")
        return 2.0 ** (self.speed_exponent * i)

    def traversal_time(self, i):
        return diagonal_length(i) / self.speed_of_diagonal(i)


def static_plan():
    """Unit-speed searcher; cost is identically elapsed time."""
    return SearcherPlan(name="static", speed_exponent=0)


def dynamic_plan():
    """Exponentially accelerating searcher: speed 2^(5i) on diagonal i."""
    return SearcherPlan(name="dynamic", speed_exponent=5)


@functools.lru_cache(maxsize=None)
def dynamic_q(upto=DEFAULT_Q_TERMS):
    """Certified upper bound on the dynamic plan's total traversal time.

    Exact partial sum of t_i for i <= upto, plus the geometric tail
    sum_{i > max(upto, 10)} 2^(-2i) that dominates the remaining terms.
    A pure function of upto, cached because predict_dynamic asks for it
    once per sweep cell.
    """
    if upto < 1:
        raise ValueError("upto must be >= 1")
    plan = dynamic_plan()
    partial = sum(plan.traversal_time(i) for i in range(1, upto + 1))
    n = max(upto, TAIL_START)
    tail = 4.0 ** (-n) / 3.0  # sum_{i>n} 4^-i
    return partial + tail


@dataclass(frozen=True)
class DynamicPrediction:
    """Sufficient catch diagonal for the exponential searcher.

    y starts from the closed formula a' + b/2 - 1 with a' = max(a, ceil(qv)) + 1
    and is raised to the least index where the timing condition
    t_y <= 1 / (v * 2^(b+1)) holds, keeping the bound sound at small indices.
    """

    a: int
    b: int
    c: int
    a_prime: int
    y: int
    cost_bound: float
    condition_holds_at_formula_y: bool


def predict_dynamic(D, v, r):
    """Catch diagonal for a target of speed <= v starting within D.

    Raises ValueError, before any loop, where the result leaves the float
    range: the timing condition divides by the speed 2^(5y), finite through
    y = 204, and the cost bound is finite through y = 503.
    """
    if not (all(map(math.isfinite, (D, v, r))) and D > 0 and r > 0 and v >= 0):
        raise ValueError("require finite D > 0, r > 0, v >= 0")
    base = predict_static(D, r)
    a, b = base.a, base.b
    plan = dynamic_plan()
    q = dynamic_q()
    # y0 below is max(a, ceil(q v)) + b/2, so y0 > y_max exactly when this test holds
    y_max = 1023 // plan.speed_exponent if v > 0 else math.inf
    if max(a, q * v) > y_max - b // 2:
        raise ValueError(f"catch diagonal past {y_max}, where the speed 2^(5y) is beyond the float range")
    c = int(math.ceil(q * v))
    a_prime = max(a, c) + 1
    y0 = max(1, a_prime + b // 2 - 1)

    def condition(y):
        if v == 0:
            return True
        return plan.traversal_time(y) <= 1.0 / (v * 2.0 ** (b + 1))

    y = y0
    while not condition(y):  # t_y falls about 8x per step against a fixed bound > 0
        y += 1
    holds = y == y0
    return DynamicPrediction(
        a=a,
        b=b,
        c=c,
        a_prime=a_prime,
        y=y,
        cost_bound=_cost_bound(y),
        condition_holds_at_formula_y=holds,
    )
