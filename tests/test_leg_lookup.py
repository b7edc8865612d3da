"""trajectory.pi_leg_at against the bisection it replaced, over block_arrays.pi_arc_before."""

import math
from bisect import bisect_left

import pytest
from block_arrays import pi_arc_before

from planehunt.engine import SimConfig, simulate
from planehunt.geometry import Point
from planehunt.searcher import static_plan
from planehunt.target import inert
from planehunt.trajectory import diagonal_terms, pi_leg_at, pi_length

# diagonal 12's last block, the largest any simulation walks: its length
# is 2^53 + 10 2^26 + 12 steps, so the return half's last arcs pass 2^53
# steps and round
LARGEST = diagonal_terms(12)[-1]


def _bisection(params, arc):
    """The leg the cost-budget stop and prefix_polyline took before pi_leg_at: bisection over every leg's end arc."""
    return bisect_left(range(8 * (params.k + 1)), arc, key=lambda L: pi_arc_before(params, L + 1))


def _around(arc, length):
    """arc and one ulp either side of it, within [0, length]."""
    return [a for a in (math.nextafter(arc, -math.inf), arc, math.nextafter(arc, math.inf)) if 0.0 <= a <= length]


def _check(params, legs):
    length = pi_length(params)
    probes = [0.0, length]
    for leg in legs:
        probes += _around(pi_arc_before(params, leg), length)
    for arc in probes:
        assert pi_leg_at(params, arc) == _bisection(params, arc), (params, arc)


def test_every_leg_end_of_diagonals_1_to_3():
    for i in range(1, 4):
        for params in diagonal_terms(i):
            _check(params, range(8 * (params.k + 1) + 1))


def test_the_largest_block_near_its_turn_and_its_end():
    assert LARGEST == (2**25, 24)
    legs, step = 8 * (LARGEST.k + 1), 2.0**-LARGEST.j
    turn = legs // 2
    near = [*range(turn - 4, turn + 5), *range(legs - 8, legs + 1)]
    # the premise: some of these arcs are rounded.  In steps the arc before
    # return leg L is the block's length less the n = legs - L legs out,
    # which make ceil(n/2) (floor(n/2) + 1) steps
    total = 2 * (2 * LARGEST.k + 2) * (2 * LARGEST.k + 3)
    out = [(n + 1) // 2 * (n // 2 + 1) for n in range(9)]
    rounded = [L for L in near[9:] if pi_arc_before(LARGEST, L) / step != total - out[legs - L]]
    assert total > 2**53 and rounded
    _check(LARGEST, near)


@pytest.mark.parametrize("max_cost, want", [
    # mid return half of the largest block
    (8200000000.0, "SimOutcome(sensed=False, time=8200000000.0, cost=8200000000.0, "
                   "agent_pos=Point(x=-1.503262460231781, y=-1.1196388602256775), "
                   "target_pos=Point(x=10000.0, y=10000.0), diagonal=12, legs_processed=614684149, "
                   "stop_reason='cost_budget')"),
    # 0.17 before its end, where the arcs pass 2^53 steps
    (8351652478.5, "SimOutcome(sensed=False, time=8351652478.5, cost=8351652478.5, "
                   "agent_pos=Point(x=-4.982948303222656e-05, y=-1.2874603271484375e-05), "
                   "target_pos=Point(x=10000.0, y=10000.0), diagonal=12, legs_processed=715563041, "
                   "stop_reason='cost_budget')"),
])
def test_a_cost_budget_stop_in_the_largest_blocks_return_half(max_cost, want):
    # the outcomes recorded with the bisection over every leg's end arc
    out = simulate(static_plan(), inert(Point(1e4, 1e4)), SimConfig(r=0.5, max_cost=max_cost))
    assert repr(out) == want
