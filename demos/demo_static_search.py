"""Walk through the static search: spirals, diagonals, and one full hunt.

Run with: python3 demos/demo_static_search.py
"""

from planehunt import (
    Point,
    SimConfig,
    SpiralParams,
    diagonal_length,
    inert,
    pi_length,
    predict_static,
    simulate,
    static_plan,
)
from planehunt.trajectory import pi_leg

# The searcher's basic building block is a rectangular spiral.  With
# k = 1 rounds at step 2^-2 it is the first 4(k+1) = 8 legs of the
# out-and-back block, which the closed forms give one leg at a time:
print("spiral(k=1, j=2) legs:")
compass = {(1, 0): "E", (0, -1): "S", (-1, 0): "W", (0, 1): "N"}
for leg in range(8):
    ax, ay, bx, by, _, length = pi_leg(SpiralParams(1, 2), leg)
    direction = compass[(bx > ax) - (bx < ax), (by > ay) - (by < ay)]
    print(f"  go {direction} for {length}")

# Out-and-back trajectories return the searcher to its start, so the
# infinite schedule can chain them without bookkeeping.
print(f"\nout_and_back(1, 2) length: {pi_length(SpiralParams(1, 2))}")
print(f"diagonal 1 length: {diagonal_length(1)}")
print(f"diagonal 2 length: {diagonal_length(2)}")

# A target at distance <= D with sensing radius r is guaranteed to be
# caught by a specific diagonal, with a closed-form cost bound.
for D, r in [(1, 0.25), (4, 1 / 16), (16, 1 / 256)]:
    p = predict_static(D, r)
    print(f"\nD={D}, r={r}: catch by diagonal {p.y}, cost <= {p.cost_bound:g}")

# Now actually hunt a target at (1, 0) with sensing radius 0.5.  The
# searcher senses it at (0.5, 0) after 2.5 units of path.
out = simulate(static_plan(), inert(Point(1, 0)), SimConfig(r=0.5, max_diagonal=3))
print(
    f"\nhunt for target (1,0), r=0.5: sensed={out.sensed} "
    f"cost={out.cost} at agent position ({out.agent_pos.x}, {out.agent_pos.y})"
)
