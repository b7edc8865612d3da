"""Pursue a fleeing target with the exponentially accelerating searcher.

Run with: python3 demos/demo_dynamic_pursuit.py
"""

from planehunt import (
    Point,
    SimConfig,
    dynamic_plan,
    dynamic_q,
    predict_dynamic,
    radial_flee,
    simulate,
)
from planehunt.experiments import flee_time_from_plan

plan = dynamic_plan()

# Speed doubles five times per diagonal, so traversal times shrink fast
# and their total converges to a constant q.
print("traversal times of the first diagonals:")
for i in range(1, 6):
    print(f"  diagonal {i}: speed 2^{5 * i}, time {plan.traversal_time(i):.6f}")
print(f"certified bound on the total traversal time: q <= {dynamic_q():.6f}")

# The worst adversary flees radially while the searcher covers its first
# half unit of arc, then freezes.
t_freeze = flee_time_from_plan(plan)
print(f"\nflee window (searcher covers arc 1/2): t = {t_freeze}")

for v in (1.0, 2.0, 4.0):
    strategy = radial_flee(Point(0, 0), Point(1, 0), v=v, t_freeze=t_freeze)
    pred = predict_dynamic(1.0, v, 1 / 16)
    out = simulate(plan, strategy, SimConfig(r=1 / 16, max_diagonal=9))
    print(
        f"v={v}: caught on diagonal {out.diagonal} "
        f"(guaranteed by {pred.y}), cost {out.cost:.2f}, time {out.time:.4f}"
    )
