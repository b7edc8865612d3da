"""The adversary's side: tube areas, hidden witnesses, impossibility.

Run with: python3 demos/demo_lower_bounds.py
"""

from planehunt import (
    adversarial_static_placement,
    area_bound,
    dynamic_lb,
    static_lb,
    tube_area,
)
from planehunt.coverage import impossibility_report
from planehunt.trajectory import prefix_polyline

# A searcher that has walked x units of path has seen at most an
# r-tube of area 2 r x + pi r^2 around its trajectory.
prefix = prefix_polyline(171.0)  # the first diagonal
report = tube_area(prefix, 0.25)
print(f"first diagonal, r=0.25: tube area ~ {report.estimated_area:.1f}, "
      f"bound {report.analytic_bound:.1f}")

# Whatever the searcher does, some ring around its start stays
# uncovered; the placement finder exhibits a concrete hidden target.
short_prefix = prefix_polyline(10.0)
print("\nwitnesses against a 10-unit prefix:")
for j, D_j, r_j, witness in adversarial_static_placement(short_prefix, 3, grid_res=128):
    where = f"({witness.x:.3f}, {witness.y:.3f})" if witness else "covered"
    print(f"  ring {j}: D={D_j:g}, r={r_j:g}, hidden target at {where}")

# Closed-form cost floors for both scenarios.
print(f"\nstatic lower bound at D=4, r=1/16:  {static_lb(4, 1 / 16):g}")
print(f"dynamic lower bound at v=4, r=1/4, t0=1: {dynamic_lb(4, 1 / 4, 1.0):g}")

# No searcher whose speed grows only polynomially (speed <= t^c) can
# match the optimal cost: its minimum cost grows like (v^2/r)^beta with
# beta > 1, overtaking the optimal log(v^2/r) * v^2/r.
rep = impossibility_report(c=2, d=1.0, m_max=12)
print(f"\npolynomial speed c=2: cost exponent beta={rep.beta:g}, "
      f"fitted slope {rep.slope:.3f}, overtakes from m={rep.crossover_m}")
print(f"sanity: area_bound(0, 1) = {area_bound(0, 1):.3f}, the area of a unit disc")
