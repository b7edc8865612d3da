"""Search and pursuit in the plane with square-spiral schedules.

A searcher starting with no knowledge of the target's distance D, the
sensing radius r, or the target's speed bound v walks an infinite
schedule of out-and-back square spirals that simultaneously enlarges the
searched square and refines its resolution.  The package provides the
schedule with each of its blocks in closed form, the unit-speed and
exponentially accelerating searchers with their cost certificates,
adversarial target strategies, an exact simulator, the tube-area
lower-bound machinery, and seeded experiment sweeps.
"""

from .coverage import (
    CoverageReport,
    PolySpeedCertificate,
    adversarial_static_placement,
    area_bound,
    dynamic_lb,
    poly_speed_certificate,
    static_lb,
    tube_area,
)
from .engine import SimConfig, SimOutcome, brute_force_oracle, simulate
from .geometry import Point, first_contact_time
from .searcher import (
    SearcherPlan,
    dynamic_plan,
    dynamic_q,
    predict_dynamic,
    static_plan,
)
from .target import (
    TargetStrategy,
    inert,
    load_waypoints,
    radial_flee,
    waypoints,
)
from .trajectory import (
    CatchPrediction,
    SpiralParams,
    diagonal_length,
    diagonal_terms,
    pi_length,
    predict_static,
    prefix_polyline,
)

__version__ = "0.1.0"
