"""Records that check their fields check them however they are built, and a target computes at its fields' values.

_replace builds through _make, which builds through __new__, so a
replaced field gets the checks of a new one.  A target field that is
neither a float nor an int (a numpy float32, say) is stored as the float
of its value, so position, state and the engine do not compute at its
precision.
"""

import math

import numpy as np
import pytest

from planehunt.engine import SimConfig, simulate
from planehunt.geometry import Point
from planehunt.searcher import static_plan
from planehunt.target import inert, waypoints
from planehunt.trajectory import CatchPrediction, SpiralParams


class TestReplace:
    def test_a_sim_config_checks_a_replaced_radius(self):
        # through the NamedTuple's own _make, the NaN radius hunted to an unsensed diagonal_budget stop
        cfg = SimConfig(r=0.25, max_diagonal=2)
        with pytest.raises(ValueError, match="sensing radius"):
            simulate(static_plan(), inert(Point(1, 0)), cfg._replace(r=math.nan))
        assert cfg._replace(r=0.5) == SimConfig(r=0.5, max_diagonal=2)
        with pytest.raises(ValueError, match="max_diagonal"):
            SimConfig._make((Point(0.0, 0.0), 0.25, math.inf, 13))

    def test_spiral_params_check_a_replaced_k(self):
        with pytest.raises(ValueError, match="k >= 1"):
            SpiralParams(4, 2)._replace(k=0)
        assert SpiralParams(4, 2)._replace(j=4) == SpiralParams(4, 4)

    def test_a_catch_prediction_sets_the_cost_bound_of_a_replaced_y(self):
        # the NamedTuple's _replace kept the cost_bound 61440.0 of y = 3
        p = CatchPrediction(1, 2, 3)
        with pytest.raises(ValueError, match="beyond the float range"):
            p._replace(y=600)
        assert p._replace(y=4) == CatchPrediction(1, 2, 4) == CatchPrediction._make((1, 2, 4))
        assert p._replace(y=4).cost_bound == 80.0 * 4 * 2.0**10

    def test_a_catch_prediction_takes_no_cost_bound(self):
        # as construction does: the bound is set from y
        p = CatchPrediction(1, 2, 3)
        with pytest.raises(TypeError):
            p._replace(cost_bound=1.0)
        with pytest.raises(TypeError):
            CatchPrediction._make(p)
        with pytest.raises(TypeError):
            CatchPrediction(1, 2, 3, 1.0)


class TestTargetFieldTypes:
    def test_a_float32_waypoint_target_computes_at_its_values(self):
        f32 = np.float32
        s = waypoints([Point(f32(0.1), f32(0.2)), Point(f32(1.1), f32(0.3))], [0.0, f32(3.0)], f32(1.0))
        values = waypoints([Point(float(f32(0.1)), float(f32(0.2))), Point(float(f32(1.1)), float(f32(0.3)))],
                           [0.0, 3.0], 1.0)
        # in float32, position(1.0) was Point(np.float32(0.43333334), np.float32(0.23333335))
        assert repr(s.position(1.0)) == repr(values.position(1.0)) == "Point(x=0.43333334227403003, y=0.2333333392937978)"
        assert repr(s.state(1.0, 1)) == repr(values.state(1.0, 1))
        assert repr(s) == repr(values)

    def test_a_float32_waypoint_hunt_is_the_hunt_on_its_values(self):
        def hunt(number):
            points = [Point(number(0.3), number(0.7)), Point(number(2.1), number(-0.9)), Point(number(-1.3), number(0.1))]
            s = waypoints(points, [0.0, number(700.3), number(1500.7)], 0.01)
            return simulate(static_plan(), s, SimConfig(r=0.1, max_diagonal=4))

        out = hunt(np.float32)
        # the target still moves at the contact; in float32 it was sensed 3.6e-8 later
        assert out.stop_reason == "sensed" and out.time < 700.3
        assert repr(out) == repr(hunt(lambda x: float(np.float32(x))))

    def test_float_and_int_fields_keep_their_types(self):
        # the goldens pin the reprs of np.float64 and int fields
        f64 = np.float64
        s = waypoints([Point(f64(0.5), 2), Point(f64(1.5), 2)], [0, f64(2.0)], 1)
        fields = (*s.times, *s.points[0], *s.points[1], s.v)
        assert [type(v) for v in fields] == [int, f64, f64, int, f64, int, int]
        assert s.state(9.0, 2) == (f64(1.5), 2, 0.0, 0.0) and type(s.position(9.0).x) is f64
