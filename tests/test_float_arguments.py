"""Every real-valued argument goes through geometry.check_float, at every entry point that takes one.

A bool, a string, None or a Decimal raises ValueError naming the
argument, never TypeError and never a silent 1.0; so does a NaN, a value
of the wrong sign, an infinity where the argument must be finite, and an
int past the float range.  A numpy float32 or a Fraction gives the result
of its value as a Python float, down to the repr.
"""

import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from planehunt.coverage import area_bound, dynamic_lb, poly_speed_certificate, static_lb, tube_area
from planehunt.engine import SimConfig, brute_force_oracle
from planehunt.experiments import sweep_dynamic, sweep_static
from planehunt.geometry import Point, check_float, first_contact_time
from planehunt.searcher import predict_dynamic, static_plan
from planehunt.target import inert
from planehunt.trajectory import ceil_log2, predict_static, prefix_polyline

PREFIX = prefix_polyline(50.0)
ORACLE_CFG = SimConfig(r=0.5, max_diagonal=2)
COORDS = [0.1, 0.2, 1.3, 0.1, 2.2, 0.3, 0.0, 0.1]  # p0, u, q0 and w of first_contact_time


def _contact(k):
    """first_contact_time as a function of coordinate k of COORDS."""
    def call(x):
        coords = COORDS[:k] + [x] + COORDS[k + 1:]
        return first_contact_time(*(Point(coords[i], coords[i + 1]) for i in range(0, 8, 2)), 0.5, 5.0)
    return call


# (name in the message, call of the argument, a value it takes, a value of the wrong sign or None,
# whether it takes inf)
ARGUMENTS = {
    "SimConfig(r)": ("sensing radius r", lambda x: SimConfig(r=x, max_diagonal=2), 0.3, 0.0, False),
    "SimConfig(max_cost)": ("max_cost", lambda x: SimConfig(max_cost=x), 10.3, 0.0, True),
    "brute_force_oracle(step)": (
        "step", lambda x: brute_force_oracle(static_plan(), inert(Point(1.0, 0.0)), ORACLE_CFG, x),
        0.3, -0.3, False),
    "predict_static(D)": ("D", lambda x: predict_static(x, 0.25), 2.3, -2.3, False),
    "predict_static(r)": ("r", lambda x: predict_static(2.0, x), 0.3, 0.0, False),
    "ceil_log2(x)": ("x", ceil_log2, 3.3, -3.3, False),
    "prefix_polyline(max_cost)": ("max_cost", prefix_polyline, 10.3, -1.0, False),
    "predict_dynamic(v)": ("v", lambda x: predict_dynamic(2.0, x, 0.25), 1.3, -1.0, False),
    "area_bound(length)": ("length", lambda x: area_bound(x, 0.5), 3.3, -1.0, False),
    "area_bound(r)": ("r", lambda x: area_bound(3.0, x), 0.3, 0.0, False),
    "tube_area(r)": ("r", lambda x: tube_area(PREFIX, x, grid_res=32), 0.3, 0.0, False),
    "static_lb(D)": ("D", lambda x: static_lb(x, 0.25), 4.3, -4.0, False),
    "static_lb(r)": ("r", lambda x: static_lb(4.0, x), 0.3, 0.0, False),
    "dynamic_lb(v)": ("v", lambda x: dynamic_lb(x, 0.25, 0.5), 4.3, 0.0, False),
    "dynamic_lb(r)": ("r", lambda x: dynamic_lb(4.0, x, 0.5), 0.3, 0.0, False),
    "dynamic_lb(t0)": ("t0", lambda x: dynamic_lb(4.0, 0.25, x), 0.3, 0.0, False),
    "poly_speed_certificate(v)": ("v", lambda x: poly_speed_certificate(3, x, 0.25, 1.0), 4.3, None, False),
    "poly_speed_certificate(r)": ("r", lambda x: poly_speed_certificate(3, 4.0, x, 1.0), 0.3, None, False),
    "poly_speed_certificate(d)": ("d", lambda x: poly_speed_certificate(3, 4.0, 0.25, x), 1.3, None, False),
    "first_contact_time(r)": (
        "sensing radius", lambda x: first_contact_time(Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 0), x, 5.0),
        0.3, 0.0, False),
    "first_contact_time(horizon)": (
        "horizon", lambda x: first_contact_time(Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 0), 0.5, x),
        5.3, -1.0, True),
    **{f"first_contact_time(coordinate {k})": ("positions and velocities", _contact(k), COORDS[k] + 0.01, None, False)
       for k in range(8)},
    "sweep_static(D)": ("D", lambda x: sweep_static([x], [0.25], 2, 7), 1.3, -1.0, False),
    "sweep_static(r)": ("r", lambda x: sweep_static([1.0], [x], 2, 7), 0.3, 0.0, False),
    "sweep_dynamic(v)": ("v", lambda x: sweep_dynamic([x], [0.25], 1.0, 2, 7), 0.3, -0.5, False),
}
NOT_NUMBERS = [True, False, np.True_, "1", None, Decimal("1")]


@pytest.mark.parametrize("argument", ARGUMENTS)
def test_a_value_that_is_no_number_is_a_value_error_naming_the_argument(argument):
    # a string raised TypeError at all but SimConfig before, a bool was taken as 1.0
    # (predict_static(True, .25) gave y = 1, static_lb(4, True) gave 2.0), and a Decimal was taken
    name, call, _, _, _ = ARGUMENTS[argument]
    for value in NOT_NUMBERS:
        with pytest.raises(ValueError, match=f"{re.escape(name)} must be a number, got {re.escape(repr(value))}$"):
            call(value)


@pytest.mark.parametrize("argument", ARGUMENTS)
def test_a_nan_a_wrong_sign_or_an_infinity_is_a_value_error_naming_the_argument(argument):
    name, call, _, wrong, inf_taken = ARGUMENTS[argument]
    bad = [math.nan, -math.inf] + ([] if wrong is None else [wrong]) + ([] if inf_taken else [math.inf])
    for value in bad:
        with pytest.raises(ValueError, match=f"{re.escape(name)} must be .*, got {re.escape(repr(value))}$"):
            call(value)
    if inf_taken:
        call(math.inf)


@pytest.mark.parametrize("argument", ARGUMENTS)
def test_an_int_past_the_float_range_is_a_value_error_naming_its_bits(argument):
    # predict_static, SimConfig(r), static_lb and prefix_polyline raised OverflowError before
    name, call, _, _, _ = ARGUMENTS[argument]
    for value in (10**400, -(10**400)):
        with pytest.raises(ValueError, match=f"{re.escape(name)} of 1329 bits is beyond the float range$"):
            call(value)


@pytest.mark.parametrize("argument", ARGUMENTS)
def test_a_float32_or_a_fraction_gives_the_result_of_its_float(argument):
    _, call, x, _, _ = ARGUMENTS[argument]
    # a Fraction step raised TypeError in brute_force_oracle before
    for value in (np.float32(x), Fraction(x).limit_denominator(1000), np.float64(x)):
        assert repr(call(value)) == repr(call(float(value)))


def test_check_float_returns_a_python_float():
    assert type(check_float(np.float32(0.1), "x")) is float
    assert check_float(np.float32(0.1), "x") == 0.10000000149011612
    assert check_float(Fraction(1, 3), "x") == 1 / 3
    assert type(check_float(np.int64(3), "x")) is float
    assert check_float(-0.0, "x", "nonnegative") == 0.0


def test_check_float_messages():
    with pytest.raises(ValueError, match="^x must be finite, got inf$"):
        check_float(math.inf, "x")
    with pytest.raises(ValueError, match="^x must be finite and positive, got 0$"):
        check_float(0, "x", "positive")
    with pytest.raises(ValueError, match="^x must be a positive number, got nan$"):
        check_float(math.nan, "x", "positive", finite=False)
    with pytest.raises(ValueError, match="^x must be a number, got nan$"):
        check_float(math.nan, "x", finite=False)
    assert check_float(-math.inf, "x", finite=False) == -math.inf
    # an int's repr past 4300 digits raises, so the message gives its bit count
    with pytest.raises(ValueError, match="^x of 16610 bits is beyond the float range$"):
        check_float(10**5000, "x")
    with pytest.raises(ValueError, match="^x of 1328 bits is beyond the float range$"):
        check_float(Fraction(10**400, 3), "x")
    with pytest.raises(ValueError, match=r"^x must be a number, got \(1\+0j\)$"):
        check_float(1 + 0j, "x")
