"""Every index and count argument goes through geometry.check_int, at every entry point that takes one.

A bool, a float (3.0 too), a string or None raises ValueError naming the
argument, never TypeError; so does an int out of range.  A numpy integer
gives the result of its value, down to the repr, so every record field
holds a Python int.
"""

import re

import numpy as np
import pytest

from planehunt.cli import run
from planehunt.coverage import adversarial_static_placement, impossibility_report, poly_speed_certificate, tube_area
from planehunt.engine import SimConfig
from planehunt.experiments import sweep_static
from planehunt.geometry import check_int
from planehunt.searcher import dynamic_plan
from planehunt.trajectory import SpiralParams, diagonal_length, diagonal_terms, prefix_polyline

PREFIX = prefix_polyline(50.0)

# (name in the message, call of the argument, an int it takes, an int out of its range)
ARGUMENTS = {
    "SimConfig(max_diagonal)": ("max_diagonal", lambda n: SimConfig(max_diagonal=n), 3, 13),
    "sweep samples": ("samples", lambda n: sweep_static([1.0], [0.25], n, 7), 2, 0),
    "sweep seed": ("seed", lambda n: sweep_static([1.0], [0.25], 2, n), 7, -1),
    "sweep jobs": ("jobs", lambda n: sweep_static([1.0], [0.25], 2, 7, jobs=n), 1, 0),
    "tube_area(grid_res)": ("grid_res", lambda n: tube_area(PREFIX, 0.25, grid_res=n), 64, 31),
    "witness i": ("i", lambda n: adversarial_static_placement(PREFIX, n, grid_res=16), 2, 538),
    "witness grid_res": ("grid_res", lambda n: adversarial_static_placement(PREFIX, 2, grid_res=n), 16, 4097),
    "poly_speed_certificate(c)": ("c", lambda n: poly_speed_certificate(n, 4.0, 0.25, 1.0), 3, 1),
    "impossibility_report(m_max)": ("m_max", lambda n: impossibility_report(2, 1.0, n), 5, 3),
    "speed_of_diagonal(i)": ("diagonal index", lambda n: dynamic_plan().speed_of_diagonal(n), 2, 0),
    "SpiralParams(k)": ("k", lambda n: SpiralParams(n, 2), 4, 0),
    "SpiralParams(j)": ("j", lambda n: SpiralParams(4, n), 2, 0),
    "diagonal_terms(i)": ("diagonal index", diagonal_terms, 2, 0),
    "diagonal_length(i)": ("diagonal index", diagonal_length, 2, 0),
}
NOT_INTEGERS = [2.5, 3.0, True, "3", None]


@pytest.mark.parametrize("argument", ARGUMENTS)
def test_a_value_that_is_no_integer_is_a_value_error_naming_the_argument(argument):
    # tube_area took grid_res=64.5, counting a 65-cell grid sized for 64.5 cells and reporting
    # grid_res=64.5 (at 100.5, area 14.518, where 100 gives 14.396); speed_of_diagonal and
    # SpiralParams took 2.5, and the witness, impossibility_report and the diagonal sums raised
    # TypeError on a float
    name, call, n, _ = ARGUMENTS[argument]
    for value in (*NOT_INTEGERS, n + 0.5, float(n)):  # the last two in range
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer, got {re.escape(repr(value))}$"):
            call(value)


@pytest.mark.parametrize("argument", ARGUMENTS)
def test_an_int_out_of_range_is_a_value_error_naming_the_argument(argument):
    name, call, _, out = ARGUMENTS[argument]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be (>= |in )"):
        call(out)


@pytest.mark.parametrize("argument", ARGUMENTS)
@pytest.mark.parametrize("np_int", [np.int64, np.uint16])
def test_a_numpy_integer_gives_the_result_of_its_value(argument, np_int):
    # poly_speed_certificate rejected np.int64(3); SimConfig, tube_area and the sweeps kept it in a field
    _, call, n, _ = ARGUMENTS[argument]
    assert repr(call(np_int(n))) == repr(call(n))


def test_record_fields_hold_python_ints():
    assert type(SimConfig(max_diagonal=np.int64(3)).max_diagonal) is int
    assert type(tube_area(PREFIX, 0.25, grid_res=np.int64(64)).grid_res) is int
    assert type(poly_speed_certificate(np.int64(3), 4.0, 0.25, 1.0).c) is int
    assert {type(row.seed) for row in sweep_static([1.0], [0.25], 2, np.int64(7))} == {int}
    assert set(map(type, SpiralParams(np.int64(4), np.uint8(2)))) == {int}


@pytest.mark.parametrize("grid_res", ["31", "4097", "2.5", "True"])
def test_the_adversary_grid_res_exits_2_naming_the_flag(grid_res, capsys):
    code = run(["adversary", "--i", "2", "--max-cost", "10", "--grid-res", grid_res])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--grid-res" in captured.err


def test_check_int_messages():
    assert check_int(np.int8(5), "n", 1, 9) == 5
    with pytest.raises(ValueError, match=r"^n must be in 1\.\.9, got 10$"):
        check_int(10, "n", 1, 9)
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        check_int(0, "n", 1)
    with pytest.raises(ValueError, match=r"^n must be an integer, got np\.True_$"):
        check_int(np.bool_(True), "n", 0)
