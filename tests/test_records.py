"""The package's records are NamedTuples: their tuple behaviour and their pickles."""

import pickle

import pytest

from planehunt.coverage import impossibility_report, poly_speed_certificate, tube_area
from planehunt.engine import SimConfig, simulate
from planehunt.experiments import sweep_static
from planehunt.geometry import Point
from planehunt.searcher import predict_dynamic, static_plan
from planehunt.target import inert, radial_flee
from planehunt.trajectory import CatchPrediction, SpiralParams


def _records():
    """One instance of each of the ten records and of SweepRow, by name."""
    return {
        "Point": Point(0.75, -0.5),
        "SimConfig": SimConfig(agent_start=Point(0.5, 0.0), r=0.25, max_cost=100.0, max_diagonal=3),
        "SimOutcome": simulate(static_plan(), inert(Point(1.0, 0.0)), SimConfig(r=0.5, max_diagonal=2)),
        "TargetStrategy": radial_flee(Point(0.0, 0.0), Point(1.0, 1.0), 2.0, 0.25),
        "SearcherPlan": static_plan(),
        "SpiralParams": SpiralParams(4, 2),
        "CatchPrediction": predict_dynamic(2.0, 1.0, 0.25),
        "CoverageReport": tube_area([[0.0, 0.0], [1.0, 0.0]], 0.5, grid_res=32),
        "PolySpeedCertificate": poly_speed_certificate(2, 4.0, 0.25, 1.0),
        "ImpossibilityReport": impossibility_report(2, 1.0, 6),
        "SweepRow": sweep_static([2.0], [0.25], 1, 7)[0],
    }


@pytest.mark.parametrize("name", list(_records()))
def test_every_record_survives_a_pickle_round_trip(name):
    # the --jobs > 1 process pool pickles the plan it sends with each cell (its hunts come back as plain
    # tuples), and a caller may send any record to another process
    record = _records()[name]
    assert type(record).__name__ == name
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record)
        assert back == record and repr(back) == repr(record)


def test_a_catch_prediction_is_rebuilt_from_a_b_y():
    p = CatchPrediction(2, 4, 3)
    assert p.__getnewargs__() == (2, 4, 3)
    assert pickle.loads(pickle.dumps(p)).cost_bound == 80 * 3 * 2 ** 8


def test_records_are_tuples():
    p = Point(1.0, 2.0)
    assert p == (1.0, 2.0) and hash(p) == hash((1.0, 2.0))
    assert SpiralParams(1, 2) == Point(1, 2)  # equal values, whatever the record
    assert len(p) == 2 and p[1] == 2.0 and list(p) == [1.0, 2.0]
    assert p * 2 == (1.0, 2.0, 1.0, 2.0)  # repetition, as for any tuple
    assert p + Point(3.0, 4.0) == Point(4.0, 6.0) and type(p + p) is Point
    assert p - Point(3.0, 4.0) == Point(-2.0, -2.0)
    assert p._fields == ("x", "y")


@pytest.mark.parametrize("name", list(_records()))
def test_a_record_field_cannot_be_set(name):
    record = _records()[name]
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.extra = 0

