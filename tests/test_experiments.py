import concurrent.futures
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planehunt import experiments
from planehunt.coverage import impossibility_report
from planehunt.engine import SimConfig
from planehunt.experiments import (
    MAX_V,
    SWEEP_FIELDS,
    SweepRow,
    export_svg,
    flee_time_from_plan,
    sample_targets,
    sweep_dynamic,
    sweep_static,
    write_rows_csv,
    write_rows_jsonl,
)
from planehunt.geometry import Point
from planehunt.searcher import dynamic_plan, predict_dynamic
from planehunt.trajectory import MAX_DIAGONAL, predict_static


class TestSampling:
    def test_deterministic_and_within_disc(self):
        a = sample_targets(7, 4.0, 0.25, [3])[0]
        b = sample_targets(7, 4.0, 0.25, [3])[0]
        assert a == b
        assert math.hypot(*a) <= 4.0

    def test_keyed_by_values_not_order(self):
        # same (seed, D, r, idx) regardless of which sweep asks
        a = sample_targets(7, 1.0, 0.25, [0])[0]
        b = sample_targets(7, 1.0, 0.25, [0])[0]
        c = sample_targets(8, 1.0, 0.25, [0])[0]
        assert a == b and a != c

    def test_same_draws_as_two_uniform_calls(self):
        # one rng.random(2) call gives the bits of uniform(0, 2 pi), uniform()
        for seed in (0, 7, 2**40 + 3):
            for D in (1.0, 3.7, 16.0):
                for r in (0.25, 2.0 ** -8, 0.1):
                    for i in range(40):
                        rng = np.random.default_rng(
                            [seed, experiments._float_key(D), experiments._float_key(r), i]
                        )
                        theta = rng.uniform(0.0, 2.0 * math.pi)
                        rad = D * math.sqrt(rng.uniform())
                        want = Point(rad * math.cos(theta), rad * math.sin(theta))
                        assert sample_targets(seed, D, r, [i])[0] == want

    def test_a_float32_D_draws_at_its_value(self):
        # in float32, rad = D * sqrt(u1) would round: Point(np.float32(-0.86662585), ...)
        got = sample_targets(7, np.float32(3.3), 0.25, [0])
        want = sample_targets(7, float(np.float32(3.3)), 0.25, [0])
        assert got == want and repr(got) == repr(want)
        assert all(type(c) is float for c in got[0])
        assert got[0] == Point(-0.8666258222480475, 0.09602361518195407)


def _numpy_draw(seed, D, r, i):
    # the oracle: numpy's own default_rng, one generator per target
    rng = np.random.default_rng([seed, experiments._float_key(D), experiments._float_key(r), i])
    u0, u1 = rng.random(2)
    theta = 2.0 * math.pi * u0
    rad = D * math.sqrt(u1)
    return Point(rad * math.cos(theta), rad * math.sin(theta))


# indices at the edges of one, two and three 32-bit words
WORD_EDGES = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64]
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


class TestVectorizedDraws:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**70 - 1),
        D=POSITIVE,
        r=POSITIVE,
        idx=st.lists(st.one_of(st.sampled_from(WORD_EDGES), st.integers(0, 2**70)), min_size=1, max_size=6),
    )
    # subnormal D and r have one-word keys; every index word count in one call
    @example(seed=0, D=5e-324, r=3 * 5e-324, idx=WORD_EDGES)
    @example(seed=2**64, D=16.0, r=2.0 ** -8, idx=[7, 2**96 + 5, 0, 2**32 + 1])
    def test_draws_equal_numpys_default_rng(self, seed, D, r, idx):
        assert sample_targets(seed, D, r, idx) == [_numpy_draw(seed, D, r, i) for i in idx]

    def test_two_word_seeds_and_indices(self):
        # entries of 2^32 and more take two words; the hoisted pool serves one-word indices
        for seed in (2**32, 2**32 + 7, 2**63 + 1, 2**64 - 1):
            idx = [0, 9, 2**32 - 1, 2**32, 2**32 + 5, 2**63, 2**64 - 1]
            assert sample_targets(seed, 4.0, 0.0625, idx) == [_numpy_draw(seed, 4.0, 0.0625, i) for i in idx]

    def test_subnormal_keys_give_a_short_prefix(self):
        # a key below 2^32 is one word: with a one-word seed, (seed, key(D), key(r))
        # is 3 words, fewer than the pool's 4, and every index runs the whole algorithm
        tiny = (5e-324, 1e-320, 2.0e-314)
        assert all(experiments._float_key(x) < 2**32 for x in tiny)
        for D in tiny + (1.0,):
            for r in tiny + (0.25,):
                idx = [0, 1, 17, 2**32 - 1, 2**32, 2**70]
                assert sample_targets(3, D, r, idx) == [_numpy_draw(3, D, r, i) for i in idx]

    def test_mixed_word_counts_in_one_call(self):
        idx = [2**64, 0, 2**32, 1, 2**96 + 3, 2**32 - 1, 5, 2**32 + 1]
        for seed, D, r in ((7, 16.0, 2.0**-8), (7, 5e-324, 1e-320), (2**40, 5e-324, 0.25)):
            assert sample_targets(seed, D, r, idx) == [_numpy_draw(seed, D, r, i) for i in idx]

    def test_a_cell_of_draws(self):
        for seed in (0, 1, 7, 7001, 2**32 - 1, 2**40 + 3):
            for D in (1.0, 16.0, 2.0 ** -40):
                for r in (0.25, 2.0 ** -8):
                    want = [_numpy_draw(seed, D, r, i) for i in range(200)]
                    assert sample_targets(seed, D, r, range(200)) == want
                    assert [sample_targets(seed, D, r, [i])[0] for i in (0, 199)] == [want[0], want[199]]

    def test_integers_coerced_as_numpy_coerces_them(self):
        assert sample_targets(np.int64(7), 1.0, 0.25, [np.uint8(3), True]) == [
            _numpy_draw(7, 1.0, 0.25, 3), _numpy_draw(7, 1.0, 0.25, 1)
        ]
        assert sample_targets(7, 1.0, 0.25, []) == []
        for seed, idx in ((-1, 0), (7, -1)):
            with pytest.raises(ValueError, match="expected non-negative integer"):
                sample_targets(seed, 1.0, 0.25, [idx])
        for seed, idx in ((7.0, 0), (7, 1.0)):
            with pytest.raises(TypeError):
                sample_targets(seed, 1.0, 0.25, [idx])

    def test_sweeps_leave_numpy_random_unloaded(self):
        code = (
            "import sys\n"
            "from planehunt.experiments import sweep_dynamic, sweep_static\n"
            "sweep_static([1], [0.25], 3, 7)\n"
            "sweep_dynamic([0, 1], [0.25], 1, 2, 7)\n"
            "print('numpy.random' in sys.modules)\n"
        )
        src = Path(experiments.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout == "False\n"


class TestSweepSeed:
    BAD = (True, False, 7.0, np.float64(7.0), -1, "7", None)

    def test_rejected_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a target")

        monkeypatch.setattr(experiments, "sample_targets", no_draw)
        for seed in self.BAD:
            with pytest.raises(ValueError, match="seed must be (an integer|>= 0)"):
                sweep_static([1], [0.25], 2, seed)
            with pytest.raises(ValueError, match="seed must be (an integer|>= 0)"):
                sweep_dynamic([0, 1], [0.25], D=1, samples=2, seed=seed)

    def test_numpy_integers_accepted(self):
        assert sweep_static([1], [0.25], 3, np.int64(7)) == sweep_static([1], [0.25], 3, 7)
        assert sweep_dynamic([1], [0.25], 1, 2, np.uint16(7)) == sweep_dynamic([1], [0.25], 1, 2, 7)

    def test_a_numpy_integer_seed_writes_the_bytes_of_its_value(self, tmp_path):
        # the rows held the np.int64 seed, and json raised TypeError: Object of type int64 is not JSON serializable
        for name, seed in (("numpy", np.int64(7)), ("int", 7)):
            rows = sweep_static([1.0], [0.25], 2, seed)
            write_rows_csv(rows, tmp_path / f"{name}.csv")
            write_rows_jsonl(rows, tmp_path / f"{name}.jsonl")
        for ext in ("csv", "jsonl"):
            assert (tmp_path / f"numpy.{ext}").read_bytes() == (tmp_path / f"int.{ext}").read_bytes()

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            sweep_static([1], [0.25], 0, 7)
        with pytest.raises(ValueError, match="samples must be >= 1"):
            sweep_dynamic([0, 1], [0.25], D=1, samples=0, seed=7)

    @pytest.mark.parametrize("samples", [True, False, 2.0, np.float64(2.0), 1.5, "2", None])
    def test_samples_that_are_no_integer_rejected_before_any_draw(self, samples, monkeypatch):
        # True ran a 1-sample sweep, 2.0 failed inside a cell and "2" in the comparison, all with a TypeError
        def no_draw(*args):
            raise AssertionError("drew a target")

        monkeypatch.setattr(experiments, "sample_targets", no_draw)
        with pytest.raises(ValueError, match=f"samples must be an integer, got {re.escape(repr(samples))}"):
            sweep_static([1.0], [0.25], samples, 7)
        with pytest.raises(ValueError, match="samples must be an integer"):
            sweep_dynamic([0, 1], [0.25], D=1, samples=samples, seed=7)

    def test_numpy_integer_samples_accepted(self):
        assert sweep_static([1], [0.25], np.int64(3), 7) == sweep_static([1], [0.25], 3, 7)
        assert sweep_dynamic([1], [0.25], 1, np.uint8(2), 7) == sweep_dynamic([1], [0.25], 1, 2, 7)


class TestSweepStatic:
    def test_guard_rejection(self):
        # the first inputs past the limit, both with predicted catch diagonal 12
        with pytest.raises(ValueError, match="guard"):
            sweep_static([4096], [0.25], 1, 0)
        with pytest.raises(ValueError, match="guard"):
            sweep_static([1], [2.0 ** -23], 1, 0)

    def test_guard_names_an_int_too_long_for_str_by_its_bits(self):
        # formatting the cell raised "Exceeds the limit (4300 digits) for integer string conversion"
        big = 10**5000
        with pytest.raises(ValueError, match="^D=an int of 16610 bits, r=0.25 outside the guard: D of 16610 bits"):
            sweep_static([big], [0.25], 1, 7)
        with pytest.raises(ValueError, match="^D=1, r=an int of 16610 bits outside the guard: r of 16610 bits"):
            sweep_static([1], [big], 1, 7)
        with pytest.raises(ValueError, match="^v=an int of 16610 bits outside the guard: v of 16610 bits"):
            sweep_dynamic([big], [0.25], 1, 1, 7)

    def test_ratio_is_nan_unless_the_growth_term_is_positive(self):
        # where the growth term was 0 (D = r here) the sweep raised
        # ZeroDivisionError; where it was negative (D < r) the ratio read -0.0
        zero = sweep_static([1.0], [1.0], 2, 0) + sweep_static([0.25], [0.25], 2, 0)
        zero += sweep_dynamic([0.0, 1.0], [1.0], 1.0, 2, 0)
        negative = sweep_static([0.25], [0.5], 2, 0) + sweep_dynamic([0.0, 1.0], [2.0], 1.0, 2, 0)
        assert len(zero + negative) == 14
        for row in zero + negative:
            assert row.sensed and row.cost == 0.0 and math.isnan(row.ratio)

    def test_small_sweep_properties(self):
        rows = sweep_static([1, 2], [1 / 4, 1 / 16], samples=5, seed=3)
        assert len(rows) == 20
        assert [r.run_id for r in rows] == list(range(20))
        for row in rows:
            assert row.sensed
            assert row.cost <= row.cost_bound
            assert row.diagonal <= row.predicted_y
            assert row.algorithm == "static"
            if row.cost > 0:
                assert row.ratio > 0

    def test_reproducible(self):
        a = sweep_static([1, 4], [1 / 4], samples=4, seed=9)
        b = sweep_static([1, 4], [1 / 4], samples=4, seed=9)
        assert a == b

    def test_jobs_clamped_to_cells_and_cpus(self, monkeypatch):
        requested = []

        class InlinePool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
        serial = sweep_static([1, 2, 4], [1 / 4], samples=2, seed=5, jobs=1)
        assert sweep_static([1, 2, 4], [1 / 4], samples=2, seed=5, jobs=1000) == serial
        sweep_static([1, 2, 4], [1 / 4, 1 / 16], samples=1, seed=5, jobs=1000)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
        sweep_static([1, 2], [1 / 4], samples=1, seed=5, jobs=1000)
        assert requested == [3, 4, 1]

    @pytest.mark.parametrize("jobs", [0, -4, True, 2.0, "2", None])
    def test_rejects_bad_jobs(self, jobs):
        # a bool, a non-integer or a count below 1 ran serially before
        with pytest.raises(ValueError, match="jobs must be (an integer|>= 1)"):
            sweep_static([1], [1 / 4], samples=1, seed=5, jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be (an integer|>= 1)"):
            sweep_dynamic([0, 1], [1 / 4], D=1, samples=1, seed=5, jobs=jobs)

    @pytest.mark.parametrize("jobs", [0, True, 2.0])
    def test_bad_jobs_rejected_before_any_prediction(self, jobs, monkeypatch):
        # sweep_dynamic predicted every cell before it rejected jobs
        predictions = []

        def counting(*args):
            predictions.append(args)
            return predict_dynamic(*args)

        monkeypatch.setattr(experiments, "predict_dynamic", counting)
        with pytest.raises(ValueError, match=f"jobs must be (an integer, got {re.escape(repr(jobs))}|>= 1$)"):
            sweep_dynamic([0, 1, 2], [1 / 4, 1 / 16], D=1, samples=1, seed=5, jobs=jobs)
        assert predictions == []

    def test_jobs_merge_is_deterministic(self):
        serial = sweep_static([1, 2, 4], [1 / 4, 1 / 16], samples=3, seed=5, jobs=1)
        parallel = sweep_static([1, 2, 4], [1 / 4, 1 / 16], samples=3, seed=5, jobs=2)
        assert serial == parallel


class TestSweepDynamic:
    def test_flee_time_from_plan(self):
        # half a unit of arc at speed 32 on the first diagonal
        assert flee_time_from_plan(dynamic_plan()) == pytest.approx(1 / 64)

    def test_v0_rows_match_static(self):
        drows = sweep_dynamic([0], [1 / 4, 1 / 16], D=1, samples=6, seed=7)
        srows = sweep_static([1], [1 / 4, 1 / 16], samples=6, seed=7)
        assert [r.cost for r in drows] == [r.cost for r in srows]
        assert [r.sensed for r in drows] == [r.sensed for r in srows]

    def test_flee_rows_caught_within_prediction(self):
        rows = sweep_dynamic([1, 2], [1 / 4], D=1, samples=5, seed=7)
        for row in rows:
            assert row.sensed
            assert row.diagonal <= row.predicted_y
            assert row.algorithm == "dynamic"

    def test_jobs_merge_is_deterministic(self):
        serial = sweep_dynamic([0, 1, 4], [1 / 4, 1 / 16], D=2, samples=3, seed=5, jobs=1)
        parallel = sweep_dynamic([0, 1, 4], [1 / 4, 1 / 16], D=2, samples=3, seed=5, jobs=2)
        assert serial == parallel

    def test_guard_rejection(self):
        with pytest.raises(ValueError, match="guard"):
            sweep_dynamic([32], [1 / 4], D=1, samples=1, seed=0)

    def test_a_sample_on_the_searchers_start_is_caught_at_once(self):
        # a subnormal D rounds D sqrt(u1) to 0, and radial_flee refused that start
        origin = Point(0.0, 0.0)
        points = sample_targets(0, 5e-324, 0.25, range(20))
        rows = sweep_dynamic([1.0], [0.25], 5e-324, 20, 0)
        assert origin in points and len(rows) == 20
        for p, row in zip(points, rows):
            assert row.sensed
            if p == origin:
                assert (row.cost, row.time) == (0.0, 0.0)


class TestProcessPool:
    """The pool's workers send back hunts, and the rows are built where the sweep runs, on both paths alike."""

    # 6 cells of 4 samples each; the seed is an int that pickle would copy into a new object, as it copies every float
    CELLS, SAMPLES = 6, 4
    SWEEPS = {
        "static": lambda jobs: sweep_static([1, 2], [1 / 4, 1 / 16, 2.0**-6], 4, 2**40 + 3, jobs),
        "dynamic": lambda jobs: sweep_dynamic([0, 1, 2], [1 / 4, 1 / 16], 1, 4, 2**40 + 3, jobs),
    }
    SHARED = ("D", "r", "v", "algorithm", "predicted_y", "cost_bound", "seed")

    @pytest.mark.parametrize("kind", list(SWEEPS))
    def test_rows_of_a_cell_share_its_objects(self, kind):
        # unpickled rows held their own D, r, v, cost_bound and seed objects
        rows = self.SWEEPS[kind](2)
        assert len(rows) == self.CELLS * self.SAMPLES and rows == self.SWEEPS[kind](1)
        for k in range(0, len(rows), self.SAMPLES):
            cell = rows[k:k + self.SAMPLES]
            for name in self.SHARED:
                assert len({id(getattr(row, name)) for row in cell}) == 1, name

    @pytest.mark.parametrize("kind", list(SWEEPS))
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_csv_fields_formatted_three_times_a_cell(self, kind, jobs, monkeypatch):
        # pool rows took csv.writer three times a row
        with contextlib.redirect_stdout(io.StringIO()) as want:
            write_rows_csv(self.SWEEPS[kind](1))
        rows = self.SWEEPS[kind](jobs)
        calls, fields = [], experiments._csv_fields

        def counting(*args):
            calls.append(args)
            return fields(*args)

        monkeypatch.setattr(experiments, "_csv_fields", counting)
        with contextlib.redirect_stdout(io.StringIO()) as got:
            write_rows_csv(rows)
        assert len(calls) == 3 * self.CELLS
        assert got.getvalue() == want.getvalue()


# st.floats() draws NaN, +-inf, +-0 and subnormals; the rest lie at the
# limit or inside it, where most draws of all floats do not
ANY_FLOAT = st.one_of(
    st.floats(),
    st.sampled_from([5e-324, 1e308, 2048.0, 4096.0, 2.0**-22, 2.0**-23]),
    st.floats(2.0**-3, 2.0**12),
    st.floats(2.0**-24, 4.0),
)


def _admitted(D, r, v=0.0):
    """Whether the guard admits a cell: a prediction before MAX_DIAGONAL and 0 <= v <= MAX_V."""
    try:
        y = predict_static(D, r).y
    except ValueError:
        return False
    return y < MAX_DIAGONAL and 0 <= v <= MAX_V


class TestNumpyFloatParameters:
    """A numpy float32 D, r or v sweeps as the Python float of its value, not in float32."""

    def test_static_sweep(self, tmp_path):
        D = np.float32(3.3)
        rows = sweep_static([D], [0.25], 2, 7)
        assert repr(rows) == repr(sweep_static([float(D)], [0.25], 2, 7))
        assert rows[0].cost == 9.624893749300009  # 9.624893758070002 with targets drawn at a float32 D
        assert all(type(value) is float for row in rows for value in (row.D, row.r, row.v, row.cost, row.ratio))
        write_rows_jsonl(rows, tmp_path / "rows.jsonl")  # json has no float32

    def test_dynamic_sweep(self):
        f32 = np.float32
        rows = sweep_dynamic([f32(0.0), f32(1.5)], [f32(0.25)], f32(3.3), 2, 7)
        want = sweep_dynamic([0.0, 1.5], [float(f32(0.25))], float(f32(3.3)), 2, 7)
        assert repr(rows) == repr(want)


class TestHuntLookup:
    """Each sweep hunt calls experiments.simulate, looked up on the module, once: a wrapper there sees every hunt."""

    @pytest.mark.parametrize("sweep, cells", [
        (lambda: sweep_static([1.0, 2.0], [0.25, 0.5], 3, 7), 4),
        (lambda: sweep_dynamic([0.0, 1.0, 2.0], [0.25], 1.0, 3, 7), 3),
    ], ids=["static", "dynamic"])
    def test_once_per_hunt(self, sweep, cells, monkeypatch):
        calls = []
        hunt = experiments.simulate

        def counting(*args, **kwargs):
            calls.append(args)
            return hunt(*args, **kwargs)

        monkeypatch.setattr(experiments, "simulate", counting)
        rows = sweep()
        assert len(calls) == len(rows) == cells * 3


class TestGuard:
    """A sweep rejects a cell before any hunt exactly where its predicted catch diagonal reaches MAX_DIAGONAL."""

    # (D, r) = (2^a, 2^-b), a in -2..11 and b in 1..22, caught by the last admitted diagonal
    EDGE = [
        (2.0**a, 2.0**-b)
        for a in range(-2, 12)
        for b in range(1, 23)
        if predict_static(2.0**a, 2.0**-b).y == MAX_DIAGONAL - 1
    ]

    @staticmethod
    def _hunted(sweep, admitted):
        """The rows of sweep(), or [] after checking it raised before any hunt."""
        with mock.patch.object(experiments, "simulate", wraps=experiments.simulate) as hunts:
            if admitted:
                return sweep()
            with pytest.raises(ValueError, match="guard"):
                sweep()
        assert hunts.call_count == 0
        return []

    @given(D=ANY_FLOAT, r=ANY_FLOAT, v=st.one_of(ANY_FLOAT, st.floats(0.0, MAX_V)))
    @example(D=1.0, r=1.0, v=1.0)
    @example(D=0.25, r=0.5, v=0.0)
    @example(D=5e-324, r=0.25, v=1.0)
    @settings(max_examples=300, deadline=None)
    def test_rejects_before_any_hunt_or_senses_every_row(self, D, r, v):
        for row in self._hunted(lambda: sweep_static([D], [r], 2, 0), _admitted(D, r)):
            assert row.sensed and row.diagonal <= row.predicted_y and row.cost <= row.cost_bound
        for row in self._hunted(lambda: sweep_dynamic([v], [r], D, 2, 0), _admitted(D, r, v)):
            assert row.sensed and row.diagonal <= MAX_DIAGONAL

    def test_every_cell_at_the_last_admitted_diagonal_is_caught(self):
        assert len(self.EDGE) == 28
        for D, r in self.EDGE:
            for row in sweep_static([D], [r], 30, 7):
                assert row.sensed and row.diagonal <= row.predicted_y and row.cost <= row.cost_bound
            for row in sweep_dynamic([0.0, 0.5, 1.0, 4.0, 16.0], [r], D, 30, 7):
                assert row.sensed and row.diagonal <= MAX_DIAGONAL

    def test_their_neighbours_past_the_limit_are_rejected(self):
        neighbours = {(2 * D, r) for D, r in self.EDGE} | {(D, r / 4) for D, r in self.EDGE}
        past = [(D, r) for D, r in neighbours if predict_static(D, r).y == MAX_DIAGONAL]
        assert {(4096.0, 0.25), (1.0, 2.0**-23)} <= set(past)
        for D, r in past:
            with pytest.raises(ValueError, match="guard"):
                sweep_static([D], [r], 1, 0)
            with pytest.raises(ValueError, match="guard"):
                sweep_dynamic([1.0], [r], D, 1, 0)


class TestImpossibilityReport:
    def test_crossover_and_slope(self):
        report = impossibility_report(2, 1.0, 12)
        assert report.crossover_m >= 1
        assert report.slope == pytest.approx(3.0, abs=0.05)
        ratios = [row.min_cost / row.optimal_cost for row in report.rows]
        after = report.rows[report.crossover_m - 1 :]  # row m - 1 is m
        assert all(row.exceeds for row in after)
        assert all(b > a for a, b in zip(ratios[3:], ratios[4:]))

    def test_c3_row_matches_certificate(self):
        report = impossibility_report(3, 1.0, 4)
        # m=1 row is v=2, r=0.5: min_cost 64 from the closed form
        assert report.rows[0].min_cost == pytest.approx(64.0)

    def test_rejects_small_m_max(self):
        with pytest.raises(ValueError):
            impossibility_report(2, 1.0, 3)


# sweep row fields of any type: floats (nan, infinities, -0.0, subnormals and
# 1e16 among them), numpy scalars, ints, bools, None, and text that needs quotes
_CSV_FIELD = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1.0, 1, True, False, None, ""]),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(st.sampled_from('ab ,"\r\n;'), max_size=4),
    st.text(max_size=3),
)
# a row's run_id, sensed, cost, time, diagonal and ratio: of the types a
# sweep writes, with one field or all six of any type
_SWEEP_ROW = st.tuples(st.integers(), st.booleans(), st.floats(), st.floats(), st.integers(), st.floats())
_ROW_FIELDS = st.one_of(
    _SWEEP_ROW,
    st.tuples(_SWEEP_ROW, st.integers(0, 5), _CSV_FIELD).map(lambda t: t[0][: t[1]] + (t[2],) + t[0][t[1] + 1:]),
    st.tuples(*[_CSV_FIELD] * 6),
)


def _equal_twin(x):
    """A new object equal to x, of another type or text where there is one: 1 for True, 1.0 for 1, 0.0 for -0.0."""
    if isinstance(x, (bool, np.bool_)):
        return int(x)
    if isinstance(x, int) and abs(x) <= 2**53:
        return float(x)
    if isinstance(x, (float, np.floating, np.integer)):
        return x + 0  # a new float, 0.0 for -0.0, and a new numpy scalar of x's type
    if isinstance(x, str):
        return (x + " ")[:-1]
    return x


class TestRowExport:
    def _rows(self):
        return sweep_static([1], [1 / 4], samples=3, seed=1)

    def test_csv_header_and_rows(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows_csv(self._rows(), str(path))
        with open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            body = list(reader)
        assert tuple(header) == SWEEP_FIELDS
        assert len(body) == 3

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        rows = self._rows()
        write_rows_jsonl(rows, str(path))
        parsed = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(parsed) == 3
        assert parsed[0]["cost"] == pytest.approx(rows[0].cost)
        assert set(parsed[0]) == set(SWEEP_FIELDS)

    def test_jsonl_is_strict_json(self, tmp_path, monkeypatch):
        # a nan was written as the bare token NaN, which a strict parser rejects
        def no_constant(name):
            raise ValueError(f"{name} is no JSON")

        zero = sweep_static([0.25], [0.25], 2, 7)  # sensed at cost 0, where the growth term is 0
        hunt = experiments.simulate
        monkeypatch.setattr(experiments, "simulate", lambda p, s, cfg: hunt(p, s, SimConfig(r=cfg.r, max_diagonal=1)))
        unsensed = sweep_static([64.0], [1 / 64], 2, 7)
        assert all(row.sensed for row in zero) and not any(row.sensed for row in unsensed)
        for rows in (zero, unsensed):
            path = tmp_path / "rows.jsonl"
            write_rows_jsonl(rows, path)
            lines = path.read_text().splitlines()
            assert len(lines) == len(rows) == 2
            for row, line in zip(rows, lines):
                assert math.isnan(row.ratio)
                assert json.loads(line, parse_constant=no_constant) == {**row._asdict(), "ratio": None}

    def test_jsonl_rows_without_a_nan_keep_their_bytes(self, tmp_path):
        rows = sweep_dynamic([0, 1], [1 / 4], 2, 3, 7)
        path = tmp_path / "rows.jsonl"
        write_rows_jsonl(rows, path)
        assert path.read_text() == "".join(json.dumps(row._asdict()) + "\n" for row in rows)

    def test_byte_reproducible(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows_csv(sweep_static([1, 2], [1 / 4], samples=3, seed=2), str(p1))
        write_rows_csv(sweep_static([1, 2], [1 / 4], samples=3, seed=2), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(
        cells=st.lists(st.tuples(*[_CSV_FIELD] * 7), min_size=1, max_size=3),
        picks=st.lists(
            st.tuples(st.integers(0, 2), st.one_of(st.none(), st.integers(0, 6)), _ROW_FIELDS), max_size=10
        ),
    )
    @example(  # a cell that recurs after another, and a cell equal to the one before but for one object
        cells=[(1.0, 0.25, -0.0, "static", 3, 61440.0, 7), (2.0, 0.25, 0.0, "static", 4, 1e16, 7)],
        picks=[(0, None, (0, True, 1.5, 2.5, 3, 0.5)), (1, None, (1, False, math.nan, 1.0, 12, math.nan)),
               (0, None, (2, True, 5e-324, -0.0, 1, math.inf)), (0, 2, (3, True, 1.0, 1.0, 2, 0.1))],
    )
    @example(
        cells=[(np.float64(0.1), np.float32(0.1), np.int64(3), 'a "b", c\r\n', None, True, "")],
        picks=[(0, None, (None, np.bool_(True), np.float32(0.1), np.float64(0.1), np.int64(4), "x,y")),
               (0, 5, (5, False, -math.inf, 1e16, -1, 2.2250738585072014e-308)),
               (0, None, (None, True, 1.0, 2.0, 3, 4.0)), (0, None, (6, True, 1.0, 2.0, 3, "")),
               (0, None, (7, "a,b", 1.0, 2.0, 3, 4.0)), (0, None, (8, True, 1.0, 2.0, 3, np.float64(4.0)))],
    )
    def test_bytes_equal_csv_writers_on_any_fields(self, cells, picks):
        rows = []
        for k, twin, (run_id, sensed, cost, time, diagonal, ratio) in picks:
            cell = list(cells[k % len(cells)])
            if twin is not None:  # the cell with one field an equal object, of another type or text where it can be
                cell[twin] = _equal_twin(cell[twin])
            D, r, v, name, y, bound, seed = cell
            rows.append(SweepRow(run_id, D, r, v, name, sensed, cost, time, diagonal, y, bound, ratio, seed))
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(SWEEP_FIELDS)
        writer.writerows(rows)
        with contextlib.redirect_stdout(io.StringIO()) as got:
            write_rows_csv(rows)
        assert got.getvalue() == want.getvalue()


class TestExportSvg:
    def test_diagonal_prefix_path_segments(self, tmp_path):
        from planehunt.trajectory import diagonal_length, prefix_polyline

        path = tmp_path / "d1.svg"
        export_svg(prefix_polyline(diagonal_length(1)), str(path))
        root = ET.parse(path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        paths = root.findall(f"{ns}path")
        assert len(paths) == 1
        assert paths[0].get("d").count("L") == 72

    def test_empty_events_still_valid(self, tmp_path):
        path = tmp_path / "e.svg"
        export_svg(np.array([[0.0, 0.0], [1.0, 0.0]]), str(path))
        ET.parse(path)  # parses without error

    # three columns, one column, none, no rows, one dimension
    @pytest.mark.parametrize(
        "prefix", [[[0.0, 0.0, 5.0], [1.0, 0.0, 7.0]], [[0.0], [1.0]], [[]], np.zeros((0, 2)), [0.0, 1.0]]
    )
    def test_rejects_prefixes_other_than_n_by_2(self, tmp_path, prefix):
        path = tmp_path / "bad.svg"
        with pytest.raises(ValueError, match=r"polyline must be an \(n, 2\) array"):
            export_svg(prefix, str(path))
        assert not path.exists()
