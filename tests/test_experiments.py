import concurrent.futures
import csv
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planehunt import experiments
from planehunt.experiments import (
    SWEEP_FIELDS,
    export_svg,
    flee_time_from_plan,
    impossibility_report,
    sample_targets,
    sweep_dynamic,
    sweep_static,
    write_rows_csv,
    write_rows_jsonl,
)
from planehunt.geometry import Point
from planehunt.searcher import dynamic_plan


class TestSampling:
    def test_deterministic_and_within_disc(self):
        a = sample_targets(7, 4.0, 0.25, [3])[0]
        b = sample_targets(7, 4.0, 0.25, [3])[0]
        assert a == b
        assert a.norm() <= 4.0

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
            with pytest.raises(ValueError, match="seed must be a non-negative integer"):
                sweep_static([1], [0.25], 2, seed)
            with pytest.raises(ValueError, match="seed must be a non-negative integer"):
                sweep_dynamic([0, 1], [0.25], D=1, samples=2, seed=seed)

    def test_numpy_integers_accepted(self):
        assert sweep_static([1], [0.25], 3, np.int64(7)) == sweep_static([1], [0.25], 3, 7)
        assert sweep_dynamic([1], [0.25], 1, 2, np.uint16(7)) == sweep_dynamic([1], [0.25], 1, 2, 7)


class TestSweepStatic:
    def test_guard_rejection(self):
        with pytest.raises(ValueError, match="guard"):
            sweep_static([32], [0.25], 1, 0)
        with pytest.raises(ValueError, match="guard"):
            sweep_static([1], [2.0 ** -10], 1, 0)

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
        with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
            sweep_static([1], [1 / 4], samples=1, seed=5, jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
            sweep_dynamic([0, 1], [1 / 4], D=1, samples=1, seed=5, jobs=jobs)

    def test_jobs_merge_is_deterministic(self):
        serial = sweep_static([1, 2, 4], [1 / 4, 1 / 16], samples=3, seed=5, jobs=1)
        parallel = sweep_static([1, 2, 4], [1 / 4, 1 / 16], samples=3, seed=5, jobs=2)
        assert serial == parallel


class TestSweepDynamic:
    def test_flee_time_from_plan(self):
        # half a unit of arc at speed 32 on the first diagonal
        assert flee_time_from_plan(dynamic_plan()) == pytest.approx(1 / 64)
        # beyond the first diagonal: 171 at speed 32, remainder at 1024
        t = flee_time_from_plan(dynamic_plan(), arc=200.0)
        assert t == pytest.approx(171 / 32 + 29 / 1024)

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


class TestImpossibilityReport:
    def test_crossover_and_slope(self):
        report = impossibility_report(2, 1.0, 12)
        assert report.crossover_m >= 1
        assert report.slope == pytest.approx(3.0, abs=0.05)
        ratios = [row.ratio for row in report.rows]
        after = [row for row in report.rows if row.m >= report.crossover_m]
        assert all(row.exceeds for row in after)
        assert all(b > a for a, b in zip(ratios[3:], ratios[4:]))

    def test_c3_row_matches_certificate(self):
        report = impossibility_report(3, 1.0, 4)
        # m=1 row is v=2, r=0.5: min_cost 64 from the closed form
        assert report.rows[0].min_cost == pytest.approx(64.0)

    def test_rejects_small_m_max(self):
        with pytest.raises(ValueError):
            impossibility_report(2, 1.0, 3)


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

    def test_byte_reproducible(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows_csv(sweep_static([1, 2], [1 / 4], samples=3, seed=2), str(p1))
        write_rows_csv(sweep_static([1, 2], [1 / 4], samples=3, seed=2), str(p2))
        assert p1.read_bytes() == p2.read_bytes()


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
