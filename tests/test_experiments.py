import csv
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from planehunt import experiments
from planehunt.experiments import (
    SWEEP_FIELDS,
    export_svg,
    flee_time_from_plan,
    impossibility_report,
    sample_target,
    sweep_dynamic,
    sweep_static,
    write_rows_csv,
    write_rows_jsonl,
)
from planehunt.geometry import Point
from planehunt.searcher import dynamic_plan


class TestSampling:
    def test_deterministic_and_within_disc(self):
        a = sample_target(7, 4.0, 0.25, 3)
        b = sample_target(7, 4.0, 0.25, 3)
        assert a == b
        assert a.norm() <= 4.0

    def test_keyed_by_values_not_order(self):
        # same (seed, D, r, idx) regardless of which sweep asks
        a = sample_target(7, 1.0, 0.25, 0)
        b = sample_target(7, 1.0, 0.25, 0)
        c = sample_target(8, 1.0, 0.25, 0)
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
                        assert sample_target(seed, D, r, i) == want


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

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
        serial = sweep_static([1, 2, 4], [1 / 4], samples=2, seed=5, jobs=1)
        assert sweep_static([1, 2, 4], [1 / 4], samples=2, seed=5, jobs=1000) == serial
        sweep_static([1, 2, 4], [1 / 4, 1 / 16], samples=1, seed=5, jobs=1000)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
        sweep_static([1, 2], [1 / 4], samples=1, seed=5, jobs=1000)
        assert requested == [3, 4, 1]

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
        export_svg(prefix_polyline(diagonal_length(1)), [], str(path))
        root = ET.parse(path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        paths = root.findall(f"{ns}path")
        assert len(paths) == 1
        assert paths[0].get("d").count("L") == 72

    def test_empty_events_still_valid(self, tmp_path):
        path = tmp_path / "e.svg"
        export_svg(np.array([[0.0, 0.0], [1.0, 0.0]]), [], str(path))
        ET.parse(path)  # parses without error

    def test_sensing_marker_present(self, tmp_path):
        path = tmp_path / "m.svg"
        export_svg(
            np.array([[0.0, 0.0], [1.0, 0.0]]),
            [("sense", Point(0.5, 0.0))],
            str(path),
        )
        root = ET.parse(path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        labels = [c.get("data-label") for c in root.findall(f"{ns}circle")]
        assert "sense" in labels
