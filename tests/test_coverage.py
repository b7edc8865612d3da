import math

import numpy as np
import pytest

from planehunt.coverage import (
    area_bound,
    dynamic_lb,
    poly_speed_certificate,
    static_lb,
    tube_area,
)
from planehunt.trajectory import prefix_polyline


class TestTubeArea:
    def test_straight_tube_is_tight(self):
        report = tube_area(np.array([[0.0, 0.0], [2.0, 0.0]]), 0.5)
        expect = 2.0 + math.pi / 4  # rectangle plus two half-discs
        assert report.estimated_area == pytest.approx(expect, rel=0.02)
        assert report.analytic_bound == pytest.approx(expect)

    def test_degenerate_point_is_disc(self):
        report = tube_area(np.array([[1.0, 1.0]]), 1.0)
        assert report.estimated_area == pytest.approx(math.pi, rel=0.02)

    def test_doubled_segment_idempotent(self):
        once = tube_area(np.array([[0.0, 0.0], [2.0, 0.0]]), 0.5)
        twice = tube_area(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [2.0, 0.0]]), 0.5)
        assert twice.estimated_area == once.estimated_area

    def test_estimate_within_bound_plus_slack(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            steps = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)], size=15)
            poly = np.vstack([[0, 0], np.cumsum(steps, axis=0)]).astype(float)
            r = rng.uniform(0.1, 0.5)
            report = tube_area(poly, r, grid_res=128)
            assert report.estimated_area <= report.analytic_bound + report.slack

    @pytest.mark.parametrize(
        "polyline, r, grid_res, area",
        [
            ([[0.0, 0.0], [2.0, 0.0]], 0.5, 256, 2.7857666015625),
            ([[1.0, 1.0]], 1.0, 256, 3.141357421875),
            ([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [2.0, 0.0]], 0.5, 256, 2.7857666015625),
            ([[0.0, 0.0], [1.0, 0.0], [2.5, 1.75], [2.5, -0.5]], 0.3, 64, 3.481369628906249),
            (171.0, 0.25, 256, 23.792648315429688),
            (900.0, 0.0625, 256, 41.828835010528564),
            (4000.0, 0.00390625, 128, 10.461880642920732),
        ],
        ids=["straight", "point", "doubled", "slanted", "prefix-171", "prefix-900", "prefix-4000"],
    )
    def test_recorded_areas_bit_identical(self, polyline, r, grid_res, area):
        # values recorded from the per-segment meshgrid rasterizer this one replaced
        if isinstance(polyline, float):
            polyline = prefix_polyline(polyline)
        assert tube_area(np.array(polyline), r, grid_res=grid_res).estimated_area == area

    def test_random_walk_areas_bit_identical(self):
        rng = np.random.default_rng(9)
        recorded = [
            1.3231601994976423, 5.907157526300307, 11.396188159376143,
            9.69110318927263, 6.988515888854473, 5.3308758999197,
            3.6973863996685963, 2.452979174165343, 7.180986951651405,
            7.488783117038008,
        ]
        for area in recorded:
            steps = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)], size=15)
            poly = np.vstack([[0, 0], np.cumsum(steps, axis=0)]).astype(float)
            r = rng.uniform(0.1, 0.5)
            assert tube_area(poly, r, grid_res=128).estimated_area == area

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            tube_area(np.array([[0.0, 0.0]]), 0.0)
        with pytest.raises(ValueError):
            tube_area(np.array([[0.0, 0.0]]), 1.0, grid_res=16)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_radius(self, r):
        with pytest.raises(ValueError, match="finite"):
            tube_area(np.array([[0.0, 0.0], [1.0, 0.0]]), r, grid_res=32)


class TestAreaBound:
    def test_examples(self):
        assert area_bound(2, 0.5) == pytest.approx(2.7853981633974483)
        assert area_bound(0, 1) == pytest.approx(math.pi)
        assert area_bound(171, 0.25) == pytest.approx(2 * 0.25 * 171 + math.pi / 16)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            area_bound(-1, 0.5)
        with pytest.raises(ValueError):
            area_bound(1, 0)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_radius(self, r):
        with pytest.raises(ValueError, match="finite"):
            area_bound(1, r)


class TestStaticLowerBound:
    def test_examples(self):
        assert static_lb(4, 1 / 16) == pytest.approx(96.0)
        assert static_lb(2, 1 / 4) == pytest.approx(3.0)

    def test_below_upper_bound_on_swept_pairs(self):
        from planehunt.trajectory import predict_static

        for D in (1, 2, 4, 8, 16):
            for r in (1 / 4, 1 / 16, 1 / 64, 1 / 256):
                assert static_lb(D, r) <= predict_static(D, r).cost_bound

    def test_monotone(self):
        assert static_lb(4, 1 / 16) < static_lb(8, 1 / 16)
        assert static_lb(4, 1 / 16) < static_lb(4, 1 / 64)

    def test_regime_rejection(self):
        with pytest.raises(ValueError):
            static_lb(0.5, 1.0)  # log2 D + log2 1/r = -1


class TestDynamicLowerBound:
    def test_example(self):
        assert dynamic_lb(4, 1 / 4, 1.0) == pytest.approx(2.0)

    def test_vanishes_with_t0(self):
        assert dynamic_lb(4, 1 / 4, 1e-9) < 1e-15

    def test_doubling_v_more_than_quadruples(self):
        base = dynamic_lb(4, 1 / 4, 1.0)
        assert dynamic_lb(8, 1 / 4, 1.0) > 4 * base

    def test_regime_rejection(self):
        with pytest.raises(ValueError):
            dynamic_lb(0.5, 1.0, 1.0)


class TestPolySpeedCertificate:
    def test_example(self):
        cert = poly_speed_certificate(3, 2.0, 0.5, 1.0)
        assert cert.min_catch_time == pytest.approx(4.0)
        assert cert.min_cost == pytest.approx(64.0)
        assert cert.beta == pytest.approx(2.0)

    def test_exceeds_threshold_and_stays(self):
        flags = [
            poly_speed_certificate(2, 2.0 ** m, 2.0 ** (-m), 1.0).exceeds
            for m in range(1, 13)
        ]
        first_true = flags.index(True)
        assert all(flags[first_true:])

    def test_slope_approaches_beta(self):
        xs, ys = [], []
        for m in range(9, 13):
            cert = poly_speed_certificate(2, 2.0 ** m, 2.0 ** (-m), 1.0)
            xs.append(math.log(cert.v ** 2 / cert.r))
            ys.append(math.log(cert.min_cost))
        slope = np.polyfit(xs, ys, 1)[0]
        assert slope == pytest.approx(3.0, abs=0.05)

    def test_ratio_eventually_monotone(self):
        ratios = []
        for m in range(1, 13):
            cert = poly_speed_certificate(2, 2.0 ** m, 2.0 ** (-m), 1.0)
            ratios.append(cert.min_cost / cert.optimal_cost)
        tail = ratios[3:]
        assert all(b > a for a, b in zip(tail, tail[1:]))

    def test_rejects_c1_and_bad_params(self):
        with pytest.raises(ValueError):
            poly_speed_certificate(1, 2.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            poly_speed_certificate(2, 0.5, 0.5, 1.0)
        with pytest.raises(ValueError):
            poly_speed_certificate(2, 2.0, 1.5, 1.0)
