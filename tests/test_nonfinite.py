"""Closed-form bounds and predictions: any non-finite argument raises ValueError."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from planehunt.coverage import area_bound, dynamic_lb, poly_speed_certificate, static_lb
from planehunt.searcher import predict_dynamic
from planehunt.trajectory import predict_static

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
POSITIVE = st.floats(min_value=2.0 ** -10, max_value=2.0 ** 10)

# function -> strategies for finite arguments inside its domain
CASES = [
    (static_lb, (POSITIVE, POSITIVE)),
    (dynamic_lb, (POSITIVE, POSITIVE, POSITIVE)),
    (area_bound, (st.floats(min_value=0.0, max_value=2.0 ** 20), POSITIVE)),
    (predict_static, (POSITIVE, POSITIVE)),
    (predict_dynamic, (POSITIVE, st.floats(min_value=0.0, max_value=16.0), POSITIVE)),
]
IDS = [fn.__name__ for fn, _ in CASES]


@pytest.mark.parametrize("fn, finite", CASES, ids=IDS)
@given(data=st.data())
def test_non_finite_argument_raises_value_error(fn, finite, data):
    args = [data.draw(s) for s in finite]
    args[data.draw(st.integers(0, len(args) - 1))] = data.draw(NON_FINITE)
    with pytest.raises(ValueError, match="finite"):
        fn(*args)


@pytest.mark.parametrize("fn, finite", CASES, ids=IDS)
@given(data=st.data())
def test_finite_arguments_give_a_finite_value(fn, finite, data):
    args = [data.draw(s) for s in finite]
    try:
        result = fn(*args)
    except ValueError as exc:
        # the log-term bounds only hold for log2 D + log2 1/r > 0
        assert fn in (static_lb, dynamic_lb) and "regime" in str(exc)
        return
    assert math.isfinite(result if isinstance(result, float) else result.cost_bound)


@pytest.mark.parametrize(
    "call",
    [
        lambda: static_lb(math.nan, 0.1),
        lambda: static_lb(math.inf, 0.1),
        lambda: dynamic_lb(1, math.nan, 0.1),
        lambda: area_bound(math.nan, 1.0),
        lambda: predict_static(math.inf, 0.1),
        lambda: predict_dynamic(1, math.inf, 0.1),
    ],
    ids=["static_lb-nan", "static_lb-inf", "dynamic_lb-nan", "area_bound-nan",
         "predict_static-inf", "predict_dynamic-inf"],
)
def test_reported_cases(call):
    # each returned nan or inf, or raised OverflowError, before
    with pytest.raises(ValueError, match="finite"):
        call()


FINITE_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(D=FINITE_POSITIVE, v=st.one_of(st.just(0.0), FINITE_POSITIVE), r=FINITE_POSITIVE)
def test_predictions_over_the_whole_float_range(D, v, r):
    # a finite cost bound or ValueError: never OverflowError, never a hang
    for predict, args in ((predict_static, (D, r)), (predict_dynamic, (D, v, r))):
        try:
            bound = predict(*args).cost_bound
        except ValueError:
            continue
        assert math.isfinite(bound)


@pytest.mark.parametrize(
    "call",
    [
        lambda: predict_dynamic(1, 100, 0.1),
        lambda: predict_dynamic(1, 1e5, 0.1),
        lambda: predict_dynamic(2.0 ** 203, 1, 0.1),
        lambda: predict_static(1e300, 0.1),
        lambda: predict_static(1, 5e-324),
    ],
    ids=["dynamic-v100", "dynamic-v1e5", "dynamic-D2^203", "static-D1e300", "static-r-subnormal"],
)
def test_predictions_beyond_the_float_range_raise_value_error(call):
    # OverflowError, a 20 s hang, OverflowError (speed 2^(5 * 205)), OverflowError
    # and OverflowError (1/r is inf) before
    with pytest.raises(ValueError, match="float range"):
        call()


def test_predictions_at_the_edge_of_the_float_range():
    assert predict_dynamic(2.0 ** 202, 1, 0.1).y == 204
    assert predict_static(2.0 ** 503, 1).y == 503
    assert predict_static(2.0 ** 503, 1).cost_bound == 80.0 * 503 * 2.0 ** 1008


# poly_speed_certificate's domain: integer c >= 2, v >= 1, 0 < r < 1, d > 0
SPEED_EXPONENT = st.integers(2, 6)
CERT_ARGS = (
    st.floats(min_value=1.0, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    FINITE_POSITIVE,
)


@given(c=SPEED_EXPONENT, data=st.data())
def test_poly_speed_certificate_rejects_a_non_finite_argument(c, data):
    # a nan or inf d, and a nan or inf v, returned nan or inf columns before
    args = [data.draw(s) for s in CERT_ARGS]
    args[data.draw(st.integers(0, 2))] = data.draw(NON_FINITE)
    with pytest.raises(ValueError, match="finite"):
        poly_speed_certificate(c, *args)


@given(c=SPEED_EXPONENT, v=CERT_ARGS[0], r=CERT_ARGS[1], d=CERT_ARGS[2])
@example(c=2, v=1.0, r=0.9999999999999999, d=5e-324)  # optimal_cost underflows to 0
def test_poly_speed_certificate_is_finite_or_beyond_the_float_range(c, v, r, d):
    # finite costs and ratio or ValueError: never OverflowError, never an inf column
    try:
        cert = poly_speed_certificate(c, v, r, d)
    except ValueError as exc:
        assert "float range" in str(exc)
        return
    assert all(map(math.isfinite, (cert.min_catch_time, cert.min_cost, cert.optimal_cost)))
    assert cert.optimal_cost > 0 and math.isfinite(cert.min_cost / cert.optimal_cost)


@given(c=st.integers(2, 10**400), v=CERT_ARGS[0], r=CERT_ARGS[1], d=CERT_ARGS[2])
@example(c=10**309, v=2.0, r=0.5, d=1.0)  # raised OverflowError: int too large to convert to float
@example(c=10**5000, v=2.0, r=0.5, d=1.0)  # more digits than int converts to str
@example(c=10**300, v=1.0, r=0.5, d=1.0)  # finite
def test_poly_speed_certificate_of_any_integer_c_is_finite_or_beyond_the_float_range(c, v, r, d):
    try:
        cert = poly_speed_certificate(c, v, r, d)
    except ValueError as exc:
        assert "float range" in str(exc)
        return
    assert all(map(math.isfinite, (cert.min_catch_time, cert.min_cost, cert.optimal_cost, cert.beta)))
