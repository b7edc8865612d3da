"""Closed-form bounds and predictions: any non-finite argument raises ValueError."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from planehunt.coverage import area_bound, dynamic_lb, static_lb
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
