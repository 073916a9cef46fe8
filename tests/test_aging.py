import numpy as np
import pytest
from hypothesis import given, strategies as st

from aoisim.aging import AgingKind, age_forward, aoi_value, linear_only


def test_linear_values_are_plain_ages():
    assert [aoi_value(AgingKind.LINEAR, t, 0) for t in range(6)] == [0, 1, 2, 3, 4, 5]


def test_exponential_values_double_each_slot():
    assert [aoi_value(AgingKind.EXPONENTIAL, t, 0) for t in range(1, 6)] == [1, 2, 4, 8, 16]


def test_degenerate_age_at_generation_slot():
    assert aoi_value(AgingKind.LINEAR, 7, 7) == 0
    assert aoi_value(AgingKind.EXPONENTIAL, 7, 7) == 0.5


def test_evaluation_before_generation_rejected():
    with pytest.raises(ValueError):
        aoi_value(AgingKind.LINEAR, 3, 4)


def test_exponential_ages_are_exact_integers():
    v = aoi_value(AgingKind.EXPONENTIAL, 1000, 0)
    assert isinstance(v, int)
    assert v == 1 << 999


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=8),
       st.sampled_from(list(AgingKind)))
def test_age_forward_matches_direct_evaluation(elapsed, steps, kind):
    # a scheduler advancing a reported age must land on the true future age
    delta = 5
    t = delta + elapsed
    now = aoi_value(kind, t, delta)
    if kind is AgingKind.EXPONENTIAL and elapsed == 0:
        return  # degenerate 0.5 never reaches a scheduler
    assert age_forward(kind, now, steps) == aoi_value(kind, t + steps, delta)


@given(st.lists(st.floats(min_value=0.0, allow_nan=False), min_size=1, max_size=8),
       st.integers(min_value=0, max_value=1023))
def test_float_doubling_equals_the_power_of_two_product(ages, steps):
    # float ages advance through ldexp: below steps = 1024, where the product
    # with the exact int 2**steps is still defined, the two agree bit for bit
    ages = np.array(ages)
    with np.errstate(over="ignore"):
        doubled = age_forward(AgingKind.EXPONENTIAL, ages, steps)
        assert doubled.tobytes() == (ages * (1 << steps)).tobytes()


def test_float_doubling_saturates_past_float_range():
    ages = np.array([1.0, 3.0, 2.0**-1000, np.inf])
    with np.errstate(over="ignore"):
        doubled = age_forward(AgingKind.EXPONENTIAL, ages, 1100)
    assert doubled.tolist() == [np.inf, np.inf, 2.0**100, np.inf]
    # exact ints keep the int path
    assert age_forward(AgingKind.EXPONENTIAL, 3, 1100) == 3 << 1100


def test_age_forward_rejects_negative_steps():
    with pytest.raises(ValueError):
        age_forward(AgingKind.LINEAR, 3, -1)


def test_linear_only_set_prefix():
    ages = np.arange(1, 17, dtype=np.float64)
    flagged = ages[linear_only(ages)].tolist()
    assert flagged == [3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15]


@given(st.integers(min_value=1, max_value=10**9))
def test_attainability_split(v):
    # every v >= 1 is a linear age; exponential ages are the powers of two
    power_of_two = v & (v - 1) == 0
    assert linear_only(np.array([v], dtype=np.float64))[0] == (not power_of_two)


@given(st.integers(min_value=1, max_value=60))
def test_every_exponential_age_is_power_of_two(k):
    v = aoi_value(AgingKind.EXPONENTIAL, k, 0)
    assert v & (v - 1) == 0
    assert not linear_only(np.array([v], dtype=np.float64))[0]
