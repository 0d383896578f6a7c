import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustnet import DirectTrustSource, build_environment, decay_weight, direct_trust

from helpers import rec

ratings_list = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=12
)


def test_decay_weight_zero_elapsed():
    assert decay_weight(10.0, 10.0, 0.5) == 1.0


def test_decay_weight_zero_rate():
    assert decay_weight(0.0, 10.0, 0.0) == 1.0


def test_decay_weight_exponential():
    assert decay_weight(0.0, 10.0, 0.1) == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_single_interaction_same_category():
    env = build_environment([rec("A", "B", 0.6, "c1", 3.0)], 10.0, 0.7)
    result = direct_trust(env, "A", "B", "c1")
    assert result.value == 0.6
    assert result.source is DirectTrustSource.SAME_CATEGORY
    assert result.n_same == 1 and result.n_other == 0


def test_two_interaction_decay_example():
    log = [rec("A", "B", 1.0, "c1", 0.0), rec("A", "B", 0.0, "c1", 9.0)]
    result = direct_trust(build_environment(log, 10.0, 0.1), "A", "B", "c1")
    w_old, w_new = math.exp(-1.0), math.exp(-0.1)
    expected = (1.0 * w_old + 0.0 * w_new) / (w_old + w_new)
    assert result.value == pytest.approx(expected, abs=1e-15)
    assert result.value == pytest.approx(0.289050, abs=1e-6)


def test_cross_category_fallback_unweighted_over_categories():
    log = [
        rec("A", "B", 0.4, "c1", 1.0),
        rec("A", "B", 0.4, "c1", 2.0),
        rec("A", "B", 0.4, "c1", 3.0),
        rec("A", "B", 0.8, "c2", 4.0),
    ]
    result = direct_trust(build_environment(log, 10.0, 0.0), "A", "B", "c9")
    # per-category means 0.4 and 0.8, then the unweighted mean over the
    # two categories regardless of their interaction counts
    assert result.value == pytest.approx(0.6, abs=1e-12)
    assert result.source is DirectTrustSource.CROSS_CATEGORY
    assert result.n_same == 0 and result.n_other == 4


def test_no_history_yields_none():
    result = direct_trust(build_environment([], 10.0, 0.1), "A", "B", "c1")
    assert result.value is None
    assert result.source is DirectTrustSource.NONE
    assert result.n_same == result.n_other == 0


def test_only_future_interactions_yield_none():
    env = build_environment([rec("A", "B", 0.9, "c1", 10.0)], 10.0, 0.0)
    result = direct_trust(env, "A", "B", "c1")
    assert result.value is None


@given(ratings_list)
@settings(max_examples=80)
def test_zero_decay_equals_plain_mean(values):
    log = [rec("A", "B", r, "c1", float(i)) for i, r in enumerate(values)]
    result = direct_trust(build_environment(log, 100.0, 0.0), "A", "B", "c1")
    assert result.value == sum(values) / len(values)


@given(ratings_list, st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
@settings(max_examples=60)
def test_value_stays_in_unit_interval(values, rate):
    log = [rec("A", "B", r, "c1", float(i)) for i, r in enumerate(values)]
    result = direct_trust(build_environment(log, 100.0, rate), "A", "B", "c1")
    assert 0.0 <= result.value <= 1.0


def test_increasing_decay_rate_moves_toward_recent():
    log = [rec("A", "B", 1.0, "c1", 0.0), rec("A", "B", 0.2, "c1", 9.0)]
    recent = 0.2
    values = [
        direct_trust(build_environment(log, 10.0, rate), "A", "B", "c1").value
        for rate in (0.0, 0.5, 1.0, 2.0)
    ]
    gaps = [abs(v - recent) for v in values]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < gaps[0]


def test_time_shift_covariance_exact_for_representable_shifts():
    log = [rec("A", "B", 0.9, "c1", 2.0), rec("A", "B", 0.1, "c1", 7.0)]
    base = direct_trust(build_environment(log, 10.0, 0.3), "A", "B", "c1").value
    for shift in (1.0, 64.0, 1024.0):
        shifted_log = [rec("A", "B", r.rating, "c1", r.time + shift) for r in log]
        shifted_env = build_environment(shifted_log, 10.0 + shift, 0.3)
        shifted = direct_trust(shifted_env, "A", "B", "c1").value
        assert shifted == base


@given(
    ratings_list,
    st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)
@settings(max_examples=60)
def test_time_shift_covariance_approximate(values, rate, shift):
    log = [rec("A", "B", r, "c1", float(i)) for i, r in enumerate(values)]
    base = direct_trust(build_environment(log, 100.0, rate), "A", "B", "c1").value
    shifted_log = [rec("A", "B", r.rating, "c1", r.time + shift) for r in log]
    shifted_env = build_environment(shifted_log, 100.0 + shift, rate)
    shifted = direct_trust(shifted_env, "A", "B", "c1").value
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)
