import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustnet import (
    AgentProfile,
    Interaction,
    InvalidRecordError,
    TrustConfig,
    UnknownAgentError,
    build_environment,
    edge_weight,
)

from trustnet.core import check_interaction, finite_float

from helpers import logs, rec


def test_empty_log_yields_no_edges():
    env = build_environment([], 100.0)
    assert env.edges == {}
    assert env.agents == {}


def test_single_interaction_edge():
    env = build_environment([rec("A", "B", 0.6, "c1", 5.0)], 10.0, 0.0)
    assert edge_weight(env, "A", "B") == 0.6
    assert env.edges[("A", "B")].per_category["c1"].count == 1


def test_snapshot_time_filter_is_strict():
    log = [rec("A", "B", 1.0, "c1", 0.0), rec("A", "B", 0.0, "c1", 10.0)]
    env = build_environment(log, 10.0, 0.0)
    assert edge_weight(env, "A", "B") == 1.0
    assert env.edges[("A", "B")].per_category["c1"].count == 1


def test_edge_weight_is_mean_over_categories():
    log = [rec("A", "B", 0.4, "c1", 1.0), rec("A", "B", 0.8, "c2", 2.0)]
    env = build_environment(log, 10.0, 0.0)
    # independent recomputation from the log: one rating per category
    expected = (0.4 + 0.8) / 2
    assert edge_weight(env, "A", "B") == pytest.approx(expected, abs=1e-15)


def test_edge_weight_absent_and_unknown():
    env = build_environment([rec("A", "B", 0.5)], 10.0)
    assert edge_weight(env, "B", "A") is None
    with pytest.raises(UnknownAgentError):
        edge_weight(env, "A", "Z")


def test_invalid_rating_rejected_with_index():
    log = [rec("A", "B", 0.5), Interaction("A", "B", 1.5, "c1", 0.0)]
    with pytest.raises(InvalidRecordError) as exc:
        build_environment(log, 10.0)
    assert exc.value.index == 1
    assert "rating" in str(exc.value)


def test_self_interaction_rejected_with_index():
    with pytest.raises(InvalidRecordError) as exc:
        build_environment([Interaction("A", "A", 0.5, "c1", 0.0)], 10.0)
    assert exc.value.index == 0


def test_declared_newcomer_appears_without_edges():
    profile = AgentProfile(id="N", completed=frozenset(), able=frozenset({"c1"}))
    env = build_environment([rec("A", "B", 0.5)], 10.0, profiles=[profile])
    assert "N" in env.agents
    assert env.agents["N"].able == {"c1"}
    assert env.neighbours("N") == ()


def test_trustee_interactions_extend_completed_set():
    env = build_environment([rec("A", "B", 0.5, "c2", 1.0)], 10.0)
    assert "c2" in env.agents["B"].completed
    assert env.agents["B"].able == env.agents["B"].completed
    assert env.agents["A"].completed == frozenset()


def test_declared_ability_taken_verbatim():
    declared = AgentProfile(id="B", completed=frozenset(), able=frozenset({"c9"}))
    env = build_environment([rec("A", "B", 0.5, "c2", 1.0)], 10.0, profiles=[declared])
    assert env.agents["B"].completed == {"c2"}
    assert env.agents["B"].able == {"c9"}


def test_decayed_edge_weight_matches_formula():
    log = [rec("A", "B", 1.0, "c1", 0.0), rec("A", "B", 0.0, "c1", 9.0)]
    env = build_environment(log, 10.0, 0.1)
    w1, w2 = math.exp(-0.1 * 10.0), math.exp(-0.1 * 1.0)
    assert edge_weight(env, "A", "B") == pytest.approx(w1 / (w1 + w2), abs=1e-15)


@given(logs(max_size=25), st.permutations(range(25)))
@settings(max_examples=60)
def test_build_is_order_independent(log, perm):
    env_a = build_environment(log, 100.0, 0.05)
    shuffled = [log[i] for i in perm if i < len(log)]
    env_b = build_environment(shuffled, 100.0, 0.05)
    assert env_a == env_b


@given(logs(max_size=20))
@settings(max_examples=60)
def test_all_edge_weights_in_unit_interval(log):
    env = build_environment(log, 100.0, 0.02)
    for stats in env.edges.values():
        assert 0.0 <= stats.weight <= 1.0
        for cat_stats in stats.per_category.values():
            assert 0.0 <= cat_stats.decayed_trust <= 1.0


@given(logs(max_size=20))
@settings(max_examples=40)
def test_future_interactions_do_not_change_snapshot(log):
    env_a = build_environment(log, 50.0, 0.01)
    env_b = build_environment(log + [rec("A", "B", 0.3, "c1", 50.0)], 50.0, 0.01)
    env_c = build_environment(log + [rec("A", "B", 0.3, "c1", 77.0)], 50.0, 0.01)
    assert env_a == env_b == env_c


def test_config_bounds():
    with pytest.raises(ValueError, match=r"q must lie in \(0,1\)"):
        TrustConfig(damping=1.5)
    with pytest.raises(ValueError):
        TrustConfig(path_decay=0.0)
    with pytest.raises(ValueError):
        TrustConfig(trust_threshold=-0.1)
    with pytest.raises(ValueError):
        TrustConfig(tolerance=0.0)


def test_config_defaults():
    cfg = TrustConfig()
    assert cfg.damping == 0.85
    assert cfg.tolerance == 1e-10
    assert cfg.path_decay == 0.9
    assert cfg.trust_threshold == 0.5
    assert cfg.path_threshold == 0.5
    assert cfg.decay_rate == 0.01
    assert cfg.recency_rate == 0.01
    assert cfg.max_iterations == 1000


@pytest.mark.parametrize(
    "field, value",
    [
        ("decay_rate", math.nan),
        ("recency_rate", math.inf),
        ("tolerance", math.inf),
        ("max_iterations", math.inf),
        ("search_steps", math.nan),
        ("search_seconds", math.inf),
        ("pagerank_seconds", -math.inf),
        ("trust_threshold", math.nan),
    ],
)
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match="must be finite"):
        TrustConfig(**{field: value})


def test_config_none_means_unlimited_only_for_budgets():
    TrustConfig(search_steps=None, search_seconds=None, pagerank_seconds=None)
    with pytest.raises(TypeError):
        TrustConfig(tolerance=None)


@pytest.mark.parametrize("snapshot_time", [math.inf, -math.inf, math.nan])
def test_build_rejects_non_finite_snapshot_time(snapshot_time):
    with pytest.raises(ValueError, match="snapshot time"):
        build_environment([rec("A", "B", 0.5)], snapshot_time)


@pytest.mark.parametrize("decay_rate", [-0.1, math.inf, math.nan])
def test_build_rejects_bad_decay_rate(decay_rate):
    with pytest.raises(ValueError, match="decay rate"):
        build_environment([rec("A", "B", 0.5)], 10.0, decay_rate)


@pytest.mark.parametrize(
    "bad",
    [
        Interaction("", "B", 0.5, "c1", 0.0),
        Interaction("A", None, 0.5, "c1", 0.0),
        Interaction("A", "A", 0.5, "c1", 0.0),
        Interaction("A", "B", 0.5, "", 0.0),
        Interaction("A", "B", True, "c1", 0.0),
        Interaction("A", "B", "0.5", "c1", 0.0),
        Interaction("A", "B", math.nan, "c1", 0.0),
        Interaction("A", "B", 0.5, "c1", -1.0),
        Interaction("A", "B", 0.5, "c1", math.inf),
    ],
)
def test_invalid_record_is_named_with_its_index_and_problem(bad):
    log = [rec("A", "B", 0.5), rec("B", "C", 0.5), bad, Interaction("", "", 2.0, "", -1.0)]
    with pytest.raises(InvalidRecordError) as exc:
        build_environment(log, 10.0)
    assert exc.value.index == 2
    assert str(exc.value) == f"record 2: {check_interaction(bad)[1]}"


def test_numbers_of_float_subclasses_build_like_floats():
    plain = [rec("A", "B", 0.25, "c1", 1.0), rec("A", "B", 1, "c1", 2)]
    numpy = [rec("A", "B", np.float64(0.25), "c1", np.float64(1.0)), rec("A", "B", 1, "c1", 2)]
    assert build_environment(numpy, 10.0, 0.1) == build_environment(plain, 10.0, 0.1)


def test_decayed_trust_equals_a_sequential_math_exp_reference():
    # At these times, with rate 0.05 at time 10, np.exp and math.exp differ in
    # the last bit of the weight.
    times = [0.24, 0.48, 0.695, 0.74, 0.875, 1.11]
    ratings = [0.1, 0.9, 0.35, 0.7, 0.2, 0.95]
    exponents = [-0.05 * (10.0 - t) for t in times]
    assert any(float(np.exp(x)) != math.exp(x) for x in exponents), "times no longer exercise np.exp"
    # Built in reverse order, so only the canonical sort restores time order.
    log = [rec("A", "B", r, "c1", t) for r, t in zip(ratings, times)][::-1]
    env = build_environment(log, 10.0, 0.05)
    num = den = 0.0
    for r, t in zip(ratings, times):  # canonical order: ascending time
        w = math.exp(-0.05 * (10.0 - t))
        num += r * w
        den += w
    assert env.edges[("A", "B")].per_category["c1"].decayed_trust == num / den
    # The same sums over np.exp weights miss the reference in the last bit.
    num = den = 0.0
    for r, x in zip(ratings, exponents):
        num += r * float(np.exp(x))
        den += float(np.exp(x))
    assert num / den != env.edges[("A", "B")].per_category["c1"].decayed_trust


# --- one number rule for every input -------------------------------------------

HUGE = 10**400  # an int beyond the float range


@pytest.mark.parametrize(
    "value, expected",
    [
        (0, 0.0), (1, 1.0), (0.25, 0.25), (np.float64(0.5), 0.5), (-3, -3.0),
        (True, None), (None, None), ("0.5", None), (math.nan, None), (math.inf, None),
        (-math.inf, None), (HUGE, None), (-HUGE, None), (np.int64(1), None),
    ],
    ids=lambda v: repr(v) if len(repr(v)) < 20 else "huge",
)
def test_finite_float_is_the_number_rule(value, expected):
    assert finite_float(value) == expected


@pytest.mark.parametrize(
    "bad, field",
    [
        (Interaction(1, "B", 0.5, "c1", 1), "trustor"),
        (Interaction("A", b"B", 0.5, "c1", 1), "trustee"),
        (Interaction("A", "B", 0.5, 7, 1), "category"),
        (Interaction("A", "B", 0.5, "c1", HUGE), "time"),
        (Interaction("A", "B", HUGE, "c1", 1), "rating"),
        (Interaction("A", "B", None, "c1", 1), "rating"),
    ],
)
def test_build_rejects_each_field_by_the_record_rule(bad, field):
    with pytest.raises(InvalidRecordError) as exc:
        build_environment([rec("A", "B", 0.5), bad], 10.0)
    assert exc.value.index == 1
    assert str(exc.value).startswith(f"record 1: {field} ")
    assert check_interaction(bad)[0] == field


@pytest.mark.parametrize(
    "snapshot_time, decay_rate",
    [(HUGE, 0.0), (10.0, HUGE), ("10", 0.0)],
    ids=["huge-time", "huge-rate", "string-time"],
)
def test_build_rejects_a_clock_beyond_the_number_rule(snapshot_time, decay_rate):
    with pytest.raises(ValueError, match="must be finite"):
        build_environment([rec("A", "B", 0.5)], snapshot_time, decay_rate)


def test_int_fields_of_the_config_take_only_ints():
    with pytest.raises(TypeError, match="max_iter must be an integer"):
        TrustConfig(max_iterations=2.5)
    with pytest.raises(TypeError, match="search_steps must be an integer or null"):
        TrustConfig(search_steps=3.0)
    with pytest.raises(TypeError, match="theta_r must be a number"):
        TrustConfig(trust_threshold=None)
    with pytest.raises(TypeError, match="q must be a number"):
        TrustConfig(damping=True)


@pytest.mark.parametrize("field", ["tolerance", "max_iterations", "search_seconds"])
def test_config_rejects_ints_beyond_the_float_range(field):
    with pytest.raises(ValueError, match="must be finite"):
        TrustConfig(**{field: HUGE})
