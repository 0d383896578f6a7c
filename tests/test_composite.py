import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustnet import (
    AgentProfile,
    CapabilityError,
    CompositeInputs,
    TrustConfig,
    UnknownAgentError,
    alpha,
    beta,
    build_environment,
    build_reputation,
    combine,
    dt_min,
    evaluate,
    find_paths,
    load_snapshot,
    save_snapshot,
)

from helpers import rec

CFG = TrustConfig(decay_rate=0.0, recency_rate=0.0)


def inputs(n_same=0, n_other=0, n_paths=0, bar=4.0, did=True):
    return CompositeInputs(
        n_same=n_same,
        n_other=n_other,
        n_paths=n_paths,
        dt_min=bar,
        trustee_did_category=did,
    )


# --- evidence bar ----------------------------------------------------------

def test_dt_min_floor_without_interactions():
    assert dt_min(build_environment([], 10.0), "c1") == 1.0


def test_dt_min_counts_per_participant():
    agents = ["A", "B", "C", "D", "E"]
    log = [
        rec(agents[i % 5], agents[(i + 1) % 5], 0.5, "c1", float(i)) for i in range(10)
    ]
    assert len({r.trustor for r in log} | {r.trustee for r in log}) == 5
    assert dt_min(build_environment(log, 100.0), "c1") == 2.0


def test_dt_min_floors_small_ratios():
    log = [
        rec("A", "B", 0.5, "c1", 1.0),
        rec("B", "C", 0.5, "c1", 2.0),
        rec("C", "D", 0.5, "c1", 3.0),
    ]
    assert dt_min(build_environment(log, 100.0), "c1") == 1.0


def test_dt_min_ignores_other_categories_and_future():
    log = [rec("A", "B", 0.5, "c2", 1.0), rec("A", "B", 0.5, "c1", 50.0)]
    assert dt_min(build_environment(log, 10.0), "c1") == 1.0


# --- weights ---------------------------------------------------------------

def test_alpha_newcomer_is_zero():
    assert alpha(inputs(n_same=0, n_other=0)) == 0.0


def test_alpha_cross_category_half_at_bar():
    assert alpha(inputs(n_same=0, n_other=4, bar=4.0)) == 0.5


def test_alpha_cross_category_below_bar():
    assert alpha(inputs(n_same=0, n_other=3, bar=4.0)) == pytest.approx(3 / 8, abs=1e-15)


def test_alpha_partial_same_category():
    assert alpha(inputs(n_same=3, bar=4.0)) == 0.75


def test_alpha_full_weight_at_bar():
    assert alpha(inputs(n_same=4, bar=4.0)) == 1.0
    assert alpha(inputs(n_same=9, bar=4.0)) == 1.0


def test_alpha_boundary_continuity():
    below = alpha(inputs(n_same=4, bar=4.0 + 1e-9))
    at = alpha(inputs(n_same=4, bar=4.0))
    assert at == 1.0
    assert below == pytest.approx(1.0, abs=1e-9)


def test_beta_zero_for_untried_category():
    assert beta(0.3, inputs(n_paths=7, did=False)) == 0.0


def test_beta_partial_paths():
    assert beta(0.5, inputs(n_paths=2, bar=4.0)) == 0.25


def test_beta_full_remainder_at_bar():
    assert beta(0.25, inputs(n_paths=4, bar=4.0)) == 0.75


count = st.integers(min_value=0, max_value=40)
bar = st.floats(min_value=1.0, max_value=20.0, allow_nan=False)


@given(count, count, count, bar, st.booleans())
@settings(max_examples=200)
def test_weights_stay_in_simplex(n_same, n_other, n_paths, bar_value, did):
    row = inputs(n_same=n_same, n_other=n_other, n_paths=n_paths, bar=bar_value, did=did)
    a = alpha(row)
    b = beta(a, row)
    assert 0.0 <= a <= 1.0
    assert 0.0 <= b <= 1.0
    assert a + b <= 1.0 + 1e-12


@given(count, count, count, bar)
@settings(max_examples=120)
def test_alpha_monotone_in_same_count_once_present(n_same, n_other, n_paths, bar_value):
    base = alpha(inputs(n_same=n_same + 1, n_other=n_other, bar=bar_value))
    more = alpha(inputs(n_same=n_same + 2, n_other=n_other, bar=bar_value))
    assert more >= base


@given(count, count, bar, st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=120)
def test_beta_monotone_in_path_count(n_paths, n_other, bar_value, alpha_value):
    base = beta(alpha_value, inputs(n_paths=n_paths, n_other=n_other, bar=bar_value))
    more = beta(alpha_value, inputs(n_paths=n_paths + 1, n_other=n_other, bar=bar_value))
    assert more >= base - 1e-15


def test_combine_weighted_sum():
    value = combine(0.5, 0.25, 0.8, 0.75, 0.6)
    assert value == pytest.approx(0.5 * 0.8 + 0.25 * 0.75 + 0.25 * 0.6, abs=1e-15)
    assert value == pytest.approx(0.7375, abs=1e-12)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=120)
def test_combine_stays_in_unit_interval(a, b_share, dt, it, rt):
    b = (1.0 - a) * b_share
    assert 0.0 <= combine(a, b, dt, it, rt) <= 1.0


# --- full evaluation ---------------------------------------------------------

def backdrop_log():
    """Interactions among C/D/E/F that give the network some reputation mass."""
    return [
        rec("C", "D", 0.9, "c1", 1.0),
        rec("D", "E", 0.8, "c1", 2.0),
        rec("E", "C", 0.7, "c1", 3.0),
        rec("F", "D", 0.6, "c2", 4.0),
        rec("C", "F", 0.9, "c2", 5.0),
    ]


def test_newcomer_receives_mean_reputation():
    log = backdrop_log()
    newcomer = AgentProfile(id="N", completed=frozenset(), able=frozenset({"c1"}))
    env = build_environment(log, 10.0, 0.0, [newcomer])
    report = evaluate(env, log, "C", "N", "c1", 10.0, CFG)
    model = build_reputation(env, CFG)
    assert report.alpha == 0.0
    assert report.beta == 0.0
    assert report.trust == float(np.mean(model.vector))
    assert report.direct is None
    assert report.indirect is None


def test_rich_direct_history_dominates():
    log = backdrop_log() + [
        rec("A", "B", 0.9, "c3", float(t)) for t in range(1, 5)
    ]
    env = build_environment(log, 10.0, 0.0)
    report = evaluate(env, log, "A", "B", "c3", 10.0, CFG)
    # four same-category interactions among two participants: bar is 2
    assert report.alpha == 1.0
    assert report.beta == 0.0
    assert report.trust == report.direct


def test_missing_components_have_zero_weight():
    log = backdrop_log()
    env = build_environment(log, 10.0, 0.0)
    report = evaluate(env, log, "F", "E", "c1", 10.0, CFG)
    if report.direct is None:
        assert report.alpha == 0.0
    if report.indirect is None:
        assert report.beta == 0.0


def test_evaluate_rejects_unknown_and_incapable():
    log = backdrop_log()
    env = build_environment(log, 10.0, 0.0)
    with pytest.raises(UnknownAgentError):
        evaluate(env, log, "C", "Z", "c1", 10.0, CFG)
    with pytest.raises(CapabilityError):
        evaluate(env, log, "C", "D", "c9", 10.0, CFG)
    with pytest.raises(ValueError):
        evaluate(env, log, "C", "C", "c1", 10.0, CFG)
    with pytest.raises(ValueError):
        evaluate(env, log, "C", "D", "c1", 11.0, CFG)


def test_evaluate_requires_capability_in_a_category_the_trustee_did():
    # D completed c1, but declares itself able only in c2.
    log = backdrop_log()
    declared = AgentProfile(id="D", completed=frozenset(), able=frozenset({"c2"}))
    env = build_environment(log, 10.0, 0.0, [declared])
    with pytest.raises(CapabilityError, match="lacks capability for category 'c1'"):
        evaluate(env, log, "C", "D", "c1", 10.0, CFG)


def test_evaluate_rejects_decay_rate_mismatch():
    # built at rate 0.5, the edge holds a discounted mean the query at rate 0
    # would silently mix with undiscounted direct trust
    log = [rec("A", "B", 1.0, "c1", 0.0), rec("A", "B", 0.0, "c1", 9.0)]
    env = build_environment(log, 10.0, 0.5)
    with pytest.raises(ValueError, match="decay_rate"):
        evaluate(env, log, "A", "B", "c1", 10.0, CFG)


def test_evaluate_rejects_reputation_model_built_with_other_config():
    # a model ranked at theta_r 0.5 would silently stand in for one at 0.6
    log = backdrop_log()
    env = build_environment(log, 10.0, 0.0)
    model = build_reputation(env, TrustConfig(decay_rate=0.0, trust_threshold=0.5))
    other = TrustConfig(decay_rate=0.0, recency_rate=0.0, trust_threshold=0.6)
    with pytest.raises(ValueError, match="trust_threshold"):
        evaluate(env, log, "C", "E", "c1", 10.0, other, model)
    evaluate(env, log, "C", "E", "c1", 10.0, TrustConfig(decay_rate=0.0), model)


def test_report_serialization_fields_and_precision():
    log = backdrop_log()
    env = build_environment(log, 10.0, 0.0)
    report = evaluate(env, log, "C", "E", "c1", 10.0, CFG)
    payload = json.loads(report.to_json())
    assert list(payload) == [
        "trust",
        "alpha",
        "beta",
        "direct",
        "indirect",
        "reputation",
        "diagnostics",
    ]
    assert payload["trust"] == report.trust  # full float precision survives JSON
    assert payload["reputation"] == report.reputation
    assert "n_same" in payload["diagnostics"]
    assert "reputation" in payload["diagnostics"]


def test_full_blend_combines_all_three_components():
    # dense C/D/E traffic pushes the evidence bar to 16 / 5 = 3.2
    busy = [
        r
        for t in range(1, 5)
        for r in (
            rec("C", "D", 0.9, "c1", float(t)),
            rec("D", "E", 0.8, "c1", float(t)),
            rec("E", "C", 0.7, "c1", float(t)),
        )
    ]
    log = busy + [
        rec("A", "B", 0.8, "c1", 1.0),
        rec("A", "B", 0.8, "c1", 2.0),
        rec("A", "C", 0.9, "c1", 3.0),
        rec("C", "B", 0.7, "c1", 4.0),
    ]
    env = build_environment(log, 10.0, 0.0)
    report = evaluate(env, log, "A", "B", "c1", 10.0, CFG)
    assert report.diagnostics["dt_min"] == pytest.approx(3.2, abs=1e-12)
    assert report.direct == pytest.approx(0.8, abs=1e-12)
    assert report.indirect is not None
    assert report.alpha == pytest.approx(2 / 3.2, abs=1e-12)
    assert report.beta == pytest.approx((1 - 2 / 3.2) * 2 / 3.2, abs=1e-12)
    expected = combine(report.alpha, report.beta, report.direct, report.indirect, report.reputation)
    assert report.trust == expected


@pytest.mark.parametrize(
    "budget, reason",
    [({}, "exhausted"), ({"search_steps": 2}, "steps"), ({"search_steps": 3}, "exhausted")],
)
def test_search_stop_reason_is_reported(budget, reason):
    # the chain A -> C -> D -> B takes three expansions to exhaust, so a
    # budget of three is never reached
    log = [
        rec("A", "C", 0.9, "c1", 1.0),
        rec("C", "D", 0.9, "c1", 2.0),
        rec("D", "B", 0.8, "c1", 3.0),
    ]
    env = build_environment(log, 10.0, 0.0)
    cfg = TrustConfig(decay_rate=0.0, recency_rate=0.0, **budget)
    report = evaluate(env, log, "A", "B", "c1", 10.0, cfg)
    assert report.diagnostics["search_stop"] == reason
    assert report.diagnostics["reputation_stop"] == "converged"
    table = find_paths(env, log, "A", "B", "c1", cfg)
    assert table.stop_reason == reason
    assert "stop_reason" not in table.to_dict()


def test_reputation_stop_reason_is_reported():
    log = backdrop_log()
    env = build_environment(log, 10.0, 0.0)
    cfg = TrustConfig(decay_rate=0.0, max_iterations=1)
    report = evaluate(env, log, "C", "E", "c1", 10.0, cfg)
    assert report.diagnostics["reputation_stop"] == "iterations"
    assert report.diagnostics["reputation"]["converged"] is False


def test_the_engine_never_reads_the_clock(tmp_path, monkeypatch):
    # No budget is in wall-clock time, so no answer depends on the host's speed.
    def clock():
        raise AssertionError("the engine read the clock")

    for name in ("monotonic", "perf_counter", "time"):
        monkeypatch.setattr(time, name, clock)
    log = backdrop_log()
    env = build_environment(log, 10.0, 0.0)
    model = build_reputation(env, CFG)
    for config in (CFG, TrustConfig(decay_rate=0.0, recency_rate=0.0, search_steps=1000)):
        evaluate(env, log, "C", "E", "c1", 10.0, config, model)
    find_paths(env, log, "C", "E", "c1", CFG)
    save_snapshot(env, tmp_path / "w.snap", model)
    assert load_snapshot(tmp_path / "w.snap") == (env, model)


def test_reports_are_byte_identical_across_runs():
    log = backdrop_log()
    env = build_environment(log, 10.0, 0.0)
    first = evaluate(env, log, "C", "E", "c1", 10.0, CFG).to_json()
    env2 = build_environment(log, 10.0, 0.0)
    second = evaluate(env2, log, "C", "E", "c1", 10.0, CFG).to_json()
    assert first.encode() == second.encode()
