"""The snapshot's query statistics against log scans, and queries without a log.

Every statistic a query reads comes from the environment; the references in
``oracles.py`` re-derive each one by scanning the raw log.  The engine holds
per-agent facts by agent index; they are mapped through ``env.ids`` to meet
the references, which key them by id.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustnet import (
    AgentProfile,
    GenParams,
    TrustConfig,
    build_environment,
    direct_trust,
    dt_min,
    evaluate,
    find_paths,
    generate,
    load_snapshot,
    save_snapshot,
)
from trustnet.oracles import (
    oracle_advisor_ratings,
    oracle_category_activity,
    oracle_direct_trust,
)
from trustnet.simulate import SplitMix64

from helpers import AGENTS, CATEGORIES, ratings, rec

SNAPSHOT_TIME = 10.0
# Whole and fractional times on both sides of the snapshot, and exactly at it.
TIMES = st.sampled_from([0.0, 0.5, 1.0, 3.25, 7.0, 9.5, SNAPSHOT_TIME, 10.5, 12.0])


@st.composite
def worlds(draw):
    categories = CATEGORIES[: draw(st.integers(min_value=1, max_value=3))]
    agents = AGENTS[:5]
    records = []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        trustor = draw(st.sampled_from(agents))
        trustee = draw(st.sampled_from([a for a in agents if a != trustor]))
        category = draw(st.sampled_from(categories))
        records.append(rec(trustor, trustee, draw(ratings), category, draw(TIMES)))
    # At time 10, rate 100 zeroes the weight of every time <= 1.0, and rate
    # 110 puts time 3.25 below the smallest normal float.
    return draw(st.permutations(records)), draw(st.sampled_from([0.0, 0.05, 100.0, 110.0]))


def check_activity(env, log, category):
    """``env``'s activity on ``category`` against the log scan, agent by agent."""
    counts, last, bar = oracle_category_activity(log, category, SNAPSHOT_TIME)
    activity = env.activity(category)
    assert len(activity.counts) == len(activity.last) == len(env.ids)
    assert [counts.get(a, 0) for a in env.ids] == activity.counts
    assert [last.get(a, -math.inf) for a in env.ids] == activity.last
    assert dt_min(env, category) == bar


def check_advisors(env, log, trustee, category):
    """``env``'s advisors of ``trustee`` on ``category`` against the log scan, by id."""
    means = oracle_advisor_ratings(log, trustee, category, SNAPSHOT_TIME)
    held = env.advisor_ratings(env.index[trustee], category)
    assert list(held) == sorted(held)
    assert {env.ids[i]: rating for i, rating in held.items()} == pytest.approx(means, abs=1e-12)


@given(worlds())
@settings(max_examples=150, deadline=None)
def test_snapshot_statistics_agree_with_log_scans(world):
    log, rate = world
    env = build_environment(log, SNAPSHOT_TIME, rate)
    for category in CATEGORIES:
        check_activity(env, log, category)
        for trustee in AGENTS[:5]:
            means = oracle_advisor_ratings(log, trustee, category, SNAPSHOT_TIME)
            held = {
                advisor: stats.per_category[category].mean_rating
                for (advisor, dst), stats in env.edges.items()
                if dst == trustee and category in stats.per_category
            }
            assert held.keys() == means.keys()
            for advisor, mean in means.items():
                assert held[advisor] == pytest.approx(mean, abs=1e-12)
            if trustee in env.index:
                check_advisors(env, log, trustee, category)
            for trustor in AGENTS[:5]:
                if trustor == trustee:
                    continue
                result = direct_trust(env, trustor, trustee, category)
                value, source, n_same, n_other = oracle_direct_trust(
                    log, trustor, trustee, category, SNAPSHOT_TIME, rate
                )
                assert (result.source.value, result.n_same, result.n_other) == (
                    source,
                    n_same,
                    n_other,
                )
                if value is None:
                    assert result.value is None
                else:
                    assert result.value == pytest.approx(value, abs=1e-12)


def test_a_category_only_a_declaration_carries_has_no_activity_and_no_advisors():
    # B declares history in c9, which no record carries; A trusts B.
    log = [rec("A", "B", 0.9), rec("C", "B", 0.8)]
    declared = [AgentProfile("B", completed=frozenset({"c9"}), able=frozenset({"c9"}))]
    env = build_environment(log, SNAPSHOT_TIME, 0.0, declared)
    check_activity(env, log, "c9")
    assert env.activity("c9").dt_min == 1.0
    assert env.consultation_terms("c9", 0.0) == [(0, 0.0, 0.0, -math.inf)] * len(env.ids)
    for trustee in env.ids:
        check_advisors(env, log, trustee, "c9")
    table = find_paths(env, log, "A", "C", "c9", TrustConfig())
    assert list(table.rows) == ["A", "B"]
    assert table.trustee_rows == []


def test_a_trustee_rated_only_on_another_category_has_no_advisor_there():
    # B rated C on c1 alone, so on c2 B is no advisor of C, though the edge exists.
    log = [rec("A", "B", 0.9, "c2"), rec("B", "C", 0.7, "c1"), rec("D", "C", 0.6, "c2")]
    env = build_environment(log, SNAPSHOT_TIME, 0.0)
    for category in ("c1", "c2"):
        check_activity(env, log, category)
        check_advisors(env, log, "C", category)
    assert env.advisor_ratings(env.index["C"], "c2") == {env.index["D"]: 0.6}
    table = find_paths(env, log, "A", "C", "c2", TrustConfig())
    assert list(table.rows) == ["A", "B"]
    assert table.trustee_rows == []


@pytest.mark.parametrize("seed", range(6))
def test_loaded_snapshot_answers_without_the_log(tmp_path, seed):
    profiles, log = generate(
        GenParams(seed=seed, n_agents=12, n_categories=2, n_interactions=150)
    )
    cfg = TrustConfig()
    env = build_environment(log, 100.0, cfg.decay_rate, profiles)
    path = tmp_path / "world.snap"
    save_snapshot(env, path)
    loaded, _ = load_snapshot(path)
    rng = SplitMix64(seed)
    # pairs that interacted (direct and indirect trust present) and random pairs
    queries = [(r.trustor, r.trustee, r.category) for r in log[:10]]
    for _ in range(10):
        i, j = rng.below(12), rng.below(11)
        queries.append((f"a{i:02d}", f"a{j + (j >= i):02d}", f"c{rng.below(2)}"))
    for trustor, trustee, category in queries:
        full = evaluate(env, log, trustor, trustee, category, 100.0, cfg)
        alone = evaluate(loaded, [], trustor, trustee, category, 100.0, cfg)
        assert alone.to_json() == full.to_json()
