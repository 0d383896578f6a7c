"""The path searches against an independent shortest-path reference on large worlds.

Both searches keep, for every reached agent, the qualifying path of most
trust: the largest product of edge weights.  Weights lie in [0, 1], so that
is a shortest path on -log w, which ``scipy.sparse.csgraph.dijkstra``
solves over the filtered graph:

- an edge qualifies when its weight is at least the trust threshold and its
  head has history in the category;
- the trustee is never passed through, so it leaves the graph;
- an edge into an agent the trustor trusts directly is kept only when it
  leaves the trustor.

The worlds have the sizes of the benchmark's three workload worlds, drawn
here with ``GenParams``.  The label-setting search that answers unbudgeted
``evaluate`` calls stops once the trustee's advisors are decided: the
agents it settles are checked against the head of the reference's agents
above the path threshold, by falling trust, and its reports against those
of ``find_paths`` with ``aggregate``.
"""

import dataclasses
import hashlib
from functools import lru_cache

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import dijkstra

from trustnet import (
    GenParams, RatingModel, TrustConfig, build_environment, build_reputation, evaluate,
    find_paths, generate,
)
from trustnet.indirect import settle_paths
from trustnet.simulate import SplitMix64

WORLDS = {
    "2k agents, 20k interactions": (2000, 20000, 2, 0.05),
    "300 agents, 60k interactions": (300, 60000, 4, 0.0),
    "1k agents, 10k interactions": (1000, 10000, 2, 0.05),
}
QUERIES = 20
CONFIG = TrustConfig()


def reference_trust(env, trustor, trustee, category, threshold) -> dict:
    """agent -> exp(-distance) for every agent the filtered graph reaches from the trustor."""
    n = len(env.agents)
    src, dst, weight = env.src, env.dst, env.weight
    history = np.array([category in env.agents[a].completed for a in env.id_array.tolist()])
    t, r = env.index[trustor], env.index[trustee]
    trusted_directly = np.zeros(n, dtype=bool)
    trusted_directly[dst[(src == t) & (weight >= threshold)]] = True
    keep = (weight >= threshold) & history[dst] & (src != r) & (dst != r)
    keep &= ~trusted_directly[dst] | (src == t)
    # 0.0 - log(1.0) is +0.0: a weight-1 edge stays an explicit zero, which is an edge.
    costs = 0.0 - np.log(weight[keep])
    graph = sparse.csr_matrix((costs, (src[keep], dst[keep])), shape=(n, n))
    distance = dijkstra(graph, directed=True, indices=t)
    reached = np.flatnonzero(np.isfinite(distance))
    return dict(zip(env.id_array[reached].tolist(), np.exp(-distance[reached]).tolist()))


@lru_cache(maxsize=3)
def world(name: str, seed: int = 2026):
    """(params, log, env, queries) of ``name`` drawn at ``seed``; the last three are kept."""
    n_agents, n_interactions, n_categories, newcomers = WORLDS[name]
    params = GenParams(
        seed=seed,
        n_agents=n_agents,
        n_categories=n_categories,
        n_interactions=n_interactions,
        rating_model=RatingModel.PER_AGENT_QUALITY,
        newcomer_fraction=newcomers,
    )
    profiles, log = generate(params)
    env = build_environment(log, params.time_horizon, CONFIG.decay_rate, profiles)
    return params, log, env


def queries(env, params, count: int):
    """``count`` seeded (trustor, trustee, category): an active trustor and any other agent."""
    agents = env.id_array.tolist()
    n_agents = params.n_agents
    # generate() makes the last agents newcomers
    active = n_agents - int(params.newcomer_fraction * n_agents)
    rng = SplitMix64(2026)
    drawn = []
    for _ in range(count):
        i = rng.below(active)
        j = rng.below(n_agents - 1)
        category = env.categories[rng.below(params.n_categories)]
        drawn.append((agents[i], agents[j + (j >= i)], category))
    return drawn


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_unbounded_search_reaches_the_reference_set_with_its_trust(name):
    params, _, env = world(name)
    rows = 0
    for trustor, trustee, category in queries(env, params, QUERIES):
        table = find_paths(env, [], trustor, trustee, category, CONFIG)
        expected = reference_trust(env, trustor, trustee, category, CONFIG.trust_threshold)
        assert set(table.rows) == set(expected), (trustor, trustee, category)
        for agent, row in table.rows.items():
            assert row.cum_trust == pytest.approx(expected[agent], rel=1e-12, abs=0.0)
        rows += len(table.rows)
    assert rows > 10 * QUERIES


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_label_setting_search_reaches_the_reference_set_with_its_trust(name):
    params, log, env = world(name)
    # At a path threshold of 0 every reached agent can be kept (weights here are positive).
    configs = (CONFIG, dataclasses.replace(CONFIG, path_threshold=0.0))
    settled = 0
    for trustor, trustee, category in queries(env, params, QUERIES):
        expected = reference_trust(env, trustor, trustee, category, CONFIG.trust_threshold)
        advisors = {r.trustor for r in log if r.trustee == trustee and r.category == category}
        for config in configs:
            where = (trustor, trustee, category, config.path_threshold)
            tree = settle_paths(env, trustor, trustee, category, config)
            trust = {tree.ids[a]: tree.trust[a] for a in tree.order}
            above = {agent for agent, value in expected.items() if value > config.path_threshold}
            # The settled agents are the head of the agents above the path
            # threshold by trust: settled in falling trust, none skipped
            # above the last one, and every advisor among them.
            assert trust.keys() <= above, where
            values = list(trust.values())
            assert values == sorted(values, reverse=True), where
            higher = {agent for agent in above if expected[agent] > values[-1] * (1 + 1e-12)}
            assert higher <= trust.keys(), where
            assert advisors & above <= trust.keys(), where
            for agent, value in trust.items():
                assert value == pytest.approx(expected[agent], rel=1e-12, abs=0.0)
            assert tree.reached == len(expected)
            assert tree.discovered == len(advisors & expected.keys())
            settled += len(tree.order)
    assert settled > 10 * QUERIES


AGREEMENT_QUERIES = 300
REPORT_FIELDS = ("trust", "alpha", "beta", "direct", "indirect", "reputation")
# A step budget no search here reaches: evaluate then runs find_paths to the end.
UNREACHED_BUDGET = dataclasses.replace(CONFIG, search_steps=10**9)


# On this world many ratings clamp to 1, so chains tie on their product and
# hops, and the two searches may report different chains of equal trust.
TIED_WORLDS = {"300 agents, 60k interactions"}


def kept_paths(report, exact: bool) -> set:
    """(advisor, rating, path trust, path) per kept path; the path's length unless ``exact``."""
    return {
        (p["advisor"], p["rating"], p["path_trust"], tuple(p["path"]) if exact else len(p["path"]))
        for p in report.diagnostics["paths"]
    }


@pytest.mark.parametrize("seed", [2026, 7919])
@pytest.mark.parametrize("name", sorted(WORLDS))
def test_unbudgeted_evaluate_agrees_with_find_paths_and_aggregate(name, seed):
    params, log, env = world(name, seed)
    model = build_reputation(env, CONFIG)
    exact = name not in TIED_WORLDS
    with_indirect = 0
    for trustor, trustee, category in queries(env, params, AGREEMENT_QUERIES):
        args = (env, log, trustor, trustee, category, params.time_horizon)
        settled = evaluate(*args, CONFIG, model)
        searched = evaluate(*args, UNREACHED_BUDGET, model)
        assert searched.diagnostics["search_stop"] == "exhausted"
        assert settled.diagnostics["search_reattached"] == 0
        for field in REPORT_FIELDS:
            got, want = getattr(settled, field), getattr(searched, field)
            assert (got is None) == (want is None), (field, trustor, trustee, category)
            assert got is None or abs(got - want) <= 1e-12, (field, trustor, trustee, category)
        assert kept_paths(settled, exact) == kept_paths(searched, exact), (trustor, category)
        assert settled.diagnostics["paths_discovered"] == searched.diagnostics["paths_discovered"]
        with_indirect += settled.indirect is not None
    assert with_indirect > 0


PINNED_QUERIES = 100
# sha256 over the to_json() of each unbudgeted report, recorded when
# settle_paths still settled every reachable agent: stopping the search at
# the path threshold must leave every report, diagnostics included, as it was.
REPORT_DIGESTS = {
    ("1k agents, 10k interactions", 2026): (
        "45b2c65fc5037afda8b6494446a967023f5fbbe056bff405b215f8343e9a9093"
    ),
    ("1k agents, 10k interactions", 7919): (
        "ec74b58955faf28fd6470c50601af183c770fb224e04c68f188df1458dbc6ce5"
    ),
    ("2k agents, 20k interactions", 2026): (
        "b812c6f9a03ecb30cc251858408103ff163d82181f03417cddef99c8d7d059c8"
    ),
    ("2k agents, 20k interactions", 7919): (
        "3f7850ac7d230635dcd2e900486b7d65d2a4eddf858d097d4024324d910effe9"
    ),
}


@pytest.mark.parametrize("name, seed", sorted(REPORT_DIGESTS))
def test_unbudgeted_reports_are_unchanged(name, seed):
    params, log, env = world(name, seed)
    model = build_reputation(env, CONFIG)
    digest = hashlib.sha256()
    for trustor, trustee, category in queries(env, params, PINNED_QUERIES):
        report = evaluate(env, log, trustor, trustee, category, params.time_horizon, CONFIG, model)
        digest.update(report.to_json().encode())
    assert digest.hexdigest() == REPORT_DIGESTS[name, seed]


def settled_share(name: str) -> float:
    """Agents settled over agents reached, summed over the pinned queries on ``name``."""
    params, _, env = world(name)
    settled = reached = 0
    for trustor, trustee, category in queries(env, params, PINNED_QUERIES):
        tree = settle_paths(env, trustor, trustee, category, CONFIG)
        settled += len(tree.order)
        reached += tree.reached
    return settled / reached


def test_the_search_settles_only_the_chains_it_can_keep():
    # It counts work, not time: about 25% of the reach lies above the path
    # threshold here, and a search that settled it all would read 100%.
    assert settled_share("2k agents, 20k interactions") <= 0.35


def test_the_search_stops_before_settling_every_chain_it_can_keep():
    # About half of the chains above the path threshold here are settled
    # before every advisor is decided: the share reads about 0.14, against
    # about 0.25 for a search that settles every chain it can keep.
    assert settled_share("2k agents, 20k interactions") <= 0.2
