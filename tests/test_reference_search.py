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
``evaluate`` calls is checked against the reference, and its reports
against those of ``find_paths`` with ``aggregate``.
"""

import dataclasses
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
CONFIG = TrustConfig(search_steps=None, search_seconds=None)


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
    params, _, env = world(name)
    settled = 0
    for trustor, trustee, category in queries(env, params, QUERIES):
        tree = settle_paths(env, trustor, trustee, category, CONFIG)
        expected = reference_trust(env, trustor, trustee, category, CONFIG.trust_threshold)
        trust = {tree.ids[a]: tree.trust[a] for a in tree.order}
        assert set(trust) == set(expected), (trustor, trustee, category)
        for agent, value in trust.items():
            assert value == pytest.approx(expected[agent], rel=1e-12, abs=0.0)
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
