"""The path search against an independent shortest-path reference on large worlds.

The search keeps, for every reached agent, the qualifying path of most
trust: the largest product of edge weights.  Weights lie in [0, 1], so that
is a shortest path on -log w, which ``scipy.sparse.csgraph.dijkstra``
solves over the filtered graph:

- an edge qualifies when its weight is at least the trust threshold and its
  head has history in the category;
- the trustee is never passed through, so it leaves the graph;
- an edge into an agent the trustor trusts directly is kept only when it
  leaves the trustor.

The worlds have the sizes of the benchmark's three workload worlds, drawn
here with ``GenParams``.
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import dijkstra

from trustnet import GenParams, RatingModel, TrustConfig, build_environment, find_paths, generate
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


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_unbounded_search_reaches_the_reference_set_with_its_trust(world):
    n_agents, n_interactions, n_categories, newcomers = WORLDS[world]
    params = GenParams(
        seed=2026,
        n_agents=n_agents,
        n_categories=n_categories,
        n_interactions=n_interactions,
        rating_model=RatingModel.PER_AGENT_QUALITY,
        newcomer_fraction=newcomers,
    )
    profiles, log = generate(params)
    env = build_environment(log, params.time_horizon, CONFIG.decay_rate, profiles)
    agents = env.id_array.tolist()
    active = n_agents - int(newcomers * n_agents)  # generate() makes the last agents newcomers
    rng = SplitMix64(2026)
    rows = 0
    for _ in range(QUERIES):
        i = rng.below(active)
        j = rng.below(n_agents - 1)
        trustor, trustee = agents[i], agents[j + (j >= i)]
        category = env.categories[rng.below(n_categories)]
        table = find_paths(env, [], trustor, trustee, category, CONFIG)
        expected = reference_trust(env, trustor, trustee, category, CONFIG.trust_threshold)
        assert set(table.rows) == set(expected), (trustor, trustee, category)
        for agent, row in table.rows.items():
            assert row.cum_trust == pytest.approx(expected[agent], rel=1e-12, abs=0.0)
        rows += len(table.rows)
    assert rows > 10 * QUERIES
