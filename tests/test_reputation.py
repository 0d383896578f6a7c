import dataclasses

import numpy as np
import pytest
from scipy import sparse

from trustnet import (
    PropagationMatrix,
    TrustConfig,
    build_environment,
    build_reputation,
    pagerank,
    propagation_matrix,
    reputation_nodes,
    reputation_of,
)
from trustnet.oracles import oracle_reputation, reputation_instance

from helpers import rec

CFG = TrustConfig(decay_rate=0.0)


def unspread(dense):
    return PropagationMatrix(sparse.csr_matrix(dense), np.zeros(dense.shape[0]))


def env_of(log, profiles=(), at=10.0):
    return build_environment(log, at, 0.0, profiles)


def test_empty_environment_has_no_nodes():
    assert reputation_nodes(env_of([]), 0.5) == []


def test_only_trusted_targets_enter_node_set():
    env = env_of([rec("A", "B", 0.9)])
    assert reputation_nodes(env, 0.5) == ["B"]


def test_mutual_trust_includes_both():
    env = env_of([rec("A", "B", 0.9), rec("B", "A", 0.9)])
    assert reputation_nodes(env, 0.5) == ["A", "B"]


def test_weak_ratings_are_excluded():
    env = env_of([rec("A", "B", 0.3)])
    assert reputation_nodes(env, 0.5) == []


def test_row_of_single_trusted_edge_collects_full_mass():
    env = env_of([rec("A", "B", 0.8)])
    matrix = propagation_matrix(env, ["A", "B"], 0.5)
    dense = matrix.toarray()
    # trusted share 0.8 plus the 0.2 remainder spread over the only other node
    assert dense[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert dense[0, 0] == 0.0
    # B has no out-edges: uniform over the others
    assert dense[1, 0] == pytest.approx(1.0, abs=1e-12)


def test_single_trusted_entry_equals_row_maximum():
    env = env_of([rec("A", "B", 0.7), rec("C", "A", 0.9)])
    nodes = reputation_nodes(env, 0.5)
    assert nodes == ["A", "B"]
    matrix = propagation_matrix(env, nodes, 0.5).toarray()
    # A's only trusted out-edge gets mass w * r_max / w = r_max
    assert matrix[0, 1] == pytest.approx(0.7 + (1 - 0.7), abs=1e-12)


def test_untrusted_out_edges_share_the_remainder():
    log = [
        rec("A", "B", 0.8),
        rec("A", "C", 0.4),
        rec("A", "D", 0.3),
        rec("X", "A", 0.9),
        rec("X", "C", 0.9),
        rec("X", "D", 0.9),
    ]
    env = env_of(log)
    nodes = reputation_nodes(env, 0.5)
    assert nodes == ["A", "B", "C", "D"]
    matrix = propagation_matrix(env, nodes, 0.5).toarray()
    row = matrix[0]
    assert row[nodes.index("B")] == pytest.approx(0.8, abs=1e-12)
    assert row[nodes.index("C")] == pytest.approx(0.1, abs=1e-12)
    assert row[nodes.index("D")] == pytest.approx(0.1, abs=1e-12)
    assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_rows_are_stochastic_on_random_instances():
    for seed in range(12):
        profiles, log = reputation_instance(seed, max_agents=25)
        env = build_environment(log, 100.0, 0.0, profiles)
        nodes = reputation_nodes(env, 0.5)
        if not nodes:
            continue
        matrix = propagation_matrix(env, nodes, 0.5)
        sums = matrix.toarray().sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-9


def test_matrix_stores_at_most_one_entry_per_edge_and_node():
    for seed in range(12):
        profiles, log = reputation_instance(seed, max_agents=50)
        env = build_environment(log, 100.0, 0.0, profiles)
        nodes = reputation_nodes(env, 0.5)
        assert propagation_matrix(env, nodes, 0.5).nnz <= len(env.edges) + len(nodes)


def test_zero_threshold_row_of_zero_weights_spreads_its_unit():
    # theta_r = 0 trusts both edges, yet they weigh 0: the trusted total is 0
    env = env_of([rec("A", "B", 0.0), rec("B", "A", 0.0)])
    cfg = TrustConfig(decay_rate=0.0, trust_threshold=0.0)
    matrix = propagation_matrix(env, ["A", "B"], 0.0)
    assert np.array_equal(matrix.toarray(), [[0.0, 1.0], [1.0, 0.0]])
    model = build_reputation(env, cfg)
    nodes, reference = oracle_reputation(env, cfg)
    assert model.nodes == nodes == ["A", "B"]
    assert np.max(np.abs(model.vector - reference)) <= 1e-8


def test_pagerank_single_node_fixed_point():
    matrix = unspread(np.array([[1.0]]))
    vec, iterations, converged = pagerank(matrix, 0.85, 1e-10, 1000)
    assert vec[0] == pytest.approx(1.0, abs=1e-12)
    assert converged


def test_pagerank_two_node_swap_is_symmetric():
    matrix = unspread(np.array([[0.0, 1.0], [1.0, 0.0]]))
    vec, _, converged = pagerank(matrix, 0.85, 1e-10, 1000)
    assert converged
    assert vec[0] == pytest.approx(0.5, abs=1e-10)
    assert vec[1] == pytest.approx(0.5, abs=1e-10)


def test_pagerank_empty_matrix_rejected():
    with pytest.raises(ValueError):
        pagerank(unspread(np.zeros((0, 0))), 0.85, 1e-10, 100)


def test_pagerank_matches_dense_reference():
    rng = np.random.default_rng(7)
    raw = rng.uniform(size=(20, 20)) + 1e-3
    dense = raw / raw.sum(axis=1, keepdims=True)
    vec, iterations, converged = pagerank(unspread(dense), 0.85, 1e-10, 1000)

    uniform = np.full(20, 1.0 / 20)
    ref = uniform.copy()
    for _ in range(iterations):
        ref = 0.85 * dense.T.dot(ref) + 0.15 * uniform
    assert converged
    assert np.max(np.abs(vec - ref)) <= 1e-8


def test_pagerank_preserves_probability_mass():
    for seed in (0, 1, 2):
        profiles, log = reputation_instance(seed, max_agents=20)
        env = build_environment(log, 100.0, 0.0, profiles)
        nodes = reputation_nodes(env, 0.5)
        matrix = propagation_matrix(env, nodes, 0.5)
        vec, _, converged = pagerank(matrix, 0.85, 1e-10, 1000)
        assert converged
        assert np.all(vec > 0)
        assert vec.sum() == pytest.approx(1.0, abs=1e-9)


def test_reputation_of_member_and_outsider():
    env = env_of([rec("A", "B", 0.9)])
    model = build_reputation(env, CFG)
    assert model.nodes == ["B"]
    assert reputation_of(model, "B") == pytest.approx(1.0, abs=1e-12)
    assert reputation_of(model, "A") == model.mean_reputation


def test_two_symmetric_nodes_normalize_to_one():
    env = env_of([rec("A", "B", 0.9), rec("B", "A", 0.9)])
    model = build_reputation(env, CFG)
    assert reputation_of(model, "A") == pytest.approx(1.0, abs=1e-10)
    assert reputation_of(model, "Z") == pytest.approx(1.0, abs=1e-10)


def test_empty_node_set_returns_neutral_prior():
    env = env_of([rec("A", "B", 0.3)])
    model = build_reputation(env, CFG)
    assert model.nodes == []
    assert reputation_of(model, "B") == 0.5


def test_newcomer_mean_matches_dense_oracle():
    profiles, log = reputation_instance(3, max_agents=10)
    env = build_environment(log, 100.0, 0.0, profiles)
    model = build_reputation(env, CFG)
    nodes, reference = oracle_reputation(env, CFG)
    assert model.nodes == nodes
    assert reputation_of(model, "outsider") == pytest.approx(
        float(np.mean(reference)), abs=1e-12
    )


def test_vector_is_max_normalized():
    for seed in (4, 5, 6):
        profiles, log = reputation_instance(seed, max_agents=30)
        env = build_environment(log, 100.0, 0.0, profiles)
        model = build_reputation(env, CFG)
        if model.nodes:
            assert np.max(model.vector) == pytest.approx(1.0, abs=1e-15)
            assert np.all(model.vector > 0)
            assert np.all(model.vector <= 1.0)


def test_removing_agent_without_trusted_raters_keeps_other_reputations():
    # every member keeps two trusted raters, so dropping the unrated
    # newcomer-voter "x" leaves the node set and matrix untouched
    log = [
        rec("A", "B", 0.9, "c1", 1.0),
        rec("C", "B", 0.8, "c1", 1.0),
        rec("B", "A", 0.9, "c1", 2.0),
        rec("C", "A", 0.7, "c1", 2.0),
        rec("A", "C", 0.8, "c1", 3.0),
        rec("B", "C", 0.9, "c1", 3.0),
        rec("x", "A", 0.9, "c1", 4.0),
        rec("x", "C", 0.2, "c1", 4.0),
    ]
    with_x = build_reputation(env_of(log), CFG)
    without_x = build_reputation(env_of([r for r in log if r.trustor != "x"]), CFG)
    assert with_x.nodes == without_x.nodes
    assert np.array_equal(with_x.vector, without_x.vector)


def test_convergence_within_iteration_budget():
    profiles, log = reputation_instance(9, max_agents=50)
    env = build_environment(log, 100.0, 0.0, profiles)
    model = build_reputation(env, CFG)
    assert model.converged
    assert model.iterations_used <= 1000


@pytest.mark.parametrize(
    "budget, reason",
    [
        ({}, "converged"),
        ({"max_iterations": 1}, "iterations"),
        ({"pagerank_seconds": 0.0}, "seconds"),
    ],
)
def test_power_iteration_stop_reason_is_recorded(budget, reason):
    profiles, log = reputation_instance(9, max_agents=50)
    env = build_environment(log, 100.0, 0.0, profiles)
    model = build_reputation(env, TrustConfig(decay_rate=0.0, **budget))
    assert model.stop_reason == reason
    assert model.converged == (reason == "converged")


def test_stop_reason_takes_part_in_equality():
    model = build_reputation(env_of([rec("A", "B", 0.9), rec("B", "C", 0.8)]), CFG)
    assert model == dataclasses.replace(model)
    assert model != dataclasses.replace(model, stop_reason="seconds")


def test_reputation_of_outsiders_around_and_between_nodes():
    env = env_of([rec("A", "B", 0.9), rec("C", "D", 0.9), rec("D", "B", 0.6), rec("E", "A", 0.2)])
    model = build_reputation(env, CFG)
    assert model.nodes == ["B", "D"]
    assert reputation_of(model, "B") == float(model.vector[0])
    assert reputation_of(model, "D") == float(model.vector[1])
    for outsider in ("A", "C", "E", "", "Z"):
        assert reputation_of(model, outsider) == model.mean_reputation


def test_convergence_and_mean_are_derived_from_the_model():
    model = build_reputation(env_of([rec("A", "B", 0.9), rec("B", "C", 0.8)]), CFG)
    assert model.converged and model.mean_reputation == float(np.mean(model.vector))
    assert not dataclasses.replace(model, stop_reason="iterations").converged
    empty = build_reputation(env_of([rec("A", "B", 0.1)]), CFG)
    assert empty.nodes == [] and empty.converged and empty.mean_reputation == 0.5
    assert reputation_of(empty, "A") == 0.5
