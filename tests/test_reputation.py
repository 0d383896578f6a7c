import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from trustnet import (
    PropagationMatrix,
    ReputationModel,
    TrustConfig,
    build_environment,
    build_reputation,
    pagerank,
    propagation_matrix,
    reputation_nodes,
    reputation_of,
)
from trustnet.oracles import oracle_reputation, reputation_instance

from helpers import logs, rec

CFG = TrustConfig(decay_rate=0.0)


def unspread(dense):
    """The matrix of ``dense`` with no spread; zeros are dropped, as from a dense CSR matrix."""
    rows, cols = np.nonzero(dense)
    indptr = np.searchsorted(rows, np.arange(dense.shape[0] + 1))
    return PropagationMatrix(indptr, cols, dense[rows, cols], np.zeros(dense.shape[0]))


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


def test_untrusted_edges_share_the_remainder():
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
    assert model.nodes == nodes == ("A", "B")
    assert np.max(np.abs(model.vector - reference)) <= 1e-8


def test_pagerank_single_node_fixed_point():
    matrix = unspread(np.array([[1.0]]))
    vec, iterations, stop_reason = pagerank(matrix, 0.85, 1e-10, 1000)
    assert vec[0] == pytest.approx(1.0, abs=1e-12)
    assert stop_reason == "converged"


def test_pagerank_two_node_swap_is_symmetric():
    matrix = unspread(np.array([[0.0, 1.0], [1.0, 0.0]]))
    vec, _, stop_reason = pagerank(matrix, 0.85, 1e-10, 1000)
    assert stop_reason == "converged"
    assert vec[0] == pytest.approx(0.5, abs=1e-10)
    assert vec[1] == pytest.approx(0.5, abs=1e-10)


def test_pagerank_empty_matrix_rejected():
    with pytest.raises(ValueError):
        pagerank(unspread(np.zeros((0, 0))), 0.85, 1e-10, 100)


def test_pagerank_matches_dense_reference():
    rng = np.random.default_rng(7)
    raw = rng.uniform(size=(20, 20)) + 1e-3
    dense = raw / raw.sum(axis=1, keepdims=True)
    vec, iterations, stop_reason = pagerank(unspread(dense), 0.85, 1e-10, 1000)

    uniform = np.full(20, 1.0 / 20)
    ref = uniform.copy()
    for _ in range(iterations):
        ref = 0.85 * dense.T.dot(ref) + 0.15 * uniform
    assert stop_reason == "converged"
    assert np.max(np.abs(vec - ref)) <= 1e-8


def test_pagerank_preserves_probability_mass():
    for seed in (0, 1, 2):
        profiles, log = reputation_instance(seed, max_agents=20)
        env = build_environment(log, 100.0, 0.0, profiles)
        nodes = reputation_nodes(env, 0.5)
        matrix = propagation_matrix(env, nodes, 0.5)
        vec, _, stop_reason = pagerank(matrix, 0.85, 1e-10, 1000)
        assert stop_reason == "converged"
        assert np.all(vec > 0)
        assert vec.sum() == pytest.approx(1.0, abs=1e-9)


def test_reputation_of_member_and_outsider():
    env = env_of([rec("A", "B", 0.9)])
    model = build_reputation(env, CFG)
    assert model.nodes == ("B",)
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
    assert model.nodes == ()
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
    ],
)
def test_power_iteration_stop_reason_is_recorded(budget, reason):
    profiles, log = reputation_instance(9, max_agents=50)
    env = build_environment(log, 100.0, 0.0, profiles)
    cfg = TrustConfig(decay_rate=0.0, **budget)
    model = build_reputation(env, cfg)
    assert model.stop_reason == reason
    assert model.converged == (reason == "converged")
    matrix = propagation_matrix(env, model.nodes, cfg.trust_threshold)
    _, iterations, stop_reason = pagerank(matrix, cfg.damping, cfg.tolerance, cfg.max_iterations)
    assert stop_reason == reason
    assert iterations == model.iterations_used


def test_stop_reason_takes_part_in_equality():
    # A run that converges on its last allowed iteration could as well have stopped at the cap.
    env = env_of([rec("A", "B", 0.9), rec("B", "C", 0.8)])
    used = build_reputation(env, CFG).iterations_used
    model = build_reputation(env, dataclasses.replace(CFG, max_iterations=used))
    assert (model.stop_reason, model.iterations_used) == ("converged", used)
    assert model == dataclasses.replace(model)
    assert model != dataclasses.replace(model, stop_reason="iterations")


# Nodes B, C and D, which the power iteration takes 36 steps to converge on.
CHAIN = [rec("A", "B", 0.9), rec("B", "C", 0.8), rec("C", "D", 0.7)]


@pytest.mark.parametrize(
    "budget, stop",
    [
        ({}, "converged"),
        ({"max_iterations": 1, "tolerance": 1e-300}, "iterations"),
        ({"trust_threshold": 1.0}, "converged"),
    ],
    ids=["converged", "iteration-cap", "no-nodes"],
)
def test_each_way_a_build_ends_makes_a_model(budget, stop):
    built = build_reputation(env_of(CHAIN), dataclasses.replace(CFG, **budget))
    assert built.stop_reason == stop
    fields = (built.nodes, built.vector, built.iterations_used, built.params, built.stop_reason)
    assert ReputationModel(*fields) == built


def test_reputation_of_outsiders_around_and_between_nodes():
    env = env_of([rec("A", "B", 0.9), rec("C", "D", 0.9), rec("D", "B", 0.6), rec("E", "A", 0.2)])
    model = build_reputation(env, CFG)
    assert model.nodes == ("B", "D")
    assert reputation_of(model, "B") == float(model.vector[0])
    assert reputation_of(model, "D") == float(model.vector[1])
    for outsider in ("A", "C", "E", "", "Z"):
        assert reputation_of(model, outsider) == model.mean_reputation


def test_convergence_and_mean_are_derived_from_the_model():
    model = build_reputation(env_of([rec("A", "B", 0.9), rec("B", "C", 0.8)]), CFG)
    assert model.converged and model.mean_reputation == float(np.mean(model.vector))
    capped = build_reputation(env_of(CHAIN), dataclasses.replace(CFG, max_iterations=1))
    assert capped.stop_reason == "iterations" and not capped.converged
    empty = build_reputation(env_of([rec("A", "B", 0.1)]), CFG)
    assert empty.nodes == () and empty.converged and empty.mean_reputation == 0.5
    assert reputation_of(empty, "A") == 0.5


def test_a_model_field_cannot_be_reassigned():
    model = build_reputation(env_of(CHAIN), CFG)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.iterations_used = -1
    assert model.iterations_used >= 1


def test_a_model_node_list_cannot_be_changed():
    model = build_reputation(env_of(CHAIN), CFG)
    nodes = model.nodes
    with pytest.raises(AttributeError):
        model.nodes.append("Z")
    assert model.nodes == nodes and reputation_of(model, "Z") == model.mean_reputation


def test_a_model_vector_cannot_be_written():
    model = build_reputation(env_of(CHAIN), CFG)
    with pytest.raises(ValueError, match="read-only"):
        model.vector[0] = 7.0
    assert model.vector.max() == 1.0 and 7.0 not in model.vector


def test_matrix_arrays_cannot_be_written():
    env = env_of([rec("A", "B", 0.9), rec("B", "A", 0.4), rec("C", "A", 0.8)])
    matrix = propagation_matrix(env, ["A", "B"], 0.5)
    before = matrix.toarray()
    for name in ("indptr", "cols", "data", "spread"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(matrix, name)[0] = 0
    assert np.array_equal(matrix.toarray(), before)


def test_matrix_nodes_must_be_ascending_and_distinct():
    env = env_of([rec("A", "B", 0.9), rec("B", "A", 0.9)])
    for nodes in (["B", "A"], ["A", "A"]):
        with pytest.raises(ValueError, match="ascending"):
            propagation_matrix(env, nodes, 0.5)


# --- bit-identity with a CSR product -------------------------------------------
#
# The examples cover a single-node set (SINGLE_NODE's B), rows with no
# out-edges (that B, and ALL_UNTRUSTED_ROW's D), a row whose every edge is
# untrusted (B -> A at 0.2, B -> C at 0.1), and theta_r = 0.
SINGLE_NODE = [rec("A", "B", 0.9)]
ALL_UNTRUSTED_ROW = [
    rec("A", "B", 0.9), rec("C", "B", 0.9), rec("C", "A", 0.9), rec("A", "C", 0.7),
    rec("B", "A", 0.2), rec("B", "C", 0.1), rec("A", "D", 0.6),
]
thresholds = st.sampled_from([0.0, 0.3, 0.5, 0.9])


def scipy_pagerank(matrix, damping, tolerance, max_iterations):
    """The power iteration with E^T v as scipy's CSR product, as the engine computed it before."""
    n = len(matrix.spread)
    transposed = sparse.csr_matrix((matrix.data, matrix.cols, matrix.indptr), shape=(n, n)).T
    transposed = transposed.tocsr()
    share = matrix.spread / max(n - 1, 1)
    uniform = np.full(n, 1.0 / n)
    vec, iterations, stop_reason = uniform.copy(), 0, "iterations"
    while iterations < max_iterations:
        spread_in = float(share @ vec) - share * vec
        nxt = damping * (transposed @ vec + spread_in) + (1.0 - damping) * uniform
        iterations += 1
        delta = float(np.abs(nxt - vec).sum())
        vec = nxt
        if delta <= tolerance:
            stop_reason = "converged"
            break
    return vec, iterations, stop_reason


@settings(max_examples=150, deadline=None)
@given(logs(max_size=40), thresholds)
@example(SINGLE_NODE, 0.5)
@example(ALL_UNTRUSTED_ROW, 0.5)
@example(ALL_UNTRUSTED_ROW, 0.0)
@example([rec("A", "B", 0.0), rec("B", "A", 0.0)], 0.0)
def test_shares_product_equals_the_csr_product(log, threshold):
    env = env_of(log, at=100.0)
    nodes = reputation_nodes(env, threshold)
    if not nodes:
        return
    matrix = propagation_matrix(env, nodes, threshold)
    n = len(nodes)
    csr = sparse.csr_matrix((matrix.data, matrix.cols, matrix.indptr), shape=(n, n))
    # With damping 1 and no spread each step is v <- E^T v + 0.0, which is E^T v exactly.
    shares = PropagationMatrix(matrix.indptr, matrix.cols, matrix.data, np.zeros(n))
    vec = np.full(n, 1.0 / n)
    for steps in range(1, 6):
        stepped, _, _ = pagerank(shares, 1.0, -1.0, steps)
        assert np.array_equal(stepped, csr.T @ vec)
        vec = stepped
    for damping in (0.85, 0.5):
        engine = pagerank(matrix, damping, 1e-10, 1000)
        reference = scipy_pagerank(matrix, damping, 1e-10, 1000)
        assert np.array_equal(engine[0], reference[0]) and engine[1:] == reference[1:]


def reputation_digest(seeds) -> str:
    """SHA-256 over each model's vector bytes, iterations_used and stop_reason, in order."""
    digest = hashlib.sha256()
    configs = (
        TrustConfig(),
        TrustConfig(decay_rate=0.0, trust_threshold=0.0),
        TrustConfig(trust_threshold=0.9),
    )
    for seed in seeds:
        profiles, log = reputation_instance(seed)
        for config in configs:
            env = build_environment(log, 100.0, config.decay_rate, profiles)
            model = build_reputation(env, config)
            digest.update(model.vector.tobytes())
            digest.update(json.dumps([model.iterations_used, model.stop_reason]).encode())
    return digest.hexdigest()


# Recorded from the engine that multiplied by E^T as a scipy CSR matrix.
def test_reputation_output_is_unchanged_on_oracle_instances():
    assert reputation_digest(range(200)) == (
        "602ef4a4627fe9edb52b854c30e0e671fffb7e09405c92765669a275d1c428f4"
    )
