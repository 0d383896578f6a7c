import dataclasses
import hashlib
import json
import math
import sys
import types
from array import array

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trustnet import (
    AgentProfile,
    GenParams,
    InvariantError,
    PropagationTable,
    RatingModel,
    TableRow,
    TrustConfig,
    TrusteeRow,
    UnknownAgentError,
    aggregate,
    build_environment,
    build_reputation,
    dump_log,
    evaluate,
    find_paths,
    generate,
    propagation_probabilities,
)
from trustnet import core, indirect
from trustnet.cli import main as cli_main
from trustnet.oracles import (
    best_paths,
    compare_indirect,
    indirect_instance,
    is_acyclic,
    oracle_advisor_ratings,
    oracle_category_activity,
    oracle_indirect,
    reputation_instance,
)
from trustnet.reach import Reach, build_reach

from helpers import AGENTS, logs, profiles_able_everywhere, rec

CFG = TrustConfig(decay_rate=0.0, recency_rate=0.0)


def env_of(log, profiles=(), at=10.0, decay=0.0):
    return build_environment(log, at, decay, profiles)


# --- trusted neighbours -------------------------------------------------

def trusted(env, category, threshold, agent):
    """``agent``'s out-neighbours in ``env.trusted_edges(category, threshold)``, as ids."""
    ptr, dst, _ = env.trusted_edges(category, threshold)
    i = env.index[agent]
    return tuple(env.id_array[dst[ptr[i] : ptr[i + 1]]].tolist())


def test_no_out_edges_means_no_neighbours():
    env = env_of([rec("A", "B", 0.9)])
    assert trusted(env, "c1", 0.5, "B") == ()


def test_threshold_filters_neighbours():
    env = env_of([rec("A", "B", 0.9), rec("A", "C", 0.3), rec("X", "C", 0.9)])
    assert trusted(env, "c1", 0.5, "A") == ("B",)


def test_category_history_required():
    env = env_of([rec("A", "D", 0.9, "c2", 1.0)])
    assert trusted(env, "c1", 0.5, "A") == ()
    assert trusted(env, "c2", 0.5, "A") == ("D",)


def test_trusted_edges_are_int_lists_and_a_double_array_over_agent_indices():
    env = env_of([rec("A", "B", 0.9), rec("A", "C", 0.3), rec("X", "C", 0.9), rec("B", "A", 0.6)])
    # Agents A, B, C, X; C is trusted by X only, and A has history in c1.
    ptr, dst, weight = env.trusted_edges("c1", 0.5)
    assert (ptr, dst, list(weight)) == ([0, 1, 2, 2, 3], [1, 0, 2], [0.9, 0.6, 0.9])
    assert type(ptr) is list and type(dst) is list
    assert all(type(x) is int for x in ptr + dst)
    assert isinstance(weight, array) and weight.typecode == "d"
    assert all(type(x) is float for x in weight)
    # Edges in (src, dst) order: A->B, A->C, B->A, X->C; all but A->C are kept.
    assert list(weight) == env.weight[[0, 2, 3]].tolist()
    # trusted_arcs holds the same edges, read-only, from the same cache entry.
    tails, heads = env.trusted_arcs("c1", 0.5)
    assert (tails.tolist(), heads.tolist()) == ([0, 1, 3], dst)
    for column in (tails, heads):
        assert column.dtype == np.intp and not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 2
    tails, heads = env.trusted_arcs("c1", 0.95)
    assert (tails.tolist(), heads.tolist()) == ([], [])
    assert env.trusted_edges("c1", 0.95)[1] == []
    assert env.trusted_in_weight("c1", 0.95) == [0.0] * 4
    tails, heads = env.trusted_arcs("c1", 0.3)
    assert (tails.tolist(), heads.tolist()) == ([0, 0, 1, 3], [1, 2, 0, 2])
    # Each agent's largest kept in-edge weight: C takes X->C's 0.9 over A->C's 0.3.
    assert env.trusted_in_weight("c1", 0.3) == [0.6, 0.9, 0.9, 0.0]
    for threshold in (math.nan, math.inf, None):
        with pytest.raises(ValueError, match="must be a finite number"):
            env.trusted_arcs("c1", threshold)
        with pytest.raises(ValueError, match="must be a finite number"):
            env.trusted_in_weight("c1", threshold)


def test_unknown_agent_rejected():
    env = env_of([rec("A", "B", 0.9)])
    with pytest.raises(UnknownAgentError):
        propagation_probabilities(env, "Z", ["B"], "c1", 0.01)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, "0.5", None])
def test_threshold_that_is_not_a_finite_number_rejected(threshold):
    env = env_of([rec("A", "B", 0.9)])
    with pytest.raises(ValueError, match="must be a finite number"):
        env.trusted_edges("c1", threshold)
    assert not env._trusted


def test_threshold_rule_does_not_depend_on_the_cache():
    env = env_of([rec("A", "B", 0.9), rec("A", "C", 0.3)])
    assert trusted(env, "c1", 1, "A") == ()
    # True == 1 and hashes alike, but is not a number by the input rule.
    with pytest.raises(ValueError, match="must be a finite number"):
        env.trusted_edges("c1", True)


def test_neighbour_cache_keeps_one_threshold_per_category():
    env = env_of([rec("A", "B", 0.9), rec("A", "C", 0.3)])
    weights = {b: env.edges[("A", b)].weight for b in ("B", "C")}
    for step in range(100):
        threshold = step / 100
        expected = tuple(b for b in ("B", "C") if weights[b] >= threshold)
        assert trusted(env, "c1", threshold, "A") == expected
    assert list(env._trusted) == ["c1"]
    assert env._trusted["c1"][0] == 0.99


# --- propagation probabilities ------------------------------------------

def test_single_neighbour_gets_all_mass():
    log = [rec("A", "B", 0.9, "c1", 1.0)]
    env = env_of(log)
    probs = propagation_probabilities(env, "A", ["B"], "c1", 0.0)
    assert probs == {"B": 1.0}


def test_symmetric_neighbours_split_evenly():
    log = [rec("A", "B", 0.9, "c1", 1.0), rec("A", "C", 0.9, "c1", 1.0)]
    env = env_of(log)
    probs = propagation_probabilities(env, "A", ["B", "C"], "c1", 0.2)
    assert probs["B"] == pytest.approx(0.5, abs=1e-15)
    assert probs["C"] == pytest.approx(0.5, abs=1e-15)


def test_log_count_normalization():
    log = [
        rec("A", "B", 0.9, "c1", 1.0),
        rec("A", "C", 0.9, "c1", 1.0),
        rec("A", "C", 0.9, "c1", 2.0),
        rec("A", "C", 0.9, "c1", 3.0),
    ]
    env = env_of(log)
    probs = propagation_probabilities(env, "A", ["B", "C"], "c1", 0.0)
    raw_b = math.log(2) / math.log(4)
    expected_b = raw_b / (raw_b + 1.0)
    assert probs["B"] == pytest.approx(0.3333, abs=1e-4)
    assert probs["C"] == pytest.approx(0.6667, abs=1e-4)
    assert probs["B"] == pytest.approx(expected_b, abs=1e-15)


def test_zero_activity_falls_back_to_uniform():
    log = [rec("A", "B", 0.9, "c2", 1.0), rec("A", "C", 0.9, "c2", 1.0)]
    env = env_of(log)
    probs = propagation_probabilities(env, "A", ["B", "C"], "c1", 0.1)
    assert probs["B"] == probs["C"] == 0.5


def test_empty_neighbour_set_rejected():
    log = [rec("A", "B", 0.9)]
    env = env_of(log)
    with pytest.raises(ValueError):
        propagation_probabilities(env, "A", [], "c1", 0.0)


def test_unknown_neighbour_rejected():
    # It was given the probability 0 of an agent without activity: {"B": 1.0, "ZZ": 0.0}.
    env = env_of([rec("A", "B", 0.9)])
    with pytest.raises(UnknownAgentError, match="'ZZ'"):
        propagation_probabilities(env, "A", ["B", "ZZ"], "c1", 0.01)


def test_repeated_neighbour_rejected():
    # One copy would be dropped by the dict while both shared the mass: {"B": 0.5}.
    env = env_of([rec("A", "B", 0.9)])
    with pytest.raises(ValueError, match="repeats"):
        propagation_probabilities(env, "A", ["B", "B"], "c1", 0.01)


def test_recency_terms_below_the_normal_floats_keep_their_split():
    # exp(-10 * 99) and exp(-10 * 98) are both 0.0; from C's last time the terms are e^-10 and 1.
    env = build_environment([rec("A", "B", 0.9, "c", 1.0), rec("A", "C", 0.9, "c", 2.0)], 100.0)
    probs = propagation_probabilities(env, "A", ["B", "C"], "c", 10.0)
    share = math.exp(-10) / (1 + math.exp(-10))
    assert probs["B"] == pytest.approx(share, rel=1e-12)
    assert probs["C"] == pytest.approx(1 - share, rel=1e-12)
    assert share == pytest.approx(4.54e-5, rel=1e-3)


def test_search_weighs_underflowed_recency_terms_from_the_newest():
    log = [rec("A", "B", 0.9, "c", 1.0), rec("A", "C", 0.9, "c", 2.0)]
    env = build_environment(log, 100.0, 0.0, [AgentProfile("D")])
    table = find_paths(env, log, "A", "D", "c", TrustConfig(recency_rate=10.0))
    share = math.exp(-10) / (1 + math.exp(-10))
    assert table.rows["B"].cum_prob == pytest.approx(share, rel=1e-12)
    assert table.rows["C"].cum_prob == pytest.approx(1 - share, rel=1e-12)


@pytest.mark.parametrize(
    "log, category, rate, branch",
    [
        # B's raw term is log(3) / log(3) * exp(-0.3 * 7), normalized by itself.
        ([rec("A", "B", 0.9, "c1", 1.0), rec("X", "B", 0.4, "c1", 3.0)], "c1", 0.3, "normal"),
        # exp(-1000 * 9) is 0.0: the terms are taken again from B's own last time.
        ([rec("A", "B", 0.9, "c1", 1.0)], "c1", 1000.0, "rebased"),
        # B has no count on c1: the uniform split over one neighbour.
        ([rec("A", "B", 0.9, "c2", 1.0)], "c1", 0.1, "uniform"),
    ],
    ids=["normal", "rebased", "uniform"],
)
def test_a_lone_neighbour_is_consulted_with_probability_exactly_one(log, category, rate, branch):
    """The search attaches a lone neighbour with 1.0 and no consultation: each
    branch of the consultation must give exactly that."""
    env = env_of(log)
    count, _, recency, _ = env.consultation_terms(category, rate)[env.index["B"]]
    assert {
        "normal": count > 0 and sys.float_info.min <= recency < 1.0,
        "rebased": count > 0 and recency == 0.0,
        "uniform": count == 0,
    }[branch]
    probs = propagation_probabilities(env, "A", ["B"], category, rate)
    assert probs == {"B": 1.0} and type(probs["B"]) is float


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=6))
@settings(max_examples=60)
def test_probabilities_sum_to_one(counts):
    neighbours = [f"N{i}" for i in range(len(counts))]
    log = []
    t = 1.0
    for name, n in zip(neighbours, counts):
        for _ in range(n):
            log.append(rec("X", name, 0.9, "c1", t))
            t += 0.25
    log.append(rec("A", "B", 0.9, "c2", 1.0))  # anchors A in the environment
    # A neighbour with no records is a known agent without activity.
    env = env_of(log, [AgentProfile(id=name) for name in neighbours], at=100.0)
    probs = propagation_probabilities(env, "A", neighbours, "c1", 0.05)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(0.0 <= p <= 1.0 for p in probs.values())


# --- path search ---------------------------------------------------------

def two_chain_log():
    return [
        rec("tr", "x1", 0.9, "c1", 1.0),
        rec("x1", "a1", 0.7, "c1", 1.0),
        rec("tr", "x2", 0.8, "c1", 1.0),
        rec("x2", "a2", 0.9, "c1", 1.0),
        rec("a1", "te", 0.7, "c1", 1.0),
        rec("a2", "te", 0.8, "c1", 1.0),
    ]


def test_two_path_topology_yields_two_trustee_rows():
    log = two_chain_log()
    env = env_of(log)
    table = find_paths(env, log, "tr", "te", "c1", CFG)
    pairs = sorted(
        (row.rating, table.rows[row.advisor].cum_trust) for row in table.trustee_rows
    )
    assert len(pairs) == 2
    assert pairs[0] == (pytest.approx(0.7), pytest.approx(0.63))
    assert pairs[1] == (pytest.approx(0.8), pytest.approx(0.72))


def test_two_path_aggregation_matches_weighted_mean():
    log = two_chain_log()
    env = env_of(log)
    table = find_paths(env, log, "tr", "te", "c1", CFG)
    value = aggregate(table, 0.6, 0.9)
    expected = (0.7 * 0.63 + 0.8 * 0.72) / (0.63 + 0.72)
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(113 / 150, abs=1e-9)


def test_direct_neighbour_trustee_single_row():
    log = [rec("A", "B", 0.6, "c1", 1.0)]
    env = env_of(log)
    table = find_paths(env, log, "A", "B", "c1", CFG)
    assert list(table.rows) == ["A"]
    assert len(table.trustee_rows) == 1
    row = table.trustee_rows[0]
    assert row.advisor == "A" and row.path == ("A",)
    assert row.rating == 0.6


def test_untrusted_intermediate_blocks_propagation():
    log = [
        rec("tr", "u", 0.4, "c1", 1.0),
        rec("u", "te", 0.9, "c1", 1.0),
    ]
    env = env_of(log)
    table = find_paths(env, log, "tr", "te", "c1", CFG)
    assert table.trustee_rows == []
    assert aggregate(table, 0.5, 0.9) is None


def test_zero_step_budget_keeps_only_trustor_row():
    log = two_chain_log()
    env = env_of(log)
    cfg = TrustConfig(decay_rate=0.0, recency_rate=0.0, search_steps=0)
    table = find_paths(env, log, "tr", "te", "c1", cfg)
    assert list(table.rows) == ["tr"]
    assert table.trustee_rows == []


def test_equal_keys_break_ties_to_the_smaller_id():
    # "n10" < "n9" as ids, though n9 comes first in the log and by number.
    log = [
        rec("tr", "n9", 0.8, "c1", 1.0),
        rec("tr", "n10", 0.8, "c1", 1.0),
        rec("n9", "te", 0.9, "c1", 2.0),
        rec("n10", "te", 0.7, "c1", 2.0),
    ]
    env = env_of(log)
    table = find_paths(env, log, "tr", "te", "c1", CFG)
    keys = {a: table.rows[a].cum_prob * table.rows[a].cum_trust for a in ("n9", "n10")}
    assert keys["n9"] == keys["n10"]
    assert [row.advisor for row in table.trustee_rows] == ["n10", "n9"]
    budgeted = find_paths(env, log, "tr", "te", "c1", dataclasses.replace(CFG, search_steps=2))
    assert [row.advisor for row in budgeted.trustee_rows] == ["n10"]


def test_direct_edge_shortcut_is_skipped():
    log = [
        rec("tr", "a", 0.95, "c1", 1.0),
        rec("a", "b", 0.95, "c1", 1.0),
        rec("tr", "b", 0.55, "c1", 1.0),
        rec("b", "te", 0.9, "c1", 1.0),
    ]
    env = env_of(log)
    table = find_paths(env, log, "tr", "te", "c1", CFG)
    # b would score higher through a, but the trustor's own edge wins
    assert table.rows["b"].path == ("tr",)
    assert table.rows["b"].cum_trust == pytest.approx(0.55, abs=1e-15)
    value = aggregate(table, 0.5, 0.9)
    assert value == pytest.approx(0.9 * 0.9**2, abs=1e-12)


def test_reattachment_updates_trust_and_rescales_siblings():
    log = [
        rec("tr", "a", 0.6, "c1", 1.0),
        rec("tr", "a", 0.6, "c1", 1.5),
        rec("tr", "a", 0.6, "c1", 2.0),
        rec("tr", "a", 0.6, "c1", 2.5),
        rec("tr", "a", 0.6, "c1", 3.0),
        rec("tr", "b", 0.9, "c1", 1.0),
        rec("a", "x", 0.9, "c1", 1.0),
        rec("b", "x", 0.9, "c1", 2.0),
        rec("a", "y", 0.8, "c1", 3.0),
        rec("x", "te", 0.75, "c1", 4.0),
    ]
    env = env_of(log)
    table = find_paths(env, log, "tr", "te", "c1", CFG)

    # expected expansion: a first (its activity outweighs b's higher edge)
    raw_b = math.log(3) / math.log(8)
    p_a = 1.0 / (1.0 + raw_b)
    assert p_a * 0.6 > (1.0 - p_a) * 0.9

    # x ends up re-attached under b with the larger path product
    assert table.rows["x"].path == ("tr", "b")
    assert table.rows["x"].cum_trust == pytest.approx(0.81, abs=1e-15)

    # y's probability was rescaled when x left a's subtree
    p_x_old = p_a * (2.0 / 3.0)
    p_y_old = p_a * (1.0 / 3.0)
    assert table.rows["y"].cum_prob == pytest.approx(p_y_old / (1.0 - p_x_old), abs=1e-12)

    # single surviving path: rating 0.75 over three hops
    value = aggregate(table, 0.5, 0.9)
    assert value == pytest.approx(0.75 * 0.9**3, abs=1e-12)

    # exhaustive enumeration agrees on this acyclic instance
    assert is_acyclic(env)
    reference = oracle_indirect(env, log, "tr", "te", "c1", CFG)
    assert value == pytest.approx(reference, abs=1e-12)


def test_detach_rescales_old_descendants_through_a_stale_chain():
    # Busy outsiders make a, x and c the likely consultations.  Expansion
    # order: tr, a, x (attaches y under tr-a-x), y, b (re-attaches x under
    # tr-b, y keeps its stored chain tr-a-x), w, c.  c then re-attaches w,
    # whose old path tr-a prefixes y's stale chain, so y is rescaled.
    log = [
        rec("tr", "a", 1.0),
        rec("tr", "b", 0.9),
        rec("a", "x", 0.8),
        rec("a", "w", 0.6),
        rec("x", "y", 0.9),
        rec("y", "te", 0.8),
        rec("b", "x", 0.95),
        rec("b", "c", 0.95),
        rec("c", "w", 0.95),
    ] + [rec("o", agent, 0.5) for agent, n in (("a", 60), ("x", 60), ("c", 100)) for _ in range(n)]
    env = env_of(log)

    def search(steps):
        cfg = TrustConfig(decay_rate=0.0, recency_rate=0.0, search_steps=steps)
        return find_paths(env, log, "tr", "te", "c1", cfg)

    before, table = search(6), search(7)
    p_w, p_y = before.rows["w"].cum_prob, before.rows["y"].cum_prob
    assert table.rows["y"].cum_prob == pytest.approx(p_y / (1.0 - p_w), abs=1e-15)
    # recorded from the earlier _detach that scanned every row
    assert table.to_dict() == {
        "trustor": "tr",
        "trustee": "te",
        "category": "c1",
        "time": 10.0,
        "rows": [
            {"agent": "tr", "cum_prob": 1.0, "cum_trust": 1.0, "path": []},
            {"agent": "a", "cum_prob": 0.7499999999999999, "cum_trust": 1.0, "path": ["tr"]},
            {"agent": "b", "cum_prob": 0.25, "cum_trust": 0.9, "path": ["tr"]},
            {
                "agent": "y",
                "cum_prob": 0.9651960110519825,
                "cum_trust": 0.7200000000000001,
                "path": ["tr", "a", "x"],
            },
            {
                "agent": "c",
                "cum_prob": 0.13176408484073546,
                "cum_trust": 0.855,
                "path": ["tr", "b"],
            },
            {
                "agent": "x",
                "cum_prob": 0.11823591515926454,
                "cum_trust": 0.855,
                "path": ["tr", "b"],
            },
            {
                "agent": "w",
                "cum_prob": 0.13176408484073546,
                "cum_trust": 0.8122499999999999,
                "path": ["tr", "b", "c"],
            },
        ],
        "trustee_rows": [{"advisor": "y", "rating": 0.8, "path": ["tr", "a", "x", "y"]}],
    }


def test_cycles_terminate_and_stay_loop_free():
    log = [
        rec("tr", "a", 0.9, "c1", 1.0),
        rec("a", "b", 0.9, "c1", 1.0),
        rec("b", "a", 0.9, "c1", 1.0),
        rec("b", "te", 0.8, "c1", 1.0),
    ]
    env = env_of(log)
    table = find_paths(env, log, "tr", "te", "c1", CFG)  # check() runs internally
    assert table.rows["b"].path == ("tr", "a")
    assert len(table.trustee_rows) == 1


def test_search_is_deterministic():
    log = two_chain_log() + [rec("x1", "x2", 0.7, "c1", 2.0), rec("a2", "a1", 0.6, "c1", 2.0)]
    env = env_of(log)
    first = find_paths(env, log, "tr", "te", "c1", CFG).to_dict()
    second = find_paths(env, log, "tr", "te", "c1", CFG).to_dict()
    assert first == second


def test_unknown_agents_rejected():
    log = [rec("A", "B", 0.9)]
    env = env_of(log)
    with pytest.raises(UnknownAgentError):
        find_paths(env, log, "Z", "B", "c1", CFG)
    with pytest.raises(UnknownAgentError):
        find_paths(env, log, "A", "Z", "c1", CFG)


def test_search_from_an_agent_to_itself_rejected():
    log = [rec("A", "B", 0.9)]
    with pytest.raises(ValueError, match="trustor and trustee must differ"):
        find_paths(env_of(log), log, "A", "A", "c1", CFG)


# --- aggregation ----------------------------------------------------------

def synthetic_table(pairs):
    """Table with one advisor row and trustee row per (rating, path_trust)."""
    table = PropagationTable(trustor="tr", trustee="te", category="c1", eval_time=10.0)
    table.rows["tr"] = TableRow(agent="tr", cum_prob=1.0, cum_trust=1.0, path=())
    for i, (rating, weight) in enumerate(pairs):
        advisor = f"adv{i}"
        table.rows[advisor] = TableRow(
            agent=advisor, cum_prob=0.5, cum_trust=weight, path=("tr",)
        )
        table.trustee_rows.append(
            TrusteeRow(advisor=advisor, rating=rating, path=("tr", advisor))
        )
    return table


def test_aggregate_weighted_mean_of_two_paths():
    table = synthetic_table([(0.7, 0.63), (0.8, 0.72)])
    value = aggregate(table, 0.6, 0.9)
    assert value == pytest.approx((0.7 * 0.63 + 0.8 * 0.72) / (0.63 + 0.72), abs=1e-15)


def test_aggregate_single_path_decays_per_hop():
    table = synthetic_table([(0.8, 0.9)])
    value = aggregate(table, 0.5, 0.9)
    assert value == pytest.approx(0.8 * 0.81, abs=1e-15)


def test_aggregate_filters_everything_below_threshold():
    table = synthetic_table([(0.7, 0.4), (0.8, 0.5)])
    assert aggregate(table, 0.5, 0.9) is None


def test_aggregate_threshold_is_strict():
    table = synthetic_table([(0.7, 0.6), (0.8, 0.72)])
    value = aggregate(table, 0.6, 0.9)
    # the 0.6 path sits exactly on the threshold and is dropped
    assert value == pytest.approx(0.8 * 0.9**2, abs=1e-15)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=0.51, max_value=1.0, allow_nan=False),
        ),
        min_size=2,
        max_size=8,
    )
)
@settings(max_examples=60)
def test_aggregate_is_convex_combination(pairs):
    table = synthetic_table(pairs)
    value = aggregate(table, 0.5, 0.9)
    lo = min(r for r, _ in pairs)
    hi = max(r for r, _ in pairs)
    assert lo - 1e-12 <= value <= hi + 1e-12


# --- oracle agreement -----------------------------------------------------

def test_engine_matches_exhaustive_oracle_on_small_instances():
    report = compare_indirect(range(24), TrustConfig())
    assert report["mismatches"] == 0
    assert report["max_deviation"] <= 1e-9
    assert report["acyclic"] >= 8 and report["cyclic"] >= 8
    assert report["with_paths"] >= 5


def test_oracle_report_has_one_rule_for_every_instance():
    report = compare_indirect(range(4), TrustConfig())
    assert list(report) == [
        "instances", "acyclic", "cyclic", "mismatches", "max_deviation", "with_paths", "deviations",
    ]


def canonical_instance(profiles, log) -> str:
    return repr(([(p.id, sorted(p.completed), sorted(p.able)) for p in profiles], log))


def test_instance_draws_are_unchanged():
    # Recorded before indirect_instance and reputation_instance shared one draw loop.
    digest = hashlib.sha256()
    for seed in range(100):
        for args in ((seed,), (seed, 10, 3), (seed, 12, 3)):
            profiles, log, *query = indirect_instance(*args)
            digest.update((canonical_instance(profiles, log) + repr(query)).encode())
        digest.update(canonical_instance(*reputation_instance(seed)).encode())
        digest.update(canonical_instance(*reputation_instance(seed, 200)).encode())
    assert digest.hexdigest() == (
        "043ea4c68b1203cd6a05e8a5e047cabf234702156a6e169f3508fa181fcb7b92"
    )


def test_final_trust_equals_max_path_product_on_every_instance():
    checked = cyclic = 0
    for seed in range(40):  # even seeds are acyclic, odd ones mostly cyclic
        profiles, log, trustor, trustee, category = indirect_instance(seed, 10, 2)
        env = build_environment(log, 100.0, 0.0, profiles)
        cyclic += not is_acyclic(env)
        cfg = TrustConfig(decay_rate=0.0)
        table = find_paths(env, log, trustor, trustee, category, cfg)
        labels = best_paths(env, trustor, trustee, category, cfg.trust_threshold)
        assert set(table.rows) == set(labels)
        for agent, row in table.rows.items():
            assert row.cum_trust == pytest.approx(labels[agent][0], abs=1e-12)
            checked += 1
    assert checked > 80 and cyclic >= 10


@given(logs(min_size=1, max_size=30))
@settings(max_examples=80)
def test_search_survives_arbitrary_logs(log):
    env = build_environment(log, 100.0, 0.01)
    agents = sorted(env.agents)
    assume(len(agents) >= 2)
    cfg = TrustConfig()
    table = find_paths(env, log, agents[0], agents[-1], "c1", cfg)  # check() runs inside
    value = aggregate(table, cfg.path_threshold, cfg.path_decay)
    assert value is None or 0.0 <= value <= 1.0
    if len(env.agents) <= 12:
        reference = oracle_indirect(env, log, agents[0], agents[-1], "c1", cfg)
        if value is None:
            assert reference is None
        else:
            assert value == pytest.approx(reference, abs=1e-9)


def test_step_budget_runs_are_reproducible():
    log = two_chain_log() + [rec("x1", "x2", 0.7, "c1", 2.0)]
    env = env_of(log)
    for budget in (0, 1, 2, 3, 10):
        cfg = TrustConfig(decay_rate=0.0, recency_rate=0.0, search_steps=budget)
        first = find_paths(env, log, "tr", "te", "c1", cfg).to_dict()
        second = find_paths(env, log, "tr", "te", "c1", cfg).to_dict()
        assert first == second
        assert len(first["rows"]) <= budget + 3


# --- exact output of the search --------------------------------------------
#
# The digests below were recorded from the search that pushed a heap entry
# per rescaled row and filtered each neighbourhood at every expansion; the
# per-snapshot caches and the one push per moved row must keep every table,
# expansion count and stop reason bit for bit.

BUDGETS = (None, *range(1, 9))


def search_digest(worlds) -> str:
    """SHA-256 over to_dict(), expansions and stop_reason of every search, in order.

    ``worlds`` yields (env, log, trustor, trustee, category, config) tuples;
    each is searched unbounded and with search_steps 1-8.
    """
    digest = hashlib.sha256()
    for env, log, trustor, trustee, category, config in worlds:
        for steps in BUDGETS:
            cfg = dataclasses.replace(config, search_steps=steps)
            table = find_paths(env, log, trustor, trustee, category, cfg)
            record = [table.to_dict(), table.expansions, table.stop_reason]
            digest.update(json.dumps(record, sort_keys=True).encode())
    return digest.hexdigest()


def instance_worlds(seeds, max_agents):
    for seed in seeds:
        profiles, log, trustor, trustee, category = indirect_instance(seed, max_agents, 2)
        env = build_environment(log, 100.0, 0.0, profiles)
        yield env, log, trustor, trustee, category, TrustConfig(decay_rate=0.0)


def dense_worlds():
    """Generated worlds of 40 agents and 1,200 interactions: many re-attachments."""
    cfg = TrustConfig()
    for seed in range(3):
        params = GenParams(
            seed=seed, n_agents=40, n_interactions=1200,
            rating_model=RatingModel.PER_AGENT_QUALITY,
        )
        profiles, log = generate(params)
        env = build_environment(log, 100.0, cfg.decay_rate, profiles)
        agents = sorted(env.agents)
        for q in range(6):
            category = "c0" if q % 2 else "c1"
            yield env, log, agents[q], agents[-1 - q], category, cfg


def twice_rescaled_log():
    """b's expansion re-attaches y1, then y2; each detach rescales z, still on the frontier.

    Busy outsiders make a the likelier consultation, so the search expands
    tr, a (attaching y1, y2 and z under tr-a), then b, whose edges give y1
    and y2 more trust than the chain through a.
    """
    return [
        rec("tr", "a", 1.0),
        rec("tr", "b", 0.9),
        rec("a", "y1", 0.6),
        rec("a", "y2", 0.6),
        rec("a", "z", 0.6),
        rec("b", "y1", 0.9),
        rec("b", "y2", 0.9),
        rec("z", "te", 0.7),
        rec("y1", "te", 0.8),
        rec("y2", "te", 0.9),
    ] + [rec("o", "a", 0.5) for _ in range(20)]


def test_search_output_is_unchanged_on_indirect_instances():
    digest = search_digest(instance_worlds(range(60), 30))
    assert digest == "b75b80768842c279d47a07a40db7837a89534aceaf788d3fe4cd6d6cffab1e5b"


def test_search_output_is_unchanged_on_dense_worlds():
    assert search_digest(dense_worlds()) == (
        "468b14e01a07cc71f1922133bcf7954cc29a7478b47d98fa553994c4a559e0d6"
    )


def test_search_output_is_unchanged_when_one_expansion_rescales_a_row_twice():
    log = twice_rescaled_log()
    env = env_of(log)
    worlds = [(env, log, "tr", "te", "c1", CFG)]
    assert search_digest(worlds) == (
        "1cd7a154c2914324aff807b64966c82b6b967bc1c01c978c7bd3c783348a2425"
    )
    table = find_paths(env, log, "tr", "te", "c1", CFG)
    assert [row.path for row in map(table.rows.get, ("z", "y1", "y2"))] == [
        ("tr", "a"), ("tr", "b"), ("tr", "b")
    ]


def counter_digest(worlds) -> str:
    """SHA-256 over expansions, reattachments and stop_reason of every search, in order.

    The same searches as :func:`search_digest`, whose records leave out
    the re-attachment count.
    """
    digest = hashlib.sha256()
    for env, log, trustor, trustee, category, config in worlds:
        for steps in BUDGETS:
            cfg = dataclasses.replace(config, search_steps=steps)
            table = find_paths(env, log, trustor, trustee, category, cfg)
            record = [table.expansions, table.reattachments, table.stop_reason]
            digest.update(json.dumps(record).encode())
    return digest.hexdigest()


# Recorded from the search that kept a TableRow per reached agent and a dict
# from agent to its path's node.

def test_search_counters_are_unchanged_on_indirect_instances():
    assert counter_digest(instance_worlds(range(60), 30)) == (
        "5f8c223468dccbb6caff142aaa1722fa677dc7c9834a0b7ab15301af1697596b"
    )


def test_search_counters_are_unchanged_on_dense_worlds():
    assert counter_digest(dense_worlds()) == (
        "de50df3d857ab926b8b7890138bb401a046dcb72bcf81b2b84c744bac1ffeb18"
    )


def test_search_makes_one_table_row_per_returned_row(monkeypatch):
    made = []

    def counted(*args):
        made.append(TableRow(*args))
        return made[-1]

    monkeypatch.setattr(indirect, "TableRow", counted)
    reattached = 0
    for env, log, trustor, trustee, category, cfg in dense_worlds():
        made.clear()
        table = find_paths(env, log, trustor, trustee, category, cfg)
        assert list(map(id, made)) == list(map(id, table.rows.values()))
        reattached += table.reattachments
    assert reattached > 0  # the worlds re-attach, which once made a second row per agent


# --- re-attachment counter ---------------------------------------------------

def test_reattachments_are_counted_and_reported():
    log = twice_rescaled_log()
    env = env_of(log)
    table = find_paths(env, log, "tr", "te", "c1", CFG)
    assert table.reattachments == 2
    assert "reattachments" not in table.to_dict()
    budgeted = find_paths(env, log, "tr", "te", "c1", dataclasses.replace(CFG, search_steps=2))
    assert budgeted.reattachments == 0
    # A budget too large to stop still runs find_paths, which reports its re-attachments.
    large = evaluate(env, log, "tr", "te", "c1", 10.0, dataclasses.replace(CFG, search_steps=1000))
    assert large.diagnostics["search_reattached"] == 2
    assert large.diagnostics["search_stop"] == "exhausted"
    # Without a budget the label-setting search settles each agent once.
    report = evaluate(env, log, "tr", "te", "c1", 10.0, CFG)
    tree = indirect.settle_paths(env, "tr", "te", "c1", CFG)
    assert report.diagnostics["search_reattached"] == 0
    assert report.diagnostics["search_expansions"] == len(tree.order) == len(table.rows)


def test_search_without_a_better_chain_reattaches_nothing():
    log = two_chain_log()
    assert find_paths(env_of(log), log, "tr", "te", "c1", CFG).reattachments == 0


# --- label-setting search ----------------------------------------------------

def settled_labels(tree) -> dict:
    """agent id -> (product, hops) of every settled agent."""
    return {tree.ids[a]: (tree.trust[a], tree.hops[a]) for a in tree.order}


def test_settle_paths_keeps_each_agents_best_chain():
    log = twice_rescaled_log()
    env = env_of(log)
    tree = indirect.settle_paths(env, "tr", "te", "c1", CFG)
    assert tree.ids[tree.order[0]] == "tr"
    assert tree.chain(env.index["y1"]) == ["tr", "b", "y1"]
    assert tree.chain(env.index["z"]) == ["tr", "a", "z"]
    table = find_paths(env, log, "tr", "te", "c1", CFG)
    assert settled_labels(tree) == {
        agent: (row.cum_trust, len(row.path)) for agent, row in table.rows.items()
    }
    assert tree.discovered == len(table.trustee_rows) == 3
    assert tree.reached == len(table.rows)
    assert [tree.ids[a] for a, _, _ in tree.retained()] == ["y1", "y2", "z"]


def test_settle_paths_breaks_a_tied_product_by_fewer_hops():
    # tr -> x -> m -> a and tr -> y -> a both carry 0.5.  m settles before y
    # and reaches a first, then y's shorter chain replaces it.  b hangs off
    # y alone, below either floor; advisor w only off x -> w, an edge below
    # the trust threshold; advisor z only off the trustee.  None of the three
    # is settled, and only b is reached.
    log = [
        rec("tr", "x", 1.0),
        rec("x", "m", 1.0),
        rec("m", "a", 0.5),
        rec("tr", "y", 0.5),
        rec("y", "a", 1.0),
        rec("a", "te", 0.6),
        rec("y", "b", 0.7),
        rec("x", "w", 0.3),
        rec("w", "te", 0.8),
        rec("te", "z", 1.0),
        rec("z", "te", 0.7),
    ]
    env = env_of(log)
    below_a = dataclasses.replace(CFG, path_threshold=0.4)
    tree = indirect.settle_paths(env, "tr", "te", "c1", below_a)
    assert [tree.ids[a] for a in tree.order] == ["tr", "x", "m", "y", "a"]
    assert tree.chain(env.index["a"]) == ["tr", "y", "a"]
    assert (tree.trust[env.index["a"]], tree.hops[env.index["a"]]) == (0.5, 2)
    assert (tree.reached, tree.discovered) == (6, 1)
    value = indirect.aggregate_settled(tree, 0.9)
    assert value == 0.6 * 0.9**3
    # At the default path threshold of 0.5, y and a lie on it: y, trusted
    # directly, is reached only below the floor, and so are a (discovered)
    # and b; none of them is settled.
    floored = indirect.settle_paths(env, "tr", "te", "c1", CFG)
    assert [floored.ids[a] for a in floored.order] == ["tr", "x", "m"]
    assert (floored.reached, floored.discovered) == (6, 1)
    assert floored.retained() == []
    assert indirect.aggregate_settled(floored, 0.9) is None


def test_settle_paths_rejects_what_find_paths_rejects():
    env = env_of(two_chain_log())
    with pytest.raises(UnknownAgentError):
        indirect.settle_paths(env, "nobody", "te", "c1", CFG)
    with pytest.raises(UnknownAgentError):
        indirect.settle_paths(env, "tr", "nobody", "c1", CFG)
    with pytest.raises(ValueError, match="must differ"):
        indirect.settle_paths(env, "tr", "tr", "c1", CFG)


def corrupt(tree, **changes):
    """A copy of ``tree`` whose lists are copied, then changed per agent index."""
    copy = dataclasses.replace(
        tree,
        order=list(tree.order),
        trust=list(tree.trust),
        hops=list(tree.hops),
        parent=list(tree.parent),
    )
    for name, (agent, value) in changes.items():
        getattr(copy, name)[agent] = value
    return copy


def test_tree_check_names_the_broken_rule():
    log = two_chain_log()
    env = env_of(log)
    tree = indirect.settle_paths(env, "tr", "te", "c1", CFG)
    at = env.index
    tree.check(env, CFG.trust_threshold)
    cases = [
        (corrupt(tree, trust=(at["a1"], 0.7)), "is not its parent's times the hop"),
        (corrupt(tree, parent=(at["a1"], at["a2"])), "not settled before it"),
        (corrupt(tree, hops=(at["a1"], 5)), "not settled before it"),
        (corrupt(tree, parent=(at["a2"], at["x1"])), "untrusted hop 'x1'->'a2'"),
        (corrupt(tree, trust=(at["tr"], 0.5)), "is not settled first"),
    ]
    twice = corrupt(tree)
    twice.order.append(twice.order[-1])
    cases.append((twice, "is settled twice"))
    # a1's chain carries 0.63, a2's 0.72
    cases.append((dataclasses.replace(tree, path_threshold=0.7), "'a1' is settled at or below"))
    cases.append((dataclasses.replace(tree, reached=len(tree.order) - 1), "but only 4 reached"))
    cases.append((dataclasses.replace(tree, discovered=3), "but only 2 exist"))
    cases.append((dataclasses.replace(tree, discovered=1), "1 advisors discovered, but 2 are"))
    # The search settled both advisors, a2 (0.72), then a1 (0.63), and emptied its heap.
    assert tree.stopped_at is None
    unsettled = corrupt(tree)
    assert unsettled.order.pop() == at["a1"]
    cases.append((unsettled, "advisor 'a1' is left unsettled above the path threshold"))
    # Had the search stopped at 0.9 with a1 never pushed, x1 -> a1 (0.7) could lift it to 0.63.
    unpushed = corrupt(dataclasses.replace(unsettled, stopped_at=0.9), trust=(at["a1"], -1.0))
    cases.append((unpushed, "advisor 'a1' could still rise above the path threshold"))
    for broken, message in cases:
        with pytest.raises(InvariantError, match=message):
            broken.check(env, CFG.trust_threshold)


def test_tree_check_refuses_a_hop_into_the_trustee_or_a_directly_trusted_agent():
    # x1 -> x2 carries 0.81, more than tr -> x2, but tr trusts x2 directly.
    # x2 is an advisor, so the search settles it before it stops.
    log = [
        rec("tr", "x1", 0.9),
        rec("tr", "x2", 0.8),
        rec("x1", "x2", 0.9),
        rec("x1", "te", 0.9),
        rec("x2", "te", 0.7),
    ]
    env = env_of(log)
    tree = indirect.settle_paths(env, "tr", "te", "c1", CFG)
    at = env.index
    assert tree.order == [at["tr"], at["x1"], at["x2"]]
    reparented = corrupt(tree, parent=(at["x2"], at["x1"]), hops=(at["x2"], 2))
    reparented.trust[at["x2"]] = tree.trust[at["x1"]] * 0.9
    with pytest.raises(InvariantError, match="'x2', trusted directly, is entered past"):
        reparented.check(env, CFG.trust_threshold)
    entered = corrupt(tree, parent=(at["te"], at["x1"]), hops=(at["te"], 2))
    entered.trust[at["te"]] = tree.trust[at["x1"]] * 0.9
    entered.order.append(at["te"])
    with pytest.raises(InvariantError, match="trustee 'te' is settled"):
        entered.check(env, CFG.trust_threshold)


TIED_RATINGS = [0.5, 0.75, 1.0, 1.0]


@st.composite
def tied_logs(draw, ratings=TIED_RATINGS):
    """Chains from A, each through B or C and on over up to three of D-G.

    Each hop draws one of ``ratings`` (by default 0.5, 0.75 or 1, twice as
    often), mostly on c1.  An edge keeps its first rating per category, so
    each edge weight is one rating or the mean of two: every chain's product
    is exact in doubles, and many chains tie on their product.  A trusts
    only B and C directly, so the other agents are reached over chains of
    two hops or more.
    """
    rated = {}
    for _ in range(draw(st.integers(2, 6))):
        first = draw(st.sampled_from(["B", "C"]))
        chain = [first] + draw(st.lists(st.sampled_from(AGENTS[3:7]), max_size=3, unique=True))
        for a, b in zip(["A"] + chain, chain):
            key = (a, b, draw(st.sampled_from(["c1", "c1", "c2"])))
            rated.setdefault(key, draw(st.sampled_from(ratings)))
    return [rec(a, b, rating, c) for (a, b, c), rating in rated.items()]


def check_settled_prefix(tree, env, log, trustee, category, threshold):
    """Assert the stopped search's contract against the exhaustive best paths from A.

    The agents whose best product lies above the path threshold (and the
    trustor) are listed by (-product, hops, id), the order a search run to
    the end settles them in.  The settled agents must be a prefix of that
    list, with its labels, and hold every advisor in it; the reach and the
    advisors discovered in it are counted in full.
    """
    labels = best_paths(env, "A", trustee, category, threshold)
    floor = tree.path_threshold
    keepable = sorted(
        (a for a, (p, _, _) in labels.items() if a == "A" or p > floor),
        key=lambda a: (-labels[a][0], labels[a][1], a),
    )
    settled = [tree.ids[a] for a in tree.order]
    assert settled == keepable[: len(settled)]
    assert settled_labels(tree) == {a: labels[a][:2] for a in settled}
    advisors = oracle_advisor_ratings(log, trustee, category, env.snapshot_time)
    assert advisors.keys() & keepable <= set(settled)
    assert tree.reached == len(labels)
    assert tree.discovered == len(advisors.keys() & labels.keys())


@given(tied_logs(), st.sampled_from([0.0, 0.5, 0.6, 0.8]))
@settings(max_examples=300, deadline=None)
def test_settled_labels_equal_the_exhaustive_best_paths_on_tied_products(log, threshold):
    env = env_of(log)
    # Every product here is positive, so at a path threshold of 0 the
    # search settles reached agents until every advisor is settled.
    cfg = dataclasses.replace(CFG, trust_threshold=threshold, path_threshold=0.0)
    for trustee in sorted(env.agents.keys() - {"A"}):
        for category in ("c1", "c2"):
            tree = indirect.settle_paths(env, "A", trustee, category, cfg)
            check_settled_prefix(tree, env, log, trustee, category, threshold)


@given(
    tied_logs(TIED_RATINGS + [0.0]),
    st.sampled_from([0.0, 0.5]),
    st.sampled_from([0.0, 0.5, 0.75, 1.0]),
)
@settings(max_examples=300, deadline=None)
def test_the_search_settles_the_best_paths_above_the_path_threshold(log, threshold, floor):
    # Products land exactly on 0, 0.5, 0.75 and 1, so each floor is met with ties.
    env = env_of(log)
    cfg = dataclasses.replace(CFG, trust_threshold=threshold, path_threshold=floor)
    for trustee in sorted(env.agents.keys() - {"A"}):
        for category in ("c1", "c2"):
            tree = indirect.settle_paths(env, "A", trustee, category, cfg)
            check_settled_prefix(tree, env, log, trustee, category, threshold)


def advisor_cases(env, log, category, threshold) -> dict:
    """Trustees of A on ``category`` by case: A among their advisors, none, or an
    advisor that A trusts directly at ``threshold``."""
    ptr, dst, _ = env.trusted_edges(category, threshold)
    root = env.index["A"]
    direct = set(env.id_array[dst[ptr[root] : ptr[root + 1]]].tolist())
    cases = {"trustor": [], "none": [], "trusted directly": []}
    for trustee in sorted(env.agents.keys() - {"A"}):
        advisors = oracle_advisor_ratings(log, trustee, category, env.snapshot_time)
        if "A" in advisors:
            cases["trustor"].append(trustee)
        if not advisors:
            cases["none"].append(trustee)
        if advisors.keys() & direct:
            cases["trusted directly"].append(trustee)
    return cases


@pytest.mark.parametrize("case", ["trustor", "none", "trusted directly"])
@given(
    tied_logs(),
    st.sampled_from(["c1", "c2"]),
    st.sampled_from([0.0, 0.5]),
    st.sampled_from([0.0, 1.0]),
)
@settings(max_examples=100, deadline=None)
def test_the_search_stops_once_the_advisors_are_decided(case, log, category, threshold, floor):
    # H rates nobody and nobody rates it: a trustee without advisors on either category.
    env = env_of(log, profiles_able_everywhere(["H"]))
    trustees = advisor_cases(env, log, category, threshold)[case]
    assume(trustees)
    cfg = dataclasses.replace(CFG, trust_threshold=threshold, path_threshold=floor)
    for trustee in trustees:
        tree = indirect.settle_paths(env, "A", trustee, category, cfg)
        check_settled_prefix(tree, env, log, trustee, category, threshold)
        if floor == 1.0:
            # No product lies above 1: the trustor alone is settled, with nothing pushed.
            assert (tree.order, tree.stopped_at) == ([env.index["A"]], None)
        if case == "none":
            # Nothing is left to decide once the trustor is settled.
            assert tree.order == [env.index["A"]]


# --- the reach over the kept edges' components ----------------------------------

def graph_reach(n, edges):
    """:func:`build_reach` of the graph on agents ``0..n-1`` with ``edges``, and its
    adjacency lists forwards and backwards."""
    edges = sorted(set(edges))
    tails = np.array([u for u, _ in edges], dtype=np.intp)
    heads = np.array([v for _, v in edges], dtype=np.intp)
    ptr = np.searchsorted(tails, np.arange(n + 1)).tolist()
    out, into = [[] for _ in range(n)], [[] for _ in range(n)]
    for u, v in edges:
        out[u].append(v)
        into[v].append(u)
    return build_reach(ptr, heads.tolist(), tails, heads), out, into


def reached_by_bfs(adjacency, start, closed=None) -> set:
    """The agents ``adjacency`` leads to from ``start``, never through ``closed``."""
    seen, queue = {start, closed}, [start]
    for v in queue:
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen - {closed}


small_graphs = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
    )
)


# 0 is the root of {0, 1, 2} and its only cut, which no dominator from 0 shows.
@example((3, [(0, 1), (1, 0), (0, 2), (2, 0)]))
# 2 is a cut only as a dominator of the reversed edges: 1 reaches 0 only through it.
@example((3, [(0, 1), (1, 2), (2, 0), (0, 2)]))
@given(small_graphs)
@settings(max_examples=200, deadline=None)
def test_cut_flags_and_arcs_equal_a_brute_force(graph):
    n, edges = graph
    edges = [(u, v) for u, v in edges if u != v]
    reach, out, into = graph_reach(n, edges)
    component = reach.component
    for a in range(n):
        # Each component's first agent, the root of its dominators, is checked too.
        members = reached_by_bfs(out, a) & reached_by_bfs(into, a)
        assert members == {b for b in range(n) if component[b] == component[a]}
        assert reach.size[component[a]] == len(members)
        rest = members - {a}
        split = len(members) >= 3 and not (
            rest <= reached_by_bfs(out, min(rest), a) and rest <= reached_by_bfs(into, min(rest), a)
        )
        assert reach.cut[a] == split
    arcs = {}
    for u, v in edges:
        if component[u] != component[v]:
            tails, heads = arcs.setdefault((component[u], component[v]), (set(), set()))
            tails.add(u)
            heads.add(v)
    expected = {
        pair: (min(tails) if len(tails) == 1 else -1, min(heads) if len(heads) == 1 else -1)
        for pair, (tails, heads) in arcs.items()
    }
    got = {
        (c, reach.dst[k]): (reach.tail[k], reach.head[k])
        for c in range(len(reach.size))
        for k in range(reach.ptr[c], reach.ptr[c + 1])
    }
    assert got == expected


# Kept-edge shapes on c1, each edge rated 0.9.
REACH_SHAPES = {
    # Every member splits the cycle: the trustee is a cut, in the trustor's component.
    "3-cycle": [("A", "B"), ("B", "C"), ("C", "A")],
    # A 2-cycle never splits.
    "2-cycle": [("A", "B"), ("B", "A")],
    # Two components joined by the one edge B -> C: its sole tail and sole head.
    "joined": [("A", "B"), ("B", "A"), ("B", "C"), ("C", "D"), ("D", "C")],
    # B is the only link of the chain, and C of the rest of it.
    "chain": [("A", "B"), ("B", "C"), ("C", "D")],
    # C and D lie out of A's reach.
    "cut off": [("A", "B"), ("C", "D"), ("D", "C")],
}


def test_the_forced_shapes_have_their_cuts_and_counts():
    expected_cuts = {"3-cycle": "ABC", "2-cycle": "", "joined": "", "chain": "", "cut off": ""}
    # (trustor, trustee) -> (reached, advisors reached), None where the trustee is a cut.
    # On "joined", A -> B skips the arc whose sole tail is B, and A -> C the one
    # whose sole head is C: only D's rating of C lies past it.
    expected_counts = {
        "3-cycle": {("A", "B"): None, ("B", "C"): None},
        "2-cycle": {("A", "B"): (1, 1), ("B", "A"): (1, 1)},
        "joined": {("A", "B"): (1, 1), ("A", "C"): (2, 1), ("B", "D"): (3, 1), ("C", "B"): (2, 0)},
        "chain": {("A", "B"): (1, 1), ("A", "C"): (2, 1), ("A", "D"): (3, 1), ("C", "A"): (2, 0)},
        "cut off": {("A", "C"): (2, 0), ("C", "A"): (2, 0), ("C", "D"): (1, 1)},
    }
    for shape, edges in REACH_SHAPES.items():
        log = [rec(a, b, 0.9) for a, b in edges]
        env = env_of(log)
        reach = env.trusted_reach("c1", 0.5)
        assert [a for a in env.ids if reach.cut[env.index[a]]] == list(expected_cuts[shape])
        for (trustor, trustee), counts in expected_counts[shape].items():
            advisors = env.advisor_ratings(env.index[trustee], "c1")
            got = reach.count(env.index[trustor], env.index[trustee], advisors)
            assert got == counts, (shape, trustor, trustee)


@st.composite
def shaped_logs(draw):
    """One of :data:`REACH_SHAPES`, then up to 8 random ratings among A-F on c1 or c2."""
    log = [rec(a, b, 0.9) for a, b in REACH_SHAPES[draw(st.sampled_from(sorted(REACH_SHAPES)))]]
    agents, ratings = st.sampled_from(AGENTS[:6]), st.sampled_from([0.2, 0.6, 0.9])
    for a, b, rating, category in draw(
        st.lists(st.tuples(agents, agents, ratings, st.sampled_from(["c1", "c2"])), max_size=8)
    ):
        if a != b:
            log.append(rec(a, b, rating, category))
    return log


def swept(call):
    """``call()`` with :meth:`Reach.count` declining every query, so that
    :func:`settle_paths` counts every reach with its level sweep."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Reach, "count", lambda *args: None)
        return call()


@given(shaped_logs(), st.sampled_from(["c1", "c2"]), st.sampled_from([0.0, 0.5]))
@settings(max_examples=100, deadline=None)
def test_the_components_count_the_reach_as_the_sweep_does(log, category, threshold):
    env = env_of(log, profiles_able_everywhere(AGENTS[:6]))
    cfg = dataclasses.replace(CFG, trust_threshold=threshold)
    model = build_reputation(env, cfg)
    for trustor in env.ids:
        for trustee in env.ids:
            if trustor == trustee:
                continue
            query = (env, trustor, trustee, category, cfg)
            tree = indirect.settle_paths(*query)
            reference = swept(lambda: indirect.settle_paths(*query))
            assert (tree.reached, tree.discovered) == (reference.reached, reference.discovered)
            report = evaluate(env, log, trustor, trustee, category, 10.0, cfg, model)
            assert report.to_json() == swept(
                lambda: evaluate(env, log, trustor, trustee, category, 10.0, cfg, model)
            ).to_json()


def test_the_reach_follows_the_threshold_and_only_the_label_setting_search_builds_it(
    monkeypatch, tmp_path
):
    log, profiles = cache_world()
    env = build_environment(log, 100.0, 0.01, profiles)
    agents = sorted(env.agents)
    queries = [(agents[q], agents[-1 - q], "c0" if q % 2 else "c1") for q in range(6)]
    # A budgeted evaluate and the CLI paths command run find_paths alone.
    built = []
    monkeypatch.setattr(core, "build_reach", lambda *args: built.append(args))
    budgeted = TrustConfig(search_steps=16)
    for query in queries:
        evaluate(env, log, *query, 100.0, budgeted)
    dump_log(log, tmp_path / "log.jsonl")
    trustor, trustee, category = queries[0]
    argv = ["paths", "--log", str(tmp_path / "log.jsonl"), "--time", "100"]
    argv += ["--trustor", trustor, "--trustee", trustee, "--category", category]
    assert cli_main(argv) == 0
    assert built == [] and all(entry[4] is None for entry in env._trusted.values())
    monkeypatch.undo()
    # Switching the threshold on one snapshot drops the structure with the
    # kept edges, and every count still equals the sweep's.
    for threshold in (0.5, 0.3, 0.5, 0.7, 0.3):
        cfg = TrustConfig(trust_threshold=threshold)
        for query in queries:
            tree = indirect.settle_paths(env, *query, cfg)
            reference = swept(lambda: indirect.settle_paths(env, *query, cfg))
            assert (tree.reached, tree.discovered) == (reference.reached, reference.discovered)
        held = env._trusted["c1"]
        assert held[0] == threshold and held[4] is env.trusted_reach("c1", threshold)


# --- the search's rules, against references built from the inputs ----------

@given(
    logs(min_size=0, max_size=30),
    st.sampled_from(["c1", "c2", "c9"]),
    st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]), min_size=1, max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_trusted_neighbours_equal_a_filter_over_edges(log, category, thresholds):
    env = build_environment(log, 100.0, 0.01)
    for threshold in thresholds:
        for agent in env.agents:
            expected = {
                dst
                for (src, dst), stats in env.edges.items()
                if src == agent
                and stats.weight >= threshold
                and category in env.agents[dst].completed
            }
            neighbours = trusted(env, category, threshold, agent)
            assert neighbours == tuple(sorted(expected))
            ptr, _, weight = env.trusted_edges(category, threshold)
            i = env.index[agent]
            assert list(weight[ptr[i] : ptr[i + 1]]) == [
                env.edges[(agent, b)].weight for b in neighbours
            ]
            entering = [
                stats.weight
                for (src, dst), stats in env.edges.items()
                if dst == agent
                and stats.weight >= threshold
                and category in env.agents[agent].completed
            ]
            assert env.trusted_in_weight(category, threshold)[i] == max(entering, default=0.0)


@given(logs(min_size=1, max_size=30), st.sampled_from([0.0, 0.05, 0.5]))
@settings(max_examples=100, deadline=None)
def test_probabilities_equal_the_formula_over_log_activity(log, rate):
    at = 100.0
    env = build_environment(log, at, 0.01)
    for category in ("c1", "c2", "c9"):
        counts, last, _ = oracle_category_activity(log, category, at)
        for agent in env.agents:
            ordered = sorted(dst for src, dst in env.edges if src == agent)
            if not ordered:
                continue
            probs = propagation_probabilities(env, agent, ordered, category, rate)
            max_count = max(counts.get(a, 0) for a in ordered)
            raw = []
            for a in ordered:
                n = counts.get(a, 0)
                volume = math.log(1 + n) / math.log(1 + max_count) if max_count > 0 else 0.0
                recency = 0.0 if a not in last else math.exp(-rate * (at - last[a]))
                raw.append(volume * recency)
            total = sum(raw)
            for a, r in zip(ordered, raw):
                assert probs[a] == (r / total if total > 0 else 1.0 / len(ordered))


# --- the table check -----------------------------------------------------------
#
# Hand-built tables over one small snapshot; each breaks one rule of
# PropagationTable.check, which must raise InvariantError naming it.

CHECK_LOG = [
    rec("tr", "a", 0.9),
    rec("tr", "low", 0.3),
    rec("a", "b", 0.8),
    rec("a", "c", 0.3),
    rec("a", "e", 0.6),
    rec("a", "te", 0.9),
    rec("b", "d", 0.7),
    rec("b", "tr", 0.9),
    rec("a", "f", 0.9, "c2"),  # f has no history in c1
]


def checked_table():
    """A sound table: b and e were attached in one expansion and share one path tuple."""
    table = PropagationTable(trustor="tr", trustee="te", category="c1", eval_time=10.0)
    via_a = ("tr", "a")
    for agent, cum_trust, path in [
        ("tr", 1.0, ()),
        ("a", 0.9, ("tr",)),
        ("b", 0.9 * 0.8, via_a),
        ("e", 0.9 * 0.6, via_a),
        ("d", 0.9 * 0.8 * 0.7, ("tr", "a", "b")),
    ]:
        table.rows[agent] = TableRow(agent=agent, cum_prob=0.5, cum_trust=cum_trust, path=path)
    table.rows["tr"].cum_prob = 1.0
    table.trustee_rows.append(TrusteeRow(advisor="a", rating=0.9, path=via_a))
    return table


def put_row(agent, cum_trust, path, cum_prob=0.5):
    def put(table):
        table.rows[agent] = TableRow(agent, cum_prob, cum_trust, path)

    return put


def set_field(agent, name, change):
    def put(table):
        row = table.rows[agent]
        setattr(row, name, change(getattr(row, name)))

    return put


def add_child_sharing_b_path(agent, cum_trust):
    def put(table):
        shared = table.rows["b"].path
        table.rows[agent] = TableRow(agent=agent, cum_prob=0.5, cum_trust=cum_trust, path=shared)

    return put


def test_table_check_passes_a_sound_table():
    table = checked_table()
    assert table.rows["b"].path is table.rows["e"].path
    table.check(env_of(CHECK_LOG), 0.5)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (put_row("x", 0.9 * 0.8 * 0.9, ("tr", "a", "b", "tr")), "repeated agent on path of 'x'"),
        (put_row("b", 0.9 * 0.8, ("tr", "a", "b")), "repeated agent on path of 'b'"),
        (put_row("x", 0.9 * 0.9, ("tr", "a", "te")), "trustee inside path of 'x'"),
        (put_row("low", 0.3, ("tr",)), "untrusted hop 'tr'->'low'"),
        (put_row("x", 0.3, ("tr", "low")), "untrusted hop 'tr'->'low'"),
        (put_row("d", 0.9 * 0.7, ("tr", "a")), "untrusted hop 'a'->'d'"),
        (set_field("b", "cum_trust", lambda t: t + 1e-9), "cum_trust of 'b' diverges"),
        (set_field("e", "cum_prob", lambda p: 1.5), "out of range for 'e'"),
        (set_field("e", "cum_prob", lambda p: -0.1), "out of range for 'e'"),
        (
            lambda table: table.trustee_rows.append(TrusteeRow("x", 0.5, ("tr", "x"))),
            "advisor 'x' has no table row",
        ),
        (add_child_sharing_b_path("c", 0.9 * 0.3), "untrusted hop 'a'->'c'"),
        (put_row("f", 0.9 * 0.9, ("tr", "a")), "untrusted hop 'a'->'f'"),
        (put_row("d", 0.56, ("a", "b")), "path of 'd' does not start at the trustor"),
        (put_row("e", 1.0, ()), "path of 'e' does not start at the trustor"),
        (lambda table: table.rows.pop("tr"), "trustor 'tr' has no row with the empty path"),
    ],
    ids=[
        "repeat-in-path", "agent-in-own-path", "trustee-inside", "last-hop-below-threshold",
        "inner-hop-below-threshold", "hop-without-edge", "product-off-by-1e-9",
        "prob-above-1", "prob-below-0", "trustee-row-without-row", "shared-path-second-row",
        "hop-into-agent-without-category-history", "path-not-from-trustor", "second-root",
        "no-trustor-row",
    ],
)
def test_table_check_rejects_a_broken_table(corrupt, message):
    table = checked_table()
    corrupt(table)
    with pytest.raises(InvariantError, match=message):
        table.check(env_of(CHECK_LOG), 0.5)


# --- snapshot caches across configs ---------------------------------------------

def cache_world():
    params = GenParams(
        seed=1, n_agents=40, n_interactions=1200, rating_model=RatingModel.PER_AGENT_QUALITY
    )
    profiles, log = generate(params)
    return log, profiles


def test_searches_on_one_snapshot_match_fresh_snapshots_across_configs():
    log, profiles = cache_world()
    shared = build_environment(log, 100.0, 0.01, profiles)
    agents = sorted(shared.agents)
    settings_seq = [(0.5, 0.01), (0.3, 0.2), (0.5, 0.0), (0.7, 0.01), (0.3, 0.01), (0.5, 0.01)]
    for step, (threshold, rate) in enumerate(settings_seq):
        cfg = TrustConfig(trust_threshold=threshold, recency_rate=rate)
        for q in range(3):
            query = (agents[q + step], agents[-1 - q], "c0" if q % 2 else "c1")
            got = find_paths(shared, log, *query, cfg)
            want = find_paths(build_environment(log, 100.0, 0.01, profiles), log, *query, cfg)
            assert got.to_dict() == want.to_dict()
            assert (got.expansions, got.stop_reason) == (want.expansions, want.stop_reason)
        # Another rate between two searches switches the consultation cache back and forth.
        other_rate = settings_seq[step - 1][1]
        for agent in agents[:8]:
            neighbours = trusted(shared, "c1", threshold, agent)
            if not neighbours:
                continue
            fresh = build_environment(log, 100.0, 0.01, profiles)
            for r in (other_rate, rate):
                assert propagation_probabilities(
                    shared, agent, neighbours, "c1", r
                ) == propagation_probabilities(fresh, agent, neighbours, "c1", r)


@pytest.mark.parametrize("bad", [math.nan, math.inf, True, "0.5", None])
def test_bad_threshold_or_rate_raises_when_the_caches_are_filled(bad):
    log, profiles = cache_world()
    env = build_environment(log, 100.0, 0.01, profiles)
    agents = sorted(env.agents)
    # The last fill is at 1, which True equals and hashes like.
    for value in (0.5, 0.01, 1):
        cfg = TrustConfig(trust_threshold=value, recency_rate=value)
        find_paths(env, log, agents[0], agents[-1], "c1", cfg)
    neighbours = tuple(dst for src, dst in env.edges if src == agents[0])
    # A duck-typed config reaches find_paths without TrustConfig's own checks.
    for field_name in ("trust_threshold", "recency_rate"):
        config = types.SimpleNamespace(**{**dataclasses.asdict(TrustConfig()), field_name: bad})
        with pytest.raises(ValueError, match="must be a finite number"):
            find_paths(env, log, agents[0], agents[-1], "c1", config)
    with pytest.raises(ValueError, match="must be a finite number"):
        env.trusted_edges("c1", bad)
    with pytest.raises(ValueError, match="must be a finite number"):
        propagation_probabilities(env, agents[0], neighbours, "c1", bad)
