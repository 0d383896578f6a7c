import collections
import copy
import dataclasses
import gc
import math
import operator
import pickle
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustnet import (
    AgentProfile,
    GenParams,
    Interaction,
    InvalidProfileError,
    InvalidRecordError,
    RatingModel,
    TrustConfig,
    build_environment,
    generate,
)

from trustnet.core import finite_float, group_codes

from helpers import logs, rec


def test_empty_log_yields_no_edges():
    env = build_environment([], 100.0)
    assert env.edges == {}
    assert env.agents == {}


def test_single_interaction_edge():
    env = build_environment([rec("A", "B", 0.6, "c1", 5.0)], 10.0, 0.0)
    assert env.edges[("A", "B")].weight == 0.6
    assert env.edges[("A", "B")].per_category["c1"].count == 1


def test_snapshot_time_filter_is_strict():
    log = [rec("A", "B", 1.0, "c1", 0.0), rec("A", "B", 0.0, "c1", 10.0)]
    env = build_environment(log, 10.0, 0.0)
    assert env.edges[("A", "B")].weight == 1.0
    assert env.edges[("A", "B")].per_category["c1"].count == 1


def test_edge_weight_is_mean_over_categories():
    log = [rec("A", "B", 0.4, "c1", 1.0), rec("A", "B", 0.8, "c2", 2.0)]
    env = build_environment(log, 10.0, 0.0)
    # independent recomputation from the log: one rating per category
    expected = (0.4 + 0.8) / 2
    assert env.edges[("A", "B")].weight == pytest.approx(expected, abs=1e-15)
    assert env.edges[("A", "B")].weight == env.weight[env.indptr[env.index["A"]]]


def test_edge_weight_absent_and_unknown():
    env = build_environment([rec("A", "B", 0.5)], 10.0)
    assert ("B", "A") not in env.edges
    assert ("Z", "A") not in env.edges
    with pytest.raises(KeyError):
        env.edges[("Z", "A")]


def test_invalid_rating_rejected_with_index():
    with pytest.raises(InvalidRecordError) as exc:
        Interaction("A", "B", 1.5, "c1", 0.0)
    assert exc.value.field == "rating"
    assert str(exc.value) == "rating must be a finite number in [0, 1]"


def test_self_interaction_rejected_with_index():
    with pytest.raises(InvalidRecordError) as exc:
        Interaction("A", "A", 0.5, "c1", 0.0)
    assert exc.value.field == "trustee"
    assert str(exc.value) == "trustee must differ from the trustor"


def test_log_item_that_is_not_an_interaction_is_named():
    log = [rec("A", "B", 0.5), rec("B", "C", 0.5), ("A", "C", 0.5, "c1", 0.0)]
    with pytest.raises(TypeError, match=r"^log item 2 must be an Interaction, not tuple$"):
        build_environment(log, 10.0)


def test_profile_that_is_not_an_agent_profile_is_named():
    profiles = [AgentProfile("N"), ("M", frozenset(), frozenset())]
    with pytest.raises(TypeError, match=r"^profile 1 must be an AgentProfile, not tuple$"):
        build_environment([rec("A", "B", 0.5)], 10.0, profiles=profiles)


def test_log_that_is_not_a_sequence_is_refused():
    log = [rec("A", "B", 0.5), rec("B", "C", 0.5)]
    with pytest.raises(TypeError, match=r"^log must be a sequence of Interaction, not generator$"):
        build_environment((r for r in log), 10.0)
    with pytest.raises(TypeError, match="not list_iterator"):
        build_environment(iter(log), 10.0)


def test_declared_newcomer_appears_without_edges():
    profile = AgentProfile(id="N", completed=frozenset(), able=frozenset({"c1"}))
    env = build_environment([rec("A", "B", 0.5)], 10.0, profiles=[profile])
    assert "N" in env.agents
    assert env.agents["N"].able == {"c1"}
    assert [pair for pair in env.edges if "N" in pair] == []


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
    assert env.edges[("A", "B")].weight == pytest.approx(w1 / (w1 + w2), abs=1e-15)


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
        ("trust_threshold", math.nan),
    ],
)
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match="must be finite"):
        TrustConfig(**{field: value})


def test_config_none_means_unlimited_only_for_budgets():
    TrustConfig(search_steps=None)
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


# Each case is (field values, the field the rule names, its problem text).
@pytest.mark.parametrize(
    "bad",
    [
        (("", "B", 0.5, "c1", 0.0), "trustor", "trustor must be a non-empty string"),
        (("A", None, 0.5, "c1", 0.0), "trustee", "trustee must be a non-empty string"),
        (("A", "A", 0.5, "c1", 0.0), "trustee", "trustee must differ from the trustor"),
        (("A", "B", 0.5, "", 0.0), "category", "category must be a non-empty string"),
        (("A", "B", True, "c1", 0.0), "rating", "rating must be a finite number in [0, 1]"),
        (("A", "B", "0.5", "c1", 0.0), "rating", "rating must be a finite number in [0, 1]"),
        (("A", "B", math.nan, "c1", 0.0), "rating", "rating must be a finite number in [0, 1]"),
        (("A", "B", 0.5, "c1", -1.0), "time", "time must be a finite number >= 0"),
        (("A", "B", 0.5, "c1", math.inf), "time", "time must be a finite number >= 0"),
        (("", "", 2.0, "", -1.0), "trustor", "trustor must be a non-empty string"),
    ],
)
def test_invalid_record_is_named_with_its_index_and_problem(bad):
    values, field, message = bad
    with pytest.raises(InvalidRecordError) as exc:
        Interaction(*values)
    assert exc.value.field == field
    assert str(exc.value) == message


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


def reference_groups(log, snapshot_time, decay_rate):
    """Each (trustor, trustee, category) group's (count, decayed trust, mean rating,
    last time), summed one record at a time in (time, rating) order."""
    groups = {}
    key = operator.attrgetter("trustor", "trustee", "category", "time", "rating")
    for r in sorted((r for r in log if r.time < snapshot_time), key=key):
        groups.setdefault((r.trustor, r.trustee, r.category), []).append(r)
    stats = {}
    for group, records in groups.items():
        now = snapshot_time
        if math.exp(-decay_rate * (now - records[-1].time)) < sys.float_info.min:
            now = records[-1].time  # the rebase of a group whose newest weight underflows
        num = den = total = 0.0
        for r in records:
            w = math.exp(-decay_rate * (now - r.time))
            num += r.rating * w
            den += w
            total += r.rating
        stats[group] = (len(records), num / den, total / len(records), records[-1].time)
    return stats


PAIRS = [(a, b) for a in "ABCD" for b in "ABCD" if a != b]
# Few distinct values, so that groups repeat and records tie in (time, rating);
# records at 100 fall outside the snapshot, and at rate 10 the groups with
# every record before 25 underflow and are rebased.
tied_records = st.builds(
    lambda pair, rating, category, time: rec(*pair, rating, category, time),
    st.sampled_from(PAIRS),
    st.sampled_from([0.0, 0.1, 0.35, 0.7, 0.95, 1.0]),
    st.sampled_from(["c1", "c2"]),
    st.sampled_from([0.0, 0.24, 0.695, 1.11, 60.0, 99.5, 100.0]),
)


# Declared and logged ids around the log's "A".."D": "0" sorts before them,
# "A\x00" (a trailing NUL) and "AB" between them, and "Z" after them.
NUL_PAIRS = [(a, b) for a in ("A", "A\x00", "B", "D") for b in ("A", "A\x00", "C") if a != b]
nul_records = st.builds(
    lambda pair, rating, category, time: rec(*pair, rating, category, time),
    st.sampled_from(NUL_PAIRS),
    st.sampled_from([0.0, 0.35, 1.0]),
    st.sampled_from(["c1", "c2", "c2\x00"]),
    st.sampled_from([0.0, 1.11, 99.5, 100.0]),
)
declared_profiles = st.builds(
    AgentProfile,
    st.sampled_from(["0", "A", "A\x00", "AB", "C", "Z"]),
    st.frozensets(st.sampled_from(["c0", "c1", "c3"]), max_size=2),
    st.frozensets(st.sampled_from(["c0", "c2"]), max_size=2),
)


@given(
    st.lists(st.one_of(tied_records, nul_records), max_size=40),
    st.lists(declared_profiles, max_size=5, unique_by=lambda p: p.id),
    st.sampled_from([0.0, 0.05, 10.0]),
    st.randoms(),
)
@example(
    [rec("A", "B", r, "c1", t) for r, t in [(0.1, 0.24), (0.7, 0.0), (0.1, 0.24), (0.35, 1.11)]],
    [],
    10.0,
    None,
)
@example(
    [rec("D", "C", 0.5, "c2", 1.0), rec("A\x00", "A", 0.7, "c1", 2.0), rec("B", "A", 0.1, "c1", 3.0)],
    [AgentProfile("Z"), AgentProfile("0", able={"c0"}), AgentProfile("AB", completed={"c3"})],
    0.05,
    None,
)
@settings(max_examples=300)
def test_build_equals_a_sequential_reference_bit_for_bit(log, profiles, rate, random):
    # Shuffled, so that first use (declared ids, then trustors, then trustees)
    # differs from id order.
    if random is not None:
        random.shuffle(log)
        random.shuffle(profiles)
    env = build_environment(log, 100.0, rate, profiles)
    kept = [r for r in log if r.time < 100.0]
    declared = {p.id: p for p in profiles}
    assert env.ids == tuple(sorted({r.trustor for r in kept} | {r.trustee for r in kept} | set(declared)))
    assert env.categories == tuple(sorted({r.category for r in kept}))
    built = {
        (src, dst, category): (s.count, s.decayed_trust, s.mean_rating, s.last_time)
        for (src, dst), edge in env.edges.items()
        for category, s in edge.per_category.items()
    }
    assert built == reference_groups(log, 100.0, rate)
    for agent in env.ids:
        completed = {r.category for r in kept if r.trustee == agent}
        profile = declared.get(agent)
        if profile is not None:
            completed |= profile.completed
        assert env.agents[agent].completed == completed
        assert env.agents[agent].able == (completed if profile is None else profile.able)


FIELDS = ("trustor", "trustee", "rating", "category", "time")


def counting_reads(log):
    """Make each record of ``log`` count the reads of its fields; returns the counter."""
    reads = collections.Counter()

    def counted(name):
        slot = getattr(Interaction, name)

        def read(record):
            reads[name] += 1
            return slot.__get__(record)

        return property(read)

    counting = type("Counting", (Interaction,), {"__slots__": (), **{f: counted(f) for f in FIELDS}})
    for record in log:
        object.__setattr__(record, "__class__", counting)
    return reads


@pytest.mark.parametrize("snapshot_time", [100.0, 50.0], ids=["all-kept", "half-kept"])
def test_build_reads_each_field_of_a_record_once(snapshot_time):
    profiles, log = generate(GenParams(seed=7, n_agents=30, n_categories=3, n_interactions=400))
    expected = build_environment(log, snapshot_time, 0.01, profiles)
    reads = counting_reads(log)
    assert build_environment(log, snapshot_time, 0.01, profiles) == expected
    kept = sum(Interaction.time.__get__(r) < snapshot_time for r in log)
    assert 0 < kept <= len(log) and (kept == len(log)) == (snapshot_time == 100.0)
    # The numbers are read from every record, the strings from the kept ones.
    assert reads == {"rating": len(log), "time": len(log), "trustor": kept, "trustee": kept,
                     "category": kept}


def test_build_peak_memory_stays_within_twice_the_snapshot():
    # A generated world of 3,000 records: the build holds no record-sized
    # copy past its last use, so its traced peak above the start stays
    # within twice what the finished snapshot keeps.
    profiles, log = generate(
        GenParams(
            seed=2026, n_agents=100, n_categories=4, n_interactions=3000,
            rating_model=RatingModel.PER_AGENT_QUALITY,
        )
    )
    build_environment(log, 100.0, 0.01, profiles)  # imports and caches load untraced
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        env = build_environment(log, 100.0, 0.01, profiles)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(env.dst) > 1000
    assert peak - start <= 2 * (held - start)


def test_interaction_holds_its_fields_in_slots():
    record = rec("A", "B", 0.5, "c1", 2.0)
    assert not hasattr(record, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.rating = 0.7
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert twin is not record
        assert twin == record and hash(twin) == hash(record)


# --- one number rule for every input -------------------------------------------

HUGE = 10**400  # an int beyond the float range


class Ratio(float):
    """A float subclass, which the rule takes through ``float()``, not as it is."""

    def __repr__(self):
        return f"Ratio({float(self)!r})"


@pytest.mark.parametrize(
    "value, expected",
    [
        (0, 0.0), (1, 1.0), (0.25, 0.25), (np.float64(0.5), 0.5), (-3, -3.0),
        (True, None), (None, None), ("0.5", None), (math.nan, None), (math.inf, None),
        (-math.inf, None), (HUGE, None), (-HUGE, None), (np.int64(1), None),
        (-0.0, -0.0), (5e-324, 5e-324), (sys.float_info.max, sys.float_info.max),
        pytest.param(-math.nan, None, id="-nan-None"), (Ratio(0.5), 0.5), (Ratio("inf"), None),
    ],
    ids=lambda v: repr(v) if len(repr(v)) < 20 else "huge",
)
def test_finite_float_is_the_number_rule(value, expected):
    number = finite_float(value)
    assert number == expected
    if expected is not None:
        assert type(number) is float and math.copysign(1.0, number) == math.copysign(1.0, expected)


RECORD_PROBLEMS = {
    "trustor": "trustor must be a non-empty string",
    "trustee": "trustee must be a non-empty string",
    "category": "category must be a non-empty string",
    "rating": "rating must be a finite number in [0, 1]",
    "time": "time must be a finite number >= 0",
}


@pytest.mark.parametrize(
    "bad, field",
    [
        ((1, "B", 0.5, "c1", 1), "trustor"),
        (("A", b"B", 0.5, "c1", 1), "trustee"),
        (("A", "B", 0.5, 7, 1), "category"),
        (("A", "B", 0.5, "c1", HUGE), "time"),
        (("A", "B", HUGE, "c1", 1), "rating"),
        (("A", "B", None, "c1", 1), "rating"),
    ],
)
def test_build_rejects_each_field_by_the_record_rule(bad, field):
    with pytest.raises(InvalidRecordError) as exc:
        Interaction(*bad)
    assert exc.value.field == field
    assert str(exc.value) == RECORD_PROBLEMS[field]


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


@pytest.mark.parametrize("field", ["tolerance", "max_iterations", "search_steps"])
def test_config_rejects_ints_beyond_the_float_range(field):
    with pytest.raises(ValueError, match="must be finite"):
        TrustConfig(**{field: HUGE})


@pytest.mark.parametrize(
    "fields, field",
    [
        (dict(id=5), "id"),
        (dict(id=""), "id"),
        (dict(id=None), "id"),
        (dict(id="N", able=frozenset({7})), "able"),
        (dict(id="N", completed=frozenset({""})), "completed"),
        (dict(id="N", able="c1"), "able"),
        (dict(id="", able="c1"), "id"),
        (dict(id="N", able=[""], completed=[3]), "able"),
    ],
    ids=[
        "int-id", "empty-id", "no-id", "int-label", "empty-label", "string-as-labels",
        "id-first", "able-before-completed",
    ],
)
def test_declared_profile_is_held_to_the_id_rule(fields, field):
    with pytest.raises(InvalidRecordError) as exc:
        AgentProfile(**fields)
    assert exc.value.field == field


def test_profile_declaring_an_id_again_is_rejected():
    declared = [
        AgentProfile(id="N", able=frozenset({"c1"})),
        AgentProfile(id="M"),
        AgentProfile(id="N", able=frozenset({"c2"})),
    ]
    with pytest.raises(
        InvalidProfileError, match=r"^profile 2 \(id 'N'\): id already declared"
    ) as exc:
        build_environment([rec("A", "B", 0.5, "c1", 1)], 10, profiles=declared)
    assert exc.value.index == 2


def test_dropped_snapshot_is_freed_without_the_cycle_collector():
    env = build_environment([rec("A", "B", 0.5, "c1", 1), rec("B", "C", 0.9, "c1", 2)], 10, 0.1)
    assert env.edges[("A", "B")].weight == 0.5
    env.kept_edges("c1", 0.5).reach
    env.consultation_terms("c1", 0.01)
    assert env._kept and env._terms and env._by_category
    ref = weakref.ref(env)
    gc.disable()
    try:
        del env
        assert ref() is None
    finally:
        gc.enable()


def test_valid_profile_passes_the_rule():
    profile = AgentProfile(id="N", completed=["c1", "c1"], able=("c2", "c1"))
    assert profile.completed == frozenset({"c1"}) and type(profile.completed) is frozenset
    assert profile.able == frozenset({"c1", "c2"}) and type(profile.able) is frozenset
    assert profile == AgentProfile("N", frozenset({"c1"}), frozenset({"c1", "c2"}))


DELETED_NAMES = (
    "edge_weight",
    "neighbours",
    "has_trusted_edge",
    "neighbour_maps",
    "trusted_neighbours",
    "PropagationProbability",
    "check_profile",
    "advisor_rating",
    "trusted_edges",
    "trusted_in_weight",
    "trusted_reach",
    "TrustedEdges",
)


def test_public_names_resolve_once_and_hold_no_deleted_name():
    import trustnet
    from trustnet import core, indirect

    names = trustnet.__all__
    assert [n for n in names if not hasattr(trustnet, n)] == []
    assert len(names) == len(set(names))
    assert set(names).isdisjoint(DELETED_NAMES)
    for owner in (trustnet, core, indirect, core.Environment):
        assert [n for n in DELETED_NAMES if hasattr(owner, n)] == []


# The largest agent count whose squared count fits int64's 2⁶³ codes.
ROOT = math.isqrt(2**63)


@pytest.mark.parametrize(
    "n_ids, n_cats",
    [(ROOT + 1, 1), (ROOT // 2 + 1, 4), (2_800_000, 1_400_000)],
    ids=["agents", "categories", "one-group-per-record"],
)
def test_group_codes_refuse_counts_past_int64(n_ids, n_cats):
    # Unrefused, the last case's codes overflowed int64 and np.bincount failed.
    one = np.array([1])
    with pytest.raises(ValueError, match="must not exceed 2⁶³"):
        group_codes(one, one - 1, one - 1, n_ids, n_cats)


def test_group_codes_at_the_int64_bound_are_exact():
    src, dst, cat = np.array([ROOT - 1]), np.array([ROOT - 2]), np.array([0])
    assert int(group_codes(src, dst, cat, ROOT, 1)[0]) == (ROOT - 1) * ROOT + ROOT - 2
