import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustnet import (
    AgentProfile,
    ConfigError,
    GenParams,
    Interaction,
    InvalidRecordError,
    LogParseError,
    RatingModel,
    ReputationModel,
    SnapshotError,
    TrustConfig,
    build_environment,
    build_reputation,
    dump_log,
    dump_profiles,
    evaluate,
    find_paths,
    generate,
    load_config,
    load_snapshot,
    parse_log,
    parse_profiles,
    save_snapshot,
)
from trustnet.cli import main
from trustnet.core import CONFIG_BOUNDS
from trustnet.persist import SNAPSHOT_VERSION, config_from_dict

from helpers import (
    AGENTS,
    logs,
    profiles_able_everywhere,
    read_snapshot,
    rec,
    rewrite_body,
    snapshot_body,
    write_snapshot,
    write_version_5_snapshot,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import BACKLOG_END, DEFAULT_SEED, HORIZON, SPECS  # noqa: E402


# --- log parsing -----------------------------------------------------------

def test_empty_stream():
    records, errors = parse_log(io.StringIO(""))
    assert records == [] and errors == []


def test_single_valid_line():
    line = '{"trustor":"A","trustee":"B","rating":0.6,"category":"c1","time":5}\n'
    records, errors = parse_log(io.StringIO(line))
    assert errors == []
    assert len(records) == 1
    r = records[0]
    assert (r.trustor, r.trustee, r.rating, r.category, r.time) == ("A", "B", 0.6, "c1", 5.0)


def test_rating_out_of_range_names_line_and_field():
    line = '{"trustor":"A","trustee":"B","rating":1.5,"category":"c1","time":5}\n'
    records, errors = parse_log(io.StringIO(line))
    assert records == []
    assert len(errors) == 1
    assert errors[0].line == 1 and errors[0].field == "rating"


def test_error_line_numbers_are_exact():
    text = (
        '{"trustor":"A","trustee":"B","rating":0.5,"category":"c1","time":1}\n'
        "not json\n"
        '{"trustor":"A","trustee":"A","rating":0.5,"category":"c1","time":1}\n'
        '{"trustor":"A","trustee":"B","rating":0.5,"category":"c1","time":"x"}\n'
        '{"trustor":"A","trustee":"B","rating":0.5,"category":"c1"}\n'
        '{"trustor":"A","trustee":"B","rating":0.5,"category":"c1","time":1,"extra":2}\n'
    )
    records, errors = parse_log(io.StringIO(text))
    assert len(records) == 1
    assert [e.line for e in errors] == [2, 3, 4, 5, 6]
    by_line = {e.line: e for e in errors}
    assert by_line[4].field == "time"
    assert by_line[5].field == "time"
    assert by_line[6].field == "extra"


def test_strict_mode_raises_on_first_error():
    text = 'garbage\n{"trustor":"A","trustee":"B","rating":0.5,"category":"c1","time":1}\n'
    with pytest.raises(LogParseError):
        parse_log(io.StringIO(text), strict=True)


def test_boolean_rating_rejected():
    line = '{"trustor":"A","trustee":"B","rating":true,"category":"c1","time":5}\n'
    records, errors = parse_log(io.StringIO(line))
    assert records == [] and errors[0].field == "rating"


def test_log_round_trip(tmp_path):
    _, log = generate(GenParams(seed=5, n_agents=6, n_interactions=40))
    path = tmp_path / "log.jsonl"
    dump_log(log, path)
    parsed, errors = parse_log(path)
    assert errors == []
    assert parsed == log


def test_profiles_round_trip(tmp_path):
    profiles, _ = generate(GenParams(seed=5, n_agents=6, n_interactions=0))
    path = tmp_path / "profiles.jsonl"
    dump_profiles(profiles, path)
    parsed, errors = parse_profiles(path)
    assert errors == []
    assert parsed == profiles


def test_profile_category_list_that_is_not_a_list_is_reported():
    text = '{"id": "x", "able": 5}\n{"id": "y", "completed": ["c1", ""]}\n{"id": "z"}\n'
    profiles, errors = parse_profiles(io.StringIO(text))
    assert [p.id for p in profiles] == ["z"]
    assert [(e.line, e.field) for e in errors] == [(1, "able"), (2, "completed")]


def test_profile_line_repeating_an_id_is_reported():
    text = (
        '{"id": "x", "able": ["c1"]}\n{"id": ""}\n{"id": "y"}\n'
        '{"id": "x", "able": ["c2"]}\n{"id": "y", "completed": ["c1"]}\n'
    )
    profiles, errors = parse_profiles(io.StringIO(text))
    assert profiles == [AgentProfile("x", able=frozenset({"c1"})), AgentProfile("y")]
    assert [(e.line, e.field) for e in errors] == [(2, "id"), (4, "id"), (5, "id")]
    assert "already declared" in errors[1].message
    with pytest.raises(LogParseError, match=r"^line 3, field 'id': id 'x' already declared"):
        parse_profiles(io.StringIO(text.replace('{"id": ""}\n', "")), strict=True)


# --- config ------------------------------------------------------------------

def test_empty_config_gives_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("")
    cfg = load_config(path)
    assert cfg == TrustConfig()
    assert cfg.damping == 0.85


def test_single_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"theta_r": 0.7}')
    cfg = load_config(path)
    assert cfg.trust_threshold == 0.7
    assert cfg.path_threshold == 0.5


def test_damping_bound_message(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"q": 1.5}')
    with pytest.raises(ConfigError, match=r"q must lie in \(0,1\)"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"theta_z": 0.7}')
    with pytest.raises(ConfigError, match="theta_z"):
        load_config(path)


def test_all_keys_accepted(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "theta_r": 0.6,
                "theta_r_p": 0.55,
                "lambda_d": 0.02,
                "lambda_p": 0.03,
                "d": 0.8,
                "q": 0.9,
                "epsilon": 1e-9,
                "max_iter": 500,
                "search_steps": 100,
                "search_seconds": 1.5,
                "pagerank_seconds": 2.0,
            }
        )
    )
    cfg = load_config(path)
    assert cfg.trust_threshold == 0.6
    assert cfg.path_threshold == 0.55
    assert cfg.decay_rate == 0.02
    assert cfg.recency_rate == 0.03
    assert cfg.path_decay == 0.8
    assert cfg.damping == 0.9
    assert cfg.tolerance == 1e-9
    assert cfg.max_iterations == 500
    assert cfg.search_steps == 100
    assert cfg.search_seconds == 1.5
    assert cfg.pagerank_seconds == 2.0


# --- snapshots -----------------------------------------------------------------

def test_empty_environment_round_trip(tmp_path):
    env = build_environment([], 42.0, 0.01)
    path = tmp_path / "empty.snap"
    save_snapshot(env, path)
    loaded, model = load_snapshot(path)
    assert loaded == env
    assert model is None


def test_populated_round_trip_with_reputation(tmp_path):
    profiles, log = generate(
        GenParams(seed=11, n_agents=20, n_interactions=150, newcomer_fraction=0.1)
    )
    env = build_environment(log, 100.0, 0.01, profiles)
    model = build_reputation(env, TrustConfig())
    path = tmp_path / "world.snap"
    save_snapshot(env, path, model)
    loaded_env, loaded_model = load_snapshot(path)
    assert loaded_env == env
    assert loaded_model == model


def test_many_random_environments_round_trip(tmp_path):
    for seed in range(20):
        profiles, log = generate(
            GenParams(seed=seed, n_agents=4 + seed % 9, n_interactions=30 + seed)
        )
        env = build_environment(log, 100.0, 0.02, profiles)
        path = tmp_path / f"{seed}.snap"
        save_snapshot(env, path)
        loaded, _ = load_snapshot(path)
        assert loaded == env


def test_truncated_file_fails_checksum(tmp_path):
    env = build_environment([], 42.0)
    path = tmp_path / "t.snap"
    save_snapshot(env, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(SnapshotError, match="checksum"):
        load_snapshot(path)


def test_flipped_byte_fails_checksum(tmp_path):
    env = build_environment([], 42.0)
    path = tmp_path / "t.snap"
    save_snapshot(env, path)
    path.write_bytes(path.read_bytes().replace(b"42.0", b"43.0", 1))
    with pytest.raises(SnapshotError, match="checksum"):
        load_snapshot(path)


# The header's version field as ``save_snapshot`` writes it.
VERSION_TEXT = f'"version": {SNAPSHOT_VERSION}'.encode()


def test_version_mismatch_rejected(tmp_path):
    env = build_environment([], 42.0)
    path = tmp_path / "t.snap"
    save_snapshot(env, path)
    rewrite_body(path, snapshot_body(path).replace(VERSION_TEXT, b'"version": 99'))
    with pytest.raises(SnapshotError, match="version"):
        load_snapshot(path)


def test_version_3_snapshot_refused(tmp_path):
    # A version 3 file: one JSON document and its checksum line.
    body = {
        "header": {
            "format": "trustnet-snapshot", "version": 3, "snapshot_time": 42.0, "decay_rate": 0.0
        },
        "agents": [],
        "edges": [],
        "reputation": None,
    }
    path = tmp_path / "v3.snap"
    rewrite_body(path, json.dumps(body).encode())
    with pytest.raises(
        SnapshotError, match=f"unsupported snapshot version 3, expected {SNAPSHOT_VERSION}"
    ):
        load_snapshot(path)


def test_body_that_is_not_an_object_rejected(tmp_path):
    path = tmp_path / "t.snap"
    rewrite_body(path, b"[1, 2]")
    with pytest.raises(SnapshotError, match="malformed"):
        load_snapshot(path)


# Edges A->B (c1, c2), A->C (c1) and B->C (c1); reputation nodes B and C.
SMALL_WORLD = [
    rec("A", "B", 0.9),
    rec("A", "C", 0.8),
    rec("A", "B", 0.7, "c2"),
    rec("B", "C", 0.6),
]


def set_item(name, position, value):
    def corrupt(document, arrays):
        arrays[name][position] = value
    return corrupt


def replace(name, values):
    def corrupt(document, arrays):
        arrays[name] = np.asarray(values)
    return corrupt


def model_stops(used, stop, **params):
    def corrupt(document, arrays):
        document["reputation"].update(iterations_used=used, stop_reason=stop)
        document["reputation"]["params"].update(params)
    return corrupt


def no_nodes(used, stop, **params):
    """The model block of an empty node set (no edge of SMALL_WORLD weighs 1), stopping as given."""
    def corrupt(document, arrays):
        model_stops(used, stop, trust_threshold=1.0, **params)(document, arrays)
        arrays.update(nodes=np.zeros(0, np.int64), vector=np.zeros(0))
    return corrupt


# A snapshot corruption and the problem its load names, with its id below.
CORRUPTIONS = [
    (replace("cat_ptr", [0, 0, 3, 4]), "edge has no categories"),
    # An array written at another width shifts every byte after it.
    (lambda d, a: a.update(count=a["count"].astype(bool)), "category count below 1"),
    (set_item("count", 0, -3), "category count below 1"),
    (set_item("decayed_trust", 0, 1.5), "category trust outside"),
    (set_item("mean_rating", 0, -0.1), "category rating outside"),
    (set_item("last_time", 0, 42.0), "last_time is not a finite time"),
    (set_item("last_time", 0, np.inf), "last_time is not a finite time"),
    (
        lambda d, a: d["reputation"]["params"].update(damping="0.85"),
        "q must be a number",
    ),
    (lambda d, a: d["profiles"][0].__setitem__(1, "c1"), "able categories must be a list"),
    (set_item("dst", 0, 5), "edge to an unknown agent"),
    (lambda d, a: a.update(vector=np.append(a["vector"], 0.5)), "unexpected bytes after"),
    (lambda d, a: a.update(decayed_trust=a["decayed_trust"].astype(np.float32)),
     "reputation nodes are not the environment's node set"),
    (replace("indptr", [0, 3, 2, 3]), "indptr is not a CSR pointer"),
    (replace("dst", [2, 1, 2]), "neighbours must be distinct and ascending"),
    (replace("dst", [1, 1, 2]), "neighbours must be distinct and ascending"),
    (set_item("dst", 2, 1), "edge to its own source"),
    (replace("cat", [1, 0, 0, 0]), "edge categories must be distinct and ascending"),
    (set_item("cat", 1, 7), "category index out of range"),
    (set_item("profile", 0, 9), "agent profile out of range"),
    (lambda d, a: d.update(agents=["B", "A", "C"]), "agent ids must be distinct"),
    (replace("nodes", [2, 1]), "reputation nodes are not the environment's node set"),
    (set_item("nodes", 1, 3), "reputation nodes are not the environment's node set"),
    (set_item("vector", 0, 1.5), "reputation vector outside"),
    (lambda d, a: d["reputation"].update(stop_reason="tired"), "reputation stop_reason"),
    (lambda d, a: a.pop("vector"), "array vector is truncated"),
    (lambda d, a: d["reputation"].update(iterations_used=-7), r"-7 outside \[0, 1000\]"),
    (lambda d, a: d["reputation"].update(iterations_used=5000), r"5000 outside \[0, 1000\]"),
    (
        lambda d, a: d["reputation"].update(stop_reason="iterations"),
        "reputation stop_reason iterations at 1$",
    ),
    (lambda d, a: a.update(vector=a["vector"] * 0.5), "not max-normalized"),
    (model_stops(0, "converged"), "reputation stop_reason converged at 0$"),
    (model_stops(1000, "seconds", pagerank_seconds=1.0), "stop_reason seconds at 1000$"),
    (model_stops(5, "seconds"), "reputation stop_reason seconds at 5$"),
    (no_nodes(1000, "iterations"), "reputation stop_reason iterations at 1000$"),
    (no_nodes(3, "seconds", pagerank_seconds=1.0), "reputation stop_reason seconds at 3$"),
    (no_nodes(5, "converged"), "reputation stop_reason converged at 5$"),
    (set_item("vector", 0, 0.0), r"reputation vector outside \(0, 1\]"),
]
CORRUPTION_IDS = [
    "no-categories",
    "count",
    "count-below-one",
    "trust-range",
    "rating-range",
    "last-time-at-snapshot",
    "last-time-infinite",
    "params",
    "able",
    "endpoint",
    "vector-length",
    "dtype",
    "indptr-not-monotone",
    "unsorted-neighbours",
    "duplicate-neighbours",
    "self-loop",
    "unsorted-categories",
    "category-index",
    "profile-index",
    "unsorted-agents",
    "unsorted-nodes",
    "unknown-node",
    "vector-range",
    "stop-reason",
    "missing-array",
    "negative-iterations",
    "iterations-beyond-cap",
    "cap-stop-before-cap",
    "vector-not-max-normalized",
    "converged-after-no-iteration",
    "time-stop-at-cap",
    "time-stop-without-budget",
    "no-nodes-iterations",
    "no-nodes-seconds",
    "no-nodes-converged-late",
    "vector-zero",
]
# The corruptions of the model block that ReputationModel's own rule refuses.
MODEL_CORRUPTIONS = {
    "params", "vector-range", "stop-reason", "negative-iterations", "iterations-beyond-cap",
    "cap-stop-before-cap", "vector-not-max-normalized", "converged-after-no-iteration",
    "time-stop-at-cap", "time-stop-without-budget", "no-nodes-iterations", "no-nodes-seconds",
    "no-nodes-converged-late", "vector-zero",
}


def corrupted_small_world(tmp_path, corrupt) -> tuple[dict, dict]:
    """The header document and arrays of SMALL_WORLD's snapshot with its model, corrupted."""
    env = build_environment(SMALL_WORLD, 42.0)
    path = tmp_path / "t.snap"
    save_snapshot(env, path, build_reputation(env, TrustConfig()))
    document, arrays = read_snapshot(path)
    corrupt(document, arrays)
    return document, arrays


@pytest.mark.parametrize("corrupt, problem", CORRUPTIONS, ids=CORRUPTION_IDS)
def test_value_of_wrong_type_rejected(tmp_path, corrupt, problem):
    path = tmp_path / "t.snap"
    write_snapshot(path, *corrupted_small_world(tmp_path, corrupt))
    with pytest.raises(SnapshotError, match=problem):
        load_snapshot(path)


@pytest.mark.parametrize(
    "corrupt, problem",
    [case for case, id in zip(CORRUPTIONS, CORRUPTION_IDS) if id in MODEL_CORRUPTIONS],
    ids=[id for id in CORRUPTION_IDS if id in MODEL_CORRUPTIONS],
)
def test_model_block_no_build_makes_is_refused_by_the_model(tmp_path, capsys, corrupt, problem):
    document, arrays = corrupted_small_world(tmp_path, corrupt)
    nodes = [document["agents"][i] for i in arrays["nodes"]]
    with pytest.raises((TypeError, ValueError), match=problem):
        ReputationModel(nodes, arrays["vector"], **document["reputation"])
    path = tmp_path / "t.snap"
    write_snapshot(path, document, arrays)
    assert main(["snapshot", "load", "--in", str(path)]) == 1
    assert re.search(problem, capsys.readouterr().err)


def test_uncorrupted_rewrite_loads(tmp_path):
    env = build_environment(SMALL_WORLD, 42.0)
    model = build_reputation(env, TrustConfig())
    path = tmp_path / "t.snap"
    save_snapshot(env, path, model)
    write_snapshot(path, *read_snapshot(path))
    assert load_snapshot(path) == (env, model)


@pytest.mark.parametrize(
    "config, stop",
    [
        (TrustConfig(), ("converged", 1)),
        (TrustConfig(max_iterations=1, tolerance=1e-300), ("iterations", 1)),
        (TrustConfig(pagerank_seconds=0), ("seconds", 0)),
        (TrustConfig(trust_threshold=1.0), ("converged", 0)),
    ],
    ids=["converged", "iteration-cap", "time-budget", "no-nodes"],
)
def test_every_way_a_build_ends_loads(tmp_path, config, stop):
    env = build_environment(SMALL_WORLD, 42.0)
    model = build_reputation(env, config)
    assert (model.stop_reason, model.iterations_used) == stop
    path = tmp_path / "t.snap"
    save_snapshot(env, path, model)
    assert load_snapshot(path) == (env, model)


# Edges B->A (0.9), A->B (0.8) and C->A (0.2): at the default threshold the
# node set is A and B, not SMALL_WORLD's B and C, though C is an agent here.
OTHER_WORLD = [rec("B", "A", 0.9), rec("A", "B", 0.8), rec("C", "A", 0.2)]


def test_model_of_another_environment_is_refused_on_save(tmp_path):
    stale = build_reputation(build_environment(SMALL_WORLD, 42.0), TrustConfig())
    env = build_environment(OTHER_WORLD, 42.0)
    assert stale.nodes == ["B", "C"] and list(env.agents) == ["A", "B", "C"]
    path = tmp_path / "t.snap"
    with pytest.raises(ValueError, match="another snapshot"):
        save_snapshot(env, path, stale)
    assert not path.exists()


# The same node set A, B, C from two logs: B->A in place of A->C.
TWO_LOGS = (
    [rec("A", "B", 0.9), rec("B", "C", 0.8), rec("C", "A", 0.7), rec("A", "C", 0.9)],
    [rec("A", "B", 0.9), rec("B", "C", 0.8), rec("C", "A", 0.7), rec("B", "A", 0.9)],
)


def test_model_of_another_log_over_the_same_node_set_is_refused(tmp_path):
    built, env = (build_environment(log, 10.0, 0.01) for log in TWO_LOGS)
    stale, own = build_reputation(built, TrustConfig()), build_reputation(env, TrustConfig())
    assert stale.nodes == own.nodes == ["A", "B", "C"]
    assert np.allclose(stale.vector, [0.904, 0.639, 1.0], atol=1e-3)
    assert np.allclose(own.vector, [0.989, 1.0, 0.573], atol=1e-3)
    path = tmp_path / "t.snap"
    with pytest.raises(ValueError, match="another snapshot"):
        save_snapshot(env, path, stale)
    assert not path.exists()
    with pytest.raises(ValueError, match="another snapshot"):
        evaluate(env, [], "A", "C", "c1", 10.0, TrustConfig(), stale)
    evaluate(env, [], "A", "C", "c1", 10.0, TrustConfig(), own)


def test_loaded_model_is_bound_to_the_loaded_snapshot(tmp_path):
    env = build_environment(SMALL_WORLD, 42.0)
    path = tmp_path / "t.snap"
    save_snapshot(env, path, build_reputation(env, TrustConfig()))
    loaded_env, loaded_model = load_snapshot(path)
    assert loaded_env == env
    config = TrustConfig(decay_rate=0.0)
    evaluate(loaded_env, [], "A", "C", "c1", 42.0, config, loaded_model)
    save_snapshot(loaded_env, path, loaded_model)
    # An equal snapshot is still another object, so the test is one of identity.
    with pytest.raises(ValueError, match="another snapshot"):
        evaluate(env, [], "A", "C", "c1", 42.0, config, loaded_model)
    with pytest.raises(ValueError, match="another snapshot"):
        save_snapshot(env, path, loaded_model)


def test_model_of_another_environment_is_refused_on_load(tmp_path):
    stale = build_reputation(build_environment(SMALL_WORLD, 42.0), TrustConfig())
    env = build_environment(OTHER_WORLD, 42.0)
    path = tmp_path / "t.snap"
    save_snapshot(env, path, build_reputation(env, TrustConfig()))
    document, arrays = read_snapshot(path)
    # What a save without the check wrote for ``env`` with ``stale``.
    arrays.update(nodes=np.array([env.index[a] for a in stale.nodes]), vector=stale.vector)
    write_snapshot(path, document, arrays)
    with pytest.raises(SnapshotError, match="not the environment's node set"):
        load_snapshot(path)


def test_model_is_checked_at_its_own_threshold(tmp_path):
    env = build_environment(OTHER_WORLD, 42.0)
    model = build_reputation(env, TrustConfig(trust_threshold=0.85))
    assert model.nodes == ["A"] != build_reputation(env, TrustConfig()).nodes
    path = tmp_path / "t.snap"
    save_snapshot(env, path, model)
    assert load_snapshot(path) == (env, model)


@pytest.mark.parametrize(
    "cut, problem", [(8, "array vector is truncated"), (-4, "unexpected bytes after the arrays")]
)
def test_truncated_or_overlong_array_rejected(tmp_path, cut, problem):
    env = build_environment(SMALL_WORLD, 42.0)
    path = tmp_path / "t.snap"
    save_snapshot(env, path, build_reputation(env, TrustConfig()))
    body = snapshot_body(path)
    rewrite_body(path, body[:-cut] if cut > 0 else body + bytes(-cut))
    with pytest.raises(SnapshotError, match=problem):
        load_snapshot(path)


@pytest.mark.parametrize(
    "log, with_model",
    [(SMALL_WORLD, True), (SMALL_WORLD, False), ([], True), ([], False)],
    ids=["model", "no-model", "no-agents-model", "no-agents"],
)
def test_every_cut_or_extension_of_the_arrays_is_refused(tmp_path, log, with_model):
    env = build_environment(log, 42.0)
    model = build_reputation(env, TrustConfig()) if with_model else None
    path = tmp_path / "t.snap"
    save_snapshot(env, path, model)
    assert load_snapshot(path) == (env, model)
    body = snapshot_body(path)
    # No array stores its length, so each cut leaves one too short.
    for cut in range(body.index(b"\n") + 1, len(body), 8):
        rewrite_body(path, body[:cut])
        with pytest.raises(SnapshotError, match="^malformed snapshot: array .* is truncated$"):
            load_snapshot(path)
    rewrite_body(path, body + bytes(8))
    with pytest.raises(SnapshotError, match="unexpected bytes after the arrays"):
        load_snapshot(path)


@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_overwritten_bytes_end_in_snapshot_error(tmp_path_factory, edits):
    env = build_environment(SMALL_WORLD, 42.0)
    path = tmp_path_factory.mktemp("fuzz") / "t.snap"
    save_snapshot(env, path, build_reputation(env, TrustConfig()))
    body = bytearray(snapshot_body(path))
    for position, value in edits:
        body[position % len(body)] = value
    rewrite_body(path, bytes(body))
    try:
        load_snapshot(path)
    except SnapshotError:
        pass


def test_ids_differing_by_a_trailing_nul_stay_apart(tmp_path):
    log = [rec("a", "a\x00", 0.9), rec("a\x00", "a", 0.4), rec("a\x00", "b", 0.7)]
    env = build_environment(log, 42.0)
    assert list(env.agents) == ["a", "a\x00", "b"]
    assert env.edges[("a", "a\x00")].weight == 0.9
    assert env.edges[("a\x00", "a")].weight == 0.4
    path = tmp_path / "t.snap"
    save_snapshot(env, path)
    loaded, _ = load_snapshot(path)
    assert loaded == env
    assert list(loaded.agents) == ["a", "a\x00", "b"]
    assert dict(loaded.edges.items()) == dict(env.edges.items())


@given(logs(max_size=30), st.booleans())
@settings(max_examples=60, deadline=None)
def test_hypothesis_worlds_round_trip_exactly(tmp_path_factory, log, with_model):
    env = build_environment(log, 60.0, 0.03, profiles_able_everywhere(AGENTS[:5]))
    model = build_reputation(env, TrustConfig()) if with_model else None
    path = tmp_path_factory.mktemp("world") / "w.snap"
    save_snapshot(env, path, model)
    loaded, loaded_model = load_snapshot(path)
    assert loaded == env and loaded_model == model
    assert dict(loaded.edges.items()) == dict(env.edges.items())


# --- the snapshot format --------------------------------------------------------

def pinned_world():
    """A seeded world with two declared newcomers (a18, a19), a declared completion
    the log does not show (a00 on c9) and three categories."""
    profiles, log = generate(
        GenParams(
            seed=11, n_agents=20, n_categories=3, n_interactions=150,
            rating_model=RatingModel.PER_AGENT_QUALITY, newcomer_fraction=0.1,
        )
    )
    profiles[0] = AgentProfile(profiles[0].id, frozenset({"c0", "c9"}), profiles[0].able)
    return profiles, log


def test_snapshot_bytes_are_pinned(tmp_path):
    profiles, log = pinned_world()
    env = build_environment(log, 100.0, 0.01, profiles)
    assert env.agents["a00"].completed == {"c0", "c1", "c2", "c9"} and "c9" not in env.categories
    assert {"a18", "a19"}.isdisjoint(agent for pair in env.edges for agent in pair)
    checksum = save_snapshot(env, tmp_path / "w.snap", build_reputation(env, TrustConfig()))
    # The checksum of this world's file in snapshot format version 6.
    assert checksum == "fe8aa0dce75a72ec3cf9a34deeb3b6d89c3925eed31cb4e11fd97f685d0fb29f"


# The checksum of each benchmark world's file in snapshot format version 6,
# with its workload's reputation model: the file holds every array bit, so a
# one-ulp change of the build shows here, where report numbers are compared
# to 1e-12 only.
WORKLOAD_SNAPSHOTS = {
    ("query-explore", HORIZON): "a128f6bcac6c28e10602705a6d9829ec9ae0c82094f7b636f98ef0bd2e6658b1",
    ("query-history", HORIZON): "0433193d58d5fe35b6682b5482458181bb3580da531e19c014ff9c85720bd861",
    ("refresh", HORIZON): "8ad22e41829f44dc1b4cf5c166f49532ff872712b9417de5d941d8fe05031f74",
    ("refresh", BACKLOG_END): "d08828ff45ed2dfb95fcade49c223c9c1203ceaf342b85c02eacf48f08798144",
}


@pytest.mark.parametrize("workload, snapshot_time", sorted(WORKLOAD_SNAPSHOTS))
def test_workload_snapshot_bytes_are_pinned(tmp_path, workload, snapshot_time):
    spec = SPECS[workload]
    profiles, log = generate(spec.params(DEFAULT_SEED))
    env = build_environment(log, snapshot_time, spec.config.decay_rate, profiles)
    checksum = save_snapshot(env, tmp_path / "w.snap", build_reputation(env, spec.config))
    assert checksum == WORKLOAD_SNAPSHOTS[workload, snapshot_time]


def test_snapshot_with_its_profiles_in_another_order_loads_equal(tmp_path):
    profiles, log = pinned_world()
    env = build_environment(log, 100.0, 0.01, profiles)
    path = tmp_path / "w.snap"
    save_snapshot(env, path)
    document, arrays = read_snapshot(path)
    last = len(document["profiles"]) - 1
    assert last >= 2
    document["profiles"].reverse()
    arrays["profile"] = last - arrays["profile"]
    write_snapshot(path, document, arrays)
    loaded, _ = load_snapshot(path)
    assert loaded.kinds == env.kinds[::-1]
    assert loaded == env
    assert loaded.agents == env.agents
    for category in env.categories:
        assert loaded.trusted_edges(category, 0.5) == env.trusted_edges(category, 0.5)


def test_a_refresh_cycle_never_builds_the_profile_dict(tmp_path):
    profiles, log = pinned_world()
    config = TrustConfig()
    env = build_environment(log, 100.0, 0.01, profiles)
    path = tmp_path / "w.snap"
    save_snapshot(env, path, build_reputation(env, config))
    loaded, loaded_model = load_snapshot(path)
    for snapshot, model in ((env, None), (loaded, loaded_model)):
        find_paths(snapshot, [], "a01", "a02", "c0", config)
        evaluate(snapshot, [], "a01", "a18", "c0", 100.0, config, model)
        assert "agents" not in snapshot.__dict__


# --- one rule per input value --------------------------------------------------

BIG = "1" + "0" * 400  # an integer beyond the float range, as JSON text


def test_log_line_with_an_integer_beyond_the_float_range_is_a_line_error():
    text = '{"trustor":"A","trustee":"B","rating":0.5,"category":"c1","time":%s}\n' % BIG
    records, errors = parse_log(io.StringIO(text))
    assert records == []
    assert [(e.line, e.field) for e in errors] == [(1, "time")]


def test_log_line_with_more_digits_than_json_reads_is_a_line_error():
    text = (
        '{"trustor":"A","trustee":"B","rating":0.5,"category":"c1","time":1}\n'
        '{"trustor":"A","trustee":"B","rating":0.5,"category":"c1","time":1%s}\n' % ("0" * 5000)
    )
    records, errors = parse_log(io.StringIO(text))
    assert len(records) == 1
    assert [e.line for e in errors] == [2] and "invalid JSON" in errors[0].message


def test_log_integers_stay_integers_and_build_like_floats():
    line = '{"trustor":"A","trustee":"B","rating":1,"category":"c1","time":5}\n'
    (record,), _ = parse_log(io.StringIO(line))
    assert type(record.time) is int and type(record.rating) is int
    assert build_environment([record], 10.0, 0.1) == build_environment(
        [Interaction("A", "B", 1.0, "c1", 5.0)], 10.0, 0.1
    )


def test_profile_with_an_unknown_field_is_reported():
    text = '{"id": "x", "abel": ["c1"]}\n{"id": "y", "able": ["c1"]}\n'
    profiles, errors = parse_profiles(io.StringIO(text))
    assert [p.id for p in profiles] == ["y"]
    assert [(e.line, e.field, e.message) for e in errors] == [(1, "abel", "unexpected field")]


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"theta_r": null}', "theta_r must be a number"),
        ('{"epsilon": %s}' % BIG, "epsilon must be finite"),
        ('{"max_iter": %s}' % BIG, "max_iter must be finite"),
        ('{"max_iter": 2.5}', "max_iter must be an integer"),
        ('{"search_steps": true}', "search_steps must be an integer or null"),
        ('{"d": "0.9"}', "d must be a number"),
        ('{"q": 1%s}' % ("0" * 5000), "invalid JSON"),
    ],
    ids=["null", "huge-number", "huge-integer", "fraction", "bool", "string", "too-many-digits"],
)
def test_bad_config_value_is_a_config_error(tmp_path, text, message):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def test_version_4_snapshot_refused(tmp_path):
    env = build_environment(SMALL_WORLD, 42.0)
    path = tmp_path / "t.snap"
    save_snapshot(env, path, build_reputation(env, TrustConfig()))
    rewrite_body(path, snapshot_body(path).replace(VERSION_TEXT, b'"version": 4'))
    with pytest.raises(
        SnapshotError, match=f"unsupported snapshot version 4, expected {SNAPSHOT_VERSION}"
    ):
        load_snapshot(path)


def test_version_5_snapshot_refused(tmp_path):
    path = tmp_path / "v5.snap"
    write_version_5_snapshot(path, SMALL_WORLD)
    with pytest.raises(
        SnapshotError, match=f"^unsupported snapshot version 5, expected {SNAPSHOT_VERSION}$"
    ):
        load_snapshot(path)


def test_model_convergence_and_mean_are_derived_not_read(tmp_path):
    env = build_environment(SMALL_WORLD, 42.0)
    model = build_reputation(env, TrustConfig())
    path = tmp_path / "t.snap"
    save_snapshot(env, path, model)
    document, arrays = read_snapshot(path)
    assert "mean_reputation" not in document["reputation"]
    assert "converged" not in document["reputation"]
    document["reputation"].update(mean_reputation=7.0, converged=False)
    write_snapshot(path, document, arrays)
    _, loaded = load_snapshot(path)
    assert loaded == model
    assert loaded.converged and loaded.stop_reason == "converged"
    assert loaded.mean_reputation == float(np.mean(model.vector)) <= 1.0


@pytest.mark.parametrize(
    "header, problem",
    [
        ({"snapshot_time": math.inf}, "snapshot time inf must be finite"),
        ({"snapshot_time": 10**400}, "snapshot time 1000"),
        ({"decay_rate": -0.5}, r"decay rate -0.5 must be finite and >= 0"),
    ],
    ids=["infinite-time", "huge-time", "negative-rate"],
)
def test_snapshot_clock_is_held_to_the_build_rule(tmp_path, header, problem):
    env = build_environment(SMALL_WORLD, 42.0)
    path = tmp_path / "t.snap"
    save_snapshot(env, path)
    document, arrays = read_snapshot(path)
    document["header"].update(header)
    write_snapshot(path, document, arrays)
    with pytest.raises(SnapshotError, match=problem):
        load_snapshot(path)
    with pytest.raises(ValueError, match=problem):
        build_environment(
            SMALL_WORLD, document["header"]["snapshot_time"], document["header"]["decay_rate"]
        )


# Each field of a log line or config value is drawn from valid values and from
# the values the number and string rules must refuse.
_odd_values = st.one_of(
    st.sampled_from(["", None, True, False, 10**400, -(10**400), math.nan, math.inf, -math.inf]),
    st.integers(-3, 3),
    st.floats(-2.0, 2.0),
    st.floats(allow_nan=False),
    st.text(max_size=2),
)
_ids = st.sampled_from(["A", "B", "C", "D", "E"])
_valid_fields = {
    "trustor": _ids,
    "trustee": _ids,
    "rating": st.one_of(st.floats(0.0, 1.0), st.integers(0, 1)),
    "category": st.sampled_from(["c1", "c2"]),
    "time": st.one_of(st.floats(0.0, 100.0), st.integers(0, 100)),
}


@st.composite
def _lines(draw):
    """A log line of valid values, up to two of them replaced by odd ones."""
    obj = {name: draw(values) for name, values in _valid_fields.items()}
    for name in draw(st.lists(st.sampled_from(sorted(obj)), max_size=2, unique=True)):
        obj[name] = draw(_odd_values)
    return obj


@given(_lines())
@settings(max_examples=400, deadline=None)
def test_a_log_line_passes_exactly_when_its_record_constructs(obj):
    records, errors = parse_log(io.StringIO(json.dumps(obj) + "\n"))
    try:
        record = Interaction(**obj)
    except InvalidRecordError as exc:
        assert records == [] and len(errors) == 1
        assert (errors[0].field, errors[0].message) == (exc.field, str(exc))
        assert errors[0].message.startswith(f"{errors[0].field} ")
    else:
        assert errors == [] and records == [record]


@given(st.sampled_from(sorted(CONFIG_BOUNDS)), _odd_values)
@settings(max_examples=400, deadline=None)
def test_a_config_value_passes_exactly_when_trust_config_accepts_it(name, value):
    key = CONFIG_BOUNDS[name][0]
    try:
        TrustConfig(**{name: value})
        direct = None
    except (TypeError, ValueError) as exc:
        direct = str(exc)
    try:
        config_from_dict({key: value})
        wire = None
    except ConfigError as exc:
        wire = str(exc)
    assert wire == direct
    assert direct is None or direct.startswith(f"{key} ")


@pytest.mark.parametrize(
    "corrupt, problem",
    [
        (lambda d: d.update(agents=["", "B", "C"]), "agent ids must be a list of non-empty"),
        (lambda d: d.update(categories=["", "c2"]), "categories must be a list of non-empty"),
        (lambda d: d["profiles"][0].__setitem__(0, [""]), "completed categories must be a list"),
        (lambda d: d["profiles"][0].__setitem__(1, ["", "c1"]), "able categories must be a list"),
    ],
    ids=["agent", "category", "completed", "able"],
)
def test_snapshot_with_an_empty_label_is_refused(tmp_path, corrupt, problem):
    env = build_environment(SMALL_WORLD, 42.0)
    path = tmp_path / "t.snap"
    save_snapshot(env, path)
    document, arrays = read_snapshot(path)
    corrupt(document)
    write_snapshot(path, document, arrays)
    with pytest.raises(SnapshotError, match=problem):
        load_snapshot(path)


def test_profile_line_breaking_the_id_rule_is_reported():
    text = '{"id": ""}\n{"able": ["c1"]}\n{"id": 5}\n[1]\n{"id": "x", "able": [["c1"]]}\n'
    profiles, errors = parse_profiles(io.StringIO(text))
    assert profiles == []
    assert [(e.line, e.field) for e in errors] == [
        (1, "id"), (2, "id"), (3, "id"), (4, None), (5, "able")
    ]


# --- the input boundary ----------------------------------------------------------

DEEP = "[" * 100_000 + "]" * 100_000  # a JSON value nested deeper than json's parser recurses
LINE = '{"trustor":"A","trustee":"B","rating":0.5,"category":"c1","time":1}\n'


def test_blank_lines_are_skipped_but_counted():
    text = "\n   \n" + LINE + "\t\n" + "not json\n" + "  \n" + LINE.replace("0.5", "2")
    records, errors = parse_log(io.StringIO(text))
    assert records == [rec("A", "B", 0.5, "c1", 1)]
    assert [(e.line, e.field) for e in errors] == [(5, None), (7, "rating")]


@pytest.mark.parametrize(
    "parse, what", [(parse_log, "record"), (parse_profiles, "profile")], ids=["log", "profiles"]
)
@pytest.mark.parametrize("line", ['[1, 2]', '"text"', "null", "3"])
def test_line_that_is_not_a_json_object_is_a_line_error(parse, what, line):
    items, errors = parse(io.StringIO(line + "\n"))
    assert items == []
    assert [(e.line, e.field, e.message) for e in errors] == [
        (1, None, f"{what} must be a JSON object")
    ]


@pytest.mark.parametrize("text", ["[1]", '"theta_r"', "0.5", "null"])
def test_config_that_is_not_a_json_object_is_a_config_error(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="^config must be a JSON object$"):
        load_config(path)


def test_unreadable_snapshot_path_is_a_snapshot_error(tmp_path):
    with pytest.raises(SnapshotError, match="^cannot read snapshot: "):
        load_snapshot(tmp_path)  # a directory
    with pytest.raises(SnapshotError, match="^cannot read snapshot: "):
        load_snapshot(tmp_path / "missing.snap")


@pytest.mark.parametrize("parse", [parse_log, parse_profiles], ids=["log", "profiles"])
def test_line_nested_too_deep_is_a_line_error(parse):
    items, errors = parse(io.StringIO(DEEP + "\n"))
    assert items == []
    assert [(e.line, e.field) for e in errors] == [(1, None)]
    assert errors[0].message.startswith("invalid JSON: maximum recursion depth exceeded")
    with pytest.raises(LogParseError, match="^line 1: invalid JSON: maximum recursion"):
        parse(io.StringIO(DEEP + "\n"), strict=True)


def test_line_that_is_not_utf8_is_a_line_error(tmp_path):
    good = LINE.encode()
    path = tmp_path / "log.jsonl"
    accented = good.replace(b'"A"', '"\u00e9"'.encode())
    path.write_bytes(good + good.replace(b'"A"', b'"\xff"') + accented)
    records, errors = parse_log(path)
    assert records == [rec("A", "B", 0.5, "c1", 1), rec("\u00e9", "B", 0.5, "c1", 1)]
    assert [(e.line, e.field, e.message) for e in errors] == [(2, None, "invalid UTF-8")]
    with pytest.raises(LogParseError, match="^line 2: invalid UTF-8$"):
        parse_log(path, strict=True)
    path.write_bytes(b'{"id": "x"}\n{"id": "\xc3"}\n')
    profiles, errors = parse_profiles(path)
    assert profiles == [AgentProfile("x")]
    assert [(e.line, e.field, e.message) for e in errors] == [(2, None, "invalid UTF-8")]


def test_config_that_is_not_utf8_is_a_config_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"theta_r": 0.5, "\xff": 1}')
    with pytest.raises(ConfigError, match="^invalid UTF-8$"):
        load_config(path)


def test_config_nested_too_deep_is_a_config_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(DEEP)
    with pytest.raises(ConfigError, match="^invalid JSON: maximum recursion"):
        load_config(path)


def test_snapshot_header_nested_too_deep_is_a_snapshot_error(tmp_path):
    path = tmp_path / "deep.snap"
    rewrite_body(path, DEEP.encode() + b"\n")
    with pytest.raises(SnapshotError, match="^malformed snapshot: invalid JSON: maximum recursion"):
        load_snapshot(path)


def test_snapshot_header_that_is_not_json_is_a_snapshot_error(tmp_path):
    path = tmp_path / "bad.snap"
    rewrite_body(path, b"{not json\n")
    with pytest.raises(SnapshotError, match="^malformed snapshot: invalid JSON: "):
        load_snapshot(path)


def test_stream_arguments_are_left_open(tmp_path):
    stream = io.StringIO()
    dump_log([rec("A", "B", 0.5, "c1", 1)], stream)
    assert stream.getvalue() == LINE.replace(":", ": ").replace(",", ", ")
    stream.seek(0)
    assert parse_log(stream) == ([rec("A", "B", 0.5, "c1", 1)], [])
    assert load_config(io.StringIO("{}")) == TrustConfig()
    assert not stream.closed
