import ast
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trustnet
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
    reputation_nodes,
    save_snapshot,
)
from trustnet.cli import main
from trustnet.core import CONFIG_BOUNDS
from trustnet.persist import LOG_FIELDS, SNAPSHOT_VERSION, _check_shape, config_from_dict

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
    write_version_6_snapshot,
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


def no_nodes(used, stop):
    """The model block of an empty node set (no edge of SMALL_WORLD weighs 1), stopping as given."""
    def corrupt(document, arrays):
        model_stops(used, stop, trust_threshold=1.0)(document, arrays)
        arrays.update(vector=np.zeros(0))
    return corrupt


# The model rule's words for the stop reason a removed wall-clock budget gave.
SECONDS_STOP = "reputation stop_reason 'seconds' has the wrong type or value"


# A snapshot corruption and the problem its load names, with its id below.
CORRUPTIONS = [
    (replace("cat_ptr", [0, 0, 3, 4]), "edge has no categories"),
    # An array written at another width shifts every byte after it.
    (lambda d, a: a.update(count=a["count"].astype(bool)), "array last_time is truncated"),
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
     "array vector is truncated"),
    (replace("indptr", [0, 3, 2, 3]), "indptr is not a CSR pointer"),
    (replace("dst", [2, 1, 2]), "neighbours must be distinct and ascending"),
    (replace("dst", [1, 1, 2]), "neighbours must be distinct and ascending"),
    (set_item("dst", 2, 1), "edge to its own source"),
    (replace("cat", [1, 0, 0, 0]), "edge categories must be distinct and ascending"),
    (set_item("cat", 1, 7), "category index out of range"),
    (set_item("profile", 0, 9), "agent profile out of range"),
    (lambda d, a: d.update(agents=["B", "A", "C"]), "agent ids must be distinct"),
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
    (model_stops(1000, "seconds"), SECONDS_STOP),
    (model_stops(5, "seconds"), SECONDS_STOP),
    (no_nodes(1000, "iterations"), "reputation stop_reason iterations at 1000$"),
    (no_nodes(3, "seconds"), SECONDS_STOP),
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
    env = build_environment(SMALL_WORLD, 42.0)
    nodes = reputation_nodes(env, document["reputation"]["params"]["trust_threshold"])
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
        (TrustConfig(trust_threshold=1.0), ("converged", 0)),
    ],
    ids=["converged", "iteration-cap", "no-nodes"],
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
    assert stale.nodes == ("B", "C") and list(env.agents) == ["A", "B", "C"]
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
    assert stale.nodes == own.nodes == ("A", "B", "C")
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
    stale = build_reputation(build_environment(TWO_LOGS[0], 10.0, 0.01), TrustConfig())
    env = build_environment(OTHER_WORLD, 42.0)
    assert len(stale.nodes) == 3 != len(build_reputation(env, TrustConfig()).nodes)
    path = tmp_path / "t.snap"
    save_snapshot(env, path, build_reputation(env, TrustConfig()))
    document, arrays = read_snapshot(path)
    # What a save without the check wrote for ``env`` with ``stale``.  The file
    # holds no nodes, so a vector over another node set shows by its length.
    arrays.update(vector=stale.vector)
    write_snapshot(path, document, arrays)
    with pytest.raises(SnapshotError, match="unexpected bytes after the arrays"):
        load_snapshot(path)


def test_model_is_checked_at_its_own_threshold(tmp_path):
    env = build_environment(OTHER_WORLD, 42.0)
    model = build_reputation(env, TrustConfig(trust_threshold=0.85))
    assert model.nodes == ("A",) != build_reputation(env, TrustConfig()).nodes
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
    # The checksum of this world's file in snapshot format version 7.
    assert checksum == "02be1e8731dbedd2ece56b1a47d8fb6835708d2780666e19cc95681941cbca3a"


# The checksum of each benchmark world's file in snapshot format version 7,
# with its workload's reputation model: the file holds every array bit, so a
# one-ulp change of the build shows here, where report numbers are compared
# to 1e-12 only.
WORKLOAD_SNAPSHOTS = {
    ("query-explore", HORIZON): "71f19c4bb3f8b166ee242f7b025f7cab64a731ce3191b13287e814a065da0b46",
    ("query-history", HORIZON): "a4631dea3717435c3149b54b40e24025ccbecbffbecec47a6cebd2e3d74b5d9e",
    ("refresh", HORIZON): "3bdf9c5bde53d0ab429f39f77a31dd1da974c3951396a896740218164f9eb531",
    ("refresh", BACKLOG_END): "50212a8c40642be0391e5e1675dd189360c83087aa6ddcb5c355f05066561a5a",
}


@pytest.mark.parametrize(
    "workload, snapshot_time, through_file",
    [pytest.param(*key, False, id="-".join(map(str, key))) for key in sorted(WORKLOAD_SNAPSHOTS)]
    + [
        pytest.param("refresh", time, True, id=f"refresh-{time}-dumped-and-parsed")
        for time in (BACKLOG_END, HORIZON)
    ],
)
def test_workload_snapshot_bytes_are_pinned(tmp_path, workload, snapshot_time, through_file):
    spec = SPECS[workload]
    profiles, log = generate(spec.params(DEFAULT_SEED))
    if through_file:  # as the refresh workload reads its records: written, then parsed
        dump_log(log, tmp_path / "log.jsonl")
        log = parse_log(tmp_path / "log.jsonl", strict=True)[0]
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


def test_version_6_snapshot_refused(tmp_path):
    path = tmp_path / "v6.snap"
    write_version_6_snapshot(path, SMALL_WORLD)
    document, arrays = read_snapshot(path)  # the nodes array reads as part of the vector
    assert document["reputation"]["params"]["pagerank_seconds"] is None
    assert len(arrays["vector"]) == 2 * len(build_reputation(
        build_environment(SMALL_WORLD, 42.0), TrustConfig()
    ).nodes)
    with pytest.raises(
        SnapshotError, match=f"^unsupported snapshot version 6, expected {SNAPSHOT_VERSION}$"
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


_json_space = st.text(" \t\r", max_size=2)


@st.composite
def _lines(draw):
    """A log line of valid values, up to two of them replaced by odd ones.

    Its fields come in any order, one of them perhaps twice (json keeps the
    last value), and JSON whitespace pads the object and its tokens.
    """
    obj = {name: draw(values) for name, values in _valid_fields.items()}
    for name in draw(st.lists(st.sampled_from(sorted(obj)), max_size=2, unique=True)):
        obj[name] = draw(_odd_values)
    members = draw(st.permutations(list(obj.items())))
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(obj)))
        value = draw(st.one_of(_valid_fields[name], _odd_values))
        members.insert(draw(st.integers(0, len(members))), (name, value))

    def pad(text: str) -> str:
        return draw(_json_space) + text + draw(_json_space)

    body = ",".join(pad(json.dumps(key)) + ":" + pad(json.dumps(value)) for key, value in members)
    return pad("{" + body + "}")


@given(_lines())
@settings(max_examples=400, deadline=None)
def test_a_log_line_passes_exactly_when_its_record_constructs(line):
    records, errors = parse_log(io.StringIO(line + "\n"))
    obj = json.loads(line)
    try:
        _check_shape(obj, "record", LOG_FIELDS, LOG_FIELDS)
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


def json_readers(tree: ast.Module) -> set[str]:
    """The top-level definitions of ``tree`` that call json.loads or json.load, or
    use JSONDecoder (each named by its def, class or assigned name)."""
    found = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("json"):
                used = {alias.name for alias in node.names} & {"loads", "load", "JSONDecoder"}
            elif isinstance(node, ast.Attribute):
                json_call = isinstance(node.value, ast.Name) and node.value.id == "json"
                used = node.attr == "JSONDecoder" or json_call and node.attr in ("loads", "load")
            else:
                used = isinstance(node, ast.Name) and node.id == "JSONDecoder"
            if used:
                targets = getattr(top, "targets", [top])
                found.update(getattr(t, "name", getattr(t, "id", "?")) for t in targets)
    return found


def test_every_json_value_read_goes_through_the_one_decoder():
    package = Path(trustnet.__file__).parent
    readers = {
        f"{path.stem}.{name}"
        for path in sorted(package.glob("*.py"))
        for name in json_readers(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert readers == {"persist._scan", "persist._decode"}


# Builds a snapshot and a reputation model, evaluates and runs one command,
# then prints the names of the scipy modules loaded.
NO_SCIPY = """
import sys
import trustnet
from trustnet.cli import main

log = [trustnet.Interaction(a, b, 0.9, "c1", 1.0) for a, b in ("AB", "BC", "CA", "AC")]
env = trustnet.build_environment(log, 10.0, 0.0)
config = trustnet.TrustConfig(decay_rate=0.0)
model = trustnet.build_reputation(env, config)
assert model.nodes == ("A", "B", "C")
trustnet.evaluate(env, log, "A", "C", "c1", 10.0, config, model)
trustnet.dump_log(log, sys.argv[1])
assert main(["eval", "--log", sys.argv[1], "--time", "10", "--trustor", "A", "--trustee", "C",
             "--category", "c1"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_the_engine_runs_without_loading_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(trustnet.__file__).parent.parent), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path / "log.jsonl")], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_stream_arguments_are_left_open(tmp_path):
    stream = io.StringIO()
    dump_log([rec("A", "B", 0.5, "c1", 1)], stream)
    assert stream.getvalue() == LINE.replace(":", ": ").replace(",", ", ")
    stream.seek(0)
    assert parse_log(stream) == ([rec("A", "B", 0.5, "c1", 1)], [])
    assert load_config(io.StringIO("{}")) == TrustConfig()
    assert not stream.closed


# --- the golden line table -------------------------------------------------------
#
# Each row's outcome was recorded by running the reader whose decoder was
# json.loads: the items (a record's repr shows its fields' types), the errors
# as (line, field, message), and the strict-mode LogParseError text (None
# when the file has no error).  Profiles hold at most one category per set,
# so that their reprs do not depend on string hashing.

def log_line(**values: bytes) -> bytes:
    """A log line (no newline) of A rating B 0.5 on c1 at time 1; ``values`` are
    JSON texts that replace fields, or add them after the others."""
    fields = {"trustor": b'"A"', "trustee": b'"B"', "rating": b"0.5", "category": b'"c1"',
              "time": b"1"}
    fields.update(values)
    return b"{" + b", ".join(b'"%s": %s' % (k.encode(), v) for k, v in fields.items()) + b"}"


AB_LINE = log_line()
AB_RECORD = "Interaction(trustor='A', trustee='B', rating=0.5, category='c1', time=1)"
AB_QUARTER = AB_RECORD.replace("0.5", "0.25")
X_LINE = b'{"id": "x", "able": ["c1"]}'
X_PROFILE = "AgentProfile(id='x', completed=frozenset(), able=frozenset({'c1'}))"
BOM = "\ufeff".encode()
NBSP = "\u00a0".encode()
EXTRA, NO_VALUE = "invalid JSON: Extra data", "invalid JSON: Expecting value"
BOM_ERROR = "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"
NO_NAME = "invalid JSON: Expecting property name enclosed in double quotes"
DIGITS = (
    "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
    "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit"
)
NESTED = (
    "invalid JSON: maximum recursion depth exceeded while decoding a JSON array from a "
    "unicode string"
)
BAD_RATING = (1, "rating", "rating must be a finite number in [0, 1]")
BAD_TIME = (1, "time", "time must be a finite number >= 0")


def at(line: int, message: str) -> tuple:
    """A line error naming no field."""
    return (line, None, message)


GOLDEN_LINES = [
    ("plain", parse_log, AB_LINE + b"\n", [AB_RECORD], [], None),
    ("json-whitespace-around", parse_log, b" \t " + AB_LINE + b" \t\r\n", [AB_RECORD], [], None),
    ("whitespace-between-tokens", parse_log,
     AB_LINE.replace(b": ", b" \t: ").replace(b", ", b" ,\t") + b"\n", [AB_RECORD], [], None),
    ("trailing-form-feed", parse_log, AB_LINE + b"\x0c\n", [], [at(1, EXTRA)],
     "line 1: " + EXTRA),
    ("trailing-vertical-tab", parse_log, AB_LINE + b"\x0b\n", [], [at(1, EXTRA)],
     "line 1: " + EXTRA),
    ("trailing-nbsp", parse_log, AB_LINE + NBSP + b"\n", [], [at(1, EXTRA)], "line 1: " + EXTRA),
    ("leading-form-feed", parse_log, b"\x0c" + AB_LINE + b"\n", [], [at(1, NO_VALUE)],
     "line 1: " + NO_VALUE),
    ("leading-nbsp", parse_log, NBSP + AB_LINE + b"\n", [], [at(1, NO_VALUE)],
     "line 1: " + NO_VALUE),
    ("blank-unicode-whitespace", parse_log,
     b"\x0c\x0b \t\n" + NBSP + "\u3000".encode() + b"\n" + AB_LINE + b"\n", [AB_RECORD], [], None),
    ("bom-first-line", parse_log, BOM + AB_LINE + b"\n" + AB_LINE + b"\n", [AB_RECORD],
     [at(1, BOM_ERROR)], "line 1: " + BOM_ERROR),
    ("bom-second-line", parse_log, AB_LINE + b"\n" + BOM + AB_LINE + b"\n", [AB_RECORD],
     [at(2, BOM_ERROR)], "line 2: " + BOM_ERROR),
    ("bom-after-whitespace", parse_log, b" " + BOM + AB_LINE + b"\n", [], [at(1, NO_VALUE)],
     "line 1: " + NO_VALUE),
    ("bom-after-value", parse_log, AB_LINE + BOM + b"\n", [], [at(1, EXTRA)], "line 1: " + EXTRA),
    ("two-objects", parse_log, AB_LINE + b" " + AB_LINE + b"\n", [], [at(1, EXTRA)],
     "line 1: " + EXTRA),
    ("two-objects-adjacent", parse_log, AB_LINE + AB_LINE + b"\n", [], [at(1, EXTRA)],
     "line 1: " + EXTRA),
    ("one-comma-two", parse_log, b"1,2\n", [], [at(1, EXTRA)], "line 1: " + EXTRA),
    ("value-then-garbage", parse_log, AB_LINE + b" x\n", [], [at(1, EXTRA)], "line 1: " + EXTRA),
    ("open-brace", parse_log, b"{\n", [], [at(1, NO_NAME)], "line 1: " + NO_NAME),
    ("not-json", parse_log, b"not json\n", [], [at(1, NO_VALUE)], "line 1: " + NO_VALUE),
    ("array", parse_log, b"[1, 2]\n", [], [at(1, "record must be a JSON object")],
     "line 1: record must be a JSON object"),
    ("empty-object", parse_log, b"{}\n", [], [(1, "trustor", "missing field")],
     "line 1, field 'trustor': missing field"),
    ("unknown-field", parse_log, log_line(extra=b"1") + b"\n", [],
     [(1, "extra", "unexpected field")], "line 1, field 'extra': unexpected field"),
    ("nan-rating", parse_log, log_line(rating=b"NaN") + b"\n", [], [BAD_RATING],
     "line 1, field 'rating': rating must be a finite number in [0, 1]"),
    ("infinity-time", parse_log, log_line(time=b"Infinity") + b"\n", [], [BAD_TIME],
     "line 1, field 'time': time must be a finite number >= 0"),
    ("minus-infinity-time", parse_log, log_line(time=b"-Infinity") + b"\n", [], [BAD_TIME],
     "line 1, field 'time': time must be a finite number >= 0"),
    ("1e400-rating", parse_log, log_line(rating=b"1e400") + b"\n", [], [BAD_RATING],
     "line 1, field 'rating': rating must be a finite number in [0, 1]"),
    ("int-beyond-float-range", parse_log, log_line(time=b"1" + b"0" * 400) + b"\n", [],
     [BAD_TIME], "line 1, field 'time': time must be a finite number >= 0"),
    ("5000-digit-int", parse_log, log_line(time=b"1" + b"0" * 4999) + b"\n", [],
     [at(1, DIGITS)], "line 1: " + DIGITS),
    ("nested-too-deep", parse_log, DEEP.encode() + b"\n", [], [at(1, NESTED)],
     "line 1: " + NESTED),
    ("nested-too-deep-in-field", parse_log, log_line(rating=DEEP.encode()) + b"\n", [],
     [at(1, NESTED)], "line 1: " + NESTED),
    ("int-fields", parse_log, log_line(rating=b"1", time=b"5") + b"\n",
     ["Interaction(trustor='A', trustee='B', rating=1, category='c1', time=5)"], [], None),
    ("minus-zero", parse_log, log_line(rating=b"-0.0", time=b"-0") + b"\n",
     ["Interaction(trustor='A', trustee='B', rating=-0.0, category='c1', time=0)"], [], None),
    ("bool-rating", parse_log, log_line(rating=b"true") + b"\n", [], [BAD_RATING],
     "line 1, field 'rating': rating must be a finite number in [0, 1]"),
    ("string-rating", parse_log, log_line(rating=b'"0.5"') + b"\n", [], [BAD_RATING],
     "line 1, field 'rating': rating must be a finite number in [0, 1]"),
    ("empty-trustor", parse_log, log_line(trustor=b'""') + b"\n", [],
     [(1, "trustor", "trustor must be a non-empty string")],
     "line 1, field 'trustor': trustor must be a non-empty string"),
    ("self-rating", parse_log, log_line(trustee=b'"A"') + b"\n", [],
     [(1, "trustee", "trustee must differ from the trustor")],
     "line 1, field 'trustee': trustee must differ from the trustor"),
    ("duplicate-key-last-wins", parse_log, AB_LINE[:-1] + b', "rating": 0.7}\n',
     [AB_RECORD.replace("0.5", "0.7")], [], None),
    ("duplicate-key-bad-then-good", parse_log, b'{"rating": 7, ' + AB_LINE[1:] + b"\n",
     [AB_RECORD], [], None),
    ("duplicate-key-good-then-bad", parse_log, AB_LINE[:-1] + b', "time": -1}\n', [],
     [BAD_TIME], "line 1, field 'time': time must be a finite number >= 0"),
    ("crlf", parse_log,
     AB_LINE + b"\r\n" + b"not json\r\n" + log_line(rating=b"0.25") + b"\r\n",
     [AB_RECORD, AB_QUARTER], [at(2, NO_VALUE)], "line 2: " + NO_VALUE),
    ("cr-between-tokens", parse_log, AB_LINE.replace(b", ", b",\r ") + b"\n", [AB_RECORD], [],
     None),
    ("two-objects-split-by-cr", parse_log, AB_LINE + b"\r" + AB_LINE + b"\n", [], [at(1, EXTRA)],
     "line 1: " + EXTRA),
    ("no-final-newline", parse_log, AB_LINE + b"\n" + log_line(rating=b"0.25"),
     [AB_RECORD, AB_QUARTER], [], None),
    ("no-final-newline-bad", parse_log, AB_LINE + b"\n" + b"{", [AB_RECORD], [at(2, NO_NAME)],
     "line 2: " + NO_NAME),
    ("non-ascii-ids", parse_log,
     log_line(trustor='"\u00e9"'.encode(), trustee='"\u65e5\u672c"'.encode(),
              category='"\U0001F600"'.encode()) + b"\n",
     ["Interaction(trustor='\u00e9', trustee='\u65e5\u672c', rating=0.5, category='\U0001F600',"
      " time=1)"], [], None),
    ("escaped-non-ascii-ids", parse_log,
     log_line(trustor=b'"\\u00e9"', category=b'"\\ud83d\\ude00"') + b"\n",
     ["Interaction(trustor='\u00e9', trustee='B', rating=0.5, category='\U0001F600', time=1)"],
     [], None),
    ("escaped-lone-surrogate", parse_log, log_line(trustor=b'"\\ud800"') + b"\n",
     ["Interaction(trustor='\\ud800', trustee='B', rating=0.5, category='c1', time=1)"], [],
     None),
    ("not-utf8-byte", parse_log,
     AB_LINE + b"\n" + log_line(trustor=b'"\xff"') + b"\n" + AB_LINE + b"\n",
     [AB_RECORD, AB_RECORD], [at(2, "invalid UTF-8")], "line 2: invalid UTF-8"),
    ("not-utf8-truncated-sequence", parse_log, log_line(trustor=b'"\xc3"') + b"\n", [],
     [at(1, "invalid UTF-8")], "line 1: invalid UTF-8"),
    ("profile-plain", parse_profiles, X_LINE + b"\n", [X_PROFILE], [], None),
    ("profile-json-whitespace-around", parse_profiles, b" \t " + X_LINE + b" \t\r\n",
     [X_PROFILE], [], None),
    ("profile-trailing-form-feed", parse_profiles, X_LINE + b"\x0c\n", [], [at(1, EXTRA)],
     "line 1: " + EXTRA),
    ("profile-trailing-nbsp", parse_profiles, X_LINE + NBSP + b"\n", [], [at(1, EXTRA)],
     "line 1: " + EXTRA),
    ("profile-bom", parse_profiles, BOM + X_LINE + b"\n", [], [at(1, BOM_ERROR)],
     "line 1: " + BOM_ERROR),
    ("profile-two-objects", parse_profiles, X_LINE + b" " + X_LINE + b"\n", [], [at(1, EXTRA)],
     "line 1: " + EXTRA),
    ("profile-nan", parse_profiles, b'{"id": NaN}\n', [],
     [(1, "id", "id must be a non-empty string")],
     "line 1, field 'id': id must be a non-empty string"),
    ("profile-5000-digit-int", parse_profiles, b'{"id": 1' + b"0" * 4999 + b"}\n", [],
     [at(1, DIGITS)], "line 1: " + DIGITS),
    ("profile-nested-too-deep", parse_profiles, DEEP.encode() + b"\n", [], [at(1, NESTED)],
     "line 1: " + NESTED),
    ("profile-duplicate-key", parse_profiles,
     b'{"id": "x", "able": ["c1"], "able": ["c2"], "id": "y"}\n',
     ["AgentProfile(id='y', completed=frozenset(), able=frozenset({'c2'}))"], [], None),
    ("profile-crlf-no-final-newline", parse_profiles,
     X_LINE + b"\r\n" + b'{"id": "y"}\r\n' + X_LINE,
     [X_PROFILE, "AgentProfile(id='y', completed=frozenset(), able=frozenset())"],
     [(3, "id", "id 'x' already declared on an earlier line")],
     "line 3, field 'id': id 'x' already declared on an earlier line"),
    ("profile-non-ascii-id", parse_profiles, '{"id": "\u00e9\U0001F600"}\n'.encode(),
     ["AgentProfile(id='\u00e9\U0001F600', completed=frozenset(), able=frozenset())"], [], None),
    ("profile-not-utf8-byte", parse_profiles, b'{"id": "\xff"}\n' + X_LINE + b"\n",
     [X_PROFILE], [at(1, "invalid UTF-8")], "line 1: invalid UTF-8"),
]


@pytest.mark.parametrize(
    "parse, data, items, errors, strict",
    [row[1:] for row in GOLDEN_LINES],
    ids=[row[0] for row in GOLDEN_LINES],
)
def test_golden_lines_give_the_recorded_items_and_errors(tmp_path, parse, data, items, errors,
                                                        strict):
    """Read from a file and from a stream of the same text (with CRLF kept), each
    file gives the recorded outcome in both modes."""
    path = tmp_path / "lines.jsonl"
    path.write_bytes(data)
    for source in (lambda: path, lambda: io.StringIO(data.decode("utf-8", "surrogateescape"))):
        found, problems = parse(source())
        assert [repr(item) for item in found] == items
        assert [(e.line, e.field, e.message) for e in problems] == errors
        if strict is None:
            assert parse(source(), strict=True) == (found, [])
        else:
            with pytest.raises(LogParseError) as raised:
                parse(source(), strict=True)
            assert str(raised.value) == strict
