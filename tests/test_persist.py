import hashlib
import io
import json
import math

import pytest

from trustnet import (
    ConfigError,
    GenParams,
    LogParseError,
    SnapshotError,
    TrustConfig,
    build_environment,
    build_reputation,
    dump_log,
    dump_profiles,
    generate,
    load_config,
    load_snapshot,
    parse_log,
    parse_profiles,
    save_snapshot,
)

from helpers import rec


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
    assert [(e.line, e.field) for e in errors] == [(1, "able"), (2, "able")]


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
    text = path.read_text()
    path.write_text(text.replace("42.0", "43.0", 1))
    with pytest.raises(SnapshotError, match="checksum"):
        load_snapshot(path)


def rewrite_body(path, body):
    checksum = hashlib.sha256(body.encode()).hexdigest()
    path.write_text(body + "\nsha256:" + checksum + "\n")


def test_version_mismatch_rejected(tmp_path):
    env = build_environment([], 42.0)
    path = tmp_path / "t.snap"
    save_snapshot(env, path)
    body = path.read_text().split("\n")[0]
    rewrite_body(path, body.replace('"version": 3', '"version": 99'))
    with pytest.raises(SnapshotError, match="version"):
        load_snapshot(path)


def test_body_that_is_not_an_object_rejected(tmp_path):
    path = tmp_path / "t.snap"
    rewrite_body(path, "[1, 2]")
    with pytest.raises(SnapshotError, match="malformed"):
        load_snapshot(path)


@pytest.mark.parametrize(
    "corrupt, problem",
    [
        (lambda d: d["edges"][0].update(categories={}), "has no categories"),
        (lambda d: d["edges"][0]["categories"]["c1"].update(count=True), "category count"),
        (lambda d: d["edges"][0]["categories"]["c1"].update(count=-3), "count -3 below 1"),
        (lambda d: d["edges"][0]["categories"]["c1"].update(trust=1.5), "trust 1.5 outside"),
        (lambda d: d["edges"][0]["categories"]["c1"].update(rating=-0.1), "rating -0.1 outside"),
        (lambda d: d["edges"][0]["categories"]["c1"].update(last_time=42.0), "last_time 42.0"),
        (lambda d: d["edges"][0]["categories"]["c1"].update(last_time=math.inf), "last_time inf"),
        (lambda d: d["reputation"]["params"].update(damping="0.85"), "damping must be a number"),
        (lambda d: d["agents"][0].update(able="c1"), "able category must be in a list"),
        (lambda d: d["edges"][0].update(dst="Z"), "unknown agent"),
        (lambda d: d["reputation"].update(converged="yes"), "converged must be a boolean"),
        (lambda d: d["reputation"]["vector"].append(0.5), "differ in length"),
    ],
    ids=[
        "no-categories",
        "count",
        "count-below-one",
        "trust-range",
        "rating-range",
        "last-time-at-snapshot",
        "last-time-infinite",
        "able",
        "endpoint",
        "converged",
        "vector-length",
        "params",
    ],
)
def test_value_of_wrong_type_rejected(tmp_path, corrupt, problem):
    env = build_environment([rec("A", "B", 0.9)], 42.0)
    path = tmp_path / "t.snap"
    save_snapshot(env, path, build_reputation(env, TrustConfig()))
    document = json.loads(path.read_text().split("\n")[0])
    corrupt(document)
    rewrite_body(path, json.dumps(document))
    with pytest.raises(SnapshotError, match=problem):
        load_snapshot(path)
