import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustnet import (
    ConfigError,
    GenParams,
    Interaction,
    InvalidRecordError,
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
from trustnet.core import CONFIG_BOUNDS
from trustnet.persist import config_from_dict

from helpers import (
    AGENTS,
    logs,
    profiles_able_everywhere,
    read_snapshot,
    rec,
    rewrite_body,
    snapshot_body,
    write_snapshot,
)


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
    path.write_bytes(path.read_bytes().replace(b"42.0", b"43.0", 1))
    with pytest.raises(SnapshotError, match="checksum"):
        load_snapshot(path)


def test_version_mismatch_rejected(tmp_path):
    env = build_environment([], 42.0)
    path = tmp_path / "t.snap"
    save_snapshot(env, path)
    rewrite_body(path, snapshot_body(path).replace(b'"version": 5', b'"version": 99'))
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
    with pytest.raises(SnapshotError, match="unsupported snapshot version 3, expected 5"):
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


@pytest.mark.parametrize(
    "corrupt, problem",
    [
        (replace("cat_ptr", [0, 0, 3, 4]), "edge has no categories"),
        (lambda d, a: a.update(count=a["count"].astype(bool)), "array count must be 1-D int64"),
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
        (lambda d, a: a.update(vector=np.append(a["vector"], 0.5)), "differ in length"),
        (lambda d, a: a.update(decayed_trust=a["decayed_trust"].astype(np.float32)),
         "array decayed_trust must be 1-D float64"),
        (replace("indptr", [0, 3, 2, 3]), "indptr is not a CSR pointer"),
        (replace("dst", [2, 1, 2]), "neighbours must be distinct and ascending"),
        (replace("dst", [1, 1, 2]), "neighbours must be distinct and ascending"),
        (set_item("dst", 2, 1), "edge to its own source"),
        (replace("cat", [1, 0, 0, 0]), "edge categories must be distinct and ascending"),
        (set_item("cat", 1, 7), "category index out of range"),
        (set_item("profile", 0, 9), "agent profile out of range"),
        (lambda d, a: d.update(agents=["B", "A", "C"]), "agent ids must be distinct"),
        (replace("nodes", [2, 1]), "reputation nodes must be known agents in ascending order"),
        (set_item("nodes", 1, 3), "reputation nodes must be known agents in ascending order"),
        (set_item("vector", 0, 1.5), "reputation vector outside"),
        (lambda d, a: d["reputation"].update(stop_reason="tired"), "reputation stop_reason"),
        (lambda d, a: a.pop("vector"), "array vector has no .npy header"),
    ],
    ids=[
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
    ],
)
def test_value_of_wrong_type_rejected(tmp_path, corrupt, problem):
    env = build_environment(SMALL_WORLD, 42.0)
    path = tmp_path / "t.snap"
    save_snapshot(env, path, build_reputation(env, TrustConfig()))
    document, arrays = read_snapshot(path)
    corrupt(document, arrays)
    write_snapshot(path, document, arrays)
    with pytest.raises(SnapshotError, match=problem):
        load_snapshot(path)


def test_uncorrupted_rewrite_loads(tmp_path):
    env = build_environment(SMALL_WORLD, 42.0)
    model = build_reputation(env, TrustConfig())
    path = tmp_path / "t.snap"
    save_snapshot(env, path, model)
    write_snapshot(path, *read_snapshot(path))
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
    rewrite_body(path, snapshot_body(path).replace(b'"version": 5', b'"version": 4'))
    with pytest.raises(SnapshotError, match="unsupported snapshot version 4, expected 5"):
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
def test_a_log_line_passes_exactly_when_build_environment_accepts_its_record(obj):
    records, errors = parse_log(io.StringIO(json.dumps(obj) + "\n"))
    try:
        build_environment([Interaction(**obj)], 50.0)
    except InvalidRecordError as exc:
        assert records == [] and len(errors) == 1
        assert str(exc) == f"record 0: {errors[0].message}"
        assert errors[0].message.startswith(f"{errors[0].field} ")
    else:
        assert errors == [] and records == [Interaction(**obj)]


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
