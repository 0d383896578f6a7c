import hashlib
import json

import numpy as np
import pytest

from trustnet import (
    GenParams, Interaction, InvariantError, PropagationTable, aggregate, build_environment,
    dump_log, dump_profiles, generate, oracles, parse_log, parse_profiles,
)
from trustnet import cli
from trustnet.cli import main
from trustnet.persist import SNAPSHOT_VERSION

from helpers import read_snapshot, rec, write_snapshot, write_version_5_snapshot


@pytest.fixture
def world(tmp_path):
    params = GenParams(seed=21, n_agents=8, n_interactions=120, newcomer_fraction=0.125)
    profiles, log = generate(params)
    log_path = tmp_path / "log.jsonl"
    profiles_path = tmp_path / "profiles.jsonl"
    dump_log(log, log_path)
    dump_profiles(profiles, profiles_path)
    return {"log": str(log_path), "profiles": str(profiles_path), "tmp": tmp_path}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_emits_single_json_report(capsys, world):
    code, out, _ = run(
        capsys,
        [
            "eval",
            "--log", world["log"],
            "--profiles", world["profiles"],
            "--trustor", "a0",
            "--trustee", "a3",
            "--category", "c0",
            "--time", "100",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "trust", "alpha", "beta", "direct", "indirect", "reputation", "diagnostics"
    }
    assert 0.0 <= payload["trust"] <= 1.0


def test_eval_newcomer_has_zero_weights(capsys, world):
    # a7 is the silent newcomer of this seed
    code, out, _ = run(
        capsys,
        [
            "eval",
            "--log", world["log"],
            "--profiles", world["profiles"],
            "--trustor", "a0",
            "--trustee", "a7",
            "--category", "c0",
            "--time", "100",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == 0.0
    assert payload["beta"] == 0.0
    assert payload["trust"] == payload["diagnostics"]["reputation"]["mean"]


def test_eval_is_deterministic(capsys, world):
    argv = [
        "eval",
        "--log", world["log"],
        "--profiles", world["profiles"],
        "--trustor", "a1",
        "--trustee", "a4",
        "--category", "c1",
        "--time", "90",
    ]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_eval_unknown_agent_is_input_error(capsys, world):
    code, out, err = run(
        capsys,
        [
            "eval",
            "--log", world["log"],
            "--trustor", "nobody",
            "--trustee", "a1",
            "--category", "c0",
            "--time", "100",
        ],
    )
    assert code == 1
    assert out == ""
    assert "unknown agent" in err


def test_paths_dump_has_stable_fields(capsys, world):
    code, out, _ = run(
        capsys,
        [
            "paths",
            "--log", world["log"],
            "--trustor", "a0",
            "--trustee", "a3",
            "--category", "c0",
            "--time", "100",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["trustor", "trustee", "category", "time", "rows", "trustee_rows"]
    for row in payload["rows"]:
        assert list(row) == ["agent", "cum_prob", "cum_trust", "path"]
    for row in payload["trustee_rows"]:
        assert list(row) == ["advisor", "rating", "path"]


def test_reputation_vector_normalized(capsys, world):
    code, out, _ = run(
        capsys,
        ["reputation", "--log", world["log"], "--time", "100"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"]
    assert len(payload["nodes"]) == len(payload["vector"])
    assert max(payload["vector"]) == pytest.approx(1.0, abs=1e-12)


def test_reputation_with_zero_threshold_and_zero_ratings(capsys, tmp_path):
    log = tmp_path / "log.jsonl"
    dump_log([Interaction("a", "b", 0.0, "c0", 1.0), Interaction("b", "a", 0.0, "c0", 2.0)], log)
    config = tmp_path / "cfg.json"
    config.write_text('{"theta_r": 0}')
    code, out, _ = run(
        capsys,
        ["reputation", "--log", str(log), "--config", str(config), "--time", "10"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["nodes"] == ["a", "b"]
    assert payload["vector"] == [1.0, 1.0]


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "key",
    [
        "theta_r", "theta_r_p", "lambda_d", "lambda_p", "d", "q", "epsilon",
        "max_iter", "search_steps", "search_seconds", "pagerank_seconds",
    ],
)
def test_non_finite_config_value_is_input_error(capsys, world, key, value):
    config = world["tmp"] / "cfg.json"
    config.write_text(f'{{"{key}": {value}}}')
    code, out, err = run(
        capsys,
        ["reputation", "--log", world["log"], "--config", str(config), "--time", "100"],
    )
    assert code == 1
    assert out == ""
    assert f"error: {key} must be" in err


@pytest.mark.parametrize("time", ["inf", "nan"])
def test_non_finite_time_is_input_error(capsys, world, time):
    code, out, err = run(
        capsys,
        [
            "eval",
            "--log", world["log"],
            "--trustor", "a0",
            "--trustee", "a3",
            "--category", "c0",
            "--time", time,
        ],
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: snapshot time {float(time)!r} must be finite")


def test_generate_twice_is_identical(capsys, tmp_path):
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    for out in (out_a, out_b):
        code, _, _ = run(
            capsys,
            [
                "generate",
                "--seed", "42",
                "--agents", "9",
                "--interactions", "60",
                "--rating-model", "per-agent-quality",
                "--out", str(out),
            ],
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_generate_writes_profiles_that_parse_back(capsys, tmp_path):
    log, profiles = tmp_path / "log.jsonl", tmp_path / "profiles.jsonl"
    argv = [
        "generate", "--seed", "7", "--agents", "9", "--interactions", "60",
        "--newcomer-fraction", "0.2", "--out", str(log), "--profiles-out", str(profiles),
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["profiles"] == str(profiles)
    expected, records = generate(
        GenParams(seed=7, n_agents=9, n_interactions=60, newcomer_fraction=0.2)
    )
    assert parse_profiles(profiles) == (expected, [])
    assert parse_log(log) == (records, [])


def test_snapshot_save_and_load(capsys, world):
    snap = world["tmp"] / "world.snap"
    code, out, _ = run(
        capsys,
        [
            "snapshot", "save",
            "--log", world["log"],
            "--profiles", world["profiles"],
            "--time", "100",
            "--out", str(snap),
            "--with-reputation",
        ],
    )
    assert code == 0
    saved = json.loads(out)
    assert saved["with_reputation"] is True

    code, out, _ = run(capsys, ["snapshot", "load", "--in", str(snap)])
    assert code == 0
    loaded = json.loads(out)
    assert loaded["agents"] == saved["agents"]
    assert loaded["has_reputation"] is True
    assert loaded["snapshot_time"] == 100.0


def test_malformed_snapshot_body_is_input_error(capsys, tmp_path):
    body = "[1, 2]"
    snap = tmp_path / "bad.snap"
    snap.write_text(body + "\nsha256:" + hashlib.sha256(body.encode()).hexdigest() + "\n")
    code, out, err = run(capsys, ["snapshot", "load", "--in", str(snap)])
    assert code == 1
    assert out == ""
    assert "malformed snapshot" in err


def test_snapshot_value_of_wrong_type_is_input_error(capsys, world):
    snap = world["tmp"] / "world.snap"
    run(capsys, ["snapshot", "save", "--log", world["log"], "--time", "100", "--out", str(snap)])
    document, arrays = read_snapshot(snap)
    arrays["decayed_trust"] = arrays["decayed_trust"].astype(str)
    write_snapshot(snap, document, arrays)
    code, out, err = run(capsys, ["snapshot", "load", "--in", str(snap)])
    assert code == 1
    assert out == ""
    # No array stores its dtype or length: the wider strings overrun the layout.
    assert "unexpected bytes after the arrays" in err


def test_oracle_suite_reports_clean_comparison(capsys):
    code, out, _ = run(
        capsys,
        ["oracle", "--suite", "all", "--seeds", "20", "--rep-seeds", "8", "--rep-agents", "25"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["indirect"]["mismatches"] == 0
    assert payload["reputation"]["mismatches"] == 0


def test_oracle_suite_fails_on_a_cyclic_mismatch(capsys, monkeypatch):
    # Seed 3 is cyclic and has an indirect value; shift the engine's value there.
    profiles, log, *_ = oracles.indirect_instance(3)
    assert not oracles.is_acyclic(build_environment(log, 100.0, 0.0, profiles))
    calls = []

    def shifted(table, path_threshold, path_decay):
        calls.append(table.trustor)
        value = aggregate(table, path_threshold, path_decay)
        return value + 0.01 if len(calls) == 4 else value  # the fourth instance is seed 3

    monkeypatch.setattr(oracles, "aggregate", shifted)
    code, out, _ = run(capsys, ["oracle", "--suite", "indirect", "--seeds", "6"])
    assert code == 2
    report = json.loads(out)["indirect"]
    assert report["mismatches"] == 1
    assert [(d["seed"], d["acyclic"]) for d in report["deviations"]] == [(3, False)]
    assert report["max_deviation"] == pytest.approx(0.01, abs=1e-12)


def _refuse_constant(name):
    raise ValueError(f"not JSON: {name}")


def test_oracle_one_sided_deviation_is_null_in_strict_json(capsys, monkeypatch):
    # Seed 3 has an indirect value; the engine's side goes missing there.
    calls = []

    def missing(table, path_threshold, path_decay):
        calls.append(table.trustor)
        value = aggregate(table, path_threshold, path_decay)
        return None if len(calls) == 4 else value  # the fourth instance is seed 3

    monkeypatch.setattr(oracles, "aggregate", missing)
    code, out, _ = run(capsys, ["oracle", "--suite", "indirect", "--seeds", "6"])
    assert code == 2
    report = json.loads(out, parse_constant=_refuse_constant)["indirect"]
    assert report["mismatches"] == 1
    assert [(d["seed"], d["engine"], d["deviation"]) for d in report["deviations"]] == [
        (3, None, None)
    ]
    assert report["max_deviation"] <= 1e-9


def test_oracle_node_set_mismatch_has_no_deviation(capsys, monkeypatch):
    calls, real = [], oracles.oracle_reputation

    def dropped(env, config):
        calls.append(None)
        nodes, vector = real(env, config)
        return (nodes[1:], vector[1:]) if len(calls) == 2 else (nodes, vector)

    monkeypatch.setattr(oracles, "oracle_reputation", dropped)
    argv = ["oracle", "--suite", "reputation", "--rep-seeds", "3", "--rep-agents", "12"]
    code, out, _ = run(capsys, argv)
    assert code == 2
    report = json.loads(out, parse_constant=_refuse_constant)["reputation"]
    assert report["mismatches"] == 1
    assert report["failures"] == [{"seed": 1, "problems": ["node sets differ"]}]
    assert report["max_deviation"] <= 1e-8


@pytest.mark.parametrize(
    "key, value, suite",
    [
        ("search_steps", 1, "indirect"),
        ("search_seconds", 0, "indirect"),
        ("pagerank_seconds", 0, "reputation"),
    ],
)
def test_oracle_refuses_a_budgeted_config_naming_the_key(capsys, tmp_path, key, value, suite):
    config = tmp_path / "budget.json"
    config.write_text(json.dumps({key: value}))
    code, out, err = run(capsys, ["oracle", "--suite", suite, "--config", str(config)])
    assert code == 1
    assert out == ""
    assert f"error: {key} must be null for an oracle comparison" in err


def test_oracle_refuses_every_budget_before_running_a_suite(capsys, tmp_path, monkeypatch):
    def ran(*args, **kwargs):
        raise AssertionError("the indirect suite ran before the budget was refused")

    monkeypatch.setattr(cli, "compare_indirect", ran)
    config = tmp_path / "budget.json"
    config.write_text(json.dumps({"pagerank_seconds": 0}))
    code, out, err = run(capsys, ["oracle", "--suite", "all", "--config", str(config)])
    assert code == 1
    assert out == ""
    assert "error: pagerank_seconds must be null for an oracle comparison" in err


def test_invariant_violation_exits_two(capsys, world, monkeypatch):
    def broken(self, env, trust_threshold):
        raise InvariantError("table broken on purpose")

    monkeypatch.setattr(PropagationTable, "check", broken)
    argv = ["paths", "--log", world["log"], "--time", "100"]
    code, out, err = run(capsys, argv + ["--trustor", "a0", "--trustee", "a3", "--category", "c0"])
    assert code == 2
    assert out == ""
    assert err.startswith("invariant violation: table broken on purpose")


@pytest.fixture
def ancient(tmp_path):
    """A world whose a->b rating is so old that its decay weight underflows to 0."""
    log = [Interaction("a", "b", 0.8, "c", 1.0), Interaction("b", "c", 0.9, "c", 90.0)]
    dump_log(log, tmp_path / "log.jsonl")
    (tmp_path / "config.json").write_text(json.dumps({"lambda_d": 10}))
    return ["--log", str(tmp_path / "log.jsonl"), "--config", str(tmp_path / "config.json"),
            "--time", "100"]


def test_eval_of_a_fully_decayed_edge_reads_its_rating(capsys, ancient):
    argv = ["eval", "--trustor", "a", "--trustee", "b", "--category", "c"] + ancient
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["direct"] == 0.8


def test_snapshot_of_a_fully_decayed_edge_loads(capsys, tmp_path, ancient):
    snap = tmp_path / "world.snap"
    argv = ["snapshot", "save", "--out", str(snap), "--with-reputation"] + ancient
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["edges"] == 2
    code, out, err = run(capsys, ["snapshot", "load", "--in", str(snap)])
    assert (code, err) == (0, "")
    assert json.loads(out)["has_reputation"] is True


def test_snapshot_with_a_stale_model_is_input_error(capsys, world):
    snap = world["tmp"] / "world.snap"
    argv = ["snapshot", "save", "--log", world["log"], "--time", "100", "--out", str(snap)]
    assert run(capsys, argv + ["--with-reputation"])[0] == 0
    document, arrays = read_snapshot(snap)
    # A model over one node fewer than the environment's node set: the file
    # holds as many nodes as the environment has, so it ends too soon.
    arrays.update(nodes=arrays["nodes"][1:], vector=arrays["vector"][1:])
    write_snapshot(snap, document, arrays)
    code, out, err = run(capsys, ["snapshot", "load", "--in", str(snap)])
    assert code == 1
    assert out == ""
    assert "array vector is truncated" in err


def test_snapshot_with_a_model_over_another_node_set_is_input_error(capsys, world):
    snap = world["tmp"] / "world.snap"
    config = world["tmp"] / "config.json"
    config.write_text('{"theta_r": 0.9}')
    argv = ["snapshot", "save", "--log", world["log"], "--time", "100", "--out", str(snap)]
    assert run(capsys, argv + ["--config", str(config), "--with-reputation"])[0] == 0
    document, arrays = read_snapshot(snap)
    # As many nodes as the environment's node set, one of them another agent.
    outside = np.setdiff1d(np.arange(len(document["agents"])), arrays["nodes"])
    arrays["nodes"][-1] = outside[-1]
    arrays["nodes"].sort()
    write_snapshot(snap, document, arrays)
    assert_input_error(
        *run(capsys, ["snapshot", "load", "--in", str(snap)]),
        "reputation nodes are not the environment's node set",
    )


def test_snapshot_with_a_model_no_build_makes_is_input_error(capsys, world):
    snap = world["tmp"] / "world.snap"
    argv = ["snapshot", "save", "--log", world["log"], "--time", "100", "--out", str(snap)]
    assert run(capsys, argv + ["--with-reputation"])[0] == 0
    document, arrays = read_snapshot(snap)
    document["reputation"].update(iterations_used=0, stop_reason="converged")
    write_snapshot(snap, document, arrays)
    assert_input_error(
        *run(capsys, ["snapshot", "load", "--in", str(snap)]),
        "reputation stop_reason converged at 0",
    )


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--agents", "3"),
        ("--agents", "13"),
        ("--rep-agents", "9"),
        ("--rep-agents", "201"),
        ("--seeds", "-1"),
        ("--seeds", "0"),
        ("--rep-seeds", "0"),
        ("--categories", "0"),
        ("--categories", "48"),
        ("--agents", "eight"),
    ],
)
def test_oracle_argument_out_of_range_exits_one_naming_the_flag(capsys, flag, value):
    code, out, err = run(capsys, ["oracle", flag, value])
    assert code == 1
    assert out == ""
    assert f"argument {flag}:" in err


def test_oracle_runs_at_the_ends_of_its_ranges(capsys):
    argv = ["oracle", "--seeds", "1", "--rep-seeds", "1"]
    for ends in (
        ["--agents", "4", "--rep-agents", "10", "--categories", "1"],
        ["--agents", "12", "--rep-agents", "200", "--categories", "47"],
    ):
        code, out, _ = run(capsys, argv + ends)
        assert code == 0
        payload = json.loads(out)
        assert payload["indirect"]["instances"] == payload["reputation"]["instances"] == 1


def test_unknown_flag_exits_one_with_usage(capsys, world):
    code, out, err = run(capsys, ["eval", "--nope", "x"])
    assert code == 1
    assert out == ""
    assert "usage" in err.lower()


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 1
    assert err


def test_malformed_log_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"trustor":"A","trustee":"B","rating":2.0,"category":"c","time":1}\n')
    code, out, err = run(
        capsys,
        [
            "eval",
            "--log", str(bad),
            "--trustor", "A",
            "--trustee", "B",
            "--category", "c",
            "--time", "10",
        ],
    )
    assert code == 1
    assert out == ""
    assert "line 1" in err and "rating" in err


BIG = "1" + "0" * 400  # an integer beyond the float range, as JSON text


def assert_input_error(code, out, err, message):
    assert code == 1
    assert out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"theta_r": null}', "error: theta_r must be a number"),
        ('{"epsilon": %s}' % BIG, "error: epsilon must be finite"),
        ('{"max_iter": %s}' % BIG, "error: max_iter must be finite"),
    ],
    ids=["null", "huge-number", "huge-integer"],
)
def test_config_value_beyond_the_number_rule_is_input_error(capsys, world, text, message):
    config = world["tmp"] / "cfg.json"
    config.write_text(text)
    argv = ["reputation", "--log", world["log"], "--config", str(config), "--time", "100"]
    assert_input_error(*run(capsys, argv), message)


def test_log_time_beyond_the_float_range_is_input_error(capsys, tmp_path):
    log = tmp_path / "log.jsonl"
    log.write_text('{"trustor":"A","trustee":"B","rating":0.5,"category":"c","time":%s}\n' % BIG)
    argv = [
        "eval", "--log", str(log), "--trustor", "A", "--trustee", "B", "--category", "c",
        "--time", "10",
    ]
    assert_input_error(*run(capsys, argv), "log error: line 1, field 'time'")


def test_profile_with_an_unknown_field_is_input_error(capsys, world):
    profiles = world["tmp"] / "profiles.jsonl"
    profiles.write_text('{"id": "x", "abel": ["c1"]}\n')
    argv = ["reputation", "--log", world["log"], "--profiles", str(profiles), "--time", "100"]
    assert_input_error(*run(capsys, argv), "profiles error: line 1, field 'abel'")


def test_profile_declaring_an_id_again_is_input_error(capsys, world):
    profiles = world["tmp"] / "profiles.jsonl"
    profiles.write_text('{"id": "x", "able": ["c1"]}\n{"id": "x", "able": ["c2"]}\n')
    argv = ["reputation", "--log", world["log"], "--profiles", str(profiles), "--time", "100"]
    assert_input_error(
        *run(capsys, argv), "profiles error: line 2, field 'id': id 'x' already declared"
    )


def test_generate_with_a_non_finite_time_horizon_is_input_error(capsys, tmp_path):
    out = tmp_path / "g.jsonl"
    argv = ["generate", "--seed", "1", "--time-horizon", "nan", "--out", str(out)]
    assert_input_error(*run(capsys, argv), "error: time_horizon must be a finite number > 0")
    assert not out.exists()


def test_generate_with_a_count_past_its_bound_is_input_error(capsys, tmp_path):
    # Refused when the parameters are made, before anything is drawn or allocated.
    out = tmp_path / "g.jsonl"
    argv = ["generate", "--seed", "1", "--agents", "100000000000", "--out", str(out)]
    assert_input_error(*run(capsys, argv), "error: n_agents must lie in [2, 500000]")
    assert not out.exists()


def test_version_4_snapshot_is_input_error(capsys, world):
    snap = world["tmp"] / "world.snap"
    run(capsys, ["snapshot", "save", "--log", world["log"], "--time", "100", "--out", str(snap)])
    document, arrays = read_snapshot(snap)
    document["header"]["version"] = 4
    write_snapshot(snap, document, arrays)
    assert_input_error(
        *run(capsys, ["snapshot", "load", "--in", str(snap)]),
        f"error: unsupported snapshot version 4, expected {SNAPSHOT_VERSION}",
    )


def test_version_5_snapshot_is_input_error(capsys, tmp_path):
    snap = tmp_path / "v5.snap"
    write_version_5_snapshot(snap, [rec("A", "B", 0.9), rec("B", "C", 0.6)])
    assert_input_error(
        *run(capsys, ["snapshot", "load", "--in", str(snap)]),
        f"error: unsupported snapshot version 5, expected {SNAPSHOT_VERSION}",
    )


def test_snapshot_with_an_empty_agent_id_is_input_error(capsys, world):
    snap = world["tmp"] / "world.snap"
    run(capsys, ["snapshot", "save", "--log", world["log"], "--time", "100", "--out", str(snap)])
    document, arrays = read_snapshot(snap)
    document["agents"][0] = ""
    write_snapshot(snap, document, arrays)
    assert_input_error(
        *run(capsys, ["snapshot", "load", "--in", str(snap)]),
        "agent ids must be a list of non-empty strings",
    )
