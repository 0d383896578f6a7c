import hashlib
import json

import pytest

from trustnet.cli import main
from trustnet import GenParams, Interaction, dump_log, dump_profiles, generate

from helpers import read_snapshot, write_snapshot


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
    assert "array decayed_trust must be 1-D float64" in err


def test_oracle_suite_reports_clean_comparison(capsys):
    code, out, _ = run(
        capsys,
        ["oracle", "--suite", "all", "--seeds", "20", "--rep-seeds", "8", "--rep-agents", "25"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["indirect"]["acyclic_mismatches"] == 0
    assert payload["reputation"]["mismatches"] == 0


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


def test_generate_with_a_non_finite_time_horizon_is_input_error(capsys, tmp_path):
    out = tmp_path / "g.jsonl"
    argv = ["generate", "--seed", "1", "--time-horizon", "nan", "--out", str(out)]
    assert_input_error(*run(capsys, argv), "error: time_horizon must be a finite number > 0")
    assert not out.exists()


def test_version_4_snapshot_is_input_error(capsys, world):
    snap = world["tmp"] / "world.snap"
    run(capsys, ["snapshot", "save", "--log", world["log"], "--time", "100", "--out", str(snap)])
    document, arrays = read_snapshot(snap)
    document["header"]["version"] = 4
    write_snapshot(snap, document, arrays)
    assert_input_error(
        *run(capsys, ["snapshot", "load", "--in", str(snap)]),
        "error: unsupported snapshot version 4, expected 5",
    )
