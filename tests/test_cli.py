import hashlib
import json

import pytest

from trustnet.cli import main
from trustnet import GenParams, Interaction, dump_log, dump_profiles, generate


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
    document = json.loads(snap.read_text().split("\n")[0])
    next(iter(document["edges"][0]["categories"].values()))["trust"] = "high"
    body = json.dumps(document)
    snap.write_text(body + "\nsha256:" + hashlib.sha256(body.encode()).hexdigest() + "\n")
    code, out, err = run(capsys, ["snapshot", "load", "--in", str(snap)])
    assert code == 1
    assert out == ""
    assert "category trust must be a number" in err


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
