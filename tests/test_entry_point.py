"""Bad input through the real ``python -m trustnet.cli`` entry point.

Each input ends in an ``error:`` line on stderr and exit code 1, never in a
traceback; a JSON value nested deeper than json's parser recurses is bad
input like any other.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEEP = "[" * 100_000 + "]" * 100_000
LINE = '{"trustor":"A","trustee":"B","rating":0.5,"category":"c1","time":1}\n'
QUERY = ["--time", "10", "--trustor", "A", "--trustee", "B", "--category", "c1"]


# A snapshot whose header line is DEEP, with a valid checksum, so that the header is parsed.
BODY = DEEP.encode() + b"\n"
DEEP_SNAPSHOT = BODY + b"\nsha256:" + hashlib.sha256(BODY).hexdigest().encode() + b"\n"

# name -> (files to write, as text or as bytes, and argv)
CASES = {
    "deep-log-line": ({"log.jsonl": DEEP + "\n"}, ["eval", "--log", "log.jsonl", *QUERY]),
    "deep-profile-line": (
        {"log.jsonl": LINE, "profiles.jsonl": DEEP + "\n"},
        ["eval", "--log", "log.jsonl", "--profiles", "profiles.jsonl", *QUERY],
    ),
    "deep-config": (
        {"log.jsonl": LINE, "cfg.json": DEEP},
        ["eval", "--log", "log.jsonl", "--config", "cfg.json", *QUERY],
    ),
    "deep-snapshot-header": (
        {"deep.snap": DEEP_SNAPSHOT}, ["snapshot", "load", "--in", "deep.snap"]
    ),
    "log-of-invalid-utf8": (
        {"log.jsonl": LINE.encode().replace(b'"A"', b'"\xff"')},
        ["eval", "--log", "log.jsonl", *QUERY],
    ),
}

# What stderr must also say, for the cases whose input errors name a line.
WHERE = {"log-of-invalid-utf8": "line 1: invalid UTF-8"}


@pytest.mark.parametrize("case", CASES)
def test_bad_input_exits_one_without_a_traceback(tmp_path, case):
    files, argv = CASES[case]
    for name, content in files.items():
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-m", "trustnet.cli", *argv], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert any(line.startswith("error: ") for line in done.stderr.splitlines()), done.stderr
    assert "Traceback" not in done.stderr
    assert WHERE.get(case, "") in done.stderr
