"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import hashlib
import io
import json

import numpy as np
from hypothesis import strategies as st

from trustnet import AgentProfile, Interaction
from trustnet.persist import ENV_ARRAYS, MODEL_ARRAYS

AGENTS = ["A", "B", "C", "D", "E", "F", "G", "H"]
CATEGORIES = ["c1", "c2", "c3"]


def rec(trustor, trustee, rating, category="c1", time=0.0) -> Interaction:
    return Interaction(trustor=trustor, trustee=trustee, rating=rating, category=category, time=time)


def profiles_able_everywhere(agents=AGENTS, categories=CATEGORIES):
    return [
        AgentProfile(id=a, completed=frozenset(), able=frozenset(categories)) for a in agents
    ]


ratings = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
times = st.floats(min_value=0.0, max_value=99.0, allow_nan=False, allow_infinity=False)


@st.composite
def interactions(draw, agents=AGENTS, categories=CATEGORIES):
    trustor = draw(st.sampled_from(agents))
    trustee = draw(st.sampled_from([a for a in agents if a != trustor]))
    return Interaction(
        trustor=trustor,
        trustee=trustee,
        rating=draw(ratings),
        category=draw(st.sampled_from(categories)),
        time=draw(times),
    )


def logs(min_size=0, max_size=30, agents=AGENTS, categories=CATEGORIES):
    return st.lists(interactions(agents=agents, categories=categories), min_size=min_size, max_size=max_size)


# --- snapshot files ------------------------------------------------------------

def rewrite_body(path, body: bytes) -> None:
    """Write a snapshot body with a valid checksum line, so that the parser is reached."""
    path.write_bytes(body + b"\nsha256:" + hashlib.sha256(body).hexdigest().encode() + b"\n")


def snapshot_body(path) -> bytes:
    return path.read_bytes().rpartition(b"\nsha256:")[0]


def read_snapshot(path) -> tuple[dict, dict]:
    """A snapshot file's header document and its arrays by name, read with numpy."""
    line, _, rest = snapshot_body(path).partition(b"\n")
    stream = io.BytesIO(rest)
    names = ENV_ARRAYS + MODEL_ARRAYS
    arrays = {}
    while stream.tell() < len(rest):
        arrays[names[len(arrays)]] = np.load(stream, allow_pickle=False)
    return json.loads(line), arrays


def write_snapshot(path, document: dict, arrays: dict) -> None:
    """Write a snapshot from a header document and arrays, with a valid checksum."""
    buffer = io.BytesIO()
    buffer.write(json.dumps(document).encode() + b"\n")
    for values in arrays.values():
        np.save(buffer, values, allow_pickle=False)
    rewrite_body(path, buffer.getvalue())
