"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import hashlib
import io
import json

import numpy as np
from hypothesis import strategies as st

from trustnet import (
    AgentProfile, Interaction, TrustConfig, build_environment, build_reputation, save_snapshot,
)
from trustnet.persist import ENV_ARRAYS, FLOAT_ARRAYS, MODEL_ARRAYS
from trustnet.reputation import node_indices

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


# Each snapshot array's entry count, from the header's agent count ``n``, the
# arrays read before it and the bytes ``left`` after those, all ``vector``'s;
# no array stores its own.
ARRAY_LENGTHS = {
    "profile": lambda n, arrays, left: n,
    "indptr": lambda n, arrays, left: n + 1,
    "dst": lambda n, arrays, left: int(arrays["indptr"][-1]),
    "cat_ptr": lambda n, arrays, left: len(arrays["dst"]) + 1,
    # the five row arrays after cat_ptr
    **{name: lambda n, arrays, left: int(arrays["cat_ptr"][-1]) for name in ENV_ARRAYS[4:]},
    "vector": lambda n, arrays, left: left // 8,
}


def read_snapshot(path) -> tuple[dict, dict]:
    """A snapshot file's header document and its arrays by name, as writable copies."""
    line, _, rest = snapshot_body(path).partition(b"\n")
    document = json.loads(line)
    names = ENV_ARRAYS + (MODEL_ARRAYS if document["reputation"] is not None else ())
    arrays, offset = {}, 0
    for name in names:
        count = ARRAY_LENGTHS[name](len(document["agents"]), arrays, len(rest) - offset)
        dtype = np.float64 if name in FLOAT_ARRAYS else np.int64
        arrays[name] = np.frombuffer(rest, dtype, count, offset).copy()
        offset += count * 8
    assert offset == len(rest), "bytes after the arrays"
    return document, arrays


def write_snapshot(path, document: dict, arrays: dict) -> None:
    """Write a snapshot from a header document and arrays, with a valid checksum.

    The arrays go in file order, each as its own bytes: one of another dtype
    or length is written as it is, as a foreign writer would.
    """
    parts = [json.dumps(document).encode() + b"\n"]
    names = [name for name in ENV_ARRAYS + MODEL_ARRAYS if name in arrays]
    parts += [np.ascontiguousarray(arrays[name]).tobytes() for name in names]
    rewrite_body(path, b"".join(parts))


def version_6_snapshot(path, log) -> tuple[dict, dict]:
    """The header document and arrays of a version 6 file of ``log``'s environment
    at time 42 and its model, as :func:`read_snapshot` gives them.

    Version 6 stored the model's node indices in a ``nodes`` array before
    ``vector``, and its ``params`` held ``pagerank_seconds``.  ``path`` is
    left holding the current version's file.
    """
    env = build_environment(log, 42.0)
    save_snapshot(env, path, build_reputation(env, TrustConfig()))
    document, arrays = read_snapshot(path)
    document["header"]["version"] = 6
    document["reputation"]["params"]["pagerank_seconds"] = None
    vector = arrays.pop("vector")
    arrays.update(nodes=node_indices(env, TrustConfig().trust_threshold), vector=vector)
    return document, arrays


def write_version_6_snapshot(path, log) -> None:
    """Write a version 6 file (see :func:`version_6_snapshot`): raw arrays back to back."""
    document, arrays = version_6_snapshot(path, log)
    parts = [json.dumps(document).encode() + b"\n"]
    parts += [np.ascontiguousarray(values).tobytes() for values in arrays.values()]
    rewrite_body(path, b"".join(parts))


def write_version_5_snapshot(path, log) -> None:
    """Write a version 5 file of ``log``'s environment at time 42 and its model.

    Version 5 held version 6's arrays, each written in ``.npy`` format, its
    length and dtype in a header of its own.
    """
    document, arrays = version_6_snapshot(path, log)
    document["header"]["version"] = 5
    buffer = io.BytesIO()
    buffer.write(json.dumps(document).encode() + b"\n")
    for values in arrays.values():
        np.save(buffer, values, allow_pickle=False)
    rewrite_body(path, buffer.getvalue())
