"""Ingestion and persistence: logs, profiles, config files, snapshots.

Interaction logs and agent profiles travel as JSON lines; configuration is
a flat JSON object; a snapshot is a single file holding one JSON header
line, the environment's raw arrays in ``.npy`` format and a trailing SHA-256
checksum line.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, TextIO, Union

import numpy as np

from .core import (
    CONFIG_BOUNDS,
    AgentProfile,
    Environment,
    Interaction,
    TrustError,
    TrustConfig,
    check_interaction,
    check_snapshot_clock,
)
from .reputation import MODEL_PARAMS, STOP_REASONS, ReputationModel

SNAPSHOT_FORMAT = "trustnet-snapshot"
SNAPSHOT_VERSION = 5

# The arrays after a snapshot's header line, in file order; the model's two
# follow only when the header has a reputation block.  ``profile`` indexes
# the header's distinct profiles and ``nodes`` the agents.  The float arrays
# are "<f8", the others "<i8".
ENV_ARRAYS = ("profile",) + Environment.ARRAYS
MODEL_ARRAYS = ("nodes", "vector")
_FLOAT_ARRAYS = ("decayed_trust", "mean_rating", "last_time", "vector")
# The model's scalars, kept in the header line.
_MODEL_FIELDS = ("iterations_used", "stop_reason", "params")

LOG_FIELDS = ("trustor", "trustee", "rating", "category", "time")

# Config file key -> TrustConfig field.
CONFIG_KEYS = {row[0]: name for name, row in CONFIG_BOUNDS.items()}


@dataclass(frozen=True)
class ParseError:
    line: int
    field: Optional[str]
    message: str

    def __str__(self) -> str:
        where = f"line {self.line}"
        if self.field:
            where += f", field {self.field!r}"
        return f"{where}: {self.message}"


class LogParseError(TrustError):
    def __init__(self, error: ParseError):
        super().__init__(str(error))
        self.error = error


class ConfigError(TrustError):
    pass


class SnapshotError(TrustError):
    pass


def _as_stream(source: Union[str, Path, TextIO]) -> TextIO:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8")
    return source


def _read_json_lines(source: Union[str, Path, TextIO], strict: bool, parse) -> tuple[list, list]:
    """Parse each non-blank JSON line of ``source`` with ``parse``.

    ``parse(obj)`` returns ``(item, None)`` or ``(None, (field, problem))``.
    Returns the items in input order and the per-line errors; with
    ``strict`` the first error raises LogParseError instead.
    """
    items: list = []
    errors: list[ParseError] = []
    stream = _as_stream(source)
    try:
        for line_no, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            try:
                item, problem = parse(json.loads(line))
            except ValueError as exc:  # JSONDecodeError, or an int of too many digits
                item, problem = None, (None, f"invalid JSON: {getattr(exc, 'msg', exc)}")
            if problem is None:
                items.append(item)
                continue
            error = ParseError(line_no, *problem)
            if strict:
                raise LogParseError(error)
            errors.append(error)
    finally:
        if stream is not source:
            stream.close()
    return items, errors


def _write_json_lines(target: Union[str, Path, TextIO], objs: Iterable[dict]) -> None:
    stream = open(target, "w", encoding="utf-8") if isinstance(target, (str, Path)) else target
    try:
        for obj in objs:
            stream.write(json.dumps(obj) + "\n")
    finally:
        if stream is not target:
            stream.close()


def parse_log(
    source: Union[str, Path, TextIO], strict: bool = False
) -> tuple[list[Interaction], list[ParseError]]:
    """Read a JSON-lines interaction log.

    Returns the valid records in input order together with the list of
    per-line errors.  With ``strict`` the first error raises LogParseError
    instead.  Blank lines are ignored.
    """
    return _read_json_lines(source, strict, _wire_record)


def _wire_record(obj) -> tuple[Optional[Interaction], Optional[tuple[Optional[str], str]]]:
    """The record a log line holds, or (None, (field, problem)) when it is invalid.

    Only the line's shape is checked here; its values by :func:`check_interaction`.
    """
    if not isinstance(obj, dict):
        return None, (None, "record must be a JSON object")
    unknown = sorted(set(obj) - set(LOG_FIELDS))
    if unknown:
        return None, (unknown[0], "unexpected field")
    missing = [f for f in LOG_FIELDS if f not in obj]
    if missing:
        return None, (missing[0], "missing field")
    record = Interaction(**obj)
    problem = check_interaction(record)
    return (record, None) if problem is None else (None, problem)


def dump_log(records: Sequence[Interaction], target: Union[str, Path, TextIO]) -> None:
    """Write records as JSON lines with the fields in ``LOG_FIELDS`` order."""
    _write_json_lines(target, ({f: getattr(r, f) for f in LOG_FIELDS} for r in records))


def parse_profiles(
    source: Union[str, Path, TextIO], strict: bool = False
) -> tuple[list[AgentProfile], list[ParseError]]:
    """Read JSON-lines agent declarations: {"id", "able", "completed"}."""
    return _read_json_lines(source, strict, _wire_profile)


def _wire_profile(obj) -> tuple[Optional[AgentProfile], Optional[tuple[str, str]]]:
    if not isinstance(obj, dict) or not isinstance(obj.get("id"), str) or not obj["id"]:
        return None, ("id", "must be a non-empty string")
    unknown = sorted(set(obj) - {"id", "able", "completed"})
    if unknown:
        return None, (unknown[0], "unexpected field")
    able, completed = obj.get("able", []), obj.get("completed", [])
    for categories in (able, completed):
        if not isinstance(categories, list) or not all(
            isinstance(c, str) and c for c in categories
        ):
            return None, ("able", "category lists must contain non-empty strings")
    return AgentProfile(id=obj["id"], completed=frozenset(completed), able=frozenset(able)), None


def dump_profiles(profiles: Iterable[AgentProfile], target: Union[str, Path, TextIO]) -> None:
    _write_json_lines(
        target,
        ({"id": p.id, "able": sorted(p.able), "completed": sorted(p.completed)} for p in profiles),
    )


def config_from_dict(data: dict) -> TrustConfig:
    """Build a TrustConfig from flat wire keys; an unknown key or bad value raises ConfigError."""
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config key: {unknown[0]!r}")
    try:
        return TrustConfig(**{CONFIG_KEYS[key]: value for key, value in data.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def load_config(source: Union[str, Path, TextIO]) -> TrustConfig:
    """Load a flat key-value JSON config; an empty file means all defaults."""
    stream = _as_stream(source)
    try:
        text = stream.read()
    finally:
        if stream is not source:
            stream.close()
    if not text.strip():
        return TrustConfig()
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int of too many digits
        raise ConfigError(f"invalid JSON: {getattr(exc, 'msg', exc)}") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return config_from_dict(data)


def save_snapshot(
    env: Environment, path: Union[str, Path], model: Optional[ReputationModel] = None
) -> str:
    """Write the snapshot file; returns the checksum of the body.

    The body is one JSON line (header, agent ids, distinct profiles,
    categories and the model's scalars), padded so that the arrays start
    64-byte aligned, then the arrays of ``ENV_ARRAYS`` (and ``MODEL_ARRAYS``
    with a model) as ``np.save`` writes them.
    """
    kinds: dict[tuple[frozenset, frozenset], int] = {}
    profile = [kinds.setdefault((p.completed, p.able), len(kinds)) for p in env.agents.values()]
    arrays = {"profile": profile, **{name: getattr(env, name) for name in ENV_ARRAYS[1:]}}
    if model is not None:
        unknown = set(model.nodes) - env.index.keys()
        if unknown:
            raise ValueError(f"reputation nodes {sorted(unknown)!r} are not in the environment")
        arrays.update(nodes=[env.index[a] for a in model.nodes], vector=model.vector)
    header = {"format": SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION}
    header.update(snapshot_time=env.snapshot_time, decay_rate=env.decay_rate)
    document = {
        "header": header,
        "agents": list(env.agents),
        "profiles": [[sorted(completed), sorted(able)] for completed, able in kinds],
        "categories": list(env.categories),
        "reputation": None if model is None else {k: getattr(model, k) for k in _MODEL_FIELDS},
    }
    line = json.dumps(document).encode("utf-8")
    buffer = io.BytesIO()
    buffer.write(line + b" " * (-(len(line) + 1) % 64) + b"\n")
    for name, values in arrays.items():
        dtype = "<f8" if name in _FLOAT_ARRAYS else "<i8"
        np.save(buffer, np.asarray(values, dtype=dtype), allow_pickle=False)
    body = buffer.getbuffer()
    checksum = hashlib.sha256(body).hexdigest()
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(b"\nsha256:" + checksum.encode("ascii") + b"\n")
    return checksum


def load_snapshot(path: Union[str, Path]) -> tuple[Environment, Optional[ReputationModel]]:
    """Read a snapshot file, verifying checksum and version before parsing."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot: {exc}") from None
    body, separator, tail = data.rpartition(b"\nsha256:")
    if not separator:
        raise SnapshotError("checksum mismatch: truncated or malformed snapshot")
    if hashlib.sha256(body).hexdigest().encode("ascii") != tail.rstrip(b"\n"):
        raise SnapshotError("checksum mismatch: snapshot is corrupt")
    try:
        return _parse_body(body)
    except (KeyError, TypeError, AttributeError, ValueError, IndexError, OverflowError) as exc:
        raise SnapshotError(f"malformed snapshot: {type(exc).__name__}: {exc}") from None


def _require(ok, problem: str) -> None:
    if not ok:
        raise SnapshotError(f"malformed snapshot: {problem}")


def _ascending_strings(values, what: str) -> list[str]:
    _require(
        type(values) is list and all(type(v) is str for v in values),
        f"{what} must be a list of strings",
    )
    _require(all(map(str.__lt__, values, values[1:])), f"{what} must be distinct and ascending")
    return values


def _ascending_within(values: np.ndarray, ptr: np.ndarray) -> bool:
    """Whether ``values`` strictly increase within each CSR segment of ``ptr``."""
    step = np.diff(values) > 0
    starts = ptr[1:-1]
    step[starts[(starts > 0) & (starts < len(values))] - 1] = True
    return bool(step.all())


def _is_pointer(ptr: np.ndarray, segments: int, size: int) -> bool:
    """Whether ``ptr`` splits ``size`` values into ``segments`` CSR segments."""
    ends = len(ptr) == segments + 1 and ptr[0] == 0 and ptr[-1] == size
    return ends and bool(np.all(ptr[1:] >= ptr[:-1]))


def _within(values: np.ndarray, stop: int) -> bool:
    return bool(np.all((values >= 0) & (values < stop)))


def _read_arrays(body: bytes, offset: int, names: tuple[str, ...]) -> dict[str, np.ndarray]:
    """The ``.npy`` arrays from ``offset`` to the end of ``body``, as read-only views.

    Each must be one-dimensional with exactly its dtype; the length in its
    header is checked against the bytes present before any data is read.
    """
    stream = io.BytesIO(body)
    stream.seek(offset)
    arrays = {}
    for name in names:
        dtype = np.dtype("<f8" if name in _FLOAT_ARRAYS else "<i8")
        try:
            version = np.lib.format.read_magic(stream)
            shape, _, found = np.lib.format.read_array_header_1_0(stream)
        except Exception as exc:  # numpy's parser of a header dict raises many kinds
            raise SnapshotError(f"malformed snapshot: array {name} has no .npy header") from exc
        ok = version == (1, 0) and found == dtype and len(shape) == 1
        _require(ok, f"array {name} must be 1-D {dtype} in .npy 1.0")
        start = stream.tell()
        end = start + shape[0] * dtype.itemsize
        _require(0 <= shape[0] and end <= len(body), f"array {name} is truncated")
        arrays[name] = np.frombuffer(body, dtype, shape[0], start)
        stream.seek(end)
    _require(stream.tell() == len(body), "unexpected bytes after the arrays")
    return arrays


def _parse_body(body: bytes) -> tuple[Environment, Optional[ReputationModel]]:
    """Rebuild the environment and model from a checksum-verified body.

    The header's time, rate and model ``params`` get the engine's own checks,
    its other values are type-checked and the arrays checked whole (CSR
    pointers, indices in range and strictly ascending within a row, statistics
    in range), so a bad value ends here as SnapshotError and not in a query.
    """
    end = body.find(b"\n")
    document = json.loads(body[: end if end >= 0 else len(body)])
    header = document.get("header", {})
    if header.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError("not a snapshot file")
    if (version := header.get("version")) != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {version!r}, expected {SNAPSHOT_VERSION}"
        )
    time, rate = header["snapshot_time"], header["decay_rate"]
    check_snapshot_clock(time, rate)
    ids = _ascending_strings(document["agents"], "agent ids")
    categories = _ascending_strings(document["categories"], "categories")
    kinds = [
        (frozenset(_ascending_strings(done, "completed categories")),
         frozenset(_ascending_strings(able, "able categories")))
        for done, able in document["profiles"]
    ]
    rep = document["reputation"]
    arrays = _read_arrays(body, end + 1, ENV_ARRAYS + (MODEL_ARRAYS if rep is not None else ()))

    n, profile, indptr, dst, cat_ptr, cat, count, trust, rating, last_time = (
        len(ids), *(arrays[name] for name in ENV_ARRAYS)
    )
    _require(len(profile) == n and _within(profile, len(kinds)), "agent profile out of range")
    _require(_is_pointer(indptr, n, len(dst)), "indptr is not a CSR pointer over dst")
    _require(_within(dst, n), "edge to an unknown agent")
    _require(np.all(np.repeat(np.arange(n), np.diff(indptr)) != dst), "edge to its own source")
    _require(_ascending_within(dst, indptr), "neighbours must be distinct and ascending")
    _require(_is_pointer(cat_ptr, len(dst), len(cat)), "cat_ptr is not a CSR pointer over cat")
    _require(np.all(cat_ptr[1:] > cat_ptr[:-1]), "edge has no categories")
    _require(_within(cat, len(categories)), "category index out of range")
    _require(np.all(np.bincount(cat, minlength=len(categories)) > 0), "category without edges")
    _require(_ascending_within(cat, cat_ptr), "edge categories must be distinct and ascending")
    for values in (count, trust, rating, last_time):
        _require(len(values) == len(cat), "edge statistics must have one entry per edge category")
    _require(np.all(count >= 1), "category count below 1")
    _require(np.all((trust >= 0) & (trust <= 1)), "category trust outside [0, 1]")
    _require(np.all((rating >= 0) & (rating <= 1)), "category rating outside [0, 1]")
    before = np.isfinite(last_time) & (last_time < time)
    _require(np.all(before), "category last_time is not a finite time before snapshot_time")
    env = Environment(
        agents={a: AgentProfile(a, *kinds[k]) for a, k in zip(ids, profile.tolist())},
        snapshot_time=time,
        decay_rate=rate,
        categories=tuple(categories),
        **{name: arrays[name] for name in ENV_ARRAYS[1:]},
    )
    if rep is None:
        return env, None

    for name, ok in (
        ("iterations_used", type(rep["iterations_used"]) is int),
        ("stop_reason", rep["stop_reason"] in STOP_REASONS),
        ("params", type(rep["params"]) is dict and set(rep["params"]) == set(MODEL_PARAMS)),
    ):
        _require(ok, f"reputation {name} {rep[name]!r} has the wrong type or value")
    TrustConfig(**rep["params"])  # the config rule; its errors become SnapshotError
    nodes, vector = arrays["nodes"], arrays["vector"]
    _require(
        _within(nodes, n) and np.all(nodes[1:] > nodes[:-1]),
        "reputation nodes must be known agents in ascending order",
    )
    _require(len(vector) == len(nodes), "reputation nodes and vector differ in length")
    _require(np.all((vector >= 0) & (vector <= 1)), "reputation vector outside [0, 1]")
    model = ReputationModel(
        nodes=env.id_array[nodes].tolist(), vector=vector, **{k: rep[k] for k in _MODEL_FIELDS}
    )
    return env, model
