"""Ingestion and persistence: logs, profiles, config files, snapshots.

Interaction logs and agent profiles travel as JSON lines; configuration is
a flat JSON object; snapshots are a single file holding one JSON document
plus a trailing SHA-256 checksum line.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, TextIO, Union

import numpy as np

from .core import (
    AgentProfile,
    CategoryStats,
    EdgeStats,
    Environment,
    Interaction,
    TrustError,
    TrustConfig,
    check_interaction,
)
from .reputation import MODEL_PARAMS, ReputationModel

SNAPSHOT_FORMAT = "trustnet-snapshot"
SNAPSHOT_VERSION = 3

LOG_FIELDS = ("trustor", "trustee", "rating", "category", "time")

CONFIG_KEYS = {
    "theta_r": "trust_threshold",
    "theta_r_p": "path_threshold",
    "lambda_d": "decay_rate",
    "lambda_p": "recency_rate",
    "d": "path_decay",
    "q": "damping",
    "epsilon": "tolerance",
    "max_iter": "max_iterations",
    "search_steps": "search_steps",
    "search_seconds": "search_seconds",
    "pagerank_seconds": "pagerank_seconds",
}


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
            except json.JSONDecodeError as exc:
                item, problem = None, (None, f"invalid JSON: {exc.msg}")
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
    """The record a log line holds, or (None, (field, problem)) when it is invalid."""
    if not isinstance(obj, dict):
        return None, (None, "record must be a JSON object")
    unknown = sorted(set(obj) - set(LOG_FIELDS))
    if unknown:
        return None, (unknown[0], "unexpected field")
    missing = [f for f in LOG_FIELDS if f not in obj]
    if missing:
        return None, (missing[0], "missing field")
    for name in ("trustor", "trustee", "category"):
        if not isinstance(obj[name], str) or not obj[name]:
            return None, (name, "must be a non-empty string")
    for name in ("rating", "time"):
        if isinstance(obj[name], bool) or not isinstance(obj[name], (int, float)):
            return None, (name, "must be a number")
    record = Interaction(
        trustor=obj["trustor"],
        trustee=obj["trustee"],
        rating=float(obj["rating"]),
        category=obj["category"],
        time=float(obj["time"]),
    )
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
    """Build a TrustConfig from flat wire keys, rejecting unknown ones."""
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config key: {unknown[0]!r}")
    kwargs = {}
    for key, value in data.items():
        attr = CONFIG_KEYS[key]
        if attr == "max_iterations":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError("max_iter must be an integer")
        elif attr == "search_steps":
            if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
                raise ConfigError("search_steps must be an integer or null")
        elif value is not None and (
            isinstance(value, bool) or not isinstance(value, (int, float))
        ):
            raise ConfigError(f"{key} must be a number")
        kwargs[attr] = value
    try:
        return TrustConfig(**kwargs)
    except ValueError as exc:
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return config_from_dict(data)


def _env_payload(env: Environment) -> dict:
    agents = [
        {
            "id": p.id,
            "completed": sorted(p.completed),
            "able": sorted(p.able),
        }
        for p in (env.agents[a] for a in sorted(env.agents))
    ]
    edges = [
        {
            "src": src,
            "dst": dst,
            "categories": {
                cat: {
                    "count": s.count,
                    "trust": s.decayed_trust,
                    "rating": s.mean_rating,
                    "last_time": s.last_time,
                }
                for cat, s in sorted(stats.per_category.items())
            },
        }
        for (src, dst), stats in sorted(env.edges.items())
    ]
    return {"agents": agents, "edges": edges}


def _model_payload(model: ReputationModel) -> dict:
    return {
        "nodes": list(model.nodes),
        "vector": [float(x) for x in model.vector],
        "iterations_used": model.iterations_used,
        "converged": model.converged,
        "mean_reputation": model.mean_reputation,
        "params": model.params,
    }


def save_snapshot(
    env: Environment,
    path: Union[str, Path],
    model: Optional[ReputationModel] = None,
) -> str:
    """Write the snapshot file; returns the checksum of the body."""
    header = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "snapshot_time": env.snapshot_time,
        "decay_rate": env.decay_rate,
    }
    document = {
        "header": header,
        **_env_payload(env),
        "reputation": _model_payload(model) if model is not None else None,
    }
    body = json.dumps(document)
    checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body + "\n" + "sha256:" + checksum + "\n")
    return checksum


def load_snapshot(
    path: Union[str, Path],
) -> tuple[Environment, Optional[ReputationModel]]:
    """Read a snapshot file, verifying checksum and version before parsing."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot: {exc}") from None
    lines = text.rstrip("\n").split("\n")
    if len(lines) != 2 or not lines[1].startswith("sha256:"):
        raise SnapshotError("checksum mismatch: truncated or malformed snapshot")
    body, tail = lines
    expected = tail[len("sha256:"):]
    actual = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if actual != expected:
        raise SnapshotError("checksum mismatch: snapshot is corrupt")
    try:
        return _parse_document(json.loads(body))
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise SnapshotError(f"malformed snapshot: {type(exc).__name__}: {exc}") from None


# Exact JSON value types: json.loads builds no subclasses, and a bool must
# not pass for a number although bool subclasses int.
_STRING = (str,)
_NUMBER = (int, float)
_INTEGER = (int,)
_BOOLEAN = (bool,)
_OPTIONAL_NUMBER = (int, float, type(None))
_KIND_NAMES = {
    _STRING: "a string",
    _NUMBER: "a number",
    _INTEGER: "an integer",
    _BOOLEAN: "a boolean",
    _OPTIONAL_NUMBER: "a number or null",
}
# Reputation parameters that are not plain numbers.
_PARAM_KINDS = {"max_iterations": _INTEGER, "pagerank_seconds": _OPTIONAL_NUMBER}


def _typed(value, kind: tuple[type, ...], what: str):
    """Return ``value`` if it is a JSON value of ``kind``, else raise SnapshotError."""
    if type(value) not in kind:
        raise SnapshotError(
            f"malformed snapshot: {what} must be {_KIND_NAMES[kind]}, got {value!r}"
        )
    return value


def _typed_list(values, kind: tuple[type, ...], what: str) -> list:
    if not isinstance(values, list):
        raise SnapshotError(f"malformed snapshot: {what} must be in a list, got {values!r}")
    return [_typed(v, kind, what) for v in values]


def _category_stats(s: dict, snapshot_time: float) -> CategoryStats:
    """One edge category's statistics, type- and range-checked."""
    stats = CategoryStats(
        count=_typed(s["count"], _INTEGER, "category count"),
        decayed_trust=_typed(s["trust"], _NUMBER, "category trust"),
        mean_rating=_typed(s["rating"], _NUMBER, "category rating"),
        last_time=_typed(s["last_time"], _NUMBER, "category last_time"),
    )
    if stats.count < 1:
        problem = f"count {stats.count!r} below 1"
    elif not 0.0 <= stats.decayed_trust <= 1.0:
        problem = f"trust {stats.decayed_trust!r} outside [0, 1]"
    elif not 0.0 <= stats.mean_rating <= 1.0:
        problem = f"rating {stats.mean_rating!r} outside [0, 1]"
    elif not (math.isfinite(stats.last_time) and stats.last_time < snapshot_time):
        problem = f"last_time {stats.last_time!r} is not a finite time before snapshot_time"
    else:
        return stats
    raise SnapshotError(f"malformed snapshot: category {problem}")


def _parse_document(document: dict) -> tuple[Environment, Optional[ReputationModel]]:
    """Rebuild the environment and model from a checksum-verified document.

    Besides the shape of the document, every value's JSON type is checked,
    and the edge statistics the query path reads are range-checked, so a
    bad value ends here as SnapshotError and not later in a query.
    """
    header = document.get("header", {})
    if header.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError("not a snapshot file")
    if header.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {header.get('version')!r}, "
            f"expected {SNAPSHOT_VERSION}"
        )
    snapshot_time = _typed(header["snapshot_time"], _NUMBER, "snapshot_time")

    agents = {}
    for a in document["agents"]:
        agent = _typed(a["id"], _STRING, "agent id")
        agents[agent] = AgentProfile(
            id=agent,
            completed=frozenset(_typed_list(a["completed"], _STRING, "completed category")),
            able=frozenset(_typed_list(a["able"], _STRING, "able category")),
        )
    edges = {}
    for e in document["edges"]:
        pair = (_typed(e["src"], _STRING, "edge src"), _typed(e["dst"], _STRING, "edge dst"))
        if pair[0] not in agents or pair[1] not in agents:
            raise SnapshotError(f"malformed snapshot: edge {pair!r} names an unknown agent")
        if not e["categories"]:
            raise SnapshotError(f"malformed snapshot: edge {pair!r} has no categories")
        edges[pair] = EdgeStats(
            {
                _typed(cat, _STRING, "edge category"): _category_stats(s, snapshot_time)
                for cat, s in e["categories"].items()
            }
        )
    env = Environment(
        agents=agents,
        edges=edges,
        snapshot_time=snapshot_time,
        decay_rate=_typed(header["decay_rate"], _NUMBER, "decay_rate"),
    )

    model = None
    rep = document.get("reputation")
    if rep is not None:
        nodes = _typed_list(rep["nodes"], _STRING, "reputation node")
        vector = _typed_list(rep["vector"], _NUMBER, "reputation entry")
        if len(vector) != len(nodes):
            raise SnapshotError("malformed snapshot: reputation nodes and vector differ in length")
        params = rep["params"]
        if type(params) is not dict or set(params) != set(MODEL_PARAMS):
            raise SnapshotError(f"malformed snapshot: reputation params must name {MODEL_PARAMS}")
        for name in MODEL_PARAMS:
            _typed(params[name], _PARAM_KINDS.get(name, _NUMBER), f"reputation {name}")
        model = ReputationModel(
            nodes=nodes,
            vector=np.array(vector, dtype=float),
            iterations_used=_typed(rep["iterations_used"], _INTEGER, "iterations_used"),
            converged=_typed(rep["converged"], _BOOLEAN, "converged"),
            mean_reputation=_typed(rep["mean_reputation"], _NUMBER, "mean_reputation"),
            params=params,
        )
    return env, model
