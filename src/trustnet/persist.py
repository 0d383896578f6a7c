"""Ingestion and persistence: logs, profiles, config files, snapshots.

Interaction logs and agent profiles travel as JSON lines; configuration is
a flat JSON object; a snapshot is a single file holding one JSON header
line, the environment's raw arrays and a trailing SHA-256 checksum line.
"""

from __future__ import annotations

import hashlib
import json
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO, Union

import numpy as np

from .core import (
    CONFIG_BOUNDS,
    AgentProfile,
    Environment,
    Interaction,
    InvalidRecordError,
    TrustError,
    TrustConfig,
    check_snapshot_clock,
)
from .reputation import ReputationModel, check_bound, node_indices

SNAPSHOT_FORMAT = "trustnet-snapshot"
SNAPSHOT_VERSION = 7

# The arrays after a snapshot's header line, in file order; the model's
# ``vector`` follows only when the header has a reputation block.  ``profile``
# indexes the header's distinct profiles.  The model's nodes are not stored:
# they are the environment's node set at the model's threshold.  The float
# arrays are "<f8", the others "<i8"; no array stores its length (see
# _parse_body).
ENV_ARRAYS = Environment.ARRAYS
MODEL_ARRAYS = ("vector",)
FLOAT_ARRAYS = ("decayed_trust", "mean_rating", "last_time", "vector")
# The model's scalars, kept in the header line.
_MODEL_FIELDS = ("iterations_used", "stop_reason", "params")

# A log line's fields are the record's: trustor, trustee, rating, category and
# time, in the order Interaction takes them as positional arguments.
LOG_FIELDS = Interaction.__match_args__
_LOG_KEYS = frozenset(LOG_FIELDS)
_log_values = operator.itemgetter(*LOG_FIELDS)

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


@contextmanager
def _text(source: Union[str, Path, TextIO], mode: str = "r") -> Iterator[TextIO]:
    """``source`` as a text stream; a path is opened as UTF-8, bad bytes escaped, and closed."""
    if isinstance(source, (str, Path)):
        # Only \n ends a line, as in an io.StringIO: a lone \r is JSON whitespace in its line.
        with open(source, mode, encoding="utf-8", errors="surrogateescape", newline="\n") as stream:
            yield stream
    else:
        yield source


# json's C scanner, and the whitespace json skips around a value: not the
# wider set str.strip() takes with no argument.
_scan = json.JSONDecoder().scan_once
_JSON_SPACE = " \t\n\r"


def _decode(text: Union[str, bytes], error: Callable[[str], Exception]):
    """The value of outside JSON text; text json cannot read raises ``error("invalid JSON: ...")``.

    That includes an int of too many digits and a value nested too deep.
    Text holding a lone surrogate, a byte :func:`_text` read that is not
    UTF-8, raises ``error("invalid UTF-8")``.  A ``str`` goes straight to
    json's scanner, with what ``json.loads`` does around it and in its
    words: JSON whitespace around the value is skipped, a leading BOM is
    refused, text with no value is "Expecting value" and text after the
    value "Extra data".  ``bytes`` go through ``json.loads``.
    """
    try:
        if isinstance(text, bytes):
            return json.loads(text)
        if not text.isascii():
            text.encode("utf-8")
            if text.startswith("\ufeff"):
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        value, end = _scan(text, len(text) - len(text.lstrip(_JSON_SPACE)))
        if len(text.rstrip(_JSON_SPACE)) != end:  # no JSON value ends in whitespace
            raise json.JSONDecodeError("Extra data", text, end)
        return value
    except StopIteration:
        raise error("invalid JSON: Expecting value") from None
    except UnicodeEncodeError:
        raise error("invalid UTF-8") from None
    except (ValueError, RecursionError) as exc:
        raise error(f"invalid JSON: {getattr(exc, 'msg', exc)}") from None


# The error of a line that is not JSON, which names no field.
_not_json = partial(InvalidRecordError, None)


def _check_shape(obj, what: str, fields, required=()) -> None:
    """The shape rule of a JSON line; a break raises InvalidRecordError(field, problem).

    ``obj`` must be a JSON object (``what`` names it) with fields among
    ``fields``, ``required`` ones included; the first unexpected field
    (sorted) is named before the first missing one.
    """
    if not isinstance(obj, dict):
        raise InvalidRecordError(None, f"{what} must be a JSON object")
    unknown = obj.keys() - fields
    if unknown:
        raise InvalidRecordError(min(unknown), "unexpected field")
    for name in required:
        if name not in obj:
            raise InvalidRecordError(name, "missing field")


def _read_json_lines(source: Union[str, Path, TextIO], strict: bool, parse) -> tuple[list, list]:
    """Parse each non-blank JSON line of ``source`` with ``parse``.

    ``parse(obj)`` returns the line's item or raises InvalidRecordError.
    Returns the items in input order and the per-line errors; with
    ``strict`` the first error raises LogParseError instead.
    """
    items: list = []
    errors: list[ParseError] = []
    with _text(source) as stream:
        for line_no, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            try:
                items.append(parse(_decode(line, _not_json)))
                continue
            except InvalidRecordError as exc:
                error = ParseError(line_no, exc.field, str(exc))
            if strict:
                raise LogParseError(error)
            errors.append(error)
    return items, errors


def _write_json_lines(target: Union[str, Path, TextIO], objs: Iterable[dict]) -> None:
    with _text(target, "w") as stream:
        for obj in objs:
            stream.write(json.dumps(obj) + "\n")


def parse_log(
    source: Union[str, Path, TextIO], strict: bool = False
) -> tuple[list[Interaction], list[ParseError]]:
    """Read a JSON-lines interaction log.

    Returns the valid records in input order together with the list of
    per-line errors.  With ``strict`` the first error raises LogParseError
    instead.  Blank lines are ignored.
    """
    return _read_json_lines(source, strict, _wire_record)


def _wire_record(obj) -> Interaction:
    """The record a log line holds: its shape is checked here, its values when it is made.

    A line of exactly the log's fields passes one key comparison;
    :func:`_check_shape` names the problem of any other.
    """
    if type(obj) is not dict or obj.keys() != _LOG_KEYS:
        _check_shape(obj, "record", LOG_FIELDS, LOG_FIELDS)
    return Interaction(*_log_values(obj))


def dump_log(records: Sequence[Interaction], target: Union[str, Path, TextIO]) -> None:
    """Write records as JSON lines with the fields in ``LOG_FIELDS`` order."""
    _write_json_lines(target, ({f: getattr(r, f) for f in LOG_FIELDS} for r in records))


def parse_profiles(
    source: Union[str, Path, TextIO], strict: bool = False
) -> tuple[list[AgentProfile], list[ParseError]]:
    """Read JSON-lines agent declarations: {"id", "able", "completed"}.

    Returns the valid profiles and the per-line errors, as :func:`parse_log`
    does; a line that declares an id an earlier valid line declared is an
    error on field ``id``.
    """
    seen: set[str] = set()

    def parse(obj):
        profile = _wire_profile(obj)
        if profile.id in seen:
            raise InvalidRecordError("id", f"id {profile.id!r} already declared on an earlier line")
        seen.add(profile.id)
        return profile

    return _read_json_lines(source, strict, parse)


def _wire_profile(obj) -> AgentProfile:
    """The profile a line declares: its shape is checked here, its values when it is made."""
    _check_shape(obj, "profile", ("id", "able", "completed"))
    return AgentProfile(obj.get("id"), obj.get("completed", []), obj.get("able", []))


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
    with _text(source) as stream:
        text = stream.read()
    if not text.strip():
        return TrustConfig()
    data = _decode(text, ConfigError)
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return config_from_dict(data)


def save_snapshot(
    env: Environment, path: Union[str, Path], model: Optional[ReputationModel] = None
) -> str:
    """Write the snapshot file; returns the checksum of the body.

    The body is one JSON line (header, agent ids, distinct profiles,
    categories and the model's scalars), padded so that the arrays start
    64-byte aligned, then the raw bytes of the arrays of ``ENV_ARRAYS`` (and
    ``MODEL_ARRAYS`` with a model), back to back; each part is hashed and
    written in turn, so no copy of the body is made.  A model that was not built
    from, or loaded with, ``env`` itself raises ValueError (see
    :func:`check_bound`).
    """
    arrays = {name: getattr(env, name) for name in ENV_ARRAYS}
    if model is not None:
        check_bound(model, env)
        arrays.update(vector=model.vector)
    header = {"format": SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION}
    header.update(snapshot_time=env.snapshot_time, decay_rate=env.decay_rate)
    document = {
        "header": header,
        "agents": list(env.ids),
        "profiles": [[sorted(completed), sorted(able)] for completed, able in env.kinds],
        "categories": list(env.categories),
        "reputation": None if model is None else {k: getattr(model, k) for k in _MODEL_FIELDS},
    }
    line = json.dumps(document).encode("utf-8")
    parts = [line + b" " * (-(len(line) + 1) % 64) + b"\n"]
    parts += (
        np.ascontiguousarray(values, "<f8" if name in FLOAT_ARRAYS else "<i8")
        for name, values in arrays.items()
    )
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in parts:
            digest.update(part)
            fh.write(part)
        checksum = digest.hexdigest()
        fh.write(b"\nsha256:" + checksum.encode("ascii") + b"\n")
    return checksum


def load_snapshot(path: Union[str, Path]) -> tuple[Environment, Optional[ReputationModel]]:
    """Read a snapshot file, verifying checksum and version before parsing.

    The body is hashed through a view of the bytes read and parsed in
    place, not copied.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot: {exc}") from None
    end = data.rfind(b"\nsha256:")
    if end < 0:
        raise SnapshotError("checksum mismatch: truncated or malformed snapshot")
    checksum = hashlib.sha256(memoryview(data)[:end]).hexdigest().encode("ascii")
    if checksum != data[end + len(b"\nsha256:") :].rstrip(b"\n"):
        raise SnapshotError("checksum mismatch: snapshot is corrupt")
    try:
        return _parse_body(data, end)
    except (KeyError, TypeError, AttributeError, ValueError, IndexError, OverflowError) as exc:
        raise SnapshotError(f"malformed snapshot: {type(exc).__name__}: {exc}") from None


def _malformed(problem: str) -> SnapshotError:
    return SnapshotError(f"malformed snapshot: {problem}")


def _require(ok, problem: str) -> None:
    if not ok:
        raise _malformed(problem)


def _ascending_strings(values, what: str) -> list[str]:
    _require(
        type(values) is list and all(type(v) is str and v for v in values),
        f"{what} must be a list of non-empty strings",
    )
    _require(all(map(str.__lt__, values, values[1:])), f"{what} must be distinct and ascending")
    return values


def _ascending_within(values: np.ndarray, ptr: np.ndarray) -> bool:
    """Whether ``values`` strictly increase within each CSR segment of ``ptr``."""
    step = np.diff(values) > 0
    starts = ptr[1:-1]
    step[starts[(starts > 0) & (starts < len(values))] - 1] = True
    return bool(step.all())


def _is_pointer(ptr: np.ndarray) -> bool:
    """Whether ``ptr`` is a CSR pointer: it starts at 0 and never falls."""
    return ptr[0] == 0 and bool(np.all(ptr[1:] >= ptr[:-1]))


def _within(values: np.ndarray, stop: int) -> bool:
    return bool(np.all((values >= 0) & (values < stop)))


def _parse_body(data: bytes, size: int) -> tuple[Environment, Optional[ReputationModel]]:
    """Rebuild the environment and model from a checksum-verified body, ``data[:size]``.

    The header's time, rate and model ``params`` get the engine's own checks,
    its other values are type-checked, the arrays checked whole (CSR pointers,
    indices in range and strictly ascending within a row, statistics in
    range) and the model made through :class:`ReputationModel`'s own rule: a
    bad value is a SnapshotError here, not a fault in a query.

    No array stores its length: each is read, in file order, from what was
    read and checked before it.  ``profile`` has one entry per agent and
    ``indptr`` one more, ``dst`` has ``indptr[-1]`` entries and ``cat_ptr``
    one more, the five row arrays ``cat_ptr[-1]`` each, and ``vector`` one
    per node of the environment at the model's threshold, which gives the
    model its nodes.
    """
    end = data.find(b"\n", 0, size)
    document = _decode(data[: end if end >= 0 else size], _malformed)
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
    kinds = tuple(
        (frozenset(_ascending_strings(done, "completed categories")),
         frozenset(_ascending_strings(able, "able categories")))
        for done, able in document["profiles"]
    )
    rep = document["reputation"]
    offset = end + 1 if end >= 0 else size

    def take(name: str, count) -> np.ndarray:
        """The next ``count`` entries of array ``name``, a read-only view of ``data``."""
        nonlocal offset
        start, count = offset, int(count)
        offset += 8 * count  # every entry is 8 bytes
        _require(offset <= size, f"array {name} is truncated")
        return np.frombuffer(data, "<f8" if name in FLOAT_ARRAYS else "<i8", count, start)

    n = len(ids)
    profile = take("profile", n)
    _require(_within(profile, len(kinds)), "agent profile out of range")
    indptr = take("indptr", n + 1)
    _require(_is_pointer(indptr), "indptr is not a CSR pointer over dst")
    dst = take("dst", indptr[-1])
    _require(_within(dst, n), "edge to an unknown agent")
    _require(np.all(np.repeat(np.arange(n), np.diff(indptr)) != dst), "edge to its own source")
    _require(_ascending_within(dst, indptr), "neighbours must be distinct and ascending")
    cat_ptr = take("cat_ptr", len(dst) + 1)
    _require(_is_pointer(cat_ptr), "cat_ptr is not a CSR pointer over cat")
    _require(np.all(cat_ptr[1:] > cat_ptr[:-1]), "edge has no categories")
    cat, count, trust, rating, last_time = (take(name, cat_ptr[-1]) for name in ENV_ARRAYS[4:])
    _require(_within(cat, len(categories)), "category index out of range")
    _require(np.all(np.bincount(cat, minlength=len(categories)) > 0), "category without edges")
    _require(_ascending_within(cat, cat_ptr), "edge categories must be distinct and ascending")
    _require(np.all(count >= 1), "category count below 1")
    _require(np.all((trust >= 0) & (trust <= 1)), "category trust outside [0, 1]")
    _require(np.all((rating >= 0) & (rating <= 1)), "category rating outside [0, 1]")
    before = np.isfinite(last_time) & (last_time < time)
    _require(np.all(before), "category last_time is not a finite time before snapshot_time")
    arrays = (profile, indptr, dst, cat_ptr, cat, count, trust, rating, last_time)
    env = Environment(
        ids=tuple(ids),
        kinds=kinds,
        snapshot_time=time,
        decay_rate=rate,
        categories=tuple(categories),
        **dict(zip(ENV_ARRAYS, arrays)),
    )
    if rep is None:
        _require(offset == size, "unexpected bytes after the arrays")
        return env, None

    # The config rule, then the node set at the model's threshold.
    nodes = node_indices(env, TrustConfig(**rep["params"]).trust_threshold)
    vector = take("vector", len(nodes))
    _require(offset == size, "unexpected bytes after the arrays")
    fields = {k: rep[k] for k in _MODEL_FIELDS}
    try:
        return env, ReputationModel(env.id_array[nodes].tolist(), vector, **fields, env=env)
    except ValueError as exc:  # the model rule
        raise _malformed(str(exc)) from None
