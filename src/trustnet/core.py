"""Domain model: interaction logs, agent profiles, and the environment graph.

The environment is a weighted directed graph snapshot built from a log of
rated interactions, held as columnar arrays: the sorted agent ids, CSR
adjacency (``indptr``, ``dst``) with a per-edge ``weight``, and per-(edge,
category) rows (``cat_ptr``, ``cat``) carrying the interaction count, the
time-discounted and plain mean ratings and the most recent time.  An edge's
weight is the unweighted mean of its per-category discounted trusts.
Every query statistic (direct trust, consultation probabilities, the
evidence bar) is derived from this snapshot alone; no query reads the log.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

AgentId = str
TaskCategory = str


class TrustError(Exception):
    """Base class for engine errors."""


class UnknownAgentError(TrustError):
    """An agent id is not present in the environment."""

    def __init__(self, agent: AgentId):
        super().__init__(f"unknown agent: {agent!r}")
        self.agent = agent


class CapabilityError(TrustError):
    """The trustee does not declare the ability to perform the category."""


class InvalidRecordError(TrustError):
    """An interaction record violates its invariants.

    ``index`` is the position of the offending record in the input sequence.
    """

    def __init__(self, index: int, message: str):
        super().__init__(f"record {index}: {message}")
        self.index = index


class InvariantError(TrustError):
    """An internal consistency check failed; indicates an engine bug."""


@dataclass(frozen=True)
class Interaction:
    """One rated interaction: ``trustor`` rated ``trustee`` on a task.

    ``rating`` lies in [0, 1]; ``time`` is a dimensionless non-negative
    scalar (the application chooses the unit).
    """

    trustor: AgentId
    trustee: AgentId
    rating: float
    category: TaskCategory
    time: float


def is_number(value) -> bool:
    """Whether ``value`` is an int or a float; a bool is not a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def finite_float(value) -> Optional[float]:
    """``value`` as a finite float, or None: the number rule of every input."""
    if not is_number(value):
        return None
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range has no finite value
        return None
    return number if math.isfinite(number) else None


def check_interaction(record: Interaction) -> Optional[tuple[str, str]]:
    """Return (field, problem) for an invalid record, else None; never raises.

    Ids and category are non-empty strings, trustor != trustee, and rating
    in [0, 1] and time >= 0 are numbers by :func:`finite_float`'s rule.
    """
    for name in ("trustor", "trustee", "category"):
        value = getattr(record, name)
        if not isinstance(value, str) or not value:
            return name, f"{name} must be a non-empty string"
    if record.trustor == record.trustee:
        return "trustee", "trustee must differ from the trustor"
    rating = finite_float(record.rating)
    if rating is None or not 0.0 <= rating <= 1.0:
        return "rating", "rating must be a finite number in [0, 1]"
    time = finite_float(record.time)
    if time is None or time < 0:
        return "time", "time must be a finite number >= 0"
    return None


@dataclass(frozen=True)
class AgentProfile:
    """An agent with its completed categories and declared abilities.

    ``completed`` is derived from the log (categories in which the agent was
    rated as a trustee) merged with any declared history.  ``able`` is taken
    from the declaration when one exists; completion does not imply a
    declared ability and vice versa.
    """

    id: AgentId
    completed: frozenset[TaskCategory] = frozenset()
    able: frozenset[TaskCategory] = frozenset()


@dataclass(frozen=True)
class CategoryStats:
    """Per-category statistics of one directed edge.

    ``decayed_trust`` is the discount-weighted mean rating (the pair's direct
    trust on the category), ``mean_rating`` the plain mean (what the trustor
    reports when consulted as an advisor).
    """

    count: int
    decayed_trust: float
    mean_rating: float
    last_time: float


@dataclass(frozen=True)
class EdgeStats:
    """Aggregate statistics of one directed edge.

    ``weight`` is worked out from ``per_category``, which must not be empty:
    the unweighted mean of ``decayed_trust`` over the categories in id order.
    It serves as the edge's overall trust value.
    """

    per_category: Mapping[TaskCategory, CategoryStats]
    weight: float = field(init=False)

    def __post_init__(self):
        trusts = [self.per_category[cat].decayed_trust for cat in sorted(self.per_category)]
        object.__setattr__(self, "weight", sum(trusts) / len(trusts))


@dataclass(frozen=True)
class CategoryActivity:
    """One category's activity in a snapshot, derived from its edges.

    ``counts[a]`` is the number of interactions agent ``a`` took part in on
    either side and ``last[a]`` the time of its latest one; ``dt_min`` is
    the evidence bar, the average count per participant floored at 1.
    """

    counts: Mapping[AgentId, int]
    last: Mapping[AgentId, float]
    dt_min: float


_NO_ACTIVITY = CategoryActivity(counts={}, last={}, dt_min=1.0)


class EdgeView(MappingABC):
    """Read-only ``(src, dst) -> EdgeStats`` view of an environment's arrays.

    Each access makes a fresh ``EdgeStats`` from the edge's category rows;
    iteration yields the pairs in (src, dst) id order.
    """

    __slots__ = ("_env",)

    def __init__(self, env: "Environment"):
        self._env = env

    def __getitem__(self, pair: tuple[AgentId, AgentId]) -> EdgeStats:
        env = self._env
        i = j = None
        if isinstance(pair, tuple) and len(pair) == 2:
            i, j = env.index.get(pair[0]), env.index.get(pair[1])
        if i is None or j is None:
            raise KeyError(pair)
        lo, hi = int(env.indptr[i]), int(env.indptr[i + 1])
        k = lo + int(np.searchsorted(env.dst[lo:hi], j))
        if k == hi or env.dst[k] != j:
            raise KeyError(pair)
        lo, hi = int(env.cat_ptr[k]), int(env.cat_ptr[k + 1])
        rows = zip(
            env.cat[lo:hi].tolist(),
            env.count[lo:hi].tolist(),
            env.decayed_trust[lo:hi].tolist(),
            env.mean_rating[lo:hi].tolist(),
            env.last_time[lo:hi].tolist(),
        )
        return EdgeStats({env.categories[c]: CategoryStats(*stats) for c, *stats in rows})

    def __iter__(self) -> Iterator[tuple[AgentId, AgentId]]:
        env = self._env
        return zip(env.id_array[env.src].tolist(), env.id_array[env.dst].tolist())

    def __len__(self) -> int:
        return len(self._env.dst)


@dataclass(eq=False)
class Environment:
    """Immutable graph snapshot of all interactions strictly before ``snapshot_time``.

    ``agents`` is keyed in ascending id order; agent ``i`` of that order
    owns edges ``indptr[i]:indptr[i+1]`` of ``dst`` (agent indices,
    ascending within a row), and edge ``e`` owns rows
    ``cat_ptr[e]:cat_ptr[e+1]`` of the per-(edge, category) arrays, whose
    ``cat`` indexes ``categories`` (ascending within an edge).  ``weight``,
    ``src`` and the ``edges`` view are derived.  All arrays are read-only;
    concurrent readers are safe (a cache filled on first use holds the
    same value whichever reader fills it).  ``decay_rate`` records the
    discount rate the snapshot was built with.
    """

    agents: dict[AgentId, AgentProfile]
    snapshot_time: float
    decay_rate: float
    categories: tuple[TaskCategory, ...]
    indptr: np.ndarray
    dst: np.ndarray
    cat_ptr: np.ndarray
    cat: np.ndarray
    count: np.ndarray
    decayed_trust: np.ndarray
    mean_rating: np.ndarray
    last_time: np.ndarray
    index: dict[AgentId, int] = field(init=False, repr=False)
    id_array: np.ndarray = field(init=False, repr=False)
    src: np.ndarray = field(init=False, repr=False)
    weight: np.ndarray = field(init=False, repr=False)
    edges: EdgeView = field(init=False, repr=False)
    _out: dict[AgentId, dict[AgentId, float]] = field(
        default_factory=dict, init=False, repr=False
    )
    _activity: Optional[dict[TaskCategory, CategoryActivity]] = field(
        default=None, init=False, repr=False
    )

    # The columnar fields, in the order a snapshot stores them.
    ARRAYS = (
        "indptr", "dst", "cat_ptr", "cat", "count", "decayed_trust", "mean_rating", "last_time"
    )

    def __post_init__(self):
        self.index = {a: i for i, a in enumerate(self.agents)}
        self.id_array = np.empty(len(self.agents), dtype=object)
        self.id_array[:] = list(self.agents)
        self.src = np.repeat(np.arange(len(self.agents)), np.diff(self.indptr))
        per_edge = np.diff(self.cat_ptr)
        row_edge = np.repeat(np.arange(len(self.dst)), per_edge)
        # bincount adds in row order, i.e. in category id order within an
        # edge, as EdgeStats does.
        self.weight = (
            np.bincount(row_edge, weights=self.decayed_trust, minlength=len(self.dst)) / per_edge
        )
        for array in (self.id_array, self.src, self.weight) + tuple(
            getattr(self, name) for name in self.ARRAYS
        ):
            array.flags.writeable = False
        self.edges = EdgeView(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Environment):
            return NotImplemented
        return (
            self.agents == other.agents
            and self.snapshot_time == other.snapshot_time
            and self.decay_rate == other.decay_rate
            and self.categories == other.categories
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in self.ARRAYS
            )
        )

    def activity(self, category: TaskCategory) -> CategoryActivity:
        """Per-agent activity on ``category``; every category is worked out on first use."""
        if self._activity is None:
            row_edge = np.repeat(np.arange(len(self.dst)), np.diff(self.cat_ptr))
            activity = {}
            for k, label in enumerate(self.categories):
                rows = np.flatnonzero(self.cat == k)
                ends = np.concatenate((self.src[row_edge[rows]], self.dst[row_edge[rows]]))
                counts = np.bincount(ends, weights=np.tile(self.count[rows], 2))
                last = np.full(len(counts), -np.inf)
                np.maximum.at(last, ends, np.tile(self.last_time[rows], 2))
                present = np.flatnonzero(counts)
                ids = self.id_array[present].tolist()
                activity[label] = CategoryActivity(
                    counts=dict(zip(ids, counts[present].astype(np.int64).tolist())),
                    last=dict(zip(ids, last[present].tolist())),
                    dt_min=max(int(self.count[rows].sum()) / len(ids), 1.0),
                )
            self._activity = activity
        return self._activity.get(category, _NO_ACTIVITY)

    def out_weights(self, agent: AgentId) -> dict[AgentId, float]:
        """``{out-neighbour: edge weight}`` of ``agent`` in ascending id order.

        Made from the agent's CSR slice on first use and cached; callers
        must not modify it.
        """
        out = self._out.get(agent)
        if out is None:
            i = self.index.get(agent)
            if i is None:
                raise UnknownAgentError(agent)
            lo, hi = self.indptr[i], self.indptr[i + 1]
            out = self._out[agent] = dict(
                zip(self.id_array[self.dst[lo:hi]].tolist(), self.weight[lo:hi].tolist())
            )
        return out

    def neighbours(self, agent: AgentId) -> tuple[AgentId, ...]:
        """Out-neighbours of ``agent`` in ascending id order."""
        return tuple(self.out_weights(agent))

    def has_trusted_edge(self, src: AgentId, dst: AgentId, threshold: float) -> bool:
        stats = self.edges.get((src, dst))
        return stats is not None and stats.weight >= threshold


@dataclass(frozen=True)
class TrustConfig:
    """Engine parameters with their validated bounds.

    trust_threshold / path_threshold in [0, 1]; decay_rate / recency_rate
    >= 0; path_decay in (0, 1]; damping in (0, 1); tolerance > 0;
    max_iterations >= 1.  ``search_steps`` caps the number of node
    expansions for reproducible searches; ``search_seconds`` and
    ``pagerank_seconds`` are wall-clock budgets.  ``None`` means unlimited;
    every value given must be finite (see :func:`validate_config`).
    """

    trust_threshold: float = 0.5
    path_threshold: float = 0.5
    decay_rate: float = 0.01
    recency_rate: float = 0.01
    path_decay: float = 0.9
    damping: float = 0.85
    tolerance: float = 1e-10
    max_iterations: int = 1000
    search_steps: Optional[int] = None
    search_seconds: Optional[float] = None
    pagerank_seconds: Optional[float] = None

    def __post_init__(self):
        validate_config(self)


# Per field: its key in config files (which errors name), its kind
# ("number" or "integer"), whether None (unlimited) is allowed, its bound as
# errors word it, and the test a finite value must pass.
CONFIG_BOUNDS = {
    "trust_threshold": ("theta_r", "number", False, "must lie in [0, 1]", lambda x: 0 <= x <= 1),
    "path_threshold": ("theta_r_p", "number", False, "must lie in [0, 1]", lambda x: 0 <= x <= 1),
    "decay_rate": ("lambda_d", "number", False, "must be >= 0", lambda x: x >= 0),
    "recency_rate": ("lambda_p", "number", False, "must be >= 0", lambda x: x >= 0),
    "path_decay": ("d", "number", False, "must lie in (0, 1]", lambda x: 0 < x <= 1),
    "damping": ("q", "number", False, "must lie in (0,1)", lambda x: 0 < x < 1),
    "tolerance": ("epsilon", "number", False, "must be > 0", lambda x: x > 0),
    "max_iterations": ("max_iter", "integer", False, "must be >= 1", lambda x: x >= 1),
    "search_steps": ("search_steps", "integer", True, "must be >= 0", lambda x: x >= 0),
    "search_seconds": ("search_seconds", "number", True, "must be >= 0", lambda x: x >= 0),
    "pagerank_seconds": ("pagerank_seconds", "number", True, "must be >= 0", lambda x: x >= 0),
}


def validate_config(cfg: TrustConfig) -> None:
    """Check every field by its row of ``CONFIG_BOUNDS``; errors name the wire key.

    Type, then finiteness, integrality and bound: a value that is not a number
    (or None where unlimited is allowed), or an integer field's non-int, raises
    TypeError; any other failure raises ValueError.
    """
    for name, (key, kind, unlimited, bound, within) in CONFIG_BOUNDS.items():
        value = getattr(cfg, name)
        if value is None and unlimited:
            continue
        wanted = "an integer" if kind == "integer" else "a number"
        wanted += " or null" if unlimited else ""
        if not is_number(value):
            raise TypeError(f"{key} must be {wanted}")
        if finite_float(value) is None:
            raise ValueError(f"{key} must be finite")
        if kind == "integer" and not isinstance(value, int):
            raise TypeError(f"{key} must be {wanted}")
        if not within(value):
            raise ValueError(f"{key} {bound}")


def check_snapshot_clock(snapshot_time, decay_rate) -> None:
    """Raise ValueError unless the snapshot time is finite and the decay rate finite and >= 0."""
    if finite_float(snapshot_time) is None:
        raise ValueError(f"snapshot time {snapshot_time!r} must be finite")
    rate = finite_float(decay_rate)
    if rate is None or rate < 0:
        raise ValueError(f"decay rate {decay_rate!r} must be finite and >= 0")


def decay_weight(time: float, eval_time: float, decay_rate: float) -> float:
    """Discount factor exp(-decay_rate * (eval_time - time)).

    Equals 1 at zero elapsed time or zero rate; the caller is responsible
    for filtering out interactions at or after ``eval_time``.
    """
    return math.exp(-decay_rate * (eval_time - time))


def _plain_numbers(values: list) -> Optional[np.ndarray]:
    """``values`` as a float array when each is an int or a float (not a bool), else None."""
    if not set(map(type, values)) <= {int, float}:
        return None
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        return None


def _plain_labels(values: set) -> bool:
    return "" not in values and all(type(v) is str for v in values)


def build_environment(
    log: Sequence[Interaction],
    snapshot_time: float,
    decay_rate: float = 0.0,
    profiles: Iterable[AgentProfile] = (),
) -> Environment:
    """Build the graph snapshot from ``log`` at ``snapshot_time``.

    Only interactions with ``time < snapshot_time`` are included.  Ratings
    are discounted by :func:`decay_weight` before averaging per category,
    and also averaged plainly; the edge weight is the unweighted mean over the
    categories that have interactions.  Declared ``profiles`` add agents
    (possibly with no interactions) and declared ability sets; agents that
    appear only in the log are assumed able in exactly the categories they
    completed.

    The records are sorted once by (trustor, trustee, category, time,
    rating) and each (edge, category) group is summed with ``np.bincount``,
    which adds in input order: within a group that is the canonical
    (time, rating) order, so any input order gives the same sums, bit for
    bit.  Decay weights are :func:`decay_weight`'s, from ``math.exp``, which
    ``np.exp`` does not match in the last bit.

    Records are checked column by column; only when a column is not plainly
    valid are they run through :func:`check_interaction` one by one, which
    raises InvalidRecordError naming the first offending record.  Raises
    ValueError from :func:`check_snapshot_clock`.
    """
    check_snapshot_clock(snapshot_time, decay_rate)
    declared = {p.id: p for p in profiles}
    trustors, trustees, labels, ratings, times = (
        list(map(operator.attrgetter(name), log))
        for name in ("trustor", "trustee", "category", "rating", "time")
    )
    rating, time = _plain_numbers(ratings), _plain_numbers(times)
    names, label_set = set(trustors).union(trustees), set(labels)
    if not (
        _plain_labels(names)
        and _plain_labels(label_set)
        and rating is not None
        and time is not None
        and np.all((rating >= 0.0) & (rating <= 1.0))
        and np.all(np.isfinite(time) & (time >= 0.0))
        and not any(map(operator.eq, trustors, trustees))
    ):
        # Some column is not plainly valid: name the first offending record.
        for idx, record in enumerate(log):
            problem = check_interaction(record)
            if problem is not None:
                raise InvalidRecordError(idx, problem[1])
        rating, time = np.array(ratings, dtype=float), np.array(times, dtype=float)

    keep = time < snapshot_time
    if not keep.all():
        trustors, trustees, labels = (
            list(compress(column, keep)) for column in (trustors, trustees, labels)
        )
        rating, time = rating[keep], time[keep]
        names, label_set = set(trustors).union(trustees), set(labels)

    # Ids are coded through dicts, not numpy string arrays, which would drop
    # trailing NUL characters.
    ids = sorted(names.union(declared))
    categories = sorted(label_set)
    index = {a: i for i, a in enumerate(ids)}
    cat_index = {c: k for k, c in enumerate(categories)}
    n = len(trustors)
    src = np.fromiter(map(index.__getitem__, trustors), np.int64, n)
    dst = np.fromiter(map(index.__getitem__, trustees), np.int64, n)
    cat = np.fromiter(map(cat_index.__getitem__, labels), np.int64, n)

    # src * len(ids) + dst orders records by (src, dst) and fits int64 below
    # three billion agents.
    order = np.lexsort((rating, time, cat, src * len(ids) + dst))
    src, dst, cat, rating, time = src[order], dst[order], cat[order], rating[order], time[order]
    exponents = -decay_rate * (snapshot_time - time)  # decay_weight's, bit for bit
    discount = np.fromiter(map(math.exp, exponents.tolist()), float, n)

    group_start = np.ones(n, dtype=bool)
    group_start[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1]) | (cat[1:] != cat[:-1])
    group = np.cumsum(group_start) - 1
    first = np.flatnonzero(group_start)
    count = np.bincount(group)
    weighted = np.bincount(group, weights=rating * discount)
    decayed_trust = weighted / np.bincount(group, weights=discount)
    mean_rating = np.bincount(group, weights=rating) / count
    group_end = np.ones(n, dtype=bool)
    group_end[:-1] = group_start[1:]
    last_time = time[group_end]  # a group's last record is its latest
    g_src, g_dst, g_cat = src[first], dst[first], cat[first]

    edge_start = np.ones(len(first), dtype=bool)
    edge_start[1:] = (g_src[1:] != g_src[:-1]) | (g_dst[1:] != g_dst[:-1])
    edge_first = np.flatnonzero(edge_start)
    indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(g_src[edge_first], minlength=len(ids)), out=indptr[1:])

    done: dict[int, set[TaskCategory]] = {}
    for code in np.unique(g_dst * max(len(categories), 1) + g_cat).tolist():
        agent, k = divmod(code, len(categories))
        done.setdefault(agent, set()).add(categories[k])
    agents: dict[AgentId, AgentProfile] = {}
    for i, agent_id in enumerate(ids):
        completed = frozenset(done.get(i, ()))
        decl = declared.get(agent_id)
        if decl is not None:
            agents[agent_id] = AgentProfile(
                id=agent_id,
                completed=frozenset(decl.completed) | completed,
                able=frozenset(decl.able),
            )
        else:
            agents[agent_id] = AgentProfile(id=agent_id, completed=completed, able=completed)

    return Environment(
        agents=agents,
        snapshot_time=snapshot_time,
        decay_rate=decay_rate,
        categories=tuple(categories),
        indptr=indptr,
        dst=g_dst[edge_first],
        cat_ptr=np.append(edge_first, len(first)),
        cat=g_cat,
        count=count,
        decayed_trust=decayed_trust,
        mean_rating=mean_rating,
        last_time=last_time,
    )


def edge_weight(env: Environment, src: AgentId, dst: AgentId) -> Optional[float]:
    """Overall weight of the edge ``src -> dst``, or None when absent."""
    out = env.out_weights(src)
    if dst not in env.agents:
        raise UnknownAgentError(dst)
    return out.get(dst)
