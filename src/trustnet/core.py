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
from array import array
from collections import defaultdict
from collections.abc import Mapping as MappingABC, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, count as counter, repeat
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from .reach import Reach, build_reach

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
    """An interaction record or agent profile, or a line of a log or profile file, breaks its rule.

    ``field`` names the field that breaks the rule (None when the line is
    not a JSON object); the message is the rule's problem text.
    """

    def __init__(self, field: Optional[str], message: str):
        super().__init__(message)
        self.field = field


class InvalidProfileError(TrustError):
    """A declared agent profile repeats an earlier one's id; ``index`` is its input position."""

    def __init__(self, index: int, profile_id, message: str):
        super().__init__(f"profile {index} (id {profile_id!r}): {message}")
        self.index = index


class InvariantError(TrustError):
    """An internal consistency check failed; indicates an engine bug."""


@dataclass(frozen=True, slots=True)
class Interaction:
    """One rated interaction: ``trustor`` rated ``trustee`` on a task.

    ``rating`` lies in [0, 1]; ``time`` is a dimensionless non-negative
    scalar (the application chooses the unit).  A record is checked when it
    is made, by the record rule: ids and category are non-empty strings,
    trustor != trustee, and rating in [0, 1] and time >= 0 are numbers by
    :func:`finite_float`'s rule.  The first field that breaks it raises
    InvalidRecordError naming that field.
    """

    trustor: AgentId
    trustee: AgentId
    rating: float
    category: TaskCategory
    time: float

    def __post_init__(self):
        # Unrolled (every parsed log record is made here), in the rule's order.
        if not isinstance(self.trustor, str) or not self.trustor:
            raise InvalidRecordError("trustor", "trustor must be a non-empty string")
        if not isinstance(self.trustee, str) or not self.trustee:
            raise InvalidRecordError("trustee", "trustee must be a non-empty string")
        if not isinstance(self.category, str) or not self.category:
            raise InvalidRecordError("category", "category must be a non-empty string")
        if self.trustor == self.trustee:
            raise InvalidRecordError("trustee", "trustee must differ from the trustor")
        rating = finite_float(self.rating)
        if rating is None or not 0.0 <= rating <= 1.0:
            raise InvalidRecordError("rating", "rating must be a finite number in [0, 1]")
        time = finite_float(self.time)
        if time is None or time < 0:
            raise InvalidRecordError("time", "time must be a finite number >= 0")


def is_number(value) -> bool:
    """Whether ``value`` is an int or a float; a bool is not a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def finite_float(value) -> Optional[float]:
    """``value`` as a finite float, or None: the number rule of every input."""
    if type(value) is float:
        return value if math.isfinite(value) else None
    if not is_number(value):
        return None
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range has no finite value
        return None
    return number if math.isfinite(number) else None


@dataclass(frozen=True)
class AgentProfile:
    """An agent with its completed categories and declared abilities.

    ``completed`` is derived from the log (categories in which the agent was
    rated as a trustee) merged with any declared history.  ``able`` is taken
    from the declaration when one exists; completion does not imply a
    declared ability and vice versa.  It is checked when it is made: the id
    is a non-empty string, and ``able`` then ``completed`` are collections of
    non-empty strings, held as frozensets; the first field that breaks the
    rule raises InvalidRecordError naming it.
    """

    id: AgentId
    completed: frozenset[TaskCategory] = frozenset()
    able: frozenset[TaskCategory] = frozenset()

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise InvalidRecordError("id", "id must be a non-empty string")
        for name in ("able", "completed"):
            labels = getattr(self, name)
            # The type check comes first, so that ``in`` compares only strings.
            if not (
                isinstance(labels, (frozenset, set, list, tuple))
                and all(map(isinstance, labels, repeat(str)))
                and "" not in labels
            ):
                raise InvalidRecordError(name, "category lists must contain non-empty strings")
            object.__setattr__(self, name, frozenset(labels))


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

    ``weight`` is the edge's overall trust value, the environment's
    ``weight`` of the edge: the unweighted mean of ``decayed_trust`` over
    ``per_category``.
    """

    per_category: Mapping[TaskCategory, CategoryStats]
    weight: float


@dataclass(frozen=True)
class CategoryActivity:
    """One category's activity in a snapshot, derived from its edges.

    By agent index, ``counts[i]`` is the number of interactions agent ``i``
    took part in on either side (0 for none) and ``last[i]`` the time of its
    latest one (``-inf``); ``dt_min`` is the evidence bar, the average count
    per participant floored at 1.
    """

    counts: list[int]
    last: list[float]
    dt_min: float


@dataclass(frozen=True, eq=False)
class KeptEdges:
    """The edges kept at ``threshold`` into agents with history in one category.

    A CSR over agent indices: agent ``i``'s kept edges are positions
    ``ptr[i]:ptr[i+1]`` of ``dst`` (ascending) and ``weight``; ``ptr`` and
    ``dst`` are lists of int, ``weight`` an ``array('d')`` of the edges'
    :attr:`Environment.weight` entries, read back as floats.
    :attr:`reach` is built the first time it or :attr:`in_weight` is read,
    which only the label-setting search does; ``in_weight`` reads the
    reach's target array.  Compared by identity; callers must not modify
    the columns.
    """

    threshold: float
    ptr: list[int]
    dst: list[int]
    weight: array

    @cached_property
    def in_weight(self) -> list[float]:
        """Each agent's largest weight among the kept edges that enter it, 0.0 for none."""
        largest = np.zeros(len(self.ptr) - 1)
        np.maximum.at(largest, self.reach.edge_target, np.frombuffer(self.weight))
        return largest.tolist()

    @cached_property
    def reach(self) -> Reach:
        """The :class:`reach.Reach` of the kept edges: their strongly connected components,
        condensation and strong articulation points."""
        return build_reach(self.ptr, self.dst)


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
        found = env._edge_rows(*pair, None) if isinstance(pair, tuple) and len(pair) == 2 else None
        if found is None:
            raise KeyError(pair)
        k, lo, hi, _ = found
        rows = zip(
            env.cat[lo:hi].tolist(),
            env.count[lo:hi].tolist(),
            env.decayed_trust[lo:hi].tolist(),
            env.mean_rating[lo:hi].tolist(),
            env.last_time[lo:hi].tolist(),
        )
        per_category = {env.categories[c]: CategoryStats(*stats) for c, *stats in rows}
        return EdgeStats(per_category, env.weight[k].item())

    def __iter__(self) -> Iterator[tuple[AgentId, AgentId]]:
        env = self._env
        return zip(env.id_array[env.src].tolist(), env.id_array[env.dst].tolist())

    def __len__(self) -> int:
        return len(self._env.dst)


@dataclass(eq=False)
class Environment:
    """Immutable graph snapshot of all interactions strictly before ``snapshot_time``.

    ``ids`` holds the agent ids in ascending order; agent ``i`` has the
    profile ``kinds[profile[i]]``, one of the distinct ``(completed, able)``
    pairs, and owns edges ``indptr[i]:indptr[i+1]`` of ``dst`` (agent
    indices, ascending within a row), and edge ``e`` owns rows
    ``cat_ptr[e]:cat_ptr[e+1]`` of the per-(edge, category) arrays, whose
    ``cat`` indexes ``categories`` (ascending within an edge).  ``weight``
    (the one weight rule: the unweighted mean of an edge's ``decayed_trust``
    rows), ``src`` and ``edges`` are derived.
    All arrays are read-only.  Four caches are filled on first use: the
    ``agents`` dict (the engine reads ``kinds`` and ``profile``), each
    category's :meth:`activity` and rows indexed by target, and per category,
    for the latest threshold or recency rate asked, the :meth:`kept_edges`
    record (which builds its in-weights and reach only when they are read)
    and the :meth:`consultation_terms` list.  So the path search
    keys no per-agent fact by id and derives none twice: it reads each
    expanded agent's qualifying neighbours as one slice of its CSR, and
    takes every consultation term, and the trustee's advisors, from a
    cache.  The caches hold lists and arrays, never the snapshot itself.
    Concurrent readers are safe (a cache filled on first use holds the same
    value whichever reader fills it).  ``decay_rate`` records the discount
    rate the snapshot was built with.
    """

    ids: tuple[AgentId, ...]
    kinds: tuple[tuple[frozenset[TaskCategory], frozenset[TaskCategory]], ...]
    snapshot_time: float
    decay_rate: float
    categories: tuple[TaskCategory, ...]
    profile: np.ndarray
    indptr: np.ndarray
    dst: np.ndarray
    cat_ptr: np.ndarray
    cat: np.ndarray
    count: np.ndarray
    decayed_trust: np.ndarray
    mean_rating: np.ndarray
    last_time: np.ndarray
    index: dict[AgentId, int] = field(init=False, repr=False)
    _category_index: dict[TaskCategory, int] = field(init=False, repr=False)
    id_array: np.ndarray = field(init=False, repr=False)
    src: np.ndarray = field(init=False, repr=False)
    weight: np.ndarray = field(init=False, repr=False)
    _kept: dict[TaskCategory, KeptEdges] = field(default_factory=dict, init=False, repr=False)
    _terms: dict[TaskCategory, tuple[float, list[tuple[int, float, float, float]]]] = field(
        default_factory=dict, init=False, repr=False
    )

    # The columnar fields, in the order a snapshot stores them.
    ARRAYS = (
        "profile", "indptr", "dst", "cat_ptr", "cat", "count", "decayed_trust", "mean_rating",
        "last_time",
    )

    def __post_init__(self):
        self.index = {a: i for i, a in enumerate(self.ids)}
        self._category_index = {c: k for k, c in enumerate(self.categories)}
        self.id_array = np.array(self.ids, dtype=object)
        self.src = np.repeat(np.arange(len(self.ids)), np.diff(self.indptr))
        per_edge = np.diff(self.cat_ptr)
        # bincount adds in row order, i.e. in category id order within an edge.
        self.weight = (
            np.bincount(self._row_edges(), weights=self.decayed_trust, minlength=len(self.dst))
            / per_edge
        )
        for values in (self.id_array, self.src, self.weight) + tuple(
            getattr(self, name) for name in self.ARRAYS
        ):
            values.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, Environment):
            return NotImplemented
        # Per-agent profiles, not kind numbers: a loaded file may number its kinds in another order.
        return (
            self.ids == other.ids
            and self.snapshot_time == other.snapshot_time
            and self.decay_rate == other.decay_rate
            and self.categories == other.categories
            and list(map(self.kinds.__getitem__, self.profile.tolist()))
            == list(map(other.kinds.__getitem__, other.profile.tolist()))
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in self.ARRAYS
                if name != "profile"
            )
        )

    def _row_edges(self) -> np.ndarray:
        """Each (edge, category) row's edge; made where it is read, not kept."""
        return np.repeat(np.arange(len(self.dst)), np.diff(self.cat_ptr))

    @cached_property
    def agents(self) -> dict[AgentId, AgentProfile]:
        """Each agent's :class:`AgentProfile`, keyed in ascending id order; made on first use."""
        return {a: AgentProfile(a, *self.kinds[k]) for a, k in zip(self.ids, self.profile.tolist())}

    @property
    def edges(self) -> EdgeView:
        """A read-only ``(src, dst) -> EdgeStats`` view of the arrays.

        Made on each access, so that a snapshot holds no reference to
        itself and is freed as soon as it is dropped, not at the next full
        garbage collection.
        """
        return EdgeView(self)

    @cached_property
    def _by_category(self) -> dict[TaskCategory, tuple]:
        """Per category: its :class:`CategoryActivity`, and its rows' CSR by target: ``ptr``,
        each row's source (ascending within a target) and plain mean rating."""
        n, by_category, row_edge = len(self.ids), {}, self._row_edges()
        for k, label in enumerate(self.categories):
            rows = np.flatnonzero(self.cat == k)
            sources, targets = self.src[row_edge[rows]], self.dst[row_edge[rows]]
            ends = np.concatenate((sources, targets))
            counts = np.bincount(ends, weights=np.tile(self.count[rows], 2), minlength=n)
            last = np.full(n, -np.inf)
            np.maximum.at(last, ends, np.tile(self.last_time[rows], 2))
            dt_min = max(int(self.count[rows].sum()) / np.count_nonzero(counts), 1.0)
            activity = CategoryActivity(counts.astype(np.int64).tolist(), last.tolist(), dt_min)
            order = np.argsort(targets, kind="stable")  # rows are in source order
            ptr = np.searchsorted(targets[order], np.arange(n + 1))
            by_category[label] = (activity, ptr, sources[order], self.mean_rating[rows[order]])
        return by_category

    def activity(self, category: TaskCategory) -> CategoryActivity:
        """Per-agent activity on ``category`` (none without rows); all are made on first use."""
        if category in self._by_category:
            return self._by_category[category][0]
        return CategoryActivity([0] * len(self.ids), [-math.inf] * len(self.ids), 1.0)

    def pair(self, trustor: AgentId, trustee: AgentId) -> tuple[int, int]:
        """A query's two agents as indices ``(root, target)``, by the one rule for them: an
        unknown trustor, then an unknown trustee, raises UnknownAgentError; equal agents
        raise ValueError."""
        root, target = self.index.get(trustor), self.index.get(trustee)
        if root is None:
            raise UnknownAgentError(trustor)
        if target is None:
            raise UnknownAgentError(trustee)
        if root == target:
            raise ValueError("trustor and trustee must differ")
        return root, target

    def kept_edges(self, category: TaskCategory, threshold: float) -> KeptEdges:
        """The :class:`KeptEdges` of ``category`` at ``threshold``.

        The edges whose weight is at least ``threshold`` and whose target's
        ``completed`` holds ``category``, filtered by one numpy mask.  Cached
        per category for the latest threshold asked.  A threshold that is
        not a finite number by :func:`finite_float`'s rule raises
        ValueError, whatever the cache holds.
        """
        number = finite_float(threshold)
        if number is None:
            raise ValueError(f"threshold {threshold!r} must be a finite number")
        kept = self._kept.get(category)
        if kept is None or kept.threshold != number:
            completed = np.array([category in done for done, _ in self.kinds], dtype=bool)
            edges = np.flatnonzero((self.weight >= number) & completed[self.profile[self.dst]])
            ptr, dst = np.searchsorted(edges, self.indptr).tolist(), self.dst[edges].tolist()
            weight = array("d", self.weight[edges].tobytes())
            kept = self._kept[category] = KeptEdges(number, ptr, dst, weight)
        return kept

    def consultation_terms(
        self, category: TaskCategory, recency_rate: float
    ) -> list[tuple[int, float, float, float]]:
        """Each agent's ``(n, log(1 + n), exp(-recency_rate * (now - last)), last)``, by index.

        ``n`` and ``last`` are the agent's count and latest time on
        ``category`` in :meth:`activity`, and ``now`` is the snapshot time;
        an agent with no activity on the category has ``(0, 0.0, 0.0, -inf)``.
        Cached per category for the latest rate asked.  A rate that is not
        a finite number by :func:`finite_float`'s rule raises ValueError,
        whatever the cache holds.  Callers must not modify the list.
        """
        rate = finite_float(recency_rate)
        if rate is None:
            raise ValueError(f"recency rate {recency_rate!r} must be a finite number")
        held = self._terms.get(category)
        if held is None or held[0] != rate:
            activity, now = self.activity(category), self.snapshot_time
            idle = (0, 0.0, 0.0, -math.inf)
            terms = [
                (n, math.log(1 + n), math.exp(-rate * (now - last)), last) if n else idle
                for n, last in zip(activity.counts, activity.last)
            ]
            held = self._terms[category] = (rate, terms)
        return held[1]

    def advisor_ratings(self, trustee: int, category: TaskCategory) -> dict[int, float]:
        """The plain mean rating of agent ``trustee`` on ``category`` by each agent that gave one.

        Keys are agent indices, ascending; each value is what that agent
        reports as an advisor on the trustee.  Empty on a category without rows.
        """
        if category not in self._by_category:
            return {}
        _, ptr, sources, ratings = self._by_category[category]
        lo, hi = ptr[trustee], ptr[trustee + 1]
        return dict(zip(sources[lo:hi].tolist(), ratings[lo:hi].tolist()))

    def _edge_rows(
        self, src: AgentId, dst: AgentId, category: Optional[TaskCategory]
    ) -> Optional[tuple[int, int, int, Optional[int]]]:
        """``(edge, first row, end row, category row)`` of the edge ``src -> dst``, or None.

        None when the edge is absent.  ``edge`` is its position in ``dst``,
        rows ``first:end`` hold its categories, and the category row is
        ``category``'s, or None when the edge has no row on it.
        """
        i, j = self.index.get(src), self.index.get(dst)
        if i is None or j is None:
            return None
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        k = lo + int(np.searchsorted(self.dst[lo:hi], j))
        if k == hi or self.dst[k] != j:
            return None
        lo, hi = int(self.cat_ptr[k]), int(self.cat_ptr[k + 1])
        c = self._category_index.get(category)
        r = None if c is None else lo + int(np.searchsorted(self.cat[lo:hi], c))
        return k, lo, hi, (r if r is not None and r < hi and self.cat[r] == c else None)


@dataclass(frozen=True)
class TrustConfig:
    """Engine parameters with their validated bounds.

    trust_threshold / path_threshold in [0, 1]; decay_rate / recency_rate
    >= 0; path_decay in (0, 1]; damping in (0, 1); tolerance > 0;
    max_iterations >= 1.  ``search_steps`` caps the number of node
    expansions of the path search; ``None`` means unlimited.  No field is a
    wall-clock budget, so an answer depends only on its snapshot and config.
    Each field is checked when the config is made, by its row of
    ``CONFIG_BOUNDS``, and errors name the wire key: a value of the wrong
    type raises TypeError, a non-finite or out-of-bound one ValueError.
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

    def __post_init__(self):
        for name, (key, kind, unlimited, bound, within) in CONFIG_BOUNDS.items():
            value = getattr(self, name)
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
}


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


def group_codes(src: np.ndarray, dst: np.ndarray, cat: np.ndarray, n_ids: int, n_cats: int):
    """One int64 code per (src, dst, cat) group, in that order of significance.

    The largest code is agents² · categories - 1, so a log whose agents² ·
    categories exceeds 2⁶³ raises ValueError; the bound is checked in Python
    ints, before any code is formed.
    """
    if n_ids * n_ids * n_cats > 2**63:
        raise ValueError(
            f"{n_ids} agents and {n_cats} categories are too many for the group codes: "
            "agents² · categories must not exceed 2⁶³"
        )
    code = src * n_ids  # then in place: one array of codes, no temporaries
    code += dst
    code *= n_cats
    code += cat
    return code


# How many discounts :func:`_exp` takes at a time: each chunk passes through a
# list of Python floats, so that list is bounded by this, not by the log.
EXP_CHUNK = 4096


def _exp(exponents: np.ndarray) -> np.ndarray:
    """``math.exp`` of each entry, written over ``exponents``, ``EXP_CHUNK`` entries at a time.

    :func:`decay_weight` takes ``math.exp``, which ``np.exp`` does not match
    in the last bit.
    """
    for lo in range(0, len(exponents), EXP_CHUNK):
        part = exponents[lo : lo + EXP_CHUNK]
        part[:] = np.fromiter(map(math.exp, part.tolist()), float, len(part))
    return exponents


def _boundaries(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each entry of the sorted ``key`` starts, and whether it ends, its run of equals."""
    change = np.empty(len(key) + 1, dtype=bool)
    change[0] = change[-1] = True
    np.not_equal(key[1:], key[:-1], out=change[1:-1])
    return change[:-1], change[1:]


def _ranked(codes: Mapping[str, int], *columns: np.ndarray) -> list[str]:
    """The keys of ``codes`` in ascending order; each column's codes are rewritten in place
    to their key's position in that order."""
    names = sorted(codes)
    rank = np.empty(len(names), np.int64)
    rank[np.fromiter(map(codes.__getitem__, names), np.int64, len(names))] = np.arange(len(names))
    for column in columns:
        np.take(rank, column, out=column)
    return names


def _record_codes(
    records: Sequence[Interaction], declared: Mapping[AgentId, object]
) -> tuple[list[AgentId], list[TaskCategory], np.ndarray]:
    """The sorted agent ids (``declared`` ones too) and categories, and each record's group code.

    Each string column is read from the records once: a value takes the
    next code the first time it is seen (declared ids first), and
    :func:`_ranked` then sorts the values once and remaps the codes to
    their ranks.  Ids are coded through dicts, not numpy string arrays,
    which would drop trailing NUL characters.  No column is held as a
    list; the dicts and the per-column codes die on return.
    """
    n = len(records)
    codes = defaultdict(counter(len(declared)).__next__, zip(declared, counter()))
    src = np.fromiter(map(codes.__getitem__, map(attrgetter("trustor"), records)), np.int64, n)
    dst = np.fromiter(map(codes.__getitem__, map(attrgetter("trustee"), records)), np.int64, n)
    ids = _ranked(codes, src, dst)
    codes = defaultdict(counter().__next__)
    cat = np.fromiter(map(codes.__getitem__, map(attrgetter("category"), records)), np.int64, n)
    categories = _ranked(codes, cat)
    return ids, categories, group_codes(src, dst, cat, len(ids), len(categories))


def _kinds(
    ids: list[AgentId],
    categories: list[TaskCategory],
    declared: Mapping[AgentId, tuple[frozenset, frozenset]],
    targets: np.ndarray,
    cat: np.ndarray,
) -> tuple[tuple, np.ndarray]:
    """The distinct ``(completed, able)`` kinds, numbered by first use, and each agent's kind.

    Agent i completed the categories of its rows as a target (``targets``,
    ``cat``, one entry per row); each distinct (codes, declaration) makes
    its kind once.
    """
    n_cats = len(categories)
    pairs = np.sort(targets * n_cats + cat)
    pairs = pairs[_boundaries(pairs)[0]]
    # Agent i completed the categories codes[bounds[i]:bounds[i + 1]].
    bounds = np.searchsorted(pairs, np.arange(len(ids) + 1) * n_cats).tolist()
    codes = (pairs % n_cats).tolist()
    kinds: dict[tuple[frozenset, frozenset], int] = {}
    memo: dict[tuple, int] = {}
    profile = []
    for agent_id, lo, hi in zip(ids, bounds, bounds[1:]):
        signature = (tuple(codes[lo:hi]), declared.get(agent_id))
        if signature not in memo:
            done, decl = signature
            names = frozenset(map(categories.__getitem__, done))
            kind = (names, names) if decl is None else (decl[0] | names, decl[1])
            memo[signature] = kinds.setdefault(kind, len(kinds))
        profile.append(memo[signature])
    return tuple(kinds), np.array(profile, dtype=np.int64)


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

    The records are sorted by one integer code of their (edge, category)
    group, and the records of each group of more than one by (time, rating)
    within its positions.  Each group is summed with ``np.bincount``, which
    adds in input order; that order is canonical, and records that tie in it
    add equal terms, so any input order gives the same sums, bit for bit.
    Decay weights are :func:`decay_weight`'s, from ``math.exp``, which
    ``np.exp`` does not match in the last bit.  A group whose newest weight
    is not a normal float is weighed from its newest time instead: the same
    mean, without the underflow.

    The build is staged so that it holds no record-sized value past its
    last use: ``rating`` and ``time`` are read straight into arrays, the
    string columns are coded in :func:`_record_codes`, so that each field
    of a kept record is read once, each record-sized array is dropped once
    read, and the discounts go through ``math.exp`` in chunks of
    ``EXP_CHUNK``.

    ``log`` must be a sequence of :class:`Interaction` records and
    ``profiles`` an iterable of :class:`AgentProfile`, both valid by
    construction: a log that is not a sequence, or an item of either that
    is not of its type, raises TypeError naming it.  An id may be declared
    once; its second declaration raises InvalidProfileError.
    Raises ValueError from :func:`check_snapshot_clock` and :func:`group_codes`.
    """
    check_snapshot_clock(snapshot_time, decay_rate)
    declared: dict[AgentId, tuple[frozenset[TaskCategory], frozenset[TaskCategory]]] = {}
    for idx, decl in enumerate(profiles):
        if not isinstance(decl, AgentProfile):
            raise TypeError(f"profile {idx} must be an AgentProfile, not {type(decl).__name__}")
        if decl.id in declared:
            raise InvalidProfileError(idx, decl.id, "id already declared by an earlier profile")
        declared[decl.id] = (decl.completed, decl.able)
    if not isinstance(log, Sequence):
        raise TypeError(f"log must be a sequence of Interaction, not {type(log).__name__}")
    if not all(map(isinstance, log, repeat(Interaction))):
        idx, item = next((i, r) for i, r in enumerate(log) if not isinstance(r, Interaction))
        raise TypeError(f"log item {idx} must be an Interaction, not {type(item).__name__}")
    n = len(log)
    rating = np.fromiter(map(attrgetter("rating"), log), float, n)
    time = np.fromiter(map(attrgetter("time"), log), float, n)
    records = log
    keep = time < snapshot_time
    if not keep.all():
        records = list(compress(log, keep))
        rating, time = rating[keep], time[keep]
    ids, categories, key = _record_codes(records, declared)
    del records
    n_ids, n_cats = len(ids), len(categories)

    order = np.argsort(key)
    key = key[order]
    starts, ends = _boundaries(key)
    # Records that share a group are put in (time, rating) order within its positions.
    shared = np.flatnonzero(~(starts & ends))
    moved = order[shared]
    order[shared] = moved[np.lexsort((rating[moved], time[moved], key[shared]))]
    del shared, moved
    rating, time = rating[order], time[order]
    del order
    key = key[starts]  # one code per group, ascending

    group = np.cumsum(starts)
    group -= 1
    last_time = time[ends]  # a group's last record is its latest
    discount = _exp(-decay_rate * (snapshot_time - time))  # decay_weight's, bit for bit
    # Rebase the groups whose newest discount is not a normal float.
    stale = np.flatnonzero((discount[ends] < np.finfo(float).tiny)[group])
    discount[stale] = _exp(-decay_rate * (last_time[group[stale]] - time[stale]))
    del time, starts, ends, stale
    count = np.bincount(group)
    weighted = np.bincount(group, weights=rating * discount)
    decayed_trust = weighted / np.bincount(group, weights=discount)
    mean_rating = np.bincount(group, weights=rating) / count
    del group, rating, discount, weighted

    edge, cat = np.divmod(key, n_cats)  # n_cats is 0 only with no groups
    del key
    edge_first = np.flatnonzero(_boundaries(edge)[0])
    sources, targets = np.divmod(edge, n_ids)
    del edge
    indptr = np.zeros(n_ids + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources[edge_first], minlength=n_ids), out=indptr[1:])
    del sources
    kinds, profile = _kinds(ids, categories, declared, targets, cat)

    return Environment(
        ids=tuple(ids),
        kinds=kinds,
        snapshot_time=snapshot_time,
        decay_rate=decay_rate,
        categories=tuple(categories),
        profile=profile,
        indptr=indptr,
        dst=targets[edge_first],
        cat_ptr=np.append(edge_first, len(cat)),
        cat=cat,
        count=count,
        decayed_trust=decayed_trust,
        mean_rating=mean_rating,
        last_time=last_time,
    )
