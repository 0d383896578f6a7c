"""Domain model: interaction logs, agent profiles, and the environment graph.

The environment is a weighted directed graph snapshot built from a log of
rated interactions.  Each edge carries per-category statistics (interaction
count, time-discounted and plain mean ratings, most recent time) and an
overall weight: the unweighted mean of the per-category discounted trusts.
Every query statistic (direct trust, consultation probabilities, the
evidence bar) is derived from this snapshot alone; no query reads the log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

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


def check_interaction(record: Interaction) -> Optional[tuple[str, str]]:
    """Return (field, problem) for an invalid record, else None."""
    if not record.trustor:
        return "trustor", "trustor must be a non-empty id"
    if not record.trustee:
        return "trustee", "trustee must be a non-empty id"
    if record.trustor == record.trustee:
        return "trustee", "trustor and trustee must differ"
    if not record.category:
        return "category", "category must be a non-empty label"
    if not isinstance(record.rating, (int, float)) or isinstance(record.rating, bool):
        return "rating", "rating must be a number"
    if not (0.0 <= record.rating <= 1.0):
        return "rating", f"rating {record.rating!r} outside [0, 1]"
    if not isinstance(record.time, (int, float)) or isinstance(record.time, bool):
        return "time", "time must be a number"
    if not math.isfinite(record.time) or record.time < 0:
        return "time", f"time {record.time!r} must be finite and >= 0"
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


@dataclass
class Environment:
    """Immutable graph snapshot of all interactions strictly before ``snapshot_time``.

    Treat instances as read-only after construction; concurrent readers are
    safe (the activity cache filled on first use holds the same value
    whichever reader fills it).  ``decay_rate`` records the discount rate
    the snapshot was built with.
    """

    agents: dict[AgentId, AgentProfile]
    edges: dict[tuple[AgentId, AgentId], EdgeStats]
    snapshot_time: float
    decay_rate: float = 0.0
    _out: dict[AgentId, tuple[AgentId, ...]] = field(
        init=False, compare=False, repr=False
    )
    _activity: Optional[dict[TaskCategory, CategoryActivity]] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        out: dict[AgentId, list[AgentId]] = {}
        for src, dst in self.edges:
            out.setdefault(src, []).append(dst)
        self._out = {src: tuple(sorted(dsts)) for src, dsts in out.items()}

    def activity(self, category: TaskCategory) -> CategoryActivity:
        """Per-agent activity on ``category``; every category is worked out on first use."""
        if self._activity is None:
            seen: dict[TaskCategory, tuple[dict[AgentId, int], dict[AgentId, float]]] = {}
            for pair, stats in self.edges.items():
                for cat, s in stats.per_category.items():
                    counts, last = seen.setdefault(cat, ({}, {}))
                    for agent in pair:
                        counts[agent] = counts.get(agent, 0) + s.count
                        last[agent] = max(last.get(agent, s.last_time), s.last_time)
            self._activity = {}
            for cat, (counts, last) in seen.items():
                records = sum(counts.values()) // 2  # counted once per participant
                bar = max(records / len(counts), 1.0)
                self._activity[cat] = CategoryActivity(counts, last, bar)
        return self._activity.get(category, _NO_ACTIVITY)

    def neighbours(self, agent: AgentId) -> tuple[AgentId, ...]:
        """Out-neighbours of ``agent`` in ascending id order."""
        if agent not in self.agents:
            raise UnknownAgentError(agent)
        return self._out.get(agent, ())

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
    ``pagerank_seconds`` are wall-clock budgets.  ``None`` means unlimited.
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


def validate_config(cfg: TrustConfig) -> None:
    if not 0.0 <= cfg.trust_threshold <= 1.0:
        raise ValueError("theta_r must lie in [0, 1]")
    if not 0.0 <= cfg.path_threshold <= 1.0:
        raise ValueError("theta_r_p must lie in [0, 1]")
    if cfg.decay_rate < 0:
        raise ValueError("lambda_d must be >= 0")
    if cfg.recency_rate < 0:
        raise ValueError("lambda_p must be >= 0")
    if not 0.0 < cfg.path_decay <= 1.0:
        raise ValueError("d must lie in (0, 1]")
    if not 0.0 < cfg.damping < 1.0:
        raise ValueError("q must lie in (0,1)")
    if cfg.tolerance <= 0:
        raise ValueError("epsilon must be > 0")
    if cfg.max_iterations < 1:
        raise ValueError("max_iter must be >= 1")
    if cfg.search_steps is not None and cfg.search_steps < 0:
        raise ValueError("search_steps must be >= 0")
    if cfg.search_seconds is not None and cfg.search_seconds < 0:
        raise ValueError("search_seconds must be >= 0")
    if cfg.pagerank_seconds is not None and cfg.pagerank_seconds < 0:
        raise ValueError("pagerank_seconds must be >= 0")


def decay_weight(time: float, eval_time: float, decay_rate: float) -> float:
    """Discount factor exp(-decay_rate * (eval_time - time)).

    Equals 1 at zero elapsed time or zero rate; the caller is responsible
    for filtering out interactions at or after ``eval_time``.
    """
    return math.exp(-decay_rate * (eval_time - time))


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

    Raises InvalidRecordError naming the first offending record.
    """
    declared = {p.id: p for p in profiles}

    selected = []
    for idx, record in enumerate(log):
        problem = check_interaction(record)
        if problem is not None:
            raise InvalidRecordError(idx, problem[1])
        if record.time < snapshot_time:
            selected.append(record)

    # Canonical order makes the construction independent of input order.
    selected.sort(key=lambda r: (r.time, r.trustor, r.trustee, r.category, r.rating))

    sums: dict[tuple[AgentId, AgentId], dict[TaskCategory, list[float]]] = {}
    completed: dict[AgentId, set[TaskCategory]] = {}
    ids: set[AgentId] = set(declared)
    for r in selected:
        ids.add(r.trustor)
        ids.add(r.trustee)
        completed.setdefault(r.trustee, set()).add(r.category)
        per_cat = sums.setdefault((r.trustor, r.trustee), {})
        acc = per_cat.setdefault(r.category, [0.0, 0.0, 0.0, 0, float("-inf")])
        w = decay_weight(r.time, snapshot_time, decay_rate)
        acc[0] += r.rating * w
        acc[1] += w
        acc[2] += r.rating
        acc[3] += 1
        acc[4] = max(acc[4], r.time)

    edges: dict[tuple[AgentId, AgentId], EdgeStats] = {}
    for pair in sorted(sums):
        edges[pair] = EdgeStats(
            {
                cat: CategoryStats(
                    count=acc[3],
                    decayed_trust=acc[0] / acc[1],
                    mean_rating=acc[2] / acc[3],
                    last_time=acc[4],
                )
                for cat, acc in sorted(sums[pair].items())
            }
        )

    agents: dict[AgentId, AgentProfile] = {}
    for agent_id in sorted(ids):
        done = frozenset(completed.get(agent_id, set()))
        decl = declared.get(agent_id)
        if decl is not None:
            agents[agent_id] = AgentProfile(
                id=agent_id, completed=frozenset(decl.completed) | done, able=frozenset(decl.able)
            )
        else:
            agents[agent_id] = AgentProfile(id=agent_id, completed=done, able=done)

    return Environment(
        agents=agents,
        edges=edges,
        snapshot_time=snapshot_time,
        decay_rate=decay_rate,
    )


def edge_weight(env: Environment, src: AgentId, dst: AgentId) -> Optional[float]:
    """Overall weight of the edge ``src -> dst``, or None when absent."""
    if src not in env.agents:
        raise UnknownAgentError(src)
    if dst not in env.agents:
        raise UnknownAgentError(dst)
    stats = env.edges.get((src, dst))
    return None if stats is None else stats.weight
