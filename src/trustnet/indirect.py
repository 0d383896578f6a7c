"""Indirect trust: best-first propagation through trusted neighbours.

The search grows a table of reached agents ordered by the product of
cumulative propagation probability and cumulative trust.  Paths never
revisit an agent, and a hop into an agent the trustor already trusts
directly is skipped (first-hand evidence outranks a recommendation chain).
Each agent holding ratings of the trustee contributes one candidate path;
the aggregation step combines the survivors of the path-trust filter.
"""

from __future__ import annotations

import heapq
import math
import time as _time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import (
    AgentId,
    Environment,
    Interaction,
    InvariantError,
    TaskCategory,
    TrustConfig,
    UnknownAgentError,
)


@dataclass
class TableRow:
    """One reached agent: cumulative probability/trust and its ancestor chain.

    ``path`` runs from the trustor (inclusive) to the agent's parent; the
    trustor's own row has an empty path.  ``cum_prob`` may later be rescaled
    when a sibling subtree is re-attached elsewhere.
    """

    agent: AgentId
    cum_prob: float
    cum_trust: float
    path: tuple[AgentId, ...]


@dataclass
class TrusteeRow:
    """One discovered path endpoint: the advisor's rating of the trustee."""

    advisor: AgentId
    rating: float
    path: tuple[AgentId, ...]


@dataclass(frozen=True)
class PropagationProbability:
    """Likelihood of consulting one trusted neighbour.

    ``volume`` grows logarithmically with the neighbour's interaction count
    on the category, ``recency`` decays exponentially with time since its
    last one, and ``value`` is their product normalized to sum to 1 over the
    neighbour set.
    """

    volume: float
    recency: float
    value: float


@dataclass
class PropagationTable:
    """Search state and result: reached agents plus trustee-path records.

    ``stop_reason`` says why the search ended: ``"exhausted"`` (the frontier
    emptied), ``"steps"`` or ``"seconds"`` (a budget ran out first).  It is
    left out of :meth:`to_dict`, which dumps only the table.
    """

    trustor: AgentId
    trustee: AgentId
    category: TaskCategory
    eval_time: float
    rows: dict[AgentId, TableRow] = field(default_factory=dict)
    trustee_rows: list[TrusteeRow] = field(default_factory=list)
    expansions: int = 0
    stop_reason: str = "exhausted"

    def put_trustee_row(self, advisor: AgentId, rating: float, path: tuple[AgentId, ...]) -> None:
        for row in self.trustee_rows:
            if row.advisor == advisor:
                row.path = path
                return
        self.trustee_rows.append(TrusteeRow(advisor=advisor, rating=rating, path=path))

    def check(self, env: Environment, trust_threshold: float) -> None:
        """Assert loop-freedom, threshold and product soundness of every path."""
        for row in self.rows.values():
            chain = row.path + (row.agent,)
            if len(set(chain)) != len(chain):
                raise InvariantError(f"repeated agent on path of {row.agent!r}: {chain}")
            if self.trustee in row.path:
                raise InvariantError(f"trustee inside path of {row.agent!r}")
            if not (0.0 <= row.cum_prob <= 1.0) or not (0.0 <= row.cum_trust <= 1.0):
                raise InvariantError(f"cumulative values out of range for {row.agent!r}")
            product = 1.0
            for a, b in zip(chain, chain[1:]):
                stats = env.edges.get((a, b))
                if stats is None or stats.weight < trust_threshold:
                    raise InvariantError(f"untrusted hop {a!r}->{b!r} on stored path")
                product *= stats.weight
            if abs(product - row.cum_trust) > 1e-12:
                raise InvariantError(
                    f"cum_trust of {row.agent!r} diverges from its path product"
                )
        for trow in self.trustee_rows:
            if trow.advisor not in self.rows:
                raise InvariantError(f"advisor {trow.advisor!r} has no table row")

    def to_dict(self) -> dict:
        """Stable-field-order dump used by the CLI ``paths`` command."""
        return {
            "trustor": self.trustor,
            "trustee": self.trustee,
            "category": self.category,
            "time": self.eval_time,
            "rows": [
                {
                    "agent": row.agent,
                    "cum_prob": row.cum_prob,
                    "cum_trust": row.cum_trust,
                    "path": list(row.path),
                }
                for row in self.rows.values()
            ],
            "trustee_rows": [
                {"advisor": row.advisor, "rating": row.rating, "path": list(row.path)}
                for row in self.trustee_rows
            ],
        }


def trusted_neighbours(
    env: Environment, agent: AgentId, category: TaskCategory, trust_threshold: float
) -> set[AgentId]:
    """Out-neighbours trusted at or above the threshold with history in ``category``."""
    if agent not in env.agents:
        raise UnknownAgentError(agent)
    result = set()
    for nbr in env.neighbours(agent):
        if env.edges[(agent, nbr)].weight < trust_threshold:
            continue
        if category in env.agents[nbr].completed:
            result.add(nbr)
    return result


def propagation_probabilities(
    env: Environment,
    agent: AgentId,
    neighbours: Sequence[AgentId],
    category: TaskCategory,
    recency_rate: float,
) -> dict[AgentId, PropagationProbability]:
    """Normalized consultation probabilities over a trusted-neighbour set.

    Activity counts and recency are read from ``env`` at its snapshot time.
    The neighbour set must be non-empty; callers are expected to pass
    neighbours that qualify under :func:`trusted_neighbours`.
    """
    if agent not in env.agents:
        raise UnknownAgentError(agent)
    if not neighbours:
        raise ValueError("neighbour set must be non-empty")
    ordered = sorted(neighbours)
    activity, now = env.activity(category), env.snapshot_time
    counts, last = activity.counts, activity.last
    max_count = max(counts.get(a, 0) for a in ordered)
    raw: list[float] = []
    parts: list[tuple[float, float]] = []
    for a in ordered:
        n = counts.get(a, 0)
        volume = math.log(1 + n) / math.log(1 + max_count) if max_count > 0 else 0.0
        last_time = last.get(a)
        recency = 0.0 if last_time is None else math.exp(-recency_rate * (now - last_time))
        parts.append((volume, recency))
        raw.append(volume * recency)
    total = sum(raw)
    out = {}
    for a, (volume, recency), r in zip(ordered, parts, raw):
        value = r / total if total > 0 else 1.0 / len(ordered)
        out[a] = PropagationProbability(volume=volume, recency=recency, value=value)
    return out


@dataclass(slots=True)
class _Prefix:
    """One node of the index over stored paths, keyed by the path it stands for.

    ``agents`` are the reached agents whose stored path is exactly this one;
    ``branches`` maps each next hop ever stored under it to the longer path's
    node.  Stored paths are not rewritten when an ancestor is re-attached, so
    the index follows them, stale chains included.
    """

    agents: set[AgentId] = field(default_factory=set)
    branches: dict[AgentId, "_Prefix"] = field(default_factory=dict)


def _key(row: TableRow) -> float:
    return -(row.cum_prob * row.cum_trust)


def _detach(
    table: PropagationTable,
    agent: AgentId,
    prefix_of: dict[AgentId, _Prefix],
    frontier: set[AgentId],
    heap: list[tuple[float, AgentId]],
) -> None:
    """Remove a row and rescale the probabilities of its old sibling subtrees.

    Every row whose stored path extends the removed row's path and does not
    pass through the removed agent is rescaled; frontier rows are re-pushed
    with their new key.
    """
    old = table.rows.pop(agent)
    node = prefix_of.pop(agent)
    node.agents.discard(agent)
    if old.cum_prob >= 1.0:
        # Siblings (if any) carry zero probability; no mass to redistribute.
        return
    factor = 1.0 / (1.0 - old.cum_prob)
    stack = [node]
    while stack:
        node = stack.pop()
        for other in node.agents:
            row = table.rows[other]
            row.cum_prob = min(1.0, row.cum_prob * factor)
            if other in frontier:
                heapq.heappush(heap, (_key(row), other))
        stack.extend(child for hop, child in node.branches.items() if hop != agent)


def find_paths(
    env: Environment,
    log: Sequence[Interaction],
    trustor: AgentId,
    trustee: AgentId,
    category: TaskCategory,
    config: TrustConfig,
) -> PropagationTable:
    """Best-first search for trust propagation paths from trustor to trustee.

    Only ``env`` is read; ``log`` is ignored.

    Each step expands the frontier agent with the largest cum_prob * cum_trust
    (ties go to the lexicographically smallest agent id), taken from a heap
    whose stale entries are skipped, so a step costs O(out-degree · log
    frontier) plus the rows its re-attachments rescale.  Expanding an agent
    considers each out-neighbour: the trustee yields a path record when the
    agent has rated it on the category; an unvisited trusted neighbour with
    category history is attached as a child; a visited one is re-attached
    when the new chain carries strictly more trust and introduces no loop.
    A hop into an agent the trustor trusts directly is skipped unless it is
    the trustor's own expansion.  The search stops when the frontier empties
    or the step / wall-clock budget runs out, and records which in
    ``stop_reason``.
    """
    if trustor not in env.agents:
        raise UnknownAgentError(trustor)
    if trustee not in env.agents:
        raise UnknownAgentError(trustee)
    if trustor == trustee:
        raise ValueError("trustor and trustee must differ")

    table = PropagationTable(
        trustor=trustor, trustee=trustee, category=category, eval_time=env.snapshot_time
    )
    table.rows[trustor] = TableRow(agent=trustor, cum_prob=1.0, cum_trust=1.0, path=())
    prefix_of = {trustor: _Prefix(agents={trustor})}
    trusted_by_trustor = {
        nbr
        for nbr in env.neighbours(trustor)
        if env.edges[(trustor, nbr)].weight >= config.trust_threshold
    }
    frontier: set[AgentId] = {trustor}
    heap: list[tuple[float, AgentId]] = [(-1.0, trustor)]
    started = _time.monotonic()

    while frontier:
        if config.search_steps is not None and table.expansions >= config.search_steps:
            table.stop_reason = "steps"
            break
        if (
            config.search_seconds is not None
            and _time.monotonic() - started >= config.search_seconds
        ):
            table.stop_reason = "seconds"
            break
        # Lazy deletion: an entry is live while its agent is on the frontier
        # with that key; every key change pushed a fresh entry.
        while True:
            key, current = heapq.heappop(heap)
            if current in frontier and key == _key(table.rows[current]):
                break
        frontier.discard(current)
        table.expansions += 1
        row = table.rows[current]

        attach: list[AgentId] = []
        for nbr in env.neighbours(current):
            edge = env.edges[(current, nbr)]
            weight = edge.weight
            if nbr == trustee:
                rated = edge.per_category.get(category)
                if rated is not None:
                    table.put_trustee_row(current, rated.mean_rating, row.path + (current,))
                continue
            if current != trustor and nbr in trusted_by_trustor:
                continue
            if weight < config.trust_threshold:
                continue
            if category not in env.agents[nbr].completed:
                continue
            existing = table.rows.get(nbr)
            if existing is None:
                attach.append(nbr)
            elif nbr not in row.path and existing.cum_trust < row.cum_trust * weight:
                _detach(table, nbr, prefix_of, frontier, heap)
                attach.append(nbr)

        if attach:
            probs = propagation_probabilities(env, current, attach, category, config.recency_rate)
            node = prefix_of[current].branches.setdefault(current, _Prefix())
            for nbr in attach:
                weight = env.edges[(current, nbr)].weight
                child = table.rows[nbr] = TableRow(
                    agent=nbr,
                    cum_prob=min(1.0, row.cum_prob * probs[nbr].value),
                    cum_trust=row.cum_trust * weight,
                    path=row.path + (current,),
                )
                node.agents.add(nbr)
                prefix_of[nbr] = node
                frontier.add(nbr)
                heapq.heappush(heap, (_key(child), nbr))

    table.check(env, config.trust_threshold)
    return table


def retained_paths(
    table: PropagationTable, path_threshold: float
) -> list[tuple[AgentId, float, float]]:
    """(advisor, rating, path trust) for trustee rows passing the filter."""
    kept = []
    for trow in table.trustee_rows:
        path_trust = table.rows[trow.advisor].cum_trust
        if path_trust > path_threshold:
            kept.append((trow.advisor, trow.rating, path_trust))
    return kept


def aggregate(
    table: PropagationTable, path_threshold: float, path_decay: float
) -> Optional[float]:
    """Combine the discovered paths into one indirect trust value.

    Multiple surviving paths are averaged with their path trusts as weights.
    A single path is discounted by ``path_decay`` per hop of the chain
    trustor -> advisor -> trustee.  Returns None when nothing survives.
    """
    kept = retained_paths(table, path_threshold)
    if not kept:
        return None
    if len(kept) == 1:
        advisor, rating, _ = kept[0]
        hops = len(table.rows[advisor].path) + 1
        return rating * path_decay**hops
    num = sum(rating * w for _, rating, w in kept)
    den = sum(w for _, _, w in kept)
    return num / den
