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
import time as _time
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .core import (
    AgentId,
    Environment,
    Interaction,
    InvariantError,
    TaskCategory,
    TrustConfig,
    UnknownAgentError,
)


@dataclass(slots=True)
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


@dataclass
class PropagationTable:
    """Search state and result: reached agents plus trustee-path records.

    ``stop_reason`` says why the search ended: ``"exhausted"`` (the frontier
    emptied), ``"steps"`` or ``"seconds"`` (a budget ran out first), and
    ``reattachments`` counts the reached agents moved onto a chain of more
    trust.  Both are left out of :meth:`to_dict`, which dumps only the table.
    """

    trustor: AgentId
    trustee: AgentId
    category: TaskCategory
    eval_time: float
    rows: dict[AgentId, TableRow] = field(default_factory=dict)
    trustee_rows: list[TrusteeRow] = field(default_factory=list)
    expansions: int = 0
    reattachments: int = 0
    stop_reason: str = "exhausted"

    def check(self, env: Environment, trust_threshold: float) -> None:
        """Assert loop-freedom, threshold and product soundness of every path.

        Every row's chain (its path, then its agent) repeats no agent, its
        path does not hold the trustee, each hop is an edge weighted at
        least ``trust_threshold``, and the product of the hop weights, taken
        from the trustor on, is within 1e-12 of ``cum_trust``; ``cum_prob``
        and ``cum_trust`` lie in [0, 1], and every trustee row's advisor has
        a row.  Rows attached in one expansion share one ``path`` tuple, so
        each distinct tuple is walked once (its agents, its hops and their
        product); each row then adds only its last hop.  Raises
        InvariantError naming the first row that breaks a rule.
        """
        walked: dict[int, tuple[set[AgentId], float, Mapping[AgentId, float]]] = {}
        for row in self.rows.values():
            path = row.path
            seen = walked.get(id(path))
            if seen is None:
                seen = walked[id(path)] = self._walk(env, trust_threshold, row)
            members, product, last_out = seen
            agent = row.agent
            if agent in members:
                raise InvariantError(f"repeated agent on path of {agent!r}: {path + (agent,)}")
            if not (0.0 <= row.cum_prob <= 1.0) or not (0.0 <= row.cum_trust <= 1.0):
                raise InvariantError(f"cumulative values out of range for {agent!r}")
            if path:
                weight = last_out.get(agent)
                if weight is None or weight < trust_threshold:
                    raise InvariantError(f"untrusted hop {path[-1]!r}->{agent!r} on stored path")
                product *= weight
            if abs(product - row.cum_trust) > 1e-12:
                raise InvariantError(f"cum_trust of {agent!r} diverges from its path product")
        for trow in self.trustee_rows:
            if trow.advisor not in self.rows:
                raise InvariantError(f"advisor {trow.advisor!r} has no table row")

    def _walk(
        self, env: Environment, trust_threshold: float, row: TableRow
    ) -> tuple[set[AgentId], float, Mapping[AgentId, float]]:
        """Check ``row.path`` alone; return its agents, hop product and last out-weights."""
        path = row.path
        members = set(path)
        if len(members) != len(path):
            raise InvariantError(f"repeated agent on path of {row.agent!r}: {path + (row.agent,)}")
        if self.trustee in members:
            raise InvariantError(f"trustee inside path of {row.agent!r}")
        product = 1.0
        for a, b in zip(path, path[1:]):
            weight = env.out_weights[a].get(b)
            if weight is None or weight < trust_threshold:
                raise InvariantError(f"untrusted hop {a!r}->{b!r} on stored path")
            product *= weight
        return members, product, env.out_weights[path[-1]] if path else {}

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


_INACTIVE = (0, 0.0, 0.0)  # the terms of an agent with no activity: its raw term is 0


def _consultation(
    terms: Mapping[AgentId, tuple[int, float, float]], ordered: Sequence[AgentId]
) -> list[float]:
    """Consultation probabilities of ``ordered`` (ascending ids, non-empty), in that order.

    Each neighbour's raw term is log(1 + n) / log(1 + max n) times
    exp(-recency_rate * (now - its last time)); the terms are normalized by
    their sum, or made uniform when they sum to 0.  ``terms`` is
    :meth:`Environment.consultation_terms`, which holds each active agent's
    count, log and exp, so a call does no log or exp of its own: the
    largest count's cached log is log(1 + max n), and each raw term is the
    same float operations in the same order as the formula.
    """
    found = [terms.get(a, _INACTIVE) for a in ordered]
    top_count, top, _ = max(found)
    if top_count > 0:
        raw = [volume / top * recency for _, volume, recency in found]
        total = sum(raw)
        if total > 0:
            return [r / total for r in raw]
    return [1.0 / len(ordered)] * len(ordered)


def propagation_probabilities(
    env: Environment,
    agent: AgentId,
    neighbours: Sequence[AgentId],
    category: TaskCategory,
    recency_rate: float,
) -> dict[AgentId, float]:
    """Each neighbour's likelihood of being consulted, normalized over the set.

    A neighbour's raw term is the product of a volume term, which grows
    logarithmically with its interaction count on the category, and a
    recency term, which decays exponentially with the time since its last
    one (see :func:`_consultation`).  Activity counts and recency are read
    from ``env`` at its snapshot time, through
    :meth:`Environment.consultation_terms` (a rate that is not a finite
    number raises ValueError).  The neighbour set must be non-empty and
    repeat no agent (ValueError); callers are expected to pass neighbours
    that qualify under :meth:`Environment.trusted_out`.
    """
    if agent not in env.agents:
        raise UnknownAgentError(agent)
    if not neighbours:
        raise ValueError("neighbour set must be non-empty")
    ordered = sorted(set(neighbours))
    if len(ordered) != len(neighbours):
        raise ValueError("neighbour set repeats an agent")
    terms = env.consultation_terms(category, recency_rate)
    return dict(zip(ordered, _consultation(terms, ordered)))


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


def _detach(
    table: PropagationTable,
    agent: AgentId,
    prefix_of: dict[AgentId, _Prefix],
    moved: set[AgentId],
) -> None:
    """Remove a row and rescale the probabilities of its old sibling subtrees.

    Every row whose stored path extends the removed row's path and does not
    pass through the removed agent is rescaled (capped at 1) and its agent
    added to ``moved``; the removed agent leaves ``moved``, as it has no row.
    """
    table.reattachments += 1
    rows = table.rows
    old = rows.pop(agent)
    moved.discard(agent)
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
            row = rows[other]
            p = row.cum_prob * factor
            row.cum_prob = p if p < 1.0 else 1.0
        moved.update(node.agents)
        if node.branches:
            stack.extend([child for hop, child in node.branches.items() if hop != agent])


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
    whose stale entries are skipped.  Expanding an agent considers the
    trustee, which yields a path record when the agent has rated it on the
    category, and the agent's qualifying neighbours
    (:meth:`Environment.trusted_out`, cached on the snapshot): an unvisited
    one is attached as a child; a visited one is re-attached when the new
    chain carries strictly more trust and introduces no loop.  A hop into an
    agent the trustor trusts directly is skipped unless it is the trustor's
    own expansion.  Re-attaching rescales the rows of the old sibling
    subtrees; each rescaled frontier row is pushed once per expansion, with
    its final key, so a step costs O(qualifying neighbours · log frontier)
    plus the rows its re-attachments rescale.  The search stops when the
    frontier empties or the step / wall-clock budget runs out, and records
    which in ``stop_reason``.

    Nothing per-snapshot is derived again per expansion: the threshold and
    the recency rate are checked once per search (a bad one raises
    ValueError), each expansion indexes the agent's out-weights and
    qualifying neighbours in the self-filling maps
    :attr:`Environment.out_weights` and :meth:`Environment.trusted_out`, and
    the consultation probabilities come from
    :meth:`Environment.consultation_terms`.  The finished table
    goes through :meth:`PropagationTable.check`.
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
    rows = table.rows
    rows[trustor] = TableRow(agent=trustor, cum_prob=1.0, cum_trust=1.0, path=())
    prefix_of = {trustor: _Prefix(agents={trustor})}
    threshold = config.trust_threshold
    out_of, trusted_of = env.out_weights, env.trusted_out(category, threshold)
    terms = env.consultation_terms(category, config.recency_rate)
    # Never attached: the trustee, and past the trustor's own expansion
    # every agent the trustor trusts directly.
    excluded = {nbr for nbr, weight in out_of[trustor].items() if weight >= threshold}
    excluded.add(trustee)
    excluded_first = {trustee}
    # advisor -> its row, in discovery order; a re-expansion replaces the path in place
    found: dict[AgentId, TrusteeRow] = {}
    steps, seconds = config.search_steps, config.search_seconds
    expansions = 0
    frontier: set[AgentId] = {trustor}
    heap: list[tuple[float, AgentId]] = [(-1.0, trustor)]
    heappush, heappop = heapq.heappush, heapq.heappop
    moved: set[AgentId] = set()
    started = _time.monotonic()

    while frontier:
        if steps is not None and expansions >= steps:
            table.stop_reason = "steps"
            break
        if seconds is not None and _time.monotonic() - started >= seconds:
            table.stop_reason = "seconds"
            break
        # Lazy deletion: an entry is live while its agent is on the frontier
        # with that key; every expansion pushes each key it changed.
        while True:
            key, current = heappop(heap)
            if current in frontier:
                row = rows[current]
                if key == -(row.cum_prob * row.cum_trust):
                    break
        frontier.discard(current)
        expansions += 1
        path, cum_trust = row.path + (current,), row.cum_trust

        out = out_of[current]
        if trustee in out:
            rating = env.advisor_rating(current, trustee, category)
            if rating is not None:
                found[current] = TrusteeRow(advisor=current, rating=rating, path=path)
        nbrs = trusted_of[current]
        skip = excluded if current != trustor else excluded_first
        attach: list[AgentId] = []
        for nbr in nbrs:
            if nbr in skip:
                continue
            existing = rows.get(nbr)
            if existing is None:
                attach.append(nbr)
            elif existing.cum_trust < cum_trust * out[nbr] and nbr not in path:
                _detach(table, nbr, prefix_of, moved)
                attach.append(nbr)

        if attach:
            # Read after the re-attachments, which may have rescaled this row.
            cum_prob = row.cum_prob
            values = _consultation(terms, attach)
            node = prefix_of[current].branches.setdefault(current, _Prefix())
            for nbr, value in zip(attach, values):
                p, t = cum_prob * value, cum_trust * out[nbr]
                rows[nbr] = TableRow(agent=nbr, cum_prob=p, cum_trust=t, path=path)
                node.agents.add(nbr)
                prefix_of[nbr] = node
                frontier.add(nbr)
                heappush(heap, (-(p * t), nbr))
        if moved:
            # Rows rescaled by the re-attachments: one entry each, with the final key.
            for other in moved:
                if other in frontier:
                    moved_row = rows[other]
                    heappush(heap, (-(moved_row.cum_prob * moved_row.cum_trust), other))
            moved.clear()

    table.expansions = expansions
    table.trustee_rows = list(found.values())
    table.check(env, threshold)
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
