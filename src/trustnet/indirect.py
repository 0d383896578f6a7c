"""Indirect trust: propagation through trusted neighbours.

Two searches follow the same qualifying edges.  Paths never revisit an
agent, and a hop into an agent the trustor already trusts directly is
skipped (first-hand evidence outranks a recommendation chain).

- :func:`settle_paths`, a label-setting search, settles agents whose best
  chain lies above the path threshold once each, with that chain: the
  largest product of hop weights, then the fewest hops.  It stops once
  every advisor of the trustee is settled or can no longer rise above the
  threshold.  The whole reach, agents seen only below the threshold or
  left unsettled included, is counted by a walk over the condensation of
  the kept edges' strongly connected components
  (:meth:`Environment.trusted_reach`), or, when the trustee splits its
  component, by a numpy level sweep seeded by the agents the search met.
  It answers every ``evaluate`` whose config leaves ``search_steps`` unset.
- :func:`find_paths`, a best-first search, grows a table of reached agents
  ordered by the product of cumulative propagation probability and
  cumulative trust, re-attaching an agent when a chain of more trust
  reaches it.  It answers ``evaluate`` calls under ``search_steps``, since
  only it can stop after k expansions, and the CLI ``paths`` command.

Each agent holding ratings of the trustee contributes one candidate path;
the aggregation step (:func:`combine_paths`, shared by both searches)
combines the survivors of the path-trust filter.
"""

from __future__ import annotations

import heapq
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    AgentId,
    Environment,
    Interaction,
    InvariantError,
    TaskCategory,
    TrustConfig,
    UnknownAgentError,
)

_TINY = sys.float_info.min  # the smallest normal float


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
    emptied) or ``"steps"`` (the ``search_steps`` budget ran out first), and
    ``reattachments`` counts the reached agents moved onto a chain of more
    trust.  Both are left out of :meth:`to_dict`, which dumps only the table.
    :func:`find_paths` makes each row once, on return; rows share path tuples.

    A trustee row keeps the path its advisor had when last expanded.  When a
    budget stops the search after the advisor was re-attached but before it
    was expanded again, that path is older than ``rows[advisor]``'s, which
    :func:`retained_paths` and so ``evaluate`` read: on the ``query-history``
    world (seed 2026, ``search_steps`` 16), a043 -> a052 on c1 lists advisor
    a046 via a048 (product 0.9398) while its row goes via a261 (0.9677).
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
        """Assert rooting, loop-freedom, threshold and product soundness of every path.

        The trustor's row has the empty path and every other path starts at
        the trustor.  Every row's chain (its path, then its agent) repeats
        no agent, its path does not hold the trustee, each hop is an edge of
        :meth:`Environment.trusted_edges` at ``trust_threshold`` on the
        table's category (weighted at least the threshold, into an agent with
        history in the category), and the product of the hop weights, taken
        from the trustor on, is within 1e-12 of ``cum_trust``; ``cum_prob``
        and ``cum_trust`` lie in [0, 1], and every trustee row's advisor has
        a row.  Each distinct path is walked once, one hop past its longest
        walked prefix; each row then adds only its last hop.  Raises
        InvariantError naming the first row that breaks a rule.
        """
        ptr, dst, weight = env.trusted_edges(self.category, trust_threshold)
        index, trustor, trustee = env.index, self.trustor, self.trustee

        def hop(lo: int, hi: int, a: AgentId, b: AgentId) -> float:
            """The weight of ``a -> b``, whose edges are ``lo:hi``; raise when it is untrusted."""
            j = index.get(b)
            k = hi if j is None else bisect_left(dst, j, lo, hi)
            if k == hi or dst[k] != j:
                raise InvariantError(f"untrusted hop {a!r}->{b!r} on stored path")
            return weight[k]

        # path -> (its hop product, the edge span of its last agent)
        walked = {(): (1.0, 0, 0)}

        def walk(path: tuple[AgentId, ...], agent: AgentId) -> tuple[float, int, int]:
            """Walk ``path`` on from its longest walked prefix, adding each prefix to ``walked``."""
            n = len(path) - 1
            while (seen := walked.get(path[:n])) is None:
                n -= 1
            product, lo, hi = seen
            for end in range(n + 1, len(path) + 1):
                b = path[end - 1]
                if path.index(b) < end - 1:
                    raise InvariantError(f"repeated agent on path of {agent!r}: {path + (agent,)}")
                if b == trustee:
                    raise InvariantError(f"trustee inside path of {agent!r}")
                if end > 1:
                    product *= hop(lo, hi, path[end - 2], b)
                elif b != trustor:
                    raise InvariantError(f"path of {agent!r} does not start at the trustor")
                i = index.get(b)
                lo, hi = (0, 0) if i is None else (ptr[i], ptr[i + 1])
                walked[path[:end]] = seen = (product, lo, hi)
            return seen

        root = self.rows.get(trustor)
        if root is None or root.path != ():
            raise InvariantError(f"trustor {trustor!r} has no row with the empty path")
        for row in self.rows.values():
            agent, path = row.agent, row.path
            product, lo, hi = walked.get(path) or walk(path, agent)
            if agent in path:
                raise InvariantError(f"repeated agent on path of {agent!r}: {path + (agent,)}")
            if not (0.0 <= row.cum_prob <= 1.0) or not (0.0 <= row.cum_trust <= 1.0):
                raise InvariantError(f"cumulative values out of range for {agent!r}")
            if path:
                # hop(lo, hi, path[-1], agent), inlined: this runs once per row
                j = index.get(agent)
                k = hi if j is None else bisect_left(dst, j, lo, hi)
                if k == hi or dst[k] != j:
                    raise InvariantError(f"untrusted hop {path[-1]!r}->{agent!r} on stored path")
                product *= weight[k]
            elif agent != trustor:
                raise InvariantError(f"path of {agent!r} does not start at the trustor")
            if abs(product - row.cum_trust) > 1e-12:
                raise InvariantError(f"cum_trust of {agent!r} diverges from its path product")
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


def _consultation(
    terms: Sequence[tuple[int, float, float, float]], ordered: Sequence[int], rate: float
) -> list[float]:
    """Consultation probabilities of ``ordered`` (ascending indices, non-empty), in that order.

    Each neighbour's raw term is log(1 + n) / log(1 + max n) times
    exp(-rate * (now - its last time)); the terms are normalized by
    their sum, or made uniform when they sum to 0.  ``terms`` is
    :meth:`Environment.consultation_terms`, which holds each agent's
    count, log and exp, so a call does no log or exp of its own: the
    largest count's cached log is log(1 + max n), and each raw term is the
    same float operations in the same order as the formula.  When every
    neighbour's exp is below the normal floats, the exps are taken from the
    newest neighbour's last time instead: the same split, without the underflow.
    """
    found = [terms[i] for i in ordered]
    top_count, top, _, _ = max(found)
    if top_count > 0:
        raw = [volume / top * recency for _, volume, recency, _ in found]
        total = sum(raw)
        # A raw term is at most its exp, so only a small sum can hide an underflow.
        if total < _TINY * len(raw) and max(term[2] for term in found) < _TINY:
            newest = max(term[3] for term in found)
            raw = [v / top * math.exp(-rate * (newest - last)) for _, v, _, last in found]
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
    number raises ValueError).  The agent and every neighbour must be
    agents of ``env`` (UnknownAgentError); the neighbour set must be
    non-empty and repeat no agent (ValueError).  Callers are expected to
    pass neighbours that qualify under :meth:`Environment.trusted_edges`.
    """
    index = env.index
    for a in (agent, *neighbours):
        if a not in index:
            raise UnknownAgentError(a)
    if not neighbours:
        raise ValueError("neighbour set must be non-empty")
    ordered = sorted(set(neighbours))
    if len(ordered) != len(neighbours):
        raise ValueError("neighbour set repeats an agent")
    terms = env.consultation_terms(category, recency_rate)
    return dict(zip(ordered, _consultation(terms, [index[a] for a in ordered], recency_rate)))


@dataclass(slots=True)
class _Prefix:
    """One node of the index over stored paths, holding the one ``path`` tuple it stands for.

    ``agents`` are the reached agents (by index) whose stored path is
    exactly this one; ``branches`` maps each next hop ever stored under it
    to the longer path's node.  Stored paths are not rewritten when an
    ancestor is re-attached, so the index follows them, stale chains
    included.
    """

    path: tuple[AgentId, ...]
    agents: set[int] = field(default_factory=set)
    branches: dict[int, "_Prefix"] = field(default_factory=dict)


def find_paths(
    env: Environment,
    log: Sequence[Interaction],
    trustor: AgentId,
    trustee: AgentId,
    category: TaskCategory,
    config: TrustConfig,
) -> PropagationTable:
    """Best-first search for trust propagation paths from trustor to trustee.

    Only ``env`` is read; ``log`` is ignored.  ``evaluate`` runs it only
    under ``search_steps``; without it, it runs :func:`settle_paths`, which
    reaches the same agents with the same trust, and this table stays what
    the CLI ``paths`` command prints.
    ``expansions`` counts the agents popped and expanded, an agent once per
    chain it was attached on, and ``reattachments`` the moves onto a chain
    of more trust.

    Each step expands the frontier agent with the largest cum_prob * cum_trust
    (ties go to the lexicographically smallest agent id), taken from a heap
    whose stale entries are skipped.  Expanding an agent considers the
    trustee, which yields a path record when the agent has rated it on the
    category, and the agent's qualifying neighbours: an unvisited one is
    attached as a child; a visited one is re-attached when the new chain
    carries strictly more trust and introduces no loop.  A hop into an
    agent the trustor trusts directly is skipped unless it is the trustor's
    own expansion.  Re-attaching rescales the rows of the old sibling
    subtrees; each rescaled frontier row is pushed once per expansion, with
    its final key, so a step costs O(qualifying neighbours · log frontier)
    plus the rows its re-attachments rescale.  The search stops when the
    frontier empties or the step budget runs out, and records which in
    ``stop_reason``.

    The search runs on agent indices, whose order is id order, so every
    tie breaks as it would on ids.  Lists by index hold each agent's
    cum_prob, cum_trust (-1: no row) and stored path's :class:`_Prefix`
    node, and a dict of indices the row order.  A lone attached neighbour
    takes probability 1.0 unconsulted: every branch of the consultation
    gives one neighbour exactly that.  Rows are made once, at the return.
    Nothing per-snapshot is derived again per expansion: the threshold and
    the recency rate are checked once per search (a bad one raises
    ValueError), the qualifying neighbours of an agent are one slice of
    :meth:`Environment.trusted_edges` (int lists, and an ``array('d')`` of
    their weights), the consultation probabilities come
    from :meth:`Environment.consultation_terms`, and the trustee's advisors
    on the category come from one :meth:`Environment.advisor_ratings` call.
    The finished table goes through :meth:`PropagationTable.check`.
    """
    index = env.index
    if trustor not in index:
        raise UnknownAgentError(trustor)
    if trustee not in index:
        raise UnknownAgentError(trustee)
    if trustor == trustee:
        raise ValueError("trustor and trustee must differ")

    table = PropagationTable(
        trustor=trustor, trustee=trustee, category=category, eval_time=env.snapshot_time
    )
    threshold, rate = config.trust_threshold, config.recency_rate
    ptr, dst, weight = env.trusted_edges(category, threshold)
    terms = env.consultation_terms(category, rate)
    ids = env.ids
    root, target = index[trustor], index[trustee]
    advisors = env.advisor_ratings(target, category)
    n = len(ids)
    cum_prob, cum_trust, node_of = [0.0] * n, [-1.0] * n, [None] * n
    cum_prob[root] = cum_trust[root] = 1.0
    node_of[root] = _Prefix((), {root})
    order = {root: None}  # the agents with a row, in row order
    # Never attached: the trustee, and past the trustor's own expansion
    # every agent the trustor trusts directly.
    excluded_first = {target}
    excluded = excluded_first.union(dst[ptr[root] : ptr[root + 1]])
    # advisor -> its path when last expanded, in discovery order
    found: dict[int, tuple[AgentId, ...]] = {}
    steps = config.search_steps
    expansions = reattachments = 0
    frontier = {root}
    heap = [(-1.0, root)]
    heappush, heappop = heapq.heappush, heapq.heappop
    moved: set[int] = set()

    while frontier:
        if steps is not None and expansions >= steps:
            table.stop_reason = "steps"
            break
        # Lazy deletion: an entry is live while its agent is on the frontier
        # with that key; every expansion pushes each key it changed.
        while True:
            key, current = heappop(heap)
            if current in frontier and key == -(cum_prob[current] * cum_trust[current]):
                break
        frontier.discard(current)
        expansions += 1
        node, trust = node_of[current], cum_trust[current]
        child = node.branches.get(current)
        path = node.path + (ids[current],) if child is None else child.path

        if current in advisors:
            found[current] = path
        skip = excluded if current != root else excluded_first
        attach, hop_trust = [], []
        for k in range(ptr[current], ptr[current + 1]):
            nbr = dst[k]
            if nbr in skip:
                continue
            held, t = cum_trust[nbr], trust * weight[k]
            # Attach a new agent; re-attach one with less trust that is not on this path.
            if held >= t or held >= 0.0 and ids[nbr] in path:
                continue
            if held >= 0.0:
                reattachments += 1
                # Drop nbr's row and rescale the rows stored under its old path,
                # past any hop through nbr; none when its cum_prob was 1.
                del order[nbr]
                moved.discard(nbr)
                old = node_of[nbr]
                old.agents.discard(nbr)
                if cum_prob[nbr] < 1.0:
                    factor = 1.0 / (1.0 - cum_prob[nbr])
                    stack = [old]
                    while stack:
                        old = stack.pop()
                        for other in old.agents:
                            p = cum_prob[other] * factor
                            cum_prob[other] = p if p < 1.0 else 1.0
                        moved |= old.agents
                        if old.branches:
                            stack.extend([sub for hop, sub in old.branches.items() if hop != nbr])
            attach.append(nbr)
            hop_trust.append(t)

        if attach:
            # Read after the re-attachments, which may have rescaled this row.
            parent_prob = cum_prob[current]
            if child is None:
                child = node.branches[current] = _Prefix(path)
            values = _consultation(terms, attach, rate) if len(attach) > 1 else (1.0,)
            agents = child.agents
            for nbr, value, t in zip(attach, values, hop_trust):
                p = parent_prob * value
                cum_prob[nbr], cum_trust[nbr], node_of[nbr] = p, t, child
                order[nbr] = None
                agents.add(nbr)
                frontier.add(nbr)
                heappush(heap, (-(p * t), nbr))
        if moved:
            # Rows rescaled by the re-attachments: one entry each, with the final key.
            for other in moved & frontier:
                heappush(heap, (-(cum_prob[other] * cum_trust[other]), other))
            moved.clear()

    table.rows = {
        ids[a]: TableRow(ids[a], cum_prob[a], cum_trust[a], node_of[a].path) for a in order
    }
    table.trustee_rows = [TrusteeRow(ids[a], advisors[a], path) for a, path in found.items()]
    table.expansions, table.reattachments = expansions, reattachments
    table.check(env, threshold)
    return table


@dataclass
class SettledPaths:
    """The tree of best chains that :func:`settle_paths` settles from the trustor.

    Only chains whose product lies above ``path_threshold`` are settled:
    the trustor, then agents whose best product exceeds it, by falling
    product, until every advisor is decided.  Lists by agent index:
    ``trust`` holds each settled agent's chain product, each agent left on
    the heap its best product found so far (above the threshold), and -1.0
    for the rest; ``hops`` holds the chain's hop count and ``parent`` the
    agent before it (-1 for the trustor and agents never pushed).
    ``order`` lists the settled agents in settle order, the trustor first:
    a prefix of the order a search run to the end would settle in.
    ``advisors`` maps each agent that rated the trustee on the category to
    its plain mean rating, as :meth:`Environment.advisor_ratings` does.
    ``stopped_at`` is the heap's top product when the search stopped, None
    when the heap emptied.  ``reached`` counts the trustor and every agent
    the kept edges lead to from it without passing the trustee, settled or
    not (the closed rule never shrinks this set: what the trustor trusts
    directly is one hop away), and ``discovered`` the advisors among them;
    both are counted over the kept edges' components, not from the tree.
    """

    trustor: AgentId
    trustee: AgentId
    category: TaskCategory
    ids: Sequence[AgentId]
    path_threshold: float
    order: list[int]
    trust: list[float]
    hops: list[int]
    parent: list[int]
    advisors: dict[int, float]
    stopped_at: Optional[float]
    reached: int
    discovered: int

    def chain(self, agent: int) -> list[AgentId]:
        """The ids of the best chain from the trustor to settled ``agent``, both included."""
        ids, parent, chain = self.ids, self.parent, []
        while agent >= 0:
            chain.append(ids[agent])
            agent = parent[agent]
        chain.reverse()
        return chain

    def retained(self) -> list[tuple[int, float, float]]:
        """(advisor index, rating, path trust) of each advisor past the filter, in settle order.

        Every settled agent but the trustor lies above the path threshold;
        the trustor's product 1.0 passes unless the threshold is 1.
        """
        advisors, trust, floor = self.advisors, self.trust, self.path_threshold
        return [
            (a, advisors[a], trust[a]) for a in self.order if a in advisors and trust[a] > floor
        ]

    def check(self, env: Environment, trust_threshold: float) -> None:
        """Assert that the settled agents form a tree of kept edges from the trustor.

        The trustor is settled first, with product 1.0 and no parent.  Every
        other agent is settled once, after its parent, with one hop more and
        a product above ``path_threshold``; the hop is an edge of
        :meth:`Environment.trusted_edges` at ``trust_threshold`` on the
        category, into neither the trustee nor, past the trustor's own hops,
        an agent the trustor trusts directly; and the parent's product times
        the hop's weight is within 1e-12 of the agent's.  Every advisor left
        unsettled is decided: its ``trust`` is at or below the threshold,
        and so is ``stopped_at`` times its largest kept in-edge weight
        (:meth:`Environment.trusted_in_weight`).  No more agents are
        settled than ``reached``, and no more advisors discovered than
        there are, nor fewer than are settled.  One pass over ``order``
        with one ``bisect`` per agent, and one over the advisors:
        O(settled · log degree + advisors).
        Raises InvariantError naming the first agent that breaks a rule.
        """
        ptr, dst, weight = env.trusted_edges(self.category, trust_threshold)
        ids, trust, hops, parent, order = self.ids, self.trust, self.hops, self.parent, self.order
        root, target, floor = env.index[self.trustor], env.index[self.trustee], self.path_threshold
        if not order or order[0] != root or parent[root] != -1 or trust[root] != 1.0:
            raise InvariantError(f"trustor {self.trustor!r} is not settled first at product 1")
        settled = bytearray(len(ids))
        settled[root] = 1
        for v in order[1:]:
            u = parent[v]
            if settled[v]:
                raise InvariantError(f"{ids[v]!r} is settled twice")
            if u < 0 or not settled[u] or hops[v] != hops[u] + 1:
                raise InvariantError(f"parent of {ids[v]!r} is not settled before it, one hop less")
            if not trust[v] > floor:
                raise InvariantError(f"{ids[v]!r} is settled at or below the path threshold")
            settled[v] = 1
            lo, hi = ptr[u], ptr[u + 1]
            k = bisect_left(dst, v, lo, hi)
            if k == hi or dst[k] != v:
                raise InvariantError(f"untrusted hop {ids[u]!r}->{ids[v]!r} in the settled tree")
            if abs(trust[u] * weight[k] - trust[v]) > 1e-12:
                raise InvariantError(f"trust of {ids[v]!r} is not its parent's times the hop")
        if settled[target]:
            raise InvariantError(f"trustee {self.trustee!r} is settled")
        in_weight, stop = env.trusted_in_weight(self.category, trust_threshold), self.stopped_at
        kept = 0
        for a in self.advisors:
            if settled[a]:
                kept += 1
                continue
            if trust[a] > floor:
                raise InvariantError(
                    f"advisor {ids[a]!r} is left unsettled above the path threshold"
                )
            if stop is not None and stop * in_weight[a] > floor:
                raise InvariantError(
                    f"advisor {ids[a]!r} could still rise above the path threshold"
                )
        for v in dst[ptr[root] : ptr[root + 1]]:
            if settled[v] and parent[v] != root:
                raise InvariantError(f"{ids[v]!r}, trusted directly, is entered past the trustor")
        if len(order) > self.reached:
            raise InvariantError(f"{len(order)} agents settled, but only {self.reached} reached")
        if self.discovered > len(self.advisors):
            raise InvariantError(
                f"{self.discovered} advisors discovered, but only {len(self.advisors)} exist"
            )
        if self.discovered < kept:
            raise InvariantError(f"{self.discovered} advisors discovered, but {kept} are settled")


def settle_paths(
    env: Environment,
    trustor: AgentId,
    trustee: AgentId,
    category: TaskCategory,
    config: TrustConfig,
) -> SettledPaths:
    """Label-setting search (Dijkstra, 1959): each agent's best chain above the path threshold.

    A chain follows the same qualifying edges as :func:`find_paths`: the
    edges of :meth:`Environment.trusted_edges` at the config's threshold,
    never into the trustee, and past the trustor's own hops never into an
    agent the trustor trusts directly.  An agent's label is its chain's
    (product of hop weights, hops), the product multiplied from the trustor
    on as ``cum_trust`` is; the heap pops the largest product, then the
    fewest hops, then the smallest agent index, and the popped agent is
    settled with that label.  Weights lie in [0, 1], so extending a chain
    never improves its label, and the settled label is the best over every
    qualifying simple path: the one :func:`oracles.best_paths` enumerates.
    Each agent keeps one parent index; nothing is re-attached or rescaled.

    A relaxation whose product is at or below the config's
    ``path_threshold`` pushes nothing: products never rise along a chain,
    so nothing past it could be kept, and every agent whose best product
    lies above the threshold is still settled with the same label, parent
    and settle order.  Only the trustee's advisors (the trustor aside,
    which is settled first) reach the answer, so the search stops once
    each is decided: settled, or unable to rise above the threshold.  An
    unsettled advisor is so when its best product so far is at or below
    the threshold, and so is the heap's top product times its largest kept
    in-edge weight (:meth:`Environment.trusted_in_weight`): the heap pops
    in falling product, so no chain through an unsettled agent can carry
    more.  A stale top only delays the stop.  The settled agents are then
    a prefix of those a search run to the end would settle, with the same
    labels, and every kept advisor is among them.  ``reached`` and
    ``discovered`` are counted by :meth:`reach.Reach.count`, a walk over
    the condensation of :meth:`Environment.trusted_reach` (built on the
    first call per category and threshold), from the trustor's component
    and around the trustee.  When the trustee is a strong articulation
    point of its component, they are counted instead by a breadth-first
    sweep over :meth:`Environment.trusted_arcs`, one numpy step per level,
    seeded by the settled agents and those left on the heap (they lie in
    the reach) with the trustee marked seen in advance.  The cost is
    O(relaxations above the threshold before the stop · log heap) plus
    O(condensation arcs out of the components reached), or O(kept edges)
    per level of the sweep.  ``config``'s ``search_steps`` and recency
    rate are not read: no budget stops the search, and it ranks by trust
    alone.  The tree goes through :meth:`SettledPaths.check`.
    """
    index = env.index
    if trustor not in index:
        raise UnknownAgentError(trustor)
    if trustee not in index:
        raise UnknownAgentError(trustee)
    if trustor == trustee:
        raise ValueError("trustor and trustee must differ")

    threshold, floor = config.trust_threshold, config.path_threshold
    ptr, dst, weight = env.trusted_edges(category, threshold)
    root, target = index[trustor], index[trustee]
    advisors = env.advisor_ratings(target, category)
    in_weight = env.trusted_in_weight(category, threshold)
    n = len(env.ids)
    trust, hops, parent = [-1.0] * n, [0] * n, [-1] * n
    # closed: never relaxed again (settled, the trustee, and once the
    # trustor has settled, every agent it trusts directly); settled: popped.
    closed, settled = bytearray(n), bytearray(n)
    closed[target] = 1
    trust[root] = 1.0
    order: list[int] = []
    heap = [(-1.0, 0, root)]
    heappush, heappop = heapq.heappush, heapq.heappop
    # The advisors not settled yet, and the largest weight of a kept edge into one.
    pending = advisors.keys() - {root}
    cap = max(map(in_weight.__getitem__, pending), default=0.0)
    stop = None
    while heap:
        _, h, u = heappop(heap)
        if settled[u]:
            continue
        settled[u] = closed[u] = 1
        order.append(u)
        t, h = trust[u], h + 1
        lo, hi = ptr[u], ptr[u + 1]
        for k in range(lo, hi):
            v = dst[k]
            if closed[v]:
                continue
            p = t * weight[k]
            if p <= floor:
                continue
            held = trust[v]
            if p > held or p == held and h < hops[v]:
                trust[v], hops[v], parent[v] = p, h, u
                heappush(heap, (-p, h, v))
        if u == root:
            for v in dst[lo:hi]:
                closed[v] = 1
        if u in pending:
            pending.discard(u)
            cap = max(map(in_weight.__getitem__, pending), default=0.0)
        # Stop once every advisor is decided: none waits on the heap above
        # the floor, and no chain through an unsettled agent can lift one
        # above it, since none carries more than the heap's top product.
        if heap and -heap[0][0] * cap <= floor and not any(trust[a] > floor for a in pending):
            stop = -heap[0][0]
            break

    # The reach: every agent the kept edges lead to from the trustor, not
    # through the trustee, counted over the components of the kept edges.
    counted = env.trusted_reach(category, threshold).count(root, target, advisors)
    if counted is None:
        # The trustee splits its component: sweep level by level instead.  The
        # settled agents and those left on the heap lie in the reach, so a
        # sweep seeded by all of them finds it, one numpy step per level.
        tails, heads = env.trusted_arcs(category, threshold)
        seen = np.zeros(n, dtype=bool)
        seen[target] = True
        level = np.array(order + [v for _, _, v in heap])
        while len(level):
            seen[level] = True
            front = np.zeros(n, dtype=bool)
            front[level] = True
            level = heads[front[tails]]
            level = level[~seen[level]]
        counted = int(np.count_nonzero(seen)) - 1, int(np.count_nonzero(seen[list(advisors)]))
    reached, discovered = counted

    tree = SettledPaths(
        trustor=trustor,
        trustee=trustee,
        category=category,
        ids=env.ids,
        path_threshold=floor,
        order=order,
        trust=trust,
        hops=hops,
        parent=parent,
        advisors=advisors,
        stopped_at=stop,
        reached=reached,
        discovered=discovered,
    )
    tree.check(env, threshold)
    return tree


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


def combine_paths(
    kept: Sequence[tuple[float, float, int]], path_decay: float
) -> Optional[float]:
    """One indirect trust value from the kept paths' (rating, path trust, hops).

    ``hops`` counts the chain trustor -> advisor -> trustee.  Multiple
    paths are averaged with their path trusts as weights, summed in the
    order given.  A single path is discounted by ``path_decay`` per hop.
    Returns None when nothing is kept.
    """
    if not kept:
        return None
    if len(kept) == 1:
        rating, _, hops = kept[0]
        return rating * path_decay**hops
    num = sum(rating * w for rating, w, _ in kept)
    den = sum(w for _, w, _ in kept)
    return num / den


def aggregate(
    table: PropagationTable, path_threshold: float, path_decay: float
) -> Optional[float]:
    """Combine the discovered paths of ``table`` into one indirect trust value.

    The trustee rows that pass the path-trust filter, in discovery order,
    go through :func:`combine_paths`.  Returns None when nothing survives.
    """
    return combine_paths(
        [
            (rating, w, len(table.rows[advisor].path) + 1)
            for advisor, rating, w in retained_paths(table, path_threshold)
        ],
        path_decay,
    )


def aggregate_settled(tree: SettledPaths, path_decay: float) -> Optional[float]:
    """Combine the settled advisors' chains into one indirect trust value.

    The advisors that pass the tree's path-trust filter, in settle order, go
    through :func:`combine_paths`.  Returns None when nothing survives.
    """
    return combine_paths(
        [(rating, w, tree.hops[a] + 1) for a, rating, w in tree.retained()], path_decay
    )
