"""Brute-force references and the comparison suites built on them.

These deliberately re-derive the engine's results by different means:
scans of the raw log instead of the snapshot's statistics, exhaustive
simple-path enumeration instead of best-first search, and a dense matrix
pipeline instead of the sparse one.  They stay independent of the engine
code paths they check.
"""

from __future__ import annotations

import graphlib
import math
import sys
from typing import Optional, Sequence

import numpy as np

from .core import (
    AgentId,
    AgentProfile,
    Environment,
    Interaction,
    TaskCategory,
    TrustConfig,
    build_environment,
)
from .indirect import aggregate, aggregate_settled, find_paths, settle_paths
from .reputation import build_reputation
from .simulate import SplitMix64, agent_name, category_name


def is_acyclic(env: Environment) -> bool:
    graph: dict[AgentId, set[AgentId]] = {a: set() for a in env.agents}
    for src, dst in env.edges:
        graph[src].add(dst)
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
        return True
    except graphlib.CycleError:
        return False


def oracle_direct_trust(
    log: Sequence[Interaction],
    trustor: AgentId,
    trustee: AgentId,
    category: TaskCategory,
    eval_time: float,
    decay_rate: float,
) -> tuple[Optional[float], str, int, int]:
    """Direct trust by a scan of the log: (value, source, n_same, n_other).

    Same-category ratings before ``eval_time`` are combined by their mean
    weighted with exp(-decay_rate * age), the age counted from the newest
    rating when its weight is not a normal float; without any, each other
    category is averaged that way and the per-category means are averaged
    unweighted.
    """
    per_cat: dict[TaskCategory, list[Interaction]] = {}
    for r in log:
        if r.trustor == trustor and r.trustee == trustee and r.time < eval_time:
            per_cat.setdefault(r.category, []).append(r)

    def mean(records: list[Interaction]) -> float:
        newest = max(r.time for r in records)
        origin = eval_time
        if math.exp(-decay_rate * (eval_time - newest)) < sys.float_info.min:
            origin = newest
        weights = [math.exp(-decay_rate * (origin - r.time)) for r in records]
        return sum(r.rating * w for r, w in zip(records, weights)) / sum(weights)

    n_other = sum(len(v) for cat, v in per_cat.items() if cat != category)
    if category in per_cat:
        return mean(per_cat[category]), "same_category", len(per_cat[category]), n_other
    if per_cat:
        values = [mean(per_cat[cat]) for cat in sorted(per_cat)]
        return sum(values) / len(values), "cross_category", 0, n_other
    return None, "none", 0, 0


def oracle_category_activity(
    log: Sequence[Interaction], category: TaskCategory, eval_time: float
) -> tuple[dict[AgentId, int], dict[AgentId, float], float]:
    """Per-agent interaction count and latest time on ``category``, and dt_min.

    dt_min is the number of interactions before ``eval_time`` divided by the
    number of agents taking part in them, floored at 1.
    """
    counts: dict[AgentId, int] = {}
    last: dict[AgentId, float] = {}
    total = 0
    for r in log:
        if r.category != category or r.time >= eval_time:
            continue
        total += 1
        for agent in (r.trustor, r.trustee):
            counts[agent] = counts.get(agent, 0) + 1
            if agent not in last or r.time > last[agent]:
                last[agent] = r.time
    return counts, last, max(total / len(counts), 1.0) if counts else 1.0


def oracle_advisor_ratings(
    log: Sequence[Interaction], trustee: AgentId, category: TaskCategory, eval_time: float
) -> dict[AgentId, float]:
    """Each advisor's plain mean rating of ``trustee`` on ``category``."""
    rated: dict[AgentId, list[float]] = {}
    for r in log:
        if r.trustee == trustee and r.category == category and r.time < eval_time:
            rated.setdefault(r.trustor, []).append(r.rating)
    return {advisor: sum(values) / len(values) for advisor, values in rated.items()}


def best_paths(
    env: Environment,
    trustor: AgentId,
    trustee: AgentId,
    category: TaskCategory,
    trust_threshold: float,
) -> dict[AgentId, tuple[float, int, tuple[AgentId, ...]]]:
    """Each reachable agent's best qualifying simple path, by exhaustive enumeration.

    A qualifying path starts at the trustor, never enters the trustee, enters
    only agents with history in ``category`` by edges weighted at least
    ``trust_threshold``, and past its first hop never enters an agent the
    trustor trusts directly.  Per agent the label (product, hops, chain)
    keeps the largest product of edge weights, then the fewest hops, then
    the smallest chain; the trustor's own label is (1.0, 0, (trustor,)).
    """
    if len(env.agents) > 12:
        raise ValueError("oracle limited to environments of at most 12 agents")
    if trustor == trustee or trustor not in env.agents or trustee not in env.agents:
        raise ValueError("trustor and trustee must be distinct known agents")
    # node -> {neighbour: weight} from the edge view, not the engine's neighbour caches.
    out: dict[AgentId, dict[AgentId, float]] = {a: {} for a in env.agents}
    for (src, dst), stats in env.edges.items():
        out[src][dst] = stats.weight
    trusted_directly = {b for b, weight in out[trustor].items() if weight >= trust_threshold}
    best: dict[AgentId, tuple[float, int, tuple[AgentId, ...]]] = {}

    def walk(node: AgentId, chain: tuple[AgentId, ...], product: float) -> None:
        seen = best.get(node)
        if seen is None or (-product, len(chain), chain) < (-seen[0], len(seen[2]), seen[2]):
            best[node] = (product, len(chain) - 1, chain)
        for nbr, weight in out[node].items():
            if nbr == trustee or nbr in chain:
                continue
            if weight < trust_threshold or category not in env.agents[nbr].completed:
                continue
            if node != trustor and nbr in trusted_directly:
                continue
            walk(nbr, chain + (nbr,), product * weight)

    walk(trustor, (trustor,), 1.0)
    return best


def oracle_indirect(
    env: Environment,
    log: Sequence[Interaction],
    trustor: AgentId,
    trustee: AgentId,
    category: TaskCategory,
    config: TrustConfig,
) -> Optional[float]:
    """Indirect trust from the labels of :func:`best_paths`.

    Each agent that rated the trustee on the category (per the log) is an
    advisor; its path is its best qualifying path plus the final hop, kept
    when the path product passes ``path_threshold``.  Aggregation mirrors
    the engine rule.
    """
    labels = best_paths(env, trustor, trustee, category, config.trust_threshold)
    ratings = oracle_advisor_ratings(log, trustee, category, env.snapshot_time)
    kept = [
        (ratings[advisor], product, hops + 1)
        for advisor, (product, hops, _) in sorted(labels.items())
        if advisor in ratings and product > config.path_threshold
    ]
    if not kept:
        return None
    if len(kept) == 1:
        rating, _, hops = kept[0]
        return rating * config.path_decay**hops
    return sum(r * w for r, w, _ in kept) / sum(w for _, w, _ in kept)


def oracle_reputation(
    env: Environment, config: TrustConfig
) -> tuple[tuple[AgentId, ...], np.ndarray]:
    """Dense re-derivation of the reputation pipeline.

    Rebuilds the node set, the propagation matrix, and the damped power
    iteration with plain numpy arrays, then max-normalizes.  Returns the
    node order, a tuple as a model holds it, and the normalized vector.
    """
    threshold = config.trust_threshold
    members = tuple(
        sorted({dst for (_, dst), stats in env.edges.items() if stats.weight >= threshold})
    )
    n = len(members)
    if n > 200:
        raise ValueError("oracle limited to node sets of at most 200 agents")
    if n == 0:
        return (), np.zeros(0)
    pos = {a: i for i, a in enumerate(members)}

    matrix = np.zeros((n, n))
    for a in members:
        i = pos[a]
        targets = [
            (pos[b], env.edges[(a, b)].weight)
            for b in env.agents
            if b != a and (a, b) in env.edges and b in pos
        ]
        if not targets:
            if n == 1:
                matrix[i, i] = 1.0
            else:
                for j in range(n):
                    if j != i:
                        matrix[i, j] = 1.0 / (n - 1)
            continue
        r_max = max(w for _, w in targets)
        trusted = [(j, w) for j, w in targets if w >= threshold]
        untrusted = [(j, w) for j, w in targets if w < threshold]
        if trusted:
            total = sum(w for _, w in trusted)
            for j, w in trusted:
                matrix[i, j] += w * r_max / total if total > 0 else 0.0
        elif n > 1:
            for j in range(n):
                if j != i:
                    matrix[i, j] += r_max / (n - 1)
        if untrusted:
            for j, _ in untrusted:
                matrix[i, j] += (1.0 - r_max) / len(untrusted)
        elif n > 1:
            for j in range(n):
                if j != i:
                    matrix[i, j] += (1.0 - r_max) / (n - 1)

    uniform = np.full(n, 1.0 / n)
    vec = uniform.copy()
    for _ in range(config.max_iterations):
        nxt = config.damping * matrix.T.dot(vec) + (1.0 - config.damping) * uniform
        delta = float(np.abs(nxt - vec).sum())
        vec = nxt
        if delta <= config.tolerance:
            break
    return members, vec / vec.max()


def _random_world(
    rng: SplitMix64, n: int, categories: list[TaskCategory], m: int, forward: bool
) -> tuple[list[AgentProfile], list[Interaction]]:
    """``n`` agents able in every category and ``m`` records drawn among them.

    Each record draws, in this order, its trustor i, its trustee j != i, its
    rating, its category and its time in [0, 100); with ``forward`` the pair
    is ordered so that i < j.
    """
    agents = [agent_name(i, n) for i in range(n)]
    profiles = [
        AgentProfile(id=a, completed=frozenset(), able=frozenset(categories)) for a in agents
    ]
    log = []
    for _ in range(m):
        i = rng.below(n)
        j = rng.below(n - 1)
        if j >= i:
            j += 1
        if forward and i > j:
            i, j = j, i
        log.append(
            Interaction(
                trustor=agents[i],
                trustee=agents[j],
                rating=rng.uniform(),
                category=categories[rng.below(len(categories))],
                time=rng.uniform() * 100.0,
            )
        )
    return profiles, log


def indirect_instance(
    seed: int, max_agents: int = 8, max_categories: int = 3
) -> tuple[list[AgentProfile], list[Interaction], AgentId, AgentId, TaskCategory]:
    """Seeded random instance for the indirect comparison.

    Even seeds orient every interaction from a lower to a higher agent
    index, which forces an acyclic environment; odd seeds are unconstrained.
    """
    rng = SplitMix64(seed)
    n = 4 + rng.below(max_agents - 3)
    n_cats = 1 + rng.below(max_categories)
    m = 2 * n + rng.below(2 * n)
    categories = [category_name(i) for i in range(n_cats)]
    profiles, log = _random_world(rng, n, categories, m, forward=seed % 2 == 0)
    return profiles, log, profiles[0].id, profiles[-1].id, categories[0]


# The oracle gates: the indirect agreement on every instance, the reputation
# agreement per entry, and how far a propagation matrix row may sum from 1.
INDIRECT_TOLERANCE = 1e-9
REPUTATION_TOLERANCE = 1e-8
ROW_SUM_TOLERANCE = 1e-9


def compare_indirect(
    seeds: Sequence[int],
    config: Optional[TrustConfig] = None,
    max_agents: int = 8,
    max_categories: int = 3,
) -> dict:
    """Both engine searches vs the exhaustive oracle over seeded instances; returns a report.

    Per instance the oracle's value is compared with two engine values:
    :func:`find_paths` through :func:`aggregate`, and :func:`settle_paths`
    through :func:`aggregate_settled`, which is what an unbudgeted
    ``evaluate`` computes.  Every instance, cyclic or not, must agree within
    ``INDIRECT_TOLERANCE`` on both.  ``mismatches`` counts the instances
    where either does not and ``deviations`` lists them, with both engine
    values (``engine`` and ``settled``) and the larger ``deviation`` (None
    when either engine value is on one side only); ``max_deviation`` is the
    largest numeric one.  ``acyclic`` and ``cyclic`` count the instances of
    each kind, as a record of coverage.  A config that sets
    ``search_steps`` raises ValueError: a search it stops is not expected to
    match the exhaustive answer.
    """
    cfg = config or TrustConfig()
    if cfg.search_steps is not None:
        raise ValueError("search_steps must be null for an oracle comparison")
    report = {
        "instances": 0,
        "acyclic": 0,
        "cyclic": 0,
        "mismatches": 0,
        "max_deviation": 0.0,
        "with_paths": 0,
        "deviations": [],
    }
    for seed in seeds:
        profiles, log, trustor, trustee, category = indirect_instance(
            seed, max_agents, max_categories
        )
        env = build_environment(log, 100.0, cfg.decay_rate, profiles)
        acyclic = is_acyclic(env)
        engine = aggregate(
            find_paths(env, log, trustor, trustee, category, cfg),
            cfg.path_threshold,
            cfg.path_decay,
        )
        settled = aggregate_settled(
            settle_paths(env, trustor, trustee, category, cfg), cfg.path_decay
        )
        reference = oracle_indirect(env, log, trustor, trustee, category, cfg)
        report["instances"] += 1
        report["acyclic" if acyclic else "cyclic"] += 1
        if engine is None and settled is None and reference is None:
            continue
        report["with_paths"] += 1
        deviation = None
        if engine is not None and settled is not None and reference is not None:
            deviation = max(abs(engine - reference), abs(settled - reference))
            report["max_deviation"] = max(report["max_deviation"], deviation)
        if deviation is None or deviation > INDIRECT_TOLERANCE:
            report["mismatches"] += 1
            report["deviations"].append(
                {
                    "seed": seed,
                    "acyclic": acyclic,
                    "engine": engine,
                    "settled": settled,
                    "oracle": reference,
                    "deviation": deviation,
                }
            )
    return report


def reputation_instance(
    seed: int, max_agents: int = 50
) -> tuple[list[AgentProfile], list[Interaction]]:
    rng = SplitMix64(seed)
    n = 10 + rng.below(max(max_agents - 9, 1))
    return _random_world(rng, n, [category_name(i) for i in range(2)], 4 * n, forward=False)


def compare_reputation(
    seeds: Sequence[int],
    config: Optional[TrustConfig] = None,
    max_agents: int = 50,
) -> dict:
    """Sparse engine pipeline vs dense oracle over seeded instances.

    A node-set mismatch has no deviation.
    """
    cfg = config or TrustConfig()
    report = {
        "instances": 0,
        "mismatches": 0,
        "max_deviation": 0.0,
        "max_row_sum_error": 0.0,
        "max_iterations_used": 0,
        "all_converged": True,
        "failures": [],
    }
    for seed in seeds:
        profiles, log = reputation_instance(seed, max_agents)
        env = build_environment(log, 100.0, cfg.decay_rate, profiles)
        model = build_reputation(env, cfg)
        nodes, reference = oracle_reputation(env, cfg)
        report["instances"] += 1
        report["max_iterations_used"] = max(
            report["max_iterations_used"], model.iterations_used
        )
        report["all_converged"] = report["all_converged"] and model.converged
        problems = []
        if model.nodes != nodes:
            problems.append("node sets differ")
        else:
            deviation = (
                float(np.max(np.abs(model.vector - reference))) if nodes else 0.0
            )
            report["max_deviation"] = max(report["max_deviation"], deviation)
            if deviation > REPUTATION_TOLERANCE:
                problems.append(f"vector deviation {deviation}")
        if model.nodes:
            matrix, n = model.matrix, len(model.nodes)
            rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
            row_sums = np.bincount(rows, weights=matrix.data, minlength=n) + matrix.spread
            row_err = float(np.max(np.abs(row_sums - 1.0)))
            report["max_row_sum_error"] = max(report["max_row_sum_error"], row_err)
            if row_err > ROW_SUM_TOLERANCE:
                problems.append(f"row sum error {row_err}")
        if problems:
            report["mismatches"] += 1
            report["failures"].append({"seed": seed, "problems": problems})
    return report
