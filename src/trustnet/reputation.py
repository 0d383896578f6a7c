"""Reputation: damped power iteration over a trust-propagation matrix.

Agents that received at least one trusted rating form the node set.  Each
node splits its unit of reputation: a share equal to its strongest outgoing
weight goes to trusted neighbours proportionally to their weights, the rest
is spread over the remaining recipients.  The stationary vector of the
damped chain, max-normalized to [0, 1], is the reputation.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from .core import AgentId, Environment, TrustConfig


@dataclass(frozen=True, eq=False)
class PropagationMatrix:
    """Row-stochastic propagation matrix M = explicit + diag(spread)(J - I)/(n - 1).

    ``explicit`` holds only the out-edge shares.  ``spread[i]`` is the mass
    row i sends evenly to each of the other n - 1 nodes, so the uniform part
    of a row costs one scalar instead of n - 1 entries.
    """

    explicit: sparse.csr_matrix
    spread: np.ndarray

    @property
    def nnz(self) -> int:
        return self.explicit.nnz

    def toarray(self) -> np.ndarray:
        n = self.explicit.shape[0]
        others = (np.ones((n, n)) - np.eye(n)) / max(n - 1, 1)
        return self.explicit.toarray() + self.spread[:, None] * others


# The config fields a reputation model depends on.
MODEL_PARAMS = ("trust_threshold", "damping", "tolerance", "max_iterations", "pagerank_seconds")


def model_params(config: TrustConfig) -> dict:
    """The values of ``MODEL_PARAMS`` in ``config``, as a model records them."""
    return {name: getattr(config, name) for name in MODEL_PARAMS}


@dataclass
class ReputationModel:
    """Converged reputation over the node set.

    ``vector`` is max-normalized (its largest entry is 1 when nodes exist);
    ``mean_reputation`` is its mean and doubles as the newcomer value.
    ``params`` holds the config values the model was built with (see
    :func:`model_params`).  ``matrix`` is the built model's input, kept for
    ``perfbench/scaling.py``; being derivable, it is neither saved (a loaded
    model has None) nor compared.
    """

    nodes: list[AgentId]
    vector: np.ndarray
    iterations_used: int
    converged: bool
    mean_reputation: float
    params: dict
    matrix: Optional[PropagationMatrix] = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReputationModel):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and np.array_equal(self.vector, other.vector)
            and self.iterations_used == other.iterations_used
            and self.converged == other.converged
            and self.mean_reputation == other.mean_reputation
            and self.params == other.params
        )


def reputation_nodes(env: Environment, trust_threshold: float) -> list[AgentId]:
    """Agents with at least one incoming edge of weight >= threshold, sorted."""
    nodes = {
        dst for (_, dst), stats in env.edges.items() if stats.weight >= trust_threshold
    }
    return sorted(nodes)


def propagation_matrix(
    env: Environment, nodes: list[AgentId], trust_threshold: float
) -> PropagationMatrix:
    """Reputation-propagation matrix over ``nodes``.

    Row i: out-edges into the node set share mass r_max (the row's maximum
    weight) proportionally to weight when trusted, and the remaining
    1 - r_max equally among untrusted out-edges; with no untrusted edges the
    remainder is spread uniformly over all other nodes, as is the orphaned
    trusted share when no trusted out-edges exist.  Rows without out-edges
    are uniform over the other nodes (a single-node set keeps its mass).
    """
    n = len(nodes)
    if n == 1:
        # no other node to spread over (edges never loop): it keeps its mass
        return PropagationMatrix(sparse.csr_matrix([[1.0]]), np.zeros(1))
    index = {a: i for i, a in enumerate(nodes)}
    data: list[float] = []
    rows: list[int] = []
    cols: list[int] = []
    spread = np.zeros(n)

    for i, agent in enumerate(nodes):
        out = [
            (index[nbr], env.edges[(agent, nbr)].weight)
            for nbr in env.neighbours(agent)
            if nbr in index
        ]
        if not out:
            spread[i] = 1.0
            continue

        r_max = max(w for _, w in out)
        # A zero trusted total (theta_r = 0, all weights 0) means r_max = 0:
        # the trusted shares are 0 and the row spreads its whole unit.
        total = sum(w for _, w in out if w >= trust_threshold) or 1.0
        n_untrusted = sum(w < trust_threshold for _, w in out)
        rows += [i] * len(out)
        cols += [j for j, _ in out]
        data += [
            w * r_max / total if w >= trust_threshold else (1.0 - r_max) / n_untrusted
            for _, w in out
        ]
        if n_untrusted == len(out):
            spread[i] += r_max
        if n_untrusted == 0:
            spread[i] += 1.0 - r_max

    explicit = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
    return PropagationMatrix(explicit, spread)


def pagerank(
    matrix: PropagationMatrix,
    damping: float,
    tolerance: float,
    max_iterations: int,
    time_budget: Optional[float] = None,
) -> tuple[np.ndarray, int, bool]:
    """Damped power iteration: v <- damping * M^T v + (1 - damping) * e.

    M^T v = explicit^T v + ((s.v) 1 - s*v) / (n - 1) for the spread s.
    Starts from the uniform vector e and stops when the L1 change drops to
    ``tolerance``, the iteration cap is hit, or the wall-clock budget runs
    out.  Returns (vector, iterations, converged).
    """
    n = matrix.explicit.shape[0]
    if n == 0:
        raise ValueError("node set must be non-empty")
    transposed = matrix.explicit.transpose().tocsr()
    share = matrix.spread / max(n - 1, 1)
    uniform = np.full(n, 1.0 / n)
    vec = uniform.copy()
    started = _time.monotonic()
    iterations = 0
    converged = False
    while iterations < max_iterations:
        if time_budget is not None and _time.monotonic() - started >= time_budget:
            break
        spread_in = float(share @ vec) - share * vec
        nxt = damping * (transposed @ vec + spread_in) + (1.0 - damping) * uniform
        iterations += 1
        delta = float(np.abs(nxt - vec).sum())
        vec = nxt
        if delta <= tolerance:
            converged = True
            break
    return vec, iterations, converged


def build_reputation(env: Environment, config: TrustConfig) -> ReputationModel:
    """Construct and converge the reputation model for an environment."""
    nodes = reputation_nodes(env, config.trust_threshold)
    if not nodes:
        return ReputationModel(
            nodes=[],
            vector=np.zeros(0),
            iterations_used=0,
            converged=True,
            mean_reputation=0.5,
            params=model_params(config),
        )
    matrix = propagation_matrix(env, nodes, config.trust_threshold)
    raw, iterations, converged = pagerank(
        matrix,
        config.damping,
        config.tolerance,
        config.max_iterations,
        config.pagerank_seconds,
    )
    vector = raw / raw.max()
    return ReputationModel(
        nodes=nodes,
        vector=vector,
        iterations_used=iterations,
        converged=converged,
        mean_reputation=float(np.mean(vector)),
        params=model_params(config),
        matrix=matrix,
    )


def reputation_of(model: ReputationModel, trustee: AgentId) -> float:
    """Trustee's normalized reputation, or the population mean for outsiders.

    An empty model (no agent ever received a trusted rating) yields the
    neutral prior 0.5.
    """
    if not model.nodes:
        return 0.5
    try:
        idx = model.nodes.index(trustee)
    except ValueError:
        return model.mean_reputation
    return float(model.vector[idx])
