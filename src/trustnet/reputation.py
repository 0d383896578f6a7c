"""Reputation: damped power iteration over a trust-propagation matrix.

Agents that received at least one trusted rating form the node set.  Each
node splits its unit of reputation: a share equal to its strongest outgoing
weight goes to trusted neighbours proportionally to their weights, the rest
is spread over the remaining recipients.  The stationary vector of the
damped chain, max-normalized to [0, 1], is the reputation.
"""

from __future__ import annotations

import bisect
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


# Why a power iteration ended.
STOP_REASONS = ("converged", "iterations", "seconds")

# The config fields a reputation model depends on.
MODEL_PARAMS = ("trust_threshold", "damping", "tolerance", "max_iterations", "pagerank_seconds")


def model_params(config: TrustConfig) -> dict:
    """The values of ``MODEL_PARAMS`` in ``config``, as a model records them."""
    return {name: getattr(config, name) for name in MODEL_PARAMS}


@dataclass
class ReputationModel:
    """Converged reputation over the node set.

    ``vector`` is max-normalized (its largest entry is 1 when nodes exist).
    ``params`` holds the config values the model was built with (see
    :func:`model_params`).  ``stop_reason`` says why the power iteration
    ended: ``"converged"``, or the ``"iterations"`` or ``"seconds"`` budget
    ran out (an empty node set counts as converged).  ``converged`` and
    ``mean_reputation`` are derived from these.  ``matrix`` is the built
    model's input, kept for ``perfbench/scaling.py``; being derivable, it is
    neither saved (a loaded model has None) nor compared.
    """

    nodes: list[AgentId]
    vector: np.ndarray
    iterations_used: int
    params: dict
    stop_reason: str
    matrix: Optional[PropagationMatrix] = None

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def mean_reputation(self) -> float:
        """The mean of ``vector``, which doubles as the newcomer value; 0.5 with no nodes."""
        return float(np.mean(self.vector)) if self.nodes else 0.5

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReputationModel):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and np.array_equal(self.vector, other.vector)
            and self.iterations_used == other.iterations_used
            and self.params == other.params
            and self.stop_reason == other.stop_reason
        )


def reputation_nodes(env: Environment, trust_threshold: float) -> list[AgentId]:
    """Agents with at least one incoming edge of weight >= threshold, sorted."""
    return env.id_array[np.unique(env.dst[env.weight >= trust_threshold])].tolist()


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

    Worked out from the environment's edge arrays; per row, sums run in
    neighbour id order.
    """
    n = len(nodes)
    if n == 1:
        # no other node to spread over (edges never loop): it keeps its mass
        return PropagationMatrix(sparse.csr_matrix([[1.0]]), np.zeros(1))
    position = np.full(len(env.agents), -1)
    position[np.fromiter(map(env.index.__getitem__, nodes), np.int64, n)] = np.arange(n)
    inside = (position[env.src] >= 0) & (position[env.dst] >= 0)
    rows, cols, weights = position[env.src[inside]], position[env.dst[inside]], env.weight[inside]

    degree = np.bincount(rows, minlength=n)
    r_max = np.zeros(n)
    np.maximum.at(r_max, rows, weights)
    trusted = weights >= trust_threshold
    n_untrusted = np.bincount(rows[~trusted], minlength=n)
    # A zero trusted total (theta_r = 0, all weights 0) means r_max = 0:
    # the trusted shares are 0 and the row spreads its whole unit.
    total = np.bincount(rows[trusted], weights=weights[trusted], minlength=n)
    total[total == 0] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.where(
            trusted,
            weights * r_max[rows] / total[rows],
            (1.0 - r_max[rows]) / n_untrusted[rows],
        )
    spread = np.where(degree == 0, 1.0, 0.0)
    spread += np.where((degree > 0) & (n_untrusted == degree), r_max, 0.0)
    spread += np.where((degree > 0) & (n_untrusted == 0), 1.0 - r_max, 0.0)

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
            params=model_params(config),
            stop_reason="converged",
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
    if converged:
        stop_reason = "converged"
    else:  # the loop only leaves early, unconverged, when its time ran out
        stop_reason = "iterations" if iterations >= config.max_iterations else "seconds"
    return ReputationModel(
        nodes=nodes,
        vector=vector,
        iterations_used=iterations,
        params=model_params(config),
        stop_reason=stop_reason,
        matrix=matrix,
    )


def reputation_of(model: ReputationModel, trustee: AgentId) -> float:
    """Trustee's normalized reputation, or the population mean for outsiders.

    An empty model (no agent ever received a trusted rating) yields its mean,
    the neutral prior 0.5.  The sorted node list is searched by bisection.
    """
    idx = bisect.bisect_left(model.nodes, trustee)
    if idx == len(model.nodes) or model.nodes[idx] != trustee:
        return model.mean_reputation
    return float(model.vector[idx])
