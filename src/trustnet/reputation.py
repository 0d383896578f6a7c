"""Reputation: damped power iteration over a trust-propagation matrix.

Agents that received at least one trusted rating form the node set.  Each
node splits its unit of reputation: a share equal to its strongest outgoing
weight goes to trusted neighbours proportionally to their weights, the rest
is spread over the remaining recipients.  The stationary vector of the
damped chain, max-normalized to [0, 1], is the reputation.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .core import AgentId, Environment, TrustConfig


@dataclass(frozen=True, eq=False)
class PropagationMatrix:
    """Row-stochastic propagation matrix M = E + diag(spread)(J - I)/(n - 1).

    E holds only the out-edge shares, row-major: row i has ``data[k]`` in
    column ``cols[k]`` for k in ``indptr[i]:indptr[i+1]``.  ``spread[i]`` is
    the mass row i sends evenly to each of the other n - 1 nodes, so the
    uniform part of a row costs one scalar instead of n - 1 entries.  All
    four arrays are read-only.
    """

    indptr: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    spread: np.ndarray

    def __post_init__(self):
        for array in (self.indptr, self.cols, self.data, self.spread):
            array.flags.writeable = False

    @property
    def nnz(self) -> int:
        return len(self.data)

    def toarray(self) -> np.ndarray:
        n = len(self.spread)
        dense = np.zeros((n, n))
        np.add.at(dense, (np.repeat(np.arange(n), np.diff(self.indptr)), self.cols), self.data)
        others = (np.ones((n, n)) - np.eye(n)) / max(n - 1, 1)
        return dense + self.spread[:, None] * others


# The config fields a reputation model depends on.
MODEL_PARAMS = ("trust_threshold", "damping", "tolerance", "max_iterations")


def model_params(config: TrustConfig) -> dict:
    """The values of ``MODEL_PARAMS`` in ``config``, as a model records them."""
    return {name: getattr(config, name) for name in MODEL_PARAMS}


@dataclass(frozen=True, eq=False)
class ReputationModel:
    """Converged reputation over the node set, max-normalized.

    ``params`` holds the config values the model was built with (see
    :func:`model_params`).  ``stop_reason`` says why the power iteration
    ended: ``"converged"``, or ``"iterations"`` when ``max_iterations`` ran
    out; ``converged`` and ``mean_reputation`` are derived.  A model is
    checked when it is made: one no build could make raises ValueError.  It
    is then frozen and holds ``nodes`` as a tuple and ``vector`` as a
    read-only view, so it stays as checked: a snapshot saved with it loads.
    ``matrix`` is the built model's input, kept for the oracle's row-sum
    check and ``perfbench/scaling.py``; being derivable, it is neither saved
    (a loaded model has None) nor compared.  ``env`` is the snapshot object
    the model was built from or loaded with, which :func:`check_bound` holds
    it to; it is not saved, compared or shown.
    """

    nodes: tuple[AgentId, ...]
    vector: np.ndarray
    iterations_used: int
    params: dict
    stop_reason: str
    matrix: Optional[PropagationMatrix] = None
    env: Optional[Environment] = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        used, params, stop = self.iterations_used, self.params, self.stop_reason
        for name, ok in (
            ("iterations_used", type(used) is int),
            ("stop_reason", stop in ("converged", "iterations")),
            ("params", type(params) is dict and set(params) == set(MODEL_PARAMS)),
        ):
            if not ok:
                value = getattr(self, name)
                raise ValueError(f"reputation {name} {value!r} has the wrong type or value")
        TrustConfig(**params)
        cap = params["max_iterations"]
        # How a build ends: an empty node set at once, the power iteration
        # converged after at least one step, or at the cap.
        ends = {"converged": used >= 1, "iterations": used == cap}
        nodes, vector = self.nodes, self.vector
        ended = ends[stop] if nodes else (used, stop) == (0, "converged")
        for ok, problem in (
            (0 <= used <= cap, f"iterations_used {used} outside [0, {cap}]"),
            (ended, f"stop_reason {stop} at {used}"),
            (len(vector) == len(nodes), f"vector has {len(vector)} entries for {len(nodes)} nodes"),
            (np.all((vector > 0) & (vector <= 1)), "vector outside (0, 1]"),
            (len(vector) == 0 or vector.max() == 1.0, "vector is not max-normalized"),
        ):
            if not ok:
                raise ValueError(f"reputation {problem}")
        vector = vector.view()
        vector.flags.writeable = False
        object.__setattr__(self, "vector", vector)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @cached_property
    def mean_reputation(self) -> float:
        """The mean of ``vector``, the newcomer value (0.5 with no nodes); kept after first use."""
        return float(np.mean(self.vector)) if self.nodes else 0.5

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReputationModel):
            return NotImplemented
        fields = ("nodes", "iterations_used", "params", "stop_reason")
        same = all(getattr(self, name) == getattr(other, name) for name in fields)
        return same and np.array_equal(self.vector, other.vector)


def check_bound(model: ReputationModel, env: Environment) -> None:
    """Raise ValueError unless ``model`` was built from, or loaded with, ``env`` itself."""
    if model.env is not env:
        raise ValueError("reputation model belongs to another snapshot")


def node_indices(env: Environment, trust_threshold: float) -> np.ndarray:
    """Agent indices of :func:`reputation_nodes`, ascending."""
    member = np.zeros(len(env.ids), dtype=bool)
    member[env.dst[env.weight >= trust_threshold]] = True
    return np.flatnonzero(member)


def reputation_nodes(env: Environment, trust_threshold: float) -> list[AgentId]:
    """Agents with at least one incoming edge of weight >= threshold, sorted."""
    return env.id_array[node_indices(env, trust_threshold)].tolist()


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

    Worked out from the environment's edge arrays in their (src, dst) order,
    which is row-major for ascending ``nodes``; per row, sums run in id order.
    """
    n = len(nodes)
    members = np.fromiter(map(env.index.__getitem__, nodes), np.int64, n)
    if np.any(np.diff(members) <= 0):
        raise ValueError("nodes must be ascending and distinct")
    if n == 1:
        # no other node to spread over (edges never loop): it keeps its mass
        return PropagationMatrix(np.array([0, 1]), np.zeros(1, np.int64), np.ones(1), np.zeros(1))
    position = np.full(len(env.ids), -1)
    position[members] = np.arange(n)
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

    return PropagationMatrix(np.concatenate(([0], np.cumsum(degree))), cols, data, spread)


def pagerank(
    matrix: PropagationMatrix,
    damping: float,
    tolerance: float,
    max_iterations: int,
) -> tuple[np.ndarray, int, str]:
    """Damped power iteration: v <- damping * M^T v + (1 - damping) * e.

    M^T v = E^T v + ((s.v) 1 - s*v) / (n - 1) for the shares E and spread s.
    E^T v is one ``bincount`` over E's row-major entries: each sum runs over
    ascending source rows from 0.0, as a CSR product with E^T does.  Starts
    from the uniform vector e and stops when the L1 change drops to
    ``tolerance`` or the iteration cap is hit.  Returns (vector, iterations,
    stop_reason), the reason ``"converged"`` or ``"iterations"``.
    """
    n = len(matrix.spread)
    if n == 0:
        raise ValueError("node set must be non-empty")
    cols, data, rows = matrix.cols, matrix.data, np.repeat(np.arange(n), np.diff(matrix.indptr))
    share = matrix.spread / max(n - 1, 1)
    uniform = np.full(n, 1.0 / n)
    vec = uniform.copy()
    iterations = 0
    stop_reason = "iterations"
    while iterations < max_iterations:
        spread_in = float(share @ vec) - share * vec
        shared_in = np.bincount(cols, weights=data * vec.take(rows), minlength=n)
        nxt = damping * (shared_in + spread_in) + (1.0 - damping) * uniform
        iterations += 1
        delta = float(np.abs(nxt - vec).sum())
        vec = nxt
        if delta <= tolerance:
            stop_reason = "converged"
            break
    return vec, iterations, stop_reason


def build_reputation(env: Environment, config: TrustConfig) -> ReputationModel:
    """Construct and converge the reputation model for an environment."""
    nodes = reputation_nodes(env, config.trust_threshold)
    matrix, vector, iterations, stop_reason = None, np.zeros(0), 0, "converged"
    if nodes:
        matrix = propagation_matrix(env, nodes, config.trust_threshold)
        raw, iterations, stop_reason = pagerank(
            matrix, config.damping, config.tolerance, config.max_iterations
        )
        vector = raw / raw.max()
    return ReputationModel(
        nodes, vector, iterations, model_params(config), stop_reason, matrix=matrix, env=env
    )


def reputation_of(model: ReputationModel, trustee: AgentId) -> float:
    """Trustee's normalized reputation, or the population mean for outsiders.

    An empty model (no agent ever received a trusted rating) yields its mean,
    the neutral prior 0.5.  The sorted node list is searched by bisection.
    """
    idx = _node_position(model, trustee)
    return model.mean_reputation if idx is None else float(model.vector[idx])


def _node_position(model: ReputationModel, trustee: AgentId) -> Optional[int]:
    """``trustee``'s position in the sorted node list, by bisection, or None for an outsider."""
    idx = bisect.bisect_left(model.nodes, trustee)
    return idx if idx < len(model.nodes) and model.nodes[idx] == trustee else None
