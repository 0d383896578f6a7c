"""Composite trust: evidence-weighted blend of the three components.

The direct weight grows with the pair's interaction count on the category,
the indirect weight with the number of surviving propagation paths, and
whatever weight the evidence cannot claim falls to reputation, which is
always computable.  The evidence bar is the average per-participant
interaction count on the category.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    AgentId,
    CapabilityError,
    Environment,
    Interaction,
    TaskCategory,
    TrustConfig,
    UnknownAgentError,
)
from .direct import direct_trust
from .indirect import aggregate, find_paths, retained_paths
from .reputation import ReputationModel, build_reputation, model_params, reputation_of


@dataclass(frozen=True)
class CompositeInputs:
    """Counts and flags from which the blend weights are derived."""

    n_same: int
    n_other: int
    n_paths: int
    dt_min: float
    trustee_did_category: bool
    trustee_can_category: bool


@dataclass
class TrustReport:
    """Full outcome of one trust evaluation."""

    trustor: AgentId
    trustee: AgentId
    category: TaskCategory
    eval_time: float
    trust: float
    alpha: float
    beta: float
    direct: Optional[float]
    indirect: Optional[float]
    reputation: float
    diagnostics: dict

    def to_dict(self) -> dict:
        return {
            "trust": self.trust,
            "alpha": self.alpha,
            "beta": self.beta,
            "direct": self.direct,
            "indirect": self.indirect,
            "reputation": self.reputation,
            "diagnostics": self.diagnostics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def dt_min(env: Environment, category: TaskCategory) -> float:
    """Average interaction count per participant on ``category``, floored at 1."""
    return env.activity(category).dt_min


def alpha(inputs: CompositeInputs) -> float:
    """Direct-trust weight from the interaction counts."""
    if inputs.n_same == 0:
        if inputs.n_other < inputs.dt_min:
            return inputs.n_other / (2.0 * inputs.dt_min)
        return 0.5
    if inputs.n_same < inputs.dt_min:
        return inputs.n_same / inputs.dt_min
    return 1.0


def beta(alpha_value: float, inputs: CompositeInputs) -> float:
    """Indirect-trust weight, bounded by the weight direct trust left over."""
    if not inputs.trustee_can_category:
        raise CapabilityError(
            "trustee lacks capability for the requested category"
        )
    if not inputs.trustee_did_category:
        return 0.0
    if inputs.n_paths < inputs.dt_min:
        return (1.0 - alpha_value) * inputs.n_paths / inputs.dt_min
    return 1.0 - alpha_value


def combine(
    alpha_value: float,
    beta_value: float,
    direct_value: Optional[float],
    indirect_value: Optional[float],
    reputation_value: float,
) -> float:
    """Blend the components; absent components carry zero weight by construction."""
    total = (
        alpha_value * (direct_value if direct_value is not None else 0.0)
        + beta_value * (indirect_value if indirect_value is not None else 0.0)
        + (1.0 - alpha_value - beta_value) * reputation_value
    )
    return min(1.0, max(0.0, total))


def evaluate(
    env: Environment,
    log: Sequence[Interaction],
    trustor: AgentId,
    trustee: AgentId,
    category: TaskCategory,
    eval_time: float,
    config: TrustConfig,
    reputation_model: Optional[ReputationModel] = None,
) -> TrustReport:
    """Run the full pipeline and assemble the report.

    ``env`` must be the snapshot taken at ``eval_time`` (with the config's
    decay rate) and is the only input read: ``log`` is ignored.  Pass
    ``reputation_model`` to reuse one across evaluations of the same
    snapshot; it must have been built with this config.
    """
    if trustor not in env.agents:
        raise UnknownAgentError(trustor)
    if trustee not in env.agents:
        raise UnknownAgentError(trustee)
    if trustor == trustee:
        raise ValueError("trustor and trustee must differ")
    if env.snapshot_time != eval_time:
        raise ValueError(
            f"environment snapshot_time {env.snapshot_time!r} does not match "
            f"evaluation time {eval_time!r}"
        )
    if env.decay_rate != config.decay_rate:
        raise ValueError(
            f"environment decay_rate {env.decay_rate!r} does not match "
            f"config decay_rate {config.decay_rate!r}"
        )
    if reputation_model is not None and reputation_model.params != model_params(config):
        raise ValueError(
            f"reputation model parameters {reputation_model.params!r} do not match "
            f"the config's {model_params(config)!r}"
        )

    profile = env.agents[trustee]
    if category not in profile.able:
        raise CapabilityError(
            f"trustee {trustee!r} lacks capability for category {category!r}"
        )

    direct_result = direct_trust(env, trustor, trustee, category)
    table = find_paths(env, log, trustor, trustee, category, config)
    indirect_value = aggregate(table, config.path_threshold, config.path_decay)
    kept = retained_paths(table, config.path_threshold)

    model = reputation_model if reputation_model is not None else build_reputation(env, config)
    reputation_value = reputation_of(model, trustee)

    inputs = CompositeInputs(
        n_same=direct_result.n_same,
        n_other=direct_result.n_other,
        n_paths=len(kept),
        dt_min=dt_min(env, category),
        trustee_did_category=category in profile.completed,
        trustee_can_category=category in profile.able,
    )
    alpha_value = alpha(inputs)
    beta_value = beta(alpha_value, inputs)
    trust = combine(
        alpha_value, beta_value, direct_result.value, indirect_value, reputation_value
    )

    diagnostics = {
        "n_same": inputs.n_same,
        "n_other": inputs.n_other,
        "n_paths": inputs.n_paths,
        "dt_min": inputs.dt_min,
        "trustee_did_category": inputs.trustee_did_category,
        "trustee_can_category": inputs.trustee_can_category,
        "direct_source": direct_result.source.value,
        "paths": [
            {
                "advisor": advisor,
                "rating": rating,
                "path_trust": path_trust,
                "path": list(table.rows[advisor].path) + [advisor],
            }
            for advisor, rating, path_trust in kept
        ],
        "paths_discovered": len(table.trustee_rows),
        "search_expansions": table.expansions,
        "search_stop": table.stop_reason,
        "reputation": {
            "in_node_set": trustee in model.nodes,
            "nodes": len(model.nodes),
            "iterations_used": model.iterations_used,
            "converged": model.converged,
            "mean": model.mean_reputation,
            "defaulted": not model.nodes,
        },
        "reputation_stop": model.stop_reason,
    }
    return TrustReport(
        trustor=trustor,
        trustee=trustee,
        category=category,
        eval_time=eval_time,
        trust=trust,
        alpha=alpha_value,
        beta=beta_value,
        direct=direct_result.value,
        indirect=indirect_value,
        reputation=reputation_value,
        diagnostics=diagnostics,
    )
