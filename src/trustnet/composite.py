"""Composite trust: evidence-weighted blend of the three components.

The direct weight grows with the pair's interaction count on the category,
the indirect weight with the number of surviving propagation paths, and
whatever weight the evidence cannot claim falls to reputation, which is
always computable.  The evidence bar is the average per-participant
interaction count on the category.  The paths come from the label-setting
search (:func:`settle_paths`) unless the config sets a search budget, which
only the best-first :func:`find_paths` can honour (see :func:`evaluate`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
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
from .indirect import aggregate, aggregate_settled, find_paths, retained_paths, settle_paths
from .reputation import (
    ReputationModel, _node_position, build_reputation, check_bound, model_params, reputation_of,
)


@dataclass(frozen=True)
class CompositeInputs:
    """The counts and flags behind the blend weights, in the order the diagnostics list them."""

    n_same: int
    n_other: int
    n_paths: int
    dt_min: float
    trustee_did_category: bool


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
        fields = ("trust", "alpha", "beta", "direct", "indirect", "reputation", "diagnostics")
        return {name: getattr(self, name) for name in fields}

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
    snapshot; it must have been built from ``env`` itself (or loaded with
    it), and with this config, or the call raises ValueError.

    The indirect component comes from one of two searches:

    - a config that sets neither ``search_steps`` nor ``search_seconds``
      runs :func:`settle_paths`.  ``diagnostics.paths`` lists the kept
      advisors in settle order, ``search_expansions`` counts the agents
      settled, ``search_reattached`` is 0 and ``search_stop`` "exhausted";
    - a config with a budget runs :func:`find_paths`.  ``diagnostics.paths``
      lists the kept advisors in discovery order, ``search_expansions``
      counts its expansions, ``search_reattached`` its re-attachments, and
      ``search_stop`` says whether the search ran out or a budget stopped it.

    Both feed :func:`indirect.combine_paths`, so on a search that runs to
    its end the two agree on every report number (to summation order,
    within 1e-12).
    """
    for agent in (trustor, trustee):
        if agent not in env.index:
            raise UnknownAgentError(agent)
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
    if reputation_model is not None:
        check_bound(reputation_model, env)
        if reputation_model.params != model_params(config):
            raise ValueError(
                f"reputation model parameters {reputation_model.params!r} do not match "
                f"the config's {model_params(config)!r}"
            )

    completed, able = env.kinds[env.profile[env.index[trustee]]]
    if category not in able:
        raise CapabilityError(
            f"trustee {trustee!r} lacks capability for category {category!r}"
        )

    direct_result = direct_trust(env, trustor, trustee, category)
    if config.search_steps is None and config.search_seconds is None:
        tree = settle_paths(env, trustor, trustee, category, config)
        indirect_value = aggregate_settled(tree, config.path_threshold, config.path_decay)
        kept = [
            (tree.ids[a], rating, path_trust, tree.chain(a))
            for a, rating, path_trust in tree.retained(config.path_threshold)
        ]
        search = {
            "paths_discovered": tree.discovered,
            "search_expansions": len(tree.order),
            "search_reattached": 0,
            "search_stop": "exhausted",
        }
    else:
        table = find_paths(env, log, trustor, trustee, category, config)
        indirect_value = aggregate(table, config.path_threshold, config.path_decay)
        kept = [
            (advisor, rating, path_trust, list(table.rows[advisor].path) + [advisor])
            for advisor, rating, path_trust in retained_paths(table, config.path_threshold)
        ]
        search = {
            "paths_discovered": len(table.trustee_rows),
            "search_expansions": table.expansions,
            "search_reattached": table.reattachments,
            "search_stop": table.stop_reason,
        }

    model = reputation_model if reputation_model is not None else build_reputation(env, config)
    reputation_value = reputation_of(model, trustee)

    inputs = CompositeInputs(
        n_same=direct_result.n_same,
        n_other=direct_result.n_other,
        n_paths=len(kept),
        dt_min=dt_min(env, category),
        trustee_did_category=category in completed,
    )
    alpha_value = alpha(inputs)
    beta_value = beta(alpha_value, inputs)
    trust = combine(
        alpha_value, beta_value, direct_result.value, indirect_value, reputation_value
    )

    diagnostics = {
        **asdict(inputs),
        "direct_source": direct_result.source.value,
        "paths": [
            {"advisor": advisor, "rating": rating, "path_trust": path_trust, "path": path}
            for advisor, rating, path_trust, path in kept
        ],
        **search,
        "reputation": {
            "in_node_set": _node_position(model, trustee) is not None,
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
