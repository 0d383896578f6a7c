"""Direct trust: time-discounted average of a trustor's own ratings.

Ratings on the requested category are preferred; when none exist the value
falls back to the mean of the per-category averages over the other
categories the pair interacted on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .core import AgentId, Environment, TaskCategory


class DirectTrustSource(enum.Enum):
    SAME_CATEGORY = "same_category"
    CROSS_CATEGORY = "cross_category"
    NONE = "none"


@dataclass(frozen=True)
class DirectTrustResult:
    """Outcome of a direct-trust query.

    ``n_same`` counts the pair's interactions on the requested category
    before the snapshot time; ``n_other`` counts those on every other
    category.  ``value`` is None exactly when both counts are zero.
    """

    value: Optional[float]
    source: DirectTrustSource
    n_same: int
    n_other: int


def direct_trust(
    env: Environment, trustor: AgentId, trustee: AgentId, category: TaskCategory
) -> DirectTrustResult:
    """Direct trust of ``trustor`` in ``trustee`` for ``category``, read from ``env``.

    The same-category value is the edge's discount-weighted mean rating.
    Without one, the discount-weighted means of the other categories are
    averaged unweighted (a category counts once regardless of volume), which
    is the edge weight.
    """
    edge = env.edges.get((trustor, trustee))
    if edge is None:
        return DirectTrustResult(None, DirectTrustSource.NONE, 0, 0)
    same = edge.per_category.get(category)
    n_other = sum(s.count for cat, s in edge.per_category.items() if cat != category)
    if same is not None:
        return DirectTrustResult(
            same.decayed_trust, DirectTrustSource.SAME_CATEGORY, same.count, n_other
        )
    return DirectTrustResult(edge.weight, DirectTrustSource.CROSS_CATEGORY, 0, n_other)
