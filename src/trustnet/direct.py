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
    is the edge weight.  Both, and the counts, are read from the edge's rows.
    """
    found = env._edge_rows(trustor, trustee, category)
    if found is None:
        return DirectTrustResult(None, DirectTrustSource.NONE, 0, 0)
    k, lo, hi, r = found
    total = int(env.count[lo:hi].sum())
    if r is None:
        return DirectTrustResult(env.weight[k].item(), DirectTrustSource.CROSS_CATEGORY, 0, total)
    n_same = int(env.count[r])
    return DirectTrustResult(
        env.decayed_trust[r].item(), DirectTrustSource.SAME_CATEGORY, n_same, total - n_same
    )
