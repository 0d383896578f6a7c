"""Seeded synthetic environments with a portable, documented PRNG.

The generator is deterministic across platforms and languages: it uses the
splitmix64 recurrence, so any port that follows the three lines below
reproduces instances bit for bit.

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state; z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64; output z XOR (z >> 31)

Doubles in [0, 1) are the top 53 bits of an output divided by 2^53.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import AgentProfile, Interaction, finite_float

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream; see the module docstring for the recurrence."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def uniform(self) -> float:
        """Double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) / float(1 << 53)

    def below(self, bound: int) -> int:
        """Integer in [0, bound) by rejection, avoiding modulo bias."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = _MASK64 - (_MASK64 % bound + 1) % bound
        while True:
            value = self.next_u64()
            if value <= limit:
                return value % bound


class RatingModel(enum.Enum):
    UNIFORM = "uniform"
    PER_AGENT_QUALITY = "per-agent-quality"


# Upper bounds on the generator's counts: ten times the largest world the
# benchmark's scaling record measures (50k agents, 500k interactions), so a
# mistyped count is refused before anything is allocated rather than drawn
# until memory runs out.  A parsed record holds about 287 bytes, so the
# largest log takes about 1.4 GB.
MAX_AGENTS = 500_000
MAX_CATEGORIES = 1_000
MAX_INTERACTIONS = 5_000_000
# Per count: its least and its largest value.
COUNT_BOUNDS = {
    "n_agents": (2, MAX_AGENTS),
    "n_categories": (1, MAX_CATEGORIES),
    "n_interactions": (0, MAX_INTERACTIONS),
}


@dataclass(frozen=True)
class GenParams:
    """Generator parameters, checked when they are made.

    ``seed`` and the three counts are ints (not bools) and ``rating_model``
    a :class:`RatingModel`, or TypeError; the two floats follow
    :func:`finite_float`'s rule, and a value out of bounds raises ValueError.
    Each count lies in its range of ``COUNT_BOUNDS``: ``n_agents`` in
    [2, ``MAX_AGENTS``], ``n_categories`` in [1, ``MAX_CATEGORIES``] and
    ``n_interactions`` in [0, ``MAX_INTERACTIONS``].
    """

    seed: int
    n_agents: int = 10
    n_categories: int = 2
    n_interactions: int = 50
    rating_model: RatingModel = RatingModel.UNIFORM
    time_horizon: float = 100.0
    newcomer_fraction: float = 0.0

    def __post_init__(self):
        for name in ("seed", "n_agents", "n_categories", "n_interactions"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer")
        if not isinstance(self.rating_model, RatingModel):
            raise TypeError(f"rating_model must be a RatingModel, not {self.rating_model!r}")
        for name, (low, high) in COUNT_BOUNDS.items():
            if not low <= getattr(self, name) <= high:
                raise ValueError(f"{name} must lie in [{low}, {high}]")
        fraction = finite_float(self.newcomer_fraction)
        if fraction is None or not 0.0 <= fraction < 1.0:
            raise ValueError("newcomer_fraction must be a finite number in [0, 1)")
        horizon = finite_float(self.time_horizon)
        if horizon is None or horizon <= 0:
            raise ValueError("time_horizon must be a finite number > 0")


def agent_name(index: int, n_agents: int) -> str:
    width = len(str(n_agents - 1))
    return f"a{index:0{width}d}"


def category_name(index: int) -> str:
    return f"c{index}"


def latent_qualities(params: GenParams) -> dict[str, float]:
    """Per-agent latent quality, identical to the draws inside generate()."""
    rng = SplitMix64(params.seed)
    return {
        agent_name(i, params.n_agents): rng.uniform() for i in range(params.n_agents)
    }


def generate(params: GenParams) -> tuple[list[AgentProfile], list[Interaction]]:
    """Produce (profiles, interaction log), deterministic for a fixed seed.

    The last ``floor(newcomer_fraction * n_agents)`` agents are declared
    able in every category but never interact.  Under the quality model a
    rating is the trustee's latent quality plus uniform noise in
    [-0.1, 0.1], clamped to [0, 1].
    """
    rng = SplitMix64(params.seed)
    agents = [agent_name(i, params.n_agents) for i in range(params.n_agents)]
    categories = [category_name(i) for i in range(params.n_categories)]
    quality = {a: rng.uniform() for a in agents}

    n_newcomers = int(params.newcomer_fraction * params.n_agents)
    active = agents[: params.n_agents - n_newcomers]
    if params.n_interactions > 0 and len(active) < 2:
        raise ValueError("need at least 2 non-newcomer agents to draw interactions")

    able = frozenset(categories)  # one set shared by every profile
    profiles = [AgentProfile(id=a, completed=frozenset(), able=able) for a in agents]

    log: list[Interaction] = []
    for _ in range(params.n_interactions):
        i = rng.below(len(active))
        j = rng.below(len(active) - 1)
        if j >= i:
            j += 1
        trustor, trustee = active[i], active[j]
        category = categories[rng.below(len(categories))]
        t = rng.uniform() * params.time_horizon
        if params.rating_model is RatingModel.PER_AGENT_QUALITY:
            noise = (rng.uniform() - 0.5) * 0.2
            rating = min(1.0, max(0.0, quality[trustee] + noise))
        else:
            rating = rng.uniform()
        log.append(
            Interaction(
                trustor=trustor, trustee=trustee, rating=rating, category=category, time=t
            )
        )
    return profiles, log
