import io
import math
import statistics

import pytest

from trustnet import (
    GenParams,
    RatingModel,
    SplitMix64,
    dump_log,
    generate,
    latent_qualities,
)


def serialized(params):
    buf = io.StringIO()
    _, log = generate(params)
    dump_log(log, buf)
    return buf.getvalue()


def test_fixed_seed_is_byte_identical():
    params = GenParams(seed=42, n_agents=12, n_interactions=200)
    assert serialized(params) == serialized(params)


def test_different_seeds_differ():
    a = GenParams(seed=1, n_agents=12, n_interactions=50)
    b = GenParams(seed=2, n_agents=12, n_interactions=50)
    assert serialized(a) != serialized(b)


def test_newcomer_count_is_exact():
    params = GenParams(seed=3, n_agents=10, n_interactions=80, newcomer_fraction=0.2)
    profiles, log = generate(params)
    participants = {r.trustor for r in log} | {r.trustee for r in log}
    silent = [p.id for p in profiles if p.id not in participants]
    assert len(silent) == 2
    assert all(p.able for p in profiles)


def test_ratings_and_times_in_range():
    params = GenParams(seed=9, n_agents=8, n_interactions=300, time_horizon=50.0)
    _, log = generate(params)
    assert all(0.0 <= r.rating <= 1.0 for r in log)
    assert all(0.0 <= r.time < 50.0 for r in log)
    assert all(r.trustor != r.trustee for r in log)


def test_quality_model_tracks_latent_quality():
    params = GenParams(
        seed=17,
        n_agents=6,
        n_interactions=1000,
        rating_model=RatingModel.PER_AGENT_QUALITY,
    )
    _, log = generate(params)
    quality = latent_qualities(params)
    received = {}
    for r in log:
        received.setdefault(r.trustee, []).append(r.rating)
    for agent, ratings in received.items():
        assert len(ratings) > 50
        assert abs(statistics.fmean(ratings) - quality[agent]) <= 0.1


def test_latent_qualities_match_generation_stream():
    params = GenParams(seed=4, n_agents=5, n_interactions=0)
    again = latent_qualities(params)
    assert latent_qualities(params) == again
    assert set(again) == {f"a{i}" for i in range(5)}
    assert all(0.0 <= q < 1.0 for q in again.values())


def test_splitmix_streams_are_reproducible():
    a = SplitMix64(123456789)
    b = SplitMix64(123456789)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]


def test_splitmix_recurrence_against_independent_evaluation():
    # recompute the documented recurrence with separate modular arithmetic
    def reference_stream(seed, n):
        mod = 1 << 64
        state = seed % mod
        out = []
        for _ in range(n):
            state = (state + 0x9E3779B97F4A7C15) % mod
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % mod
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % mod
            out.append((z ^ (z >> 31)) % mod)
        return out

    for seed in (0, 1, 42, 2**64 - 1):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(16)] == reference_stream(seed, 16)


def test_uniform_draws_cover_unit_interval():
    rng = SplitMix64(7)
    draws = [rng.uniform() for _ in range(4000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert abs(statistics.fmean(draws) - 0.5) < 0.03


def test_below_is_unbiased_over_small_range():
    rng = SplitMix64(11)
    counts = [0] * 5
    for _ in range(5000):
        counts[rng.below(5)] += 1
    assert min(counts) > 800


def test_param_validation():
    with pytest.raises(ValueError):
        GenParams(seed=1, n_agents=1)
    with pytest.raises(ValueError):
        GenParams(seed=1, newcomer_fraction=1.0)
    with pytest.raises(ValueError):
        GenParams(seed=1, time_horizon=0.0)
    with pytest.raises(ValueError):
        generate(GenParams(seed=1, n_agents=2, n_interactions=5, newcomer_fraction=0.6))


@pytest.mark.parametrize(
    "horizon",
    [math.nan, math.inf, -math.inf, 10**400, "100"],
    ids=["nan", "inf", "-inf", "huge", "str"],
)
def test_time_horizon_is_held_to_the_number_rule(horizon):
    with pytest.raises(ValueError, match="time_horizon must be a finite number > 0"):
        GenParams(seed=1, time_horizon=horizon)


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", "x"),
        ("seed", 7.0),
        ("n_agents", 3.5),
        ("n_agents", math.nan),
        ("n_categories", True),
        ("n_interactions", 50.0),
        ("rating_model", "per-agent-quality"),
    ],
    ids=[
        "seed-str",
        "seed-float",
        "agents-fraction",
        "agents-nan",
        "categories-bool",
        "interactions-float",
        "rating-model-str",
    ],
)
def test_wrong_type_is_refused_when_made(field, value):
    # A string rating model used to draw uniform ratings without a word.
    with pytest.raises(TypeError, match=f"^{field} must be"):
        GenParams(**{"seed": 7, "n_agents": 5, "n_interactions": 20, field: value})


@pytest.mark.parametrize(
    "fraction",
    [False, "0.1", math.nan, math.inf, 10**400],
    ids=["bool", "str", "nan", "inf", "huge"],
)
def test_newcomer_fraction_is_held_to_the_number_rule(fraction):
    with pytest.raises(ValueError, match=r"newcomer_fraction must be a finite number in \[0, 1\)"):
        GenParams(seed=1, newcomer_fraction=fraction)
