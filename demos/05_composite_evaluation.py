"""
The full trust evaluation
=========================

One call blends the three components.  The direct weight alpha follows the
pair's same-category history against the population's evidence bar, the
indirect weight beta follows the surviving path count, and the remaining
weight goes to reputation.  A newcomer therefore lands exactly on the mean
reputation.
"""

import json

from trustnet import (
    GenParams,
    RatingModel,
    TrustConfig,
    build_environment,
    build_reputation,
    evaluate,
    generate,
)

params = GenParams(
    seed=7,
    n_agents=30,
    n_categories=3,
    n_interactions=400,
    rating_model=RatingModel.PER_AGENT_QUALITY,
    newcomer_fraction=0.1,
)
profiles, log = generate(params)
cfg = TrustConfig()
env = build_environment(log, 100.0, cfg.decay_rate, profiles)

# reuse one reputation model across queries of the same snapshot
model = build_reputation(env, cfg)

# every component is read from the snapshot; the log argument is ignored
report = evaluate(env, [], "a01", "a05", "c0", 100.0, cfg, reputation_model=model)
print("seasoned trustee:")
print(json.dumps(report.to_dict(), indent=2))

# the last 10% of agents were generated as silent newcomers
newcomer_report = evaluate(env, [], "a01", "a29", "c0", 100.0, cfg, reputation_model=model)
print("\nnewcomer trustee:")
print("alpha:", newcomer_report.alpha, "beta:", newcomer_report.beta)
print("trust == mean reputation:", newcomer_report.trust == model.mean_reputation)
