"""
Indirect trust through recommendation chains
============================================

When first-hand evidence is thin, trust propagates along chains of trusted
neighbours.  The search keeps a table of reached agents ranked by
probability-times-trust, records every agent that has rated the trustee,
and the aggregation step blends the surviving paths.
"""

import json

from trustnet import Interaction, TrustConfig, aggregate, build_environment, find_paths

# two disjoint chains from "tr" to advisors who know "te"
log = [
    Interaction("tr", "x1", 0.9, "c", 1.0),
    Interaction("x1", "a1", 0.7, "c", 1.0),
    Interaction("tr", "x2", 0.8, "c", 1.0),
    Interaction("x2", "a2", 0.9, "c", 1.0),
    Interaction("a1", "te", 0.7, "c", 1.0),
    Interaction("a2", "te", 0.8, "c", 1.0),
]
env = build_environment(log, 10.0, 0.0)
cfg = TrustConfig(decay_rate=0.0, recency_rate=0.0)

# the search reads only the snapshot; its log argument is ignored
table = find_paths(env, [], "tr", "te", "c", cfg)
print(json.dumps(table.to_dict(), indent=2))

# two advisors with path trusts 0.63 and 0.72 and ratings 0.7 and 0.8:
# the aggregate is their path-trust-weighted mean
print("indirect trust:", aggregate(table, path_threshold=0.6, path_decay=0.9))

# a single surviving path instead decays per hop
lonely = [r for r in log if r.trustor != "x2" and r.trustee != "x2"]
env2 = build_environment(lonely, 10.0, 0.0)
table2 = find_paths(env2, [], "tr", "te", "c", cfg)
print("single path:", aggregate(table2, path_threshold=0.6, path_decay=0.9))

# first-hand evidence outranks a chain: with a trusted direct edge tr -> b,
# the roundabout attachment of b under a is skipped entirely
shortcut = [
    Interaction("tr", "a", 0.95, "c", 1.0),
    Interaction("a", "b", 0.95, "c", 1.0),
    Interaction("tr", "b", 0.55, "c", 1.0),
    Interaction("b", "te", 0.9, "c", 1.0),
]
env3 = build_environment(shortcut, 10.0, 0.0)
table3 = find_paths(env3, [], "tr", "te", "c", cfg)
print("b reached via:", table3.rows["b"].path, "trust", table3.rows["b"].cum_trust)
