"""
Building an interaction graph snapshot
======================================

An environment is a weighted directed graph distilled from a log of rated
interactions.  Edges exist only for pairs that interacted before the
snapshot time, and each edge's weight averages the per-category trusts.
"""

from trustnet import AgentProfile, Interaction, build_environment

# a small marketplace: buyers rate sellers per task category
log = [
    Interaction("ana", "bo", 0.9, "delivery", 1.0),
    Interaction("ana", "bo", 0.7, "delivery", 3.0),
    Interaction("ana", "bo", 0.4, "repair", 4.0),
    Interaction("bo", "cy", 0.8, "delivery", 2.0),
    Interaction("cy", "ana", 0.6, "repair", 5.0),
    Interaction("ana", "bo", 1.0, "delivery", 12.0),  # after the snapshot: ignored
]

# declared-only agents are allowed; they simply have no edges yet
lurker = AgentProfile(id="dee", completed=frozenset(), able=frozenset({"delivery"}))

env = build_environment(log, snapshot_time=10.0, decay_rate=0.05, profiles=[lurker])

print("agents:", sorted(env.agents))
print("edges:")
for (src, dst), stats in sorted(env.edges.items()):
    cats = {c: round(s.decayed_trust, 3) for c, s in stats.per_category.items()}
    print(f"  {src} -> {dst}: weight={stats.weight:.3f} per-category={cats}")

# the ana -> bo weight is the mean of the delivery and repair trusts;
# env.edges maps each (src, dst) pair with an edge to its statistics, and
# env.weight holds the same weights as one array in CSR edge order
print("ana->bo:", env.edges[("ana", "bo")].weight)
print("bo->ana:", env.edges.get(("bo", "ana")))  # absent: None
print("weights by edge:", env.weight.round(3).tolist())

# completion history accumulates on the trustee side only
print("bo completed:", sorted(env.agents["bo"].completed))
dee_edges = [dst for src, dst in env.edges if src == "dee"]
print("dee able:", sorted(env.agents["dee"].able), "edges:", dee_edges)
