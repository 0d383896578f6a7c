"""
Direct trust and temporal decay
===============================

A trustor's own ratings are averaged with exponentially decaying weights,
so old impressions fade.  Without same-category history the value falls
back to the mean of the other categories' averages.  Both are read from the
environment snapshot, built at the evaluation time with the decay rate.
"""

from trustnet import Interaction, build_environment, decay_weight, direct_trust

log = [
    Interaction("ana", "bo", 1.0, "delivery", 0.0),   # glowing but old
    Interaction("ana", "bo", 0.2, "delivery", 9.0),   # recent disappointment
    Interaction("ana", "bo", 0.6, "repair", 5.0),
]

print("discount of t=0 at time 10:", decay_weight(0.0, 10.0, 0.1))
print("discount of t=9 at time 10:", decay_weight(9.0, 10.0, 0.1))

# sweeping the decay rate moves the estimate toward the recent rating
for rate in (0.0, 0.1, 0.5, 2.0):
    result = direct_trust(build_environment(log, 10.0, rate), "ana", "bo", "delivery")
    print(f"rate={rate:<4} direct trust on delivery = {result.value:.4f}")

# no painting history: fall back to the delivery/repair averages
fallback = direct_trust(build_environment(log, 10.0, 0.0), "ana", "bo", "painting")
print("fallback on painting:", round(fallback.value, 4), fallback.source.value)

nothing = direct_trust(build_environment(log, 10.0, 0.0), "bo", "ana", "delivery")
print("no history at all:", nothing.value, nothing.source.value)
