"""
Synthetic worlds and brute-force cross-checks
=============================================

The generator is seeded and portable (splitmix64), so instances reproduce
bit for bit.  Two independent oracles guard the engine: exhaustive
simple-path enumeration for the indirect module and a dense matrix pipeline
for reputation.
"""

import io
import json

from trustnet import GenParams, dump_log, generate
from trustnet.oracles import compare_indirect, compare_reputation

# determinism: the same seed serializes to identical bytes
params = GenParams(seed=42, n_agents=10, n_interactions=50)
buffers = []
for _ in range(2):
    buf = io.StringIO()
    dump_log(generate(params)[1], buf)
    buffers.append(buf.getvalue())
print("byte-identical logs:", buffers[0] == buffers[1])

# engine vs exhaustive path oracle on small random graphs; every instance,
# cyclic or not, must agree (the acyclic/cyclic counts record coverage)
report = compare_indirect(range(40))
print(json.dumps({k: v for k, v in report.items() if k != "deviations"}, indent=2))

# sparse engine vs dense reference for the reputation pipeline
rep = compare_reputation(range(10), max_agents=30)
print("reputation max deviation:", rep["max_deviation"])
print("worst row-sum error:", rep["max_row_sum_error"])
print("all converged:", rep["all_converged"])
