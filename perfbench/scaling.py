"""Ungated scaling record: how find_paths and build_reputation grow with the world.

    python3 perfbench/scaling.py > scaling.json

Worlds follow query-explore (10 interactions per agent, 2 categories,
per-agent-quality ratings, 5% newcomers, default config) at 1k/10k, 2k/20k
and 4k/40k, all at the default seed.  find_paths is timed as the mean over
``QUERIES`` seeded queries, build_reputation as the median of ``BUILDS``
builds.  The slope is the least-squares fit of log(time) on
log(interactions); 1 means linear.  Larger points (10k/100k and up) do not fit
a benchmark run's time budget and are left out.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time

from checkout import use_checkout_engine

use_checkout_engine()

from trustnet import core, indirect, reputation  # noqa: E402
from trustnet.simulate import generate  # noqa: E402
from workloads import DEFAULT_SEED, HORIZON, QUERY_STREAM, SPECS  # noqa: E402

SIZES = (1000, 2000, 4000)
QUERIES = 5
BUILDS = 3


def slope(xs: list[float], ys: list[float]) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def measure(n_agents: int) -> dict:
    spec = SPECS["query-explore"]
    params = spec.params(DEFAULT_SEED, n_agents)
    profiles, log = generate(params)
    env = core.build_environment(log, HORIZON, spec.config.decay_rate, profiles)
    builds = []
    for _ in range(BUILDS):
        start = time.perf_counter()
        model = reputation.build_reputation(env, spec.config)
        builds.append(time.perf_counter() - start)
    queries = spec.queries(DEFAULT_SEED, QUERY_STREAM, log, n_agents)
    searches, expansions = [], []
    for i in range(QUERIES):
        q = queries[i]
        start = time.perf_counter()
        table = indirect.find_paths(env, log, q.trustor, q.trustee, q.category, spec.config)
        searches.append(time.perf_counter() - start)
        expansions.append(table.expansions)
    return {
        "agents": n_agents,
        "interactions": params.n_interactions,
        "find_paths_s": statistics.fmean(searches),
        "find_paths_expansions": statistics.fmean(expansions),
        "build_reputation_s": statistics.median(builds),
        "reputation_nodes": len(model.nodes),
        "matrix_nnz": model.matrix.nnz,
    }


def main() -> int:
    points = [measure(n) for n in SIZES]
    sizes = [p["interactions"] for p in points]
    record = {
        "points": points,
        "log_log_slope": {
            "find_paths": slope(sizes, [p["find_paths_s"] for p in points]),
            "build_reputation": slope(sizes, [p["build_reputation_s"] for p in points]),
            "matrix_nnz": slope(sizes, [p["matrix_nnz"] for p in points]),
        },
    }
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
