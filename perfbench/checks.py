"""Correctness checks that run outside the timed loop and feed the failure count.

Besides the per-operation checks in ``workloads`` (report bounds, direct
trust against the snapshot, snapshot round trips), every run

- re-evaluates a seeded sample of the golden corpus: queries on each
  workload's world at ``DEFAULT_SEED``, whose report numbers must agree
  within 1e-12 and whose ``find_paths`` table must hash to the recorded
  digest exactly;
- compares reputation against the dense ``oracles.oracle_reputation`` within
  1e-8 on a world of ``ORACLE_AGENTS`` agents drawn with the workload's
  parameters and the run's seed (the oracle refuses node sets above 200).

The corpus is maintained with this file as a script:

    python3 perfbench/checks.py check   # re-evaluate every corpus entry
    python3 perfbench/checks.py write   # record corpus.json from the current engine
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Optional

if __name__ == "__main__":
    from checkout import use_checkout_engine

    use_checkout_engine()

import numpy as np

from trustnet import composite, core, indirect, oracles, reputation
from trustnet.simulate import SplitMix64, generate
from workloads import CORPUS_STREAM, DEFAULT_SEED, HORIZON, SPECS, Query, Spec

CORPUS_PATH = Path(__file__).with_name("corpus.json")
REPORT_FIELDS = ("trust", "alpha", "beta", "direct", "indirect", "reputation")
REPORT_TOLERANCE = 1e-12
ORACLE_AGENTS = 150
ORACLE_TOLERANCE = 1e-8


def _world(spec: Spec, seed: int, n_agents: Optional[int] = None):
    profiles, log = generate(spec.params(seed, n_agents))
    env = core.build_environment(log, HORIZON, spec.config.decay_rate, profiles)
    return log, env, reputation.build_reputation(env, spec.config)


def _paths_digest(table) -> str:
    return hashlib.sha256(json.dumps(table.to_dict(), sort_keys=True).encode()).hexdigest()


def _record(spec: Spec, log, env, model, q) -> dict:
    report = composite.evaluate(
        env, log, q.trustor, q.trustee, q.category, HORIZON, spec.config, model
    )
    table = indirect.find_paths(env, log, q.trustor, q.trustee, q.category, spec.config)
    return {
        "workload": spec.name,
        "trustor": q.trustor,
        "trustee": q.trustee,
        "category": q.category,
        "report": {name: getattr(report, name) for name in REPORT_FIELDS},
        "paths_sha256": _paths_digest(table),
    }


def _entry_problem(expected: dict, actual: dict) -> Optional[str]:
    for name in REPORT_FIELDS:
        want, got = expected["report"][name], actual["report"][name]
        if (want is None) != (got is None) or (
            want is not None and abs(want - got) > REPORT_TOLERANCE
        ):
            return f"{name}: expected {want!r}, got {got!r}"
    if expected["paths_sha256"] != actual["paths_sha256"]:
        return "find_paths table differs from the recorded digest"
    return None


def load_corpus() -> list[dict]:
    return json.loads(CORPUS_PATH.read_text())["entries"]


def check_corpus(name: str, sample: Optional[int], seed: int) -> list[tuple[str, Optional[str]]]:
    """Re-evaluate corpus entries of workload ``name``: all, or ``sample`` drawn by ``seed``.

    Returns one (label, problem or None) per entry checked.
    """
    spec = SPECS[name]
    entries = [e for e in load_corpus() if e["workload"] == name]
    if sample is not None and sample < len(entries):
        rng = SplitMix64(seed ^ CORPUS_STREAM)
        picked: list[int] = []
        while len(picked) < sample:
            index = rng.below(len(entries))
            if index not in picked:
                picked.append(index)
        entries = [entries[i] for i in sorted(picked)]
    log, env, model = _world(spec, DEFAULT_SEED)
    results = []
    for e in entries:
        q = Query(e["trustor"], e["trustee"], e["category"])
        label = f"corpus {name} {q.trustor}->{q.trustee} {q.category}"
        try:
            problem = _entry_problem(e, _record(spec, log, env, model, q))
        except Exception as exc:  # a raising query is a failed check, not a crash
            problem = f"{type(exc).__name__}: {exc}"
        results.append((label, problem))
    return results


def write_corpus() -> None:
    entries = []
    for spec in SPECS.values():
        log, env, model = _world(spec, DEFAULT_SEED)
        queries = spec.queries(DEFAULT_SEED, CORPUS_STREAM, log)
        entries.extend(_record(spec, log, env, model, queries[i]) for i in range(spec.corpus_size))
    CORPUS_PATH.write_text(json.dumps({"seed": DEFAULT_SEED, "entries": entries}, indent=1) + "\n")


def reputation_problem(spec: Spec, seed: int) -> Optional[str]:
    """Engine reputation against the dense oracle."""
    _, env, model = _world(spec, seed, ORACLE_AGENTS)
    nodes, reference = oracles.oracle_reputation(env, spec.config)
    if model.nodes != nodes:
        return "reputation node set differs from the oracle's"
    deviation = float(np.max(np.abs(model.vector - reference))) if nodes else 0.0
    if deviation > ORACLE_TOLERANCE:
        return f"reputation deviates from the oracle by {deviation!r}"
    return None


def main(argv: list[str]) -> int:
    if argv == ["write"]:
        write_corpus()
        print(f"wrote {len(load_corpus())} entries to {CORPUS_PATH.name}")
        return 0
    if argv == ["check"]:
        failed = 0
        for name in SPECS:
            for label, problem in check_corpus(name, None, DEFAULT_SEED):
                if problem is not None:
                    failed += 1
                    print(f"FAIL {label}: {problem}")
        print(f"{len(load_corpus()) - failed} of {len(load_corpus())} corpus entries agree")
        return 1 if failed else 0
    print(__doc__.split("The corpus is maintained")[1].strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
