"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.

Criterion 1 is expected to fail: its golden target is 0.75 at 1e-9, but the
weighted aggregation formula the engine (and its exhaustive oracle)
implement yields 113/150 = 0.753333... for those inputs; 0.75 only holds as
a two-decimal rounding.  The formula-level behaviour is covered exactly in
tests/test_indirect.py; the criterion is kept as stated rather than
loosened to the rounded figure.
"""

import time

import numpy as np
import pytest

from trustnet import (
    AgentProfile,
    CompositeInputs,
    GenParams,
    RatingModel,
    TrustConfig,
    aggregate,
    alpha,
    beta,
    build_environment,
    build_reputation,
    direct_trust,
    evaluate,
    find_paths,
    generate,
    load_snapshot,
    save_snapshot,
)
from trustnet.oracles import compare_indirect, compare_reputation, oracle_reputation

from helpers import rec


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


# --- 1: two-path aggregation golden value ----------------------------------

def test_criterion_1_two_path_golden_value():
    log = [
        rec("tr", "x1", 0.9, "c1", 1.0),
        rec("x1", "a1", 0.7, "c1", 1.0),
        rec("tr", "x2", 0.8, "c1", 1.0),
        rec("x2", "a2", 0.9, "c1", 1.0),
        rec("a1", "te", 0.7, "c1", 1.0),
        rec("a2", "te", 0.8, "c1", 1.0),
    ]
    env = build_environment(log, 10.0, 0.0)
    cfg = TrustConfig(decay_rate=0.0, recency_rate=0.0)
    table = find_paths(env, log, "tr", "te", "c1", cfg)
    pairs = sorted(
        (row.rating, table.rows[row.advisor].cum_trust) for row in table.trustee_rows
    )
    assert pairs == [(0.7, pytest.approx(0.63)), (0.8, pytest.approx(0.72))]
    value = aggregate(table, 0.6, cfg.path_decay)
    ok = abs(value - 0.75) <= 1e-9
    verdict(1, "two-path aggregation golden value", ok, f"got {value!r}")
    assert ok, (
        f"aggregate returned {value!r}; the weighted mean "
        f"(0.7*0.63 + 0.8*0.72) / (0.63 + 0.72) equals 113/150 = {113 / 150!r}, "
        "which is not 0.75 within 1e-9"
    )


# --- 2: weight case grid -----------------------------------------------------

def test_criterion_2_weight_case_grid():
    def row(n_same=0, n_other=0, n_paths=0, bar=4.0, did=True):
        return CompositeInputs(n_same, n_other, n_paths, bar, did)

    checks = [
        (alpha(row(n_same=0, n_other=0)), 0.0),            # newcomer
        (alpha(row(n_same=0, n_other=2)), 2 / 8),          # sparse cross-category
        (alpha(row(n_same=0, n_other=4)), 0.5),            # cross-category at the bar
        (alpha(row(n_same=0, n_other=9)), 0.5),            # cross-category above the bar
        (alpha(row(n_same=3)), 0.75),                      # partial same-category
        (alpha(row(n_same=4)), 1.0),                       # boundary n_same == bar
        (alpha(row(n_same=7)), 1.0),                       # saturated
        (beta(0.3, row(n_paths=9, did=False)), 0.0),       # untried category
        (beta(0.5, row(n_paths=2)), 0.25),                 # partial paths
        (beta(0.25, row(n_paths=4)), 0.75),                # boundary n_paths == bar
        (beta(0.25, row(n_paths=6)), 0.75),                # saturated paths
        (beta(0.0, row(n_paths=0, did=False)), 0.0),       # newcomer: both weights zero
    ]
    worst = max(abs(got - want) for got, want in checks)
    ok = worst <= 1e-12
    verdict(2, "alpha/beta case grid", ok, f"max error {worst:.2e}")
    assert ok


# --- 3: indirect-trust oracle equivalence ------------------------------------

def test_criterion_3_indirect_oracle_equivalence():
    started = time.perf_counter()
    report = compare_indirect(range(100), TrustConfig(), max_agents=8, max_categories=3)
    elapsed = time.perf_counter() - started
    ok = report["mismatches"] == 0 and report["max_deviation"] <= 1e-9 and elapsed < 10.0
    verdict(
        3,
        "indirect oracle equivalence",
        ok,
        f"{report['mismatches']} mismatches over {report['instances']} instances "
        f"({report['acyclic']} acyclic, {report['cyclic']} cyclic), {elapsed:.2f}s",
    )
    for deviation in report["deviations"]:
        print(f"  mismatch: {deviation}")
    assert report["instances"] == 100
    assert report["mismatches"] == 0
    assert report["max_deviation"] <= 1e-9
    assert elapsed < 10.0


# --- 4: reputation oracle equivalence -----------------------------------------

def test_criterion_4_reputation_oracle_equivalence():
    started = time.perf_counter()
    report = compare_reputation(range(50), TrustConfig(), max_agents=50)
    elapsed = time.perf_counter() - started
    ok = (
        report["mismatches"] == 0
        and report["max_deviation"] <= 1e-8
        and report["max_row_sum_error"] <= 1e-9
        and report["max_iterations_used"] <= 1000
        and report["all_converged"]
        and elapsed < 10.0
    )
    verdict(
        4,
        "reputation oracle equivalence",
        ok,
        f"max deviation {report['max_deviation']:.2e}, row-sum error "
        f"{report['max_row_sum_error']:.2e}, iterations <= "
        f"{report['max_iterations_used']}, {elapsed:.2f}s",
    )
    assert ok, report["failures"]


# --- 5: newcomer behaviour ------------------------------------------------------

def test_criterion_5_newcomer_mean_reputation():
    log = [
        rec("C", "D", 0.9, "c1", 1.0),
        rec("D", "E", 0.8, "c1", 2.0),
        rec("E", "C", 0.7, "c1", 3.0),
        rec("F", "D", 0.6, "c1", 4.0),
        rec("C", "F", 0.9, "c2", 5.0),
    ]
    newcomer = AgentProfile(id="N", completed=frozenset(), able=frozenset({"c1"}))
    cfg = TrustConfig(decay_rate=0.0)
    env = build_environment(log, 10.0, 0.0, [newcomer])
    report = evaluate(env, log, "C", "N", "c1", 10.0, cfg)
    model = build_reputation(env, cfg)
    expected = float(np.mean(model.vector))
    _, reference = oracle_reputation(env, cfg)
    deviation = abs(report.trust - expected)
    ok = (
        report.alpha == 0.0
        and report.beta == 0.0
        and deviation <= 1e-12
        and abs(report.trust - float(np.mean(reference))) <= 1e-12
    )
    verdict(5, "newcomer gets mean reputation", ok, f"trust {report.trust!r}")
    assert ok


# --- 6: direct-trust properties ---------------------------------------------------

def test_criterion_6_direct_trust_properties():
    ratings = [0.9, 0.1, 0.5, 0.7, 0.3]
    log = [rec("A", "B", r, "c1", float(i)) for i, r in enumerate(ratings)]
    plain = direct_trust(build_environment(log, 100.0, 0.0), "A", "B", "c1").value
    mean_ok = abs(plain - sum(ratings) / len(ratings)) <= 1e-12

    base_log = [rec("A", "B", 0.9, "c1", 2.0), rec("A", "B", 0.1, "c1", 7.0)]
    base = direct_trust(build_environment(base_log, 10.0, 0.3), "A", "B", "c1").value
    shift_ok = True
    for shift in (1.0, 64.0, 4096.0):
        shifted = [rec("A", "B", r.rating, "c1", r.time + shift) for r in base_log]
        shift_ok = shift_ok and (
            direct_trust(build_environment(shifted, 10.0 + shift, 0.3), "A", "B", "c1").value
            == base
        )

    decayed_log = [rec("A", "B", 1.0, "c1", 0.0), rec("A", "B", 0.0, "c1", 9.0)]
    decayed = direct_trust(build_environment(decayed_log, 10.0, 0.1), "A", "B", "c1").value
    decay_ok = abs(decayed - 0.289050) <= 1e-6

    ok = mean_ok and shift_ok and decay_ok
    verdict(
        6,
        "direct-trust properties",
        ok,
        f"mean delta {abs(plain - sum(ratings) / len(ratings)):.1e}, "
        f"shift exact {shift_ok}, decay value {decayed:.6f}",
    )
    assert ok


# --- 7: determinism and scale -------------------------------------------------------

def test_criterion_7_determinism_and_scale():
    params = GenParams(
        seed=2026,
        n_agents=1000,
        n_interactions=10000,
        rating_model=RatingModel.PER_AGENT_QUALITY,
        newcomer_fraction=0.05,
    )
    profiles, log = generate(params)
    cfg = TrustConfig()

    started = time.perf_counter()
    env = build_environment(log, 100.0, cfg.decay_rate, profiles)
    report = evaluate(env, log, "a001", "a500", "c0", 100.0, cfg)
    elapsed = time.perf_counter() - started

    profiles_b, log_b = generate(params)
    env_b = build_environment(log_b, 100.0, cfg.decay_rate, profiles_b)
    report_b = evaluate(env_b, log_b, "a001", "a500", "c0", 100.0, cfg)

    identical = report.to_json().encode() == report_b.to_json().encode()
    ok = identical and elapsed < 1.0
    verdict(
        7,
        "determinism and scale",
        ok,
        f"byte-identical {identical}, build+evaluate {elapsed:.3f}s",
    )
    assert ok


# --- 8: snapshot round trips -----------------------------------------------------------

def test_criterion_8_snapshot_round_trips(tmp_path):
    failures = 0
    for seed in range(100):
        profiles, log = generate(
            GenParams(
                seed=seed,
                n_agents=5 + seed % 12,
                n_interactions=25 + seed % 40,
                newcomer_fraction=0.1 if seed % 3 == 0 else 0.0,
            )
        )
        env = build_environment(log, 100.0, 0.01, profiles)
        path = tmp_path / f"{seed}.snap"
        save_snapshot(env, path)
        loaded, _ = load_snapshot(path)
        if loaded != env:
            failures += 1
    ok = failures == 0
    verdict(8, "snapshot round trips", ok, f"{100 - failures}/100 value-identical")
    assert ok
