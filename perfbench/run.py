"""Run one workload of the trustnet benchmark and print its result as JSON.

    python3 perfbench/run.py --workload query-explore --seed 2026 --seconds 30 --trace 0
    python3 perfbench/run.py ... --world-seed 7919   # another world for the workload

Untraced (``--trace 0``) the run sets up ``SETUP_REPEATS`` times, warms up,
measures the closed loop for ``--seconds`` of operation time, reads its peak
RSS, and then runs the correctness checks; the last line of standard output
holds the end-to-end metrics.  Their times are in reference seconds: each
timed stretch is bracketed by host speed probes and scaled by them (see
``hostspeed``); the summary also prints the raw wall-clock figures.  Traced
(``--trace 1``) it measures half the time untraced, then installs the
tracer, sets up again and replays the same operations; the last line holds
the per-layer metrics derived from the spans.
A human-readable summary goes to standard error.

Metric names and units are those listed in the checkout's BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
from checkout import ROOT, use_checkout_engine

SETUP_REPEATS = 3
PROBE_EVERY_S = 0.5  # operation time between two host speed probes


@dataclass
class Loop:
    latencies: list[float] = field(default_factory=list)  # reference seconds
    wall: list[float] = field(default_factory=list)  # wall-clock seconds
    failures: list[str] = field(default_factory=list)
    busy: float = 0.0  # wall-clock seconds spent inside operations
    probes: list[float] = field(default_factory=list)


def timed_loop(workload, tracer, seconds: float = 0.0, ops: int = 0) -> Loop:
    """Run operations back to back: for ``seconds`` of operation time, or ``ops`` of them.

    Only the operation itself is timed; its output is checked between
    operations, off the clock.  An operation fails if it raises or its
    output fails the check.  A host speed probe runs before the first
    operation and after every ``PROBE_EVERY_S`` of operation time; the
    operations between two probes are scaled by those two.
    """
    loop = Loop(probes=[hostspeed.probe()])
    pending = 0  # operations since the last probe
    since_probe = 0.0
    op = 0
    while True:
        with tracer.root("op", op):
            start = time.perf_counter()
            try:
                result = workload.run(op)
            except Exception as exc:  # counted as a failed operation
                result, problem = None, f"{type(exc).__name__}: {exc}"
            else:
                problem = None
            latency = time.perf_counter() - start
        loop.wall.append(latency)
        loop.busy += latency
        pending += 1
        since_probe += latency
        done = len(loop.wall)
        stop = (done >= ops) if ops else workload.should_stop(done, loop.busy, seconds)
        if stop or since_probe >= PROBE_EVERY_S:
            loop.probes.append(hostspeed.probe())
            factor = hostspeed.scale(loop.probes[-2], loop.probes[-1])
            loop.latencies.extend(t * factor for t in loop.wall[-pending:])
            pending, since_probe = 0, 0.0
        if problem is None:
            with tracer.root("check", op):
                problem = workload.check(op, result)
        del result
        if problem is not None:
            loop.failures.append(f"op {op}: {problem}")
        if stop:
            return loop
        op += 1


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(workload, seconds: float):
    from tracing import NullTracer

    setups, wall_setups = [], []
    for _ in range(SETUP_REPEATS):
        before = hostspeed.probe()
        start = time.perf_counter()
        workload.setup()
        wall_setups.append(time.perf_counter() - start)
        setups.append(wall_setups[-1] * hostspeed.scale(before, hostspeed.probe()))
    for op in range(workload.spec.warmup_ops):
        workload.run(op)
    loop = timed_loop(workload, NullTracer(), seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat, wall = loop.latencies, loop.wall
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": percentile(lat, 50) * 1e3,
        "op_p90_ms": percentile(lat, 90) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    # p99 only where at least ten samples lie beyond it, so it is not gated.
    extra = {"op_p99_ms": percentile(lat, 99) * 1e3} if len(lat) >= 1000 else {}
    extra.update(
        host_speed=statistics.median(hostspeed.REFERENCE_S / p for p in loop.probes),
        wall_setup_s=statistics.median(wall_setups),
        wall_ops_per_s=len(wall) / loop.busy,
        wall_op_p50_ms=percentile(wall, 50) * 1e3,
        wall_op_p90_ms=percentile(wall, 90) * 1e3,
    )
    return metrics, extra, loop, workload.final_checks()


def per_layer(workload, seconds: float):
    from tracing import CountingLog, NullTracer, Tracer, layer_metrics

    workload.setup()
    for op in range(workload.spec.warmup_ops):
        workload.run(op)
    plain = timed_loop(workload, NullTracer(), seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        workload.make_log = lambda records: CountingLog(records, tracer)
        with tracer.root("setup"):
            workload.setup()
        traced = timed_loop(workload, tracer, ops=len(plain.latencies))
        with tracer.root("check"):
            final = workload.final_checks()
    finally:
        tracer.uninstall()
    metrics = layer_metrics(
        tracer.spans, workload.spec.config.search_steps,
        sum(traced.latencies) / sum(plain.latencies),
    )
    both = Loop(
        plain.latencies + traced.latencies, failures=plain.failures + traced.failures
    )
    return metrics, {}, both, final


def run(
    name: str, seed: int, world_seed: int, seconds: float, trace: bool, work: Path
) -> tuple[dict, dict, int, list[str]]:
    """Run the workload and every check; returns metrics, summary extras, attempted, failures."""
    import checks
    from workloads import make_workload

    workload = make_workload(name, seed, work, world_seed)
    measure = per_layer if trace else end_to_end
    metrics, extra, loop, final = measure(workload, seconds)
    final.append(("reputation oracle", checks.reputation_problem(workload.spec, seed)))
    final += checks.check_corpus(name, workload.spec.corpus_sample, seed)
    failures = loop.failures + [f"{label}: {problem}" for label, problem in final if problem]
    extra["ops"] = len(loop.latencies)
    return metrics, extra, len(loop.latencies) + len(final), failures


def workload_names(workload: str, summary: dict) -> dict:
    """The end-to-end figures under the names used when discussing a workload.

    An operation is one ``evaluate`` on the query workloads and one epoch on
    ``refresh``; the gated metrics keep the neutral ``op`` names because
    every workload has to report every one of them.
    """
    if workload == "refresh":
        renamed = {
            "ops_per_s": "epochs_per_s",
            "op_p50_ms": "refresh_p50_s",
            "op_p90_ms": "refresh_p90_s",
            "ops": "epochs",
        }
        scale = {"op_p50_ms": 1e-3, "op_p90_ms": 1e-3}
    else:
        renamed = {
            "ops_per_s": "queries_per_s",
            "op_p50_ms": "query_p50_ms",
            "op_p90_ms": "query_p90_ms",
            "op_p99_ms": "query_p99_ms",
            "ops": "queries",
        }
        scale = {}
    out = {}
    for key, value in summary.items():
        prefix = "wall_" if key.startswith("wall_") else ""
        base = key[len(prefix):]
        out[prefix + renamed.get(base, base)] = value * scale.get(base, 1.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--world-seed", type=int, default=None,
        help="generate the workload's world at this seed (default 2026)",
    )
    args = parser.parse_args(argv)

    use_checkout_engine()
    from workloads import DEFAULT_SEED, SPECS

    if args.workload not in SPECS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(SPECS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    world_seed = DEFAULT_SEED if args.world_seed is None else args.world_seed
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        metrics, extra, attempted, failures = run(
            args.workload, seed, world_seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    summary = {**metrics, **extra, "fail_ratio": len(failures) / attempted}
    if not args.trace:
        summary = workload_names(args.workload, summary)
    print(
        f"{args.workload} seed={seed}"
        + ("" if world_seed == DEFAULT_SEED else f" world_seed={world_seed}")
        + f" trace={args.trace}: "
        + ", ".join(f"{k}={v:.6g}" for k, v in summary.items()),
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
