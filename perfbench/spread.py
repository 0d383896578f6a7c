"""Run workloads at one or more seeds; print each run's figures and each metric's spread.

    python3 perfbench/spread.py                      # every workload once at the default seed
    python3 perfbench/spread.py --workload refresh --seeds 1-10 [--trace 1] [--json out.json]

Each run is its own ``run.py`` process, one after another; its summary line
(every end-to-end figure under the workload's own names, and the failure
ratio of its checks) is printed as it finishes.  With several seeds the
spread of each metric follows: the distance between the first and third
quartile (``statistics.quantiles`` with n=4) as a share of the median, the
figure the bounds in BENCHMARK.json are set against.  Exits non-zero if any
run failed a check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from checkout import ROOT


def seeds_arg(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if seed is not None:
        command += ["--seed", str(seed)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    print(done.stderr.strip().splitlines()[-1], flush=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "unit": results[0]["metrics"][name]["unit"],
        }
    return out


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", type=seeds_arg, default=[None])
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="write every result and the spreads here")
    args = parser.parse_args()
    names = [args.workload]
    if args.workload == "all":
        names = [w["name"] for w in declared["workloads"]]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    record, correct = {}, True
    for workload in names:
        results = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        correct = correct and all(r["correct"] for r in results)
        record[workload] = {"seeds": args.seeds, "runs": results}
        if len(results) < 2:
            continue
        record[workload]["summary"] = summary = summarize(results)
        for name, s in summary.items():
            limit = f"  bound {bounds[name]:.2f}" if name in bounds else ""
            print(
                f"{workload:14s} {name:34s} median {s['median']:12.6g} {s['unit']:6s} "
                f"spread {s['spread']:7.2%}{limit}"
            )
    if args.json:
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
