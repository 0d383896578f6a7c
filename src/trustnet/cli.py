"""Command-line front end.

Every command prints exactly one JSON object to stdout; diagnostics and
errors go to stderr.  Exit codes: 0 success, 1 input error, 2 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .composite import evaluate
from .core import InvariantError, TrustConfig, TrustError, build_environment
from .indirect import find_paths
from .oracles import compare_indirect, compare_reputation
from .persist import (
    dump_log,
    dump_profiles,
    load_config,
    load_snapshot,
    parse_log,
    parse_profiles,
    save_snapshot,
)
from .reputation import build_reputation
from .simulate import GenParams, RatingModel, generate


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_in(low: int, high: Optional[int] = None):
    """An argparse type: an integer in [low, high], or >= low without ``high``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be an integer {bound}, got {value}")
        return value

    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trustnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_inputs(p, with_query: bool):
        p.add_argument("--log", required=True, help="interaction log (JSON lines)")
        p.add_argument("--config", help="config file (flat JSON); defaults when omitted")
        p.add_argument("--profiles", help="agent declarations (JSON lines)")
        p.add_argument("--time", type=float, required=True, help="evaluation time")
        if with_query:
            p.add_argument("--trustor", required=True)
            p.add_argument("--trustee", required=True)
            p.add_argument("--category", required=True)

    p_eval = sub.add_parser("eval", help="full trust evaluation")
    add_inputs(p_eval, with_query=True)

    p_paths = sub.add_parser("paths", help="dump the propagation table")
    add_inputs(p_paths, with_query=True)

    p_rep = sub.add_parser("reputation", help="normalized reputation vector")
    add_inputs(p_rep, with_query=False)

    p_gen = sub.add_parser("generate", help="write a seeded synthetic log")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--agents", type=int, default=10)
    p_gen.add_argument("--categories", type=int, default=2)
    p_gen.add_argument("--interactions", type=int, default=50)
    p_gen.add_argument(
        "--rating-model",
        choices=[m.value for m in RatingModel],
        default=RatingModel.UNIFORM.value,
    )
    p_gen.add_argument("--time-horizon", type=float, default=100.0)
    p_gen.add_argument("--newcomer-fraction", type=float, default=0.0)
    p_gen.add_argument("--out", required=True, help="log output path")
    p_gen.add_argument("--profiles-out", help="profiles output path")

    p_snap = sub.add_parser("snapshot", help="save or load environment snapshots")
    snap_sub = p_snap.add_subparsers(dest="snapshot_command", required=True, parser_class=_Parser)
    p_save = snap_sub.add_parser("save")
    add_inputs(p_save, with_query=False)
    p_save.add_argument("--out", required=True)
    p_save.add_argument(
        "--with-reputation", action="store_true", help="embed the reputation model"
    )
    p_load = snap_sub.add_parser("load")
    p_load.add_argument("--in", dest="path", required=True)

    p_oracle = sub.add_parser("oracle", help="run the brute-force comparison suites")
    p_oracle.add_argument("--suite", choices=["indirect", "reputation", "all"], default="all")
    p_oracle.add_argument("--config", help="config file (flat JSON)")
    # The ranges keep every instance within the oracles' limits (12 agents
    # for the path enumeration, 200 nodes for the dense reputation).  An
    # instance draws at most 4 * 12 - 1 = 47 records, so it uses no more
    # categories than that.
    option = p_oracle.add_argument
    option("--seeds", type=_int_in(1), default=100, help="indirect instance count")
    option("--agents", type=_int_in(4, 12), default=8, help="indirect max agents")
    option("--categories", type=_int_in(1, 47), default=3)
    option("--rep-seeds", type=_int_in(1), default=50, help="reputation instance count")
    option("--rep-agents", type=_int_in(10, 200), default=50, help="reputation max agents")

    return parser


def _load_inputs(args):
    config = load_config(args.config) if args.config else TrustConfig()
    records, errors = parse_log(args.log)
    if errors:
        for err in errors:
            print(f"log error: {err}", file=sys.stderr)
        raise TrustError(f"{len(errors)} malformed log line(s)")
    profiles = []
    if args.profiles:
        profiles, perrors = parse_profiles(args.profiles)
        if perrors:
            for err in perrors:
                print(f"profiles error: {err}", file=sys.stderr)
            raise TrustError(f"{len(perrors)} malformed profile line(s)")
    env = build_environment(records, args.time, config.decay_rate, profiles)
    return config, records, env


def _emit(payload) -> None:
    print(json.dumps(payload, allow_nan=False))


def _cmd_eval(args) -> int:
    config, records, env = _load_inputs(args)
    report = evaluate(
        env, records, args.trustor, args.trustee, args.category, args.time, config
    )
    _emit(report.to_dict())
    return 0


def _cmd_paths(args) -> int:
    config, records, env = _load_inputs(args)
    table = find_paths(env, records, args.trustor, args.trustee, args.category, config)
    _emit(table.to_dict())
    return 0


def _cmd_reputation(args) -> int:
    config, _, env = _load_inputs(args)
    model = build_reputation(env, config)
    _emit(
        {
            "nodes": model.nodes,
            "vector": [float(x) for x in model.vector],
            "iterations_used": model.iterations_used,
            "converged": model.converged,
            "mean": model.mean_reputation,
        }
    )
    return 0


def _cmd_generate(args) -> int:
    params = GenParams(
        seed=args.seed,
        n_agents=args.agents,
        n_categories=args.categories,
        n_interactions=args.interactions,
        rating_model=RatingModel(args.rating_model),
        time_horizon=args.time_horizon,
        newcomer_fraction=args.newcomer_fraction,
    )
    profiles, log = generate(params)
    dump_log(log, args.out)
    if args.profiles_out:
        dump_profiles(profiles, args.profiles_out)
    _emit(
        {
            "log": args.out,
            "profiles": args.profiles_out,
            "agents": params.n_agents,
            "interactions": len(log),
            "newcomers": int(params.newcomer_fraction * params.n_agents),
        }
    )
    return 0


def _cmd_snapshot(args) -> int:
    if args.snapshot_command == "save":
        config, _, env = _load_inputs(args)
        model = build_reputation(env, config) if args.with_reputation else None
        checksum = save_snapshot(env, args.out, model)
        _emit(
            {
                "path": args.out,
                "agents": len(env.ids),
                "edges": len(env.dst),
                "with_reputation": model is not None,
                "checksum": checksum,
            }
        )
        return 0
    env, model = load_snapshot(args.path)
    _emit(
        {
            "snapshot_time": env.snapshot_time,
            "decay_rate": env.decay_rate,
            "agents": len(env.ids),
            "edges": len(env.dst),
            "has_reputation": model is not None,
        }
    )
    return 0


def _cmd_oracle(args) -> int:
    config = load_config(args.config) if args.config else TrustConfig()
    suites = ("indirect", "reputation") if args.suite == "all" else (args.suite,)
    payload = {}
    if "indirect" in suites:
        payload["indirect"] = compare_indirect(
            range(args.seeds), config, max_agents=args.agents, max_categories=args.categories
        )
    if "reputation" in suites:
        payload["reputation"] = compare_reputation(
            range(args.rep_seeds), config, max_agents=args.rep_agents
        )
    _emit(payload)
    return 2 if any(report["mismatches"] > 0 for report in payload.values()) else 0


_COMMANDS = {
    "eval": _cmd_eval,
    "paths": _cmd_paths,
    "reputation": _cmd_reputation,
    "generate": _cmd_generate,
    "snapshot": _cmd_snapshot,
    "oracle": _cmd_oracle,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (InvariantError, AssertionError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (TrustError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
