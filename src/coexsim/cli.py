"""Command-line entry points: run / campaign / report."""
from __future__ import annotations

import argparse
import sys

from .config import ConfigError, parse_config
from .runner import TRACES, emit_report, run_campaign, run_once


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coexsim")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a single seeded run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--trace", default="", help=f"comma list: {','.join(TRACES)}")
    p_run.add_argument("--out", required=True)

    p_camp = sub.add_parser("campaign", help="execute seeds 1..N for each access label")
    p_camp.add_argument("--config", required=True)
    p_camp.add_argument("--seeds", type=int, required=True)
    p_camp.add_argument("--parallel", type=int, default=1)
    p_camp.add_argument("--out", required=True)

    p_rep = sub.add_parser("report", help="aggregate runs into percentile boxes")
    p_rep.add_argument("--in", dest="in_dir", required=True)
    p_rep.add_argument("--out", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = parse_config(args.config)
            traces = tuple(t for t in args.trace.split(",") if t)
            result = run_once(cfg, args.seed, out_dir=args.out, traces=traces)
            print(
                f"run {result.label} seed={result.seed}: "
                f"{result.event_count} events in {result.wall_s:.1f}s"
            )
        elif args.command == "campaign":
            cfg = parse_config(args.config)
            if args.seeds < 1:
                raise ConfigError("value for key 'seeds' must be >= 1")
            if args.parallel < 1:
                raise ConfigError("value for key 'parallel' must be >= 1")
            outcomes = run_campaign(
                cfg, list(range(1, args.seeds + 1)), args.out, args.parallel
            )
            failures = [o for o in outcomes if o[2]]
            if failures:
                print(f"{len(failures)} run(s) failed", file=sys.stderr)
                return 1
        elif args.command == "report":
            emit_report(args.in_dir, args.out)
            print(f"wrote {args.out}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
