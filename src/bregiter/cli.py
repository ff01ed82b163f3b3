"""Command line entry point.

Four subcommands map onto the harness: run, sweep, audit, rate.  All inputs
come from flags and config files; nothing is read from the environment.
-v sends the bregiter loggers' DEBUG lines (the progress of long loops and
first passages) to stderr, for that call only.
"""

from __future__ import annotations

import argparse
import logging

from . import __version__, harness


def _parse_window(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"window must look like a:b, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"window bounds must be integers: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bregiter",
        description="Averaged fixed-point iteration runner and audit harness",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", dest="verbose", action="store_true",
                        help="print progress lines of long loops and first passages to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run into a directory")
    p_run.add_argument("--config", required=True, help="path to a JSON run config")
    p_run.add_argument("--out", required=True, help="output directory for run artifacts")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument(
        "--set", dest="overrides", action="append", metavar="KEY=VALUE", default=[],
        help="override a config entry by dotted path, e.g. operator.params.gamma=0.7",
    )

    p_sweep = sub.add_parser("sweep", help="expand the config's sweep block and run every point")
    p_sweep.add_argument("--config", required=True, help="path to a JSON config with a sweep block")
    p_sweep.add_argument("--out", required=True, help="root directory for per-point run dirs")
    p_sweep.add_argument("--parallel", type=int, default=1, help="worker processes, this one included (1 = serial)")

    p_audit = sub.add_parser("audit", help="check the recorded bounds along a finished run")
    p_audit.add_argument("--dir", required=True, help="run directory produced by the run command")

    p_rate = sub.add_parser("rate", help="fit the decay rate of a trace file")
    p_rate.add_argument("--trace", required=True, help="path to a trace.csv")
    p_rate.add_argument(
        "--window", type=_parse_window, default=None,
        help="iteration window a:b for the fit (default: last nine tenths)",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.verbose:
        return _dispatch(args)
    logger, handler = logging.getLogger("bregiter"), logging.StreamHandler()  # stderr
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        return _dispatch(args)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        return harness.cmd_run(args.config, args.out, seed=args.seed, overrides=args.overrides)
    if args.command == "sweep":
        return harness.cmd_sweep(args.config, args.out, parallel=args.parallel)
    if args.command == "audit":
        return harness.cmd_audit(args.dir)
    return harness.cmd_rate(args.trace, window=args.window)


if __name__ == "__main__":
    raise SystemExit(main())
