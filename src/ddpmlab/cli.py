"""Command-line entry point.

    ddpmlab run <config-path> [--seed N] [--out DIR]
    ddpmlab plotdata <report> --out FILE

Exit status: 0 all assertions pass, 1 assertion failures, 2 config/parse
errors (a value the library rejects while a run builds its inputs included),
3 I/O failures.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import ConfigError, parse_config, plotdata, run

EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ddpmlab",
                                     description="DDPM sampler laboratory runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a config-driven experiment")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_plot = sub.add_parser("plotdata", help="emit gnuplot columns from a report")
    p_plot.add_argument("report")
    p_plot.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_IO
        try:
            cfg = parse_config(text)
            if args.seed is not None:
                cfg.values["seed"] = args.seed
            return run(cfg, out_dir=args.out)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except OSError as exc:
            print(f"error: I/O failure: {exc}", file=sys.stderr)
            return EXIT_IO
    try:  # plotdata: argparse requires one of the two commands
        plotdata(args.report, args.out)
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return 0


if __name__ == "__main__":
    sys.exit(main())
