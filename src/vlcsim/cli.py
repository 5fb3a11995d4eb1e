"""Command line front end: run one experiment preset, write one table.

Exit codes: 0 on success, 2 for configuration problems (unreadable or
invalid config, unknown experiment, bad flag values), 3 for failures
while running or writing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import default_config, load_config
from .errors import (
    ConfigParseError,
    ConfigValidationError,
    UnknownExperimentError,
)
from .experiments import export, list_experiments, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlcsim",
        description="indoor optical wireless channel simulator",
    )
    parser.add_argument("--config", metavar="PATH",
                        help="YAML configuration file; defaults when omitted")
    parser.add_argument("--experiment", metavar="NAME",
                        help="preset to run; see --list")
    parser.add_argument("--seed", type=int, metavar="U64",
                        help="override the master seed")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default: current)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default: csv)")
    parser.add_argument("--ensemble", type=int, metavar="N",
                        help="override the preset's Monte-Carlo run count")
    parser.add_argument("--threads", type=int, metavar="N",
                        help="worker threads; never changes the output bytes")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for name, description in list_experiments():
            print(f"{name}: {description}")
        return 0
    if not args.experiment:
        parser.print_usage(sys.stderr)
        print("vlcsim: --experiment is required (or use --list)", file=sys.stderr)
        return 2

    try:
        cfg = load_config(args.config) if args.config else default_config()
        if args.seed is not None:
            cfg = cfg.merged({"ensemble": {"master_seed": args.seed}})
    except (ConfigParseError, ConfigValidationError) as exc:
        print(f"vlcsim: config error: {exc}", file=sys.stderr)
        return 2

    try:
        table = run_experiment(
            args.experiment, cfg, ensemble=args.ensemble, threads=args.threads)
    except UnknownExperimentError as exc:
        print(f"vlcsim: {exc}", file=sys.stderr)
        return 2
    except ConfigValidationError as exc:
        print(f"vlcsim: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"vlcsim: runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    out_path = Path(args.out) / f"{args.experiment}.{args.format}"
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        export(table, out_path, args.format)
    except OSError as exc:
        print(f"vlcsim: cannot write output: {exc}", file=sys.stderr)
        return 3
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
