"""Command line entry points: run one cell, run the full grid, compare."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .agents import VARIANTS
from .experiment import (
    CONDITION_CHOICES,
    ConfigError,
    ExperimentConfig,
    ReportError,
    compare_to_reference,
    parse_config,
    read_summary,
    run_experiment,
    run_full_grid,
)
from .game import METHODS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def _add_size_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trials", type=int, default=None, help="trials per cell (default 10)")
    parser.add_argument("--iterations", type=int, default=None, help="iterations per trial (default 300)")
    parser.add_argument("--seed", type=int, default=None, help="base seed (default 0)")
    parser.add_argument("--jobs", type=int, default=None, help="parallel trial workers (default 1)")
    parser.add_argument("--out", required=True, help="output directory for detail.csv and summary.csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signgame",
        description="Two-agent naming-game simulator over multimodal mixture models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one (variant, method, condition) cell")
    run_p.add_argument("--variant", choices=VARIANTS, default=None)
    run_p.add_argument("--method", choices=METHODS, default=None)
    run_p.add_argument("--condition", type=int, choices=CONDITION_CHOICES, default=None)
    run_p.add_argument("--config", default=None, help="JSON config file; flags override it")
    _add_size_flags(run_p)

    full_p = sub.add_parser("full", help="run all 24 grid cells")
    full_p.add_argument("--config", default=None, help="JSON config file; flags override it")
    _add_size_flags(full_p)

    cmp_p = sub.add_parser("compare", help="compare a summary.csv against published values")
    cmp_p.add_argument("--in", dest="in_dir", required=True, help="directory holding summary.csv")
    return parser


def _summary_line(summary: dict) -> str:
    kap = summary["kappa_mean"]
    kap_text = "--" if kap is None else f"{kap:.3f}"
    return (
        f"{summary['variant']} {summary['method']} condition {summary['condition']}: "
        f"ARI A {summary['ari_a_mean']:.3f} ARI B {summary['ari_b_mean']:.3f} kappa {kap_text}"
    )


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    # every other parsed argument is a config key; parse_config names an
    # unknown one and drops the flags left unset
    flags = {key: value for key, value in vars(args).items() if key not in ("command", "config", "out")}
    return parse_config(flags, args.config)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _config_from_args(args)
            summary = run_experiment(cfg, Path(args.out))
            print(_summary_line(summary))
        elif args.command == "full":
            cfg = _config_from_args(args)
            run_full_grid(cfg, Path(args.out), progress=lambda s: print(_summary_line(s), flush=True))
        elif args.command == "compare":
            rows = read_summary(Path(args.in_dir) / "summary.csv")
            sys.stdout.write(compare_to_reference(rows))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ReportError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        # sizes within their ranges whose arrays exceed the memory there is
        detail = f": {exc}" if str(exc) else ""
        print(f"config error: the sizes need more memory than there is{detail}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
