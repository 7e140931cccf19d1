"""Command line entry point.

Experiment subcommands take --config (sectioned key/value or JSON), with
BMOFORGE_SEED and --seed / --out / --jobs overriding the config fields; a
bare run without --config is a config with only its kind, so its seed must
come from --seed or BMOFORGE_SEED. The flags pass their raw text on, and
config validation checks each like a file value. --jobs is validated and
ignored: case batteries run serially. Exit status is 0 iff every
acceptance-grade check in the run holds.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import (
    KINDS,
    SEED_ENV,
    ConfigError,
    ExperimentConfig,
    parse_config,
    parse_config_file,
)
from .experiments import run_experiment
from .report import report_summary


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmoforge",
        description="Exact and Monte Carlo verification lab for bounded mean "
                    "oscillation bounds on stochastic processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", help="config file (sectioned text or JSON)")
        p.add_argument("--seed", help="master seed (overrides config)")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--jobs", help="worker count; accepted and ignored (runs are serial)")
    rep = sub.add_parser("report", help="aggregate manifests into one table")
    rep.add_argument("manifests", nargs="*", help="manifest.json paths")
    rep.add_argument("--out", help="also write the aggregate table as CSV here")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    if args.config:
        text = parse_config_file(args.config)
    else:
        text = f"[experiment]\nkind = {args.command}\n"
    # Precedence: default < config file < environment < flag. Only the value
    # that takes effect is checked.
    overrides = []
    if SEED_ENV in os.environ:
        overrides.append((SEED_ENV, "seed", os.environ[SEED_ENV]))
    for key in ("seed", "out", "jobs"):
        if getattr(args, key) is not None:
            overrides.append((f"--{key}", key, getattr(args, key)))
    config = parse_config(text, overrides)
    if config.kind != args.command:
        raise ConfigError([
            f"kind: config file says {config.kind!r} but the "
            f"{args.command!r} subcommand was invoked"
        ])
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "report":
        try:
            _, text = report_summary(args.manifests, out_path=args.out)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        sys.stdout.write(text)
        return 0
    try:
        config = _resolve_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    manifest = run_experiment(config)
    status = "ok" if manifest.ok else "FAILED"
    print(f"{config.kind}: {status} (outputs in {config.out}, "
          f"config hash {manifest.config_hash[:12]})")
    return 0 if manifest.ok else 1


if __name__ == "__main__":
    sys.exit(main())
