"""Command line entry point.

Experiment subcommands take --config (sectioned key/value or JSON), with
--seed / --out / --jobs overriding the config fields; a bare run without
--config uses the kind's documented defaults and still needs a seed from
--seed or BMOFORGE_SEED. --jobs is accepted and ignored: case batteries run
serially. Exit status is 0 iff every acceptance-grade check in the run holds.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import (
    KIND_SCHEMAS,
    KINDS,
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    parse_config_file,
)
from .experiments import run_experiment
from .report import report_summary

SEED_ENV = "BMOFORGE_SEED"


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
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--jobs", type=int,
                       help="worker count; accepted and ignored (runs are serial)")
    rep = sub.add_parser("report", help="aggregate manifests into one table")
    rep.add_argument("manifests", nargs="*", help="manifest.json paths")
    rep.add_argument("--out", help="also write the aggregate table as CSV here")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    if args.config:
        config = parse_config_file(args.config)
        if config.kind != args.command:
            raise ConfigError([
                f"kind: config file says {config.kind!r} but the "
                f"{args.command!r} subcommand was invoked"
            ])
    else:
        defaults = {name: spec.default for name, spec in KIND_SCHEMAS[args.command].items()}
        config = ExperimentConfig(kind=args.command, seed=0, params=defaults)
        if args.seed is None and SEED_ENV not in os.environ:
            raise ConfigError(["seed: required (use --config, --seed, or "
                               f"the {SEED_ENV} environment variable)"])
    # Precedence: config < environment < explicit flag. Only the seed that
    # takes effect is checked.
    overrides = []
    if args.seed is not None:
        overrides.append(("--seed", "seed", args.seed))
    elif SEED_ENV in os.environ:
        overrides.append((SEED_ENV, "seed", os.environ[SEED_ENV]))
    if args.jobs is not None:
        overrides.append(("--jobs", "jobs", args.jobs))
    apply_overrides(config, overrides)
    if args.out is not None:
        if not args.out.strip():
            raise ConfigError([f"--out: expected a nonempty path (got {args.out!r})"])
        config.out = args.out
    # The output directory, or its nearest existing ancestor, must be a directory.
    for path in (Path(config.out), *Path(config.out).parents):
        if path.exists():
            if not path.is_dir():
                source = "--out" if args.out is not None else "out"
                raise ConfigError([f"{source}: {path} exists and is not a directory"])
            break
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
