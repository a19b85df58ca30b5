"""Command-line front end.

Subcommands:
  run       full experiment for one config (optionally a batch of seeds)
  spectrum  spectral diagnostics only
  oracle    Monte-Carlo moment estimates against the analytic predictions
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .errors import PipelineError
from .experiment import (ExperimentConfig, _stage, prediction_block,
                         prepare_protocol_state, prepare_quench,
                         prepare_spectrum, run_experiment, spectral_block,
                         write_artifacts)

# the columns of the table a single run prints, one row per series
TABLE_KEYS = ("theory_mean", "numeric_mean", "theory_sigma", "numeric_sigma")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergoquench",
        description="Equilibration of disordered XXX chains vs ensemble predictions")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full experiment")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_run.add_argument("--realizations", type=int, default=None,
                       help="batch over this many consecutive disorder seeds")
    p_run.add_argument("--out", default="runs",
                       help="output directory (default: runs)")
    p_run.set_defaults(func=cmd_run)

    p_spec = sub.add_parser("spectrum", help="spectral diagnostics only")
    p_spec.add_argument("--config", required=True)
    p_spec.set_defaults(func=cmd_spectrum)

    p_orc = sub.add_parser("oracle", help="Monte-Carlo moment estimates")
    p_orc.add_argument("--config", required=True)
    p_orc.set_defaults(func=cmd_oracle)
    return parser


def _load_config(path) -> ExperimentConfig:
    try:
        return ExperimentConfig.from_file(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise PipelineError("config", str(exc)) from exc


def cmd_run(args) -> int:
    config = _load_config(args.config)
    if args.realizations is None:
        with _stage("report"):  # an unusable --out fails before any work
            os.makedirs(args.out, exist_ok=True)
        result = run_experiment(config)
        write_artifacts(result, args.out)
        print(f"{'protocol':8s} {'obs':4s}"
              + "".join(f" {key:>13s}" for key in TABLE_KEYS))
        for protocol, block in result.report.protocols.items():
            for name, entry in block.items():
                print(f"{protocol:8s} {name:4s}"
                      + "".join(f" {entry[key]:13.4e}" for key in TABLE_KEYS))
        print(f"run: seed {config.disorder_seed} done in "
              f"{result.report.runtime_seconds:.1f} s -> {args.out}")
        return 0

    if args.realizations < 1:
        raise PipelineError("config", "--realizations must be >= 1")
    first = config.disorder_seed
    seeds = range(first, first + args.realizations)
    try:  # only the last seed can reach 2**64: check it before any run
        dataclasses.replace(config, disorder_seed=seeds[-1])
    except ValueError as exc:
        raise PipelineError("config", str(exc)) from exc
    path = os.path.join(args.out, "aggregate.json")
    with _stage("report"):
        os.makedirs(args.out, exist_ok=True)
        if os.path.isdir(path):
            raise IsADirectoryError(f"{path} is a directory")
    ratios = []
    for seed in seeds:
        result = run_experiment(dataclasses.replace(config, disorder_seed=seed))
        write_artifacts(result, os.path.join(args.out, f"seed_{seed}"))
        r_mean = result.report.spectral["r_mean"]
        ratios.append(r_mean)
        print(f"run: seed {seed} done in {result.report.runtime_seconds:.1f} s, "
              f"r_mean={'null' if r_mean is None else f'{r_mean:.4f}'}")
    # sectors too small for a gap ratio report null and are left out
    defined = [r for r in ratios if r is not None]
    average = std = None
    if defined:
        average = float(np.mean(defined))
        std = float(np.std(defined, ddof=1)) if len(defined) > 1 else 0.0
    aggregate = {"seeds": list(seeds), "r_mean_per_seed": ratios,
                 "r_mean_average": average, "r_mean_std": std}
    with _stage("report"), open(path, "w") as f:
        json.dump(aggregate, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")
    print(f"run: batch of {args.realizations} seeds -> {path}")
    return 0


def cmd_spectrum(args) -> int:
    spec = prepare_spectrum(_load_config(args.config))
    print(json.dumps(spectral_block(spec), indent=2, sort_keys=True,
                     allow_nan=False))
    return 0


def cmd_oracle(args) -> int:
    config = _load_config(args.config)
    if config.mc_samples == 0:
        raise PipelineError("config", "oracle needs mc_samples >= 2, got 0")
    q = prepare_quench(config)
    with _stage("oracle"):
        protocols = {p: prediction_block(
            q, prepare_protocol_state(q.phi1, q.phi2, p), config.mc_samples,
            config.disorder_seed) for p in config.protocols}
    print(json.dumps({"protocols": protocols}, indent=2, sort_keys=True,
                     allow_nan=False))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every non-finite result already fails a check with a stage tag,
        # so numpy's floating-point warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything unexpected still gets a stage tag
        print(f"error: [unexpected] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
