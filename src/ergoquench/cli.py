"""Command-line front end.

Subcommands:
  run       full experiment for one config (optionally a batch of seeds)
  spectrum  spectral diagnostics only
  oracle    Monte-Carlo moment estimates against the analytic predictions
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .errors import PipelineError
from .experiment import (ExperimentConfig, _stage, disorder_average,
                         json_text, prediction_block, prepare_protocol_state,
                         prepare_quench, prepare_spectrum, remove_artifacts,
                         run_experiment, spectral_block, write_artifacts)

# the columns of the table a single run prints, one row per series
TABLE_KEYS = ("theory_mean", "numeric_mean", "theory_sigma", "numeric_sigma")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergoquench",
        description="Equilibration of disordered XXX chains vs ensemble predictions")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a JSON config")

    p_run = sub.add_parser("run", parents=[common], help="run the full experiment")
    p_run.add_argument("--realizations", type=int, default=None,
                       help="batch over this many consecutive disorder seeds")
    p_run.add_argument("--out", default="runs",
                       help="output directory (default: runs)")
    p_run.set_defaults(func=cmd_run)

    p_spec = sub.add_parser("spectrum", parents=[common],
                            help="spectral diagnostics only")
    p_spec.set_defaults(func=cmd_spectrum)

    p_orc = sub.add_parser("oracle", parents=[common],
                           help="Monte-Carlo moment estimates")
    p_orc.set_defaults(func=cmd_oracle)
    return parser


def cmd_run(config, args) -> int:
    """A single run is the one-seed case, written into --out with its
    table printed; a batch writes seed_<k>/ per seed and aggregate.json."""
    batch = args.realizations is not None
    first = config.disorder_seed
    seeds = range(first, first + (args.realizations if batch else 1))
    if not seeds:
        raise PipelineError("config", "--realizations must be >= 1")
    with _stage("config"):  # only the last seed can reach 2**64: check it
        dataclasses.replace(config, disorder_seed=seeds[-1])  # before any run
    path = os.path.join(args.out, "aggregate.json")
    with _stage("report"):  # an unusable --out fails before any work
        os.makedirs(args.out, exist_ok=True)
        if batch and os.path.isdir(path):
            raise IsADirectoryError(f"{path} is a directory")
    ratios = []
    for seed in seeds:
        result = run_experiment(dataclasses.replace(config, disorder_seed=seed))
        out = os.path.join(args.out, f"seed_{seed}") if batch else args.out
        write_artifacts(result, out)
        r_mean = result.report.spectral["r_mean"]
        ratios.append(r_mean)
        done = f"run: seed {seed} done in {result.report.runtime_seconds:.1f} s"
        if batch:
            print(f"{done}, r_mean={'null' if r_mean is None else f'{r_mean:.4f}'}")
            continue
        print(f"{'protocol':8s} {'obs':4s}"
              + "".join(f" {key:>13s}" for key in TABLE_KEYS))
        for protocol, block in result.report.protocols.items():
            for name, entry in block.items():
                print(f"{protocol:8s} {name:4s}"
                      + "".join(f" {entry[key]:13.4e}" for key in TABLE_KEYS))
        print(f"{done} -> {out}")
    if batch:
        # sectors too small for a gap ratio report null and are left out
        average, std, _ = disorder_average(ratios)
        aggregate = {"seeds": list(seeds), "r_mean_per_seed": ratios,
                     "r_mean_average": average, "r_mean_std": std}
        with _stage("report"):
            with open(path, "w") as f:
                f.write(json_text(aggregate))
            kept = {f"seed_{seed}" for seed in seeds} | {"aggregate.json"}
            remove_artifacts(args.out, keep=kept)
        print(f"run: batch of {len(seeds)} seeds -> {path}")
    return 0


def cmd_spectrum(config, args) -> int:
    print(json_text(spectral_block(prepare_spectrum(config))), end="")
    return 0


def cmd_oracle(config, args) -> int:
    if config.mc_samples == 0:
        raise PipelineError("config", "oracle needs mc_samples >= 2, got 0")
    q = prepare_quench(config)
    with _stage("oracle"):
        protocols = {p: prediction_block(
            prepare_protocol_state(q.phi1, q.phi2, p), q.partition,
            q.observables, config.mc_samples, config.disorder_seed)
            for p in config.protocols}
    print(json_text({"protocols": protocols}), end="")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every non-finite result already fails a check with a stage tag,
        # so numpy's floating-point warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            with _stage("config"):
                config = ExperimentConfig.from_file(args.config)
            return args.func(config, args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything unexpected still gets a stage tag
        print(f"error: [unexpected] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
