"""Command-line front end.

Subcommands:
  run       full experiment for one config (optionally a batch of seeds)
  spectrum  spectral diagnostics only
  oracle    Monte-Carlo moment estimates against the analytic predictions

Output directory precedence: --out flag, then the ERGOQUENCH_OUTPUT_DIR
environment variable, then output_dir from the config file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .ergodic_ensemble import second_moment_expectation
from .errors import PipelineError
from .experiment import (MAX_COUNT, ExperimentConfig, _stage,
                         prepare_protocol_state, prepare_quench,
                         prepare_spectrum, run_experiment, write_artifacts)
from .haar_oracle import sample_traces, summarize

ENV_OUTPUT_DIR = "ERGOQUENCH_OUTPUT_DIR"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergoquench",
        description="Equilibration of disordered XXX chains vs ensemble predictions")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full experiment")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_run.add_argument("--realizations", type=int, default=None,
                       help="batch over this many consecutive disorder seeds")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_spec = sub.add_parser("spectrum", help="spectral diagnostics only")
    p_spec.add_argument("--config", required=True)
    p_spec.set_defaults(func=cmd_spectrum)

    p_orc = sub.add_parser("oracle", help="Monte-Carlo moment estimates")
    p_orc.add_argument("--config", required=True)
    p_orc.add_argument("--order", type=int, required=True)
    p_orc.add_argument("--samples", type=int, required=True)
    p_orc.set_defaults(func=cmd_oracle)
    return parser


def _load_config(path) -> ExperimentConfig:
    try:
        return ExperimentConfig.from_file(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise PipelineError("config", str(exc)) from exc


def _resolve_out_dir(args, config: ExperimentConfig) -> str:
    if getattr(args, "out", None):
        return args.out
    return os.environ.get(ENV_OUTPUT_DIR) or config.output_dir


def cmd_run(args) -> int:
    config = _load_config(args.config)
    out_root = _resolve_out_dir(args, config)
    if args.realizations is None:
        result = run_experiment(config)
        write_artifacts(result, out_root)
        print(f"run: seed {config.disorder_seed} done in "
              f"{result.report.runtime_seconds:.1f} s -> {out_root}")
        return 0

    if args.realizations < 1:
        raise PipelineError("config", "--realizations must be >= 1")
    seeds = [config.disorder_seed + k for k in range(args.realizations)]
    try:  # every seed of the batch is checked before the first run
        configs = [dataclasses.replace(config, disorder_seed=s) for s in seeds]
    except ValueError as exc:
        raise PipelineError("config", str(exc)) from exc
    ratios = []
    for seed, cfg in zip(seeds, configs):
        result = run_experiment(cfg)
        write_artifacts(result, os.path.join(out_root, f"seed_{seed}"))
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
    aggregate = {"seeds": seeds, "r_mean_per_seed": ratios,
                 "r_mean_average": average, "r_mean_std": std}
    path = os.path.join(out_root, "aggregate.json")
    with open(path, "w") as f:
        json.dump(aggregate, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")
    print(f"run: batch of {len(seeds)} seeds -> {path}")
    return 0


def cmd_spectrum(args) -> int:
    config = _load_config(args.config)
    spec = prepare_spectrum(config)
    e_min, e_max = spec.bounds
    print(json.dumps({
        "dim": spec.basis.dim,
        "e_min": e_min,
        "e_max": e_max,
        "spectral_width": e_max - e_min,
        "r_mean": spec.r_mean,
        "degeneracy_tol": spec.degeneracy_tol,
        "n_sectors": spec.partition.n_sectors,
    }, indent=2, sort_keys=True, allow_nan=False))
    return 0


def cmd_oracle(args) -> int:
    if args.order < 1:
        raise PipelineError("config", f"--order must be >= 1, got {args.order}")
    # the bound mc_samples has: no float64 array holds more values
    if not 2 <= args.samples <= MAX_COUNT:
        raise PipelineError("config", f"--samples must be 2 to {MAX_COUNT}, "
                                      f"got {args.samples}")
    config = _load_config(args.config)
    q = prepare_quench(config)

    out: dict = {"order": args.order, "n_samples": args.samples,
                 "protocols": {}}
    with _stage("oracle"):
        for protocol in config.protocols:
            rho0 = prepare_protocol_state(q.phi1, q.phi2, protocol)
            block = {}
            # one sampling pass for every observable
            traces = sample_traces(rho0, q.partition, q.observables.values(),
                                   n_samples=args.samples,
                                   seed=config.disorder_seed)
            for (name, obs), values in zip(q.observables.items(), traces):
                prod = values
                for _ in range(args.order - 1):
                    prod = prod * values
                est = summarize(prod)
                entry = {"estimate": est.value, "std_error": est.std_error}
                if args.order <= 2:
                    pred = second_moment_expectation(rho0, q.partition, obs, obs)
                    entry["analytic"] = (pred.mean_a if args.order == 1
                                         else pred.second_moment)
                block[name] = entry
            out["protocols"][protocol] = block
    print(json.dumps(out, indent=2, sort_keys=True, allow_nan=False))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything unexpected still gets a stage tag
        print(f"error: [unexpected] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
