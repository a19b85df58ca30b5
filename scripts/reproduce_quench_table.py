#!/usr/bin/env python3
"""Run the full-size quench and print the theory-vs-numerics table.

Example:
    python3 scripts/reproduce_quench_table.py --seed 0
    python3 scripts/reproduce_quench_table.py --length 10 --seed 3 --out runs/s3
"""

import argparse

from ergoquench.experiment import ExperimentConfig, run_experiment, write_artifacts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--length", type=int, default=12)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--h", type=float, default=1.0)
    ap.add_argument("--mc-samples", type=int, default=0,
                    help="optional sampling cross-check per observable")
    ap.add_argument("--out", default=None,
                    help="also write the artifact set to this directory")
    args = ap.parse_args()

    config = ExperimentConfig(L=args.length, h=args.h,
                              disorder_seed=args.seed,
                              mc_samples=args.mc_samples)
    result = run_experiment(config)
    rep = result.report

    r_mean = rep.spectral["r_mean"]  # null for sectors of fewer than 3 levels
    print(f"chain L={args.length}, h={args.h}, seed {args.seed}: "
          f"dim {rep.spectral['dim']}, "
          f"spectrum [{rep.spectral['e_min']:.3f}, {rep.spectral['e_max']:.3f}], "
          f"mean gap ratio {'null' if r_mean is None else f'{r_mean:.5f}'}")
    print(f"product-state energies: {rep.states['e1']:.4f} / {rep.states['e2']:.4f}, "
          f"shared eigenstate support {rep.states['overlap_sum']:.2e}")
    print()
    header = f"{'protocol':8s} {'obs':4s} {'mean(theory)':>13s} {'mean(t-avg)':>13s} " \
             f"{'sigma(theory)':>13s} {'sigma(t-avg)':>13s}"
    print(header)
    print("-" * len(header))
    for protocol, block in rep.protocols.items():
        for name, e in block.items():
            print(f"{protocol:8s} {name:4s} {e['theory_mean']:13.4e} "
                  f"{e['numeric_mean']:13.4e} {e['theory_sigma']:13.4e} "
                  f"{e['numeric_sigma']:13.4e}")
    if rep.closed_form["applicable"]:
        print(f"\nquartic-overlap sigma_Q for the superposition: "
              f"{rep.closed_form['sigma_q']:.4e}")
    print(f"\nruntime {rep.runtime_seconds:.1f} s")

    if args.out:
        written = write_artifacts(result, args.out)
        print(f"wrote {len(written)} files to {args.out}")


if __name__ == "__main__":
    main()
