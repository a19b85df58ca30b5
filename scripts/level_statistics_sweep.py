#!/usr/bin/env python3
"""Sweep the disorder strength and record the mean adjacent-gap ratio.

Writes a CSV with one row per disorder strength: the disorder-averaged
ratio, its standard error, and the count of realizations averaged.  The
average is the batch's of `ergoquench run --realizations`
(`experiment.disorder_average`): a realization whose spectrum has no gap
ratio (all levels equal) is left out, and a row with none left has empty
r_mean and r_sem fields.  The chain length must be even, as for every
run.  The ergodic and Poisson reference values are 0.5307 and 0.3863.

Example:
    python3 scripts/level_statistics_sweep.py --length 10 --realizations 30 \
        --out sweep.csv
"""

import argparse
import dataclasses
import math
import sys

from ergoquench.experiment import (ExperimentConfig, disorder_average,
                                   prepare_spectrum)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--length", type=int, default=12)
    ap.add_argument("--coupling", type=float, default=1.0)
    ap.add_argument("--realizations", type=int, default=20)
    ap.add_argument("--h-values", type=float, nargs="+",
                    default=[0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0])
    ap.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = ap.parse_args()

    # an odd length or a non-finite coupling fails here, before any output
    config = ExperimentConfig(L=args.length, J=args.coupling)
    sink = open(args.out, "w") if args.out else sys.stdout
    try:
        sink.write("h,r_mean,r_sem,n_realizations\n")
        for h in args.h_values:
            ratios = (prepare_spectrum(dataclasses.replace(
                config, h=h, disorder_seed=seed)).r_mean
                for seed in range(args.realizations))
            mean, std, count = disorder_average(ratios)
            if count == 0:
                sink.write(f"{h},,,0\n")
                continue
            sem = std / math.sqrt(count)
            sink.write(f"{h},{mean:.6f},{sem:.6f},{count}\n")
            if args.out:
                print(f"h={h}: r_mean={mean:.4f} +- {sem:.4f}")
    finally:
        if args.out:
            sink.close()


if __name__ == "__main__":
    main()
