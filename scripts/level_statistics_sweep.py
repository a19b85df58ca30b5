#!/usr/bin/env python3
"""Sweep the disorder strength and record the mean adjacent-gap ratio.

Writes a CSV with one row per disorder strength: the disorder-averaged
ratio, its standard error, and the count of realizations averaged.  A
realization whose spectrum has no gap ratio (all levels equal) is left
out, as in the aggregate of `ergoquench run --realizations`; a row with
none left has empty r_mean and r_sem fields.  The chain length must be
even, as for every run.  The ergodic and Poisson reference values are
0.5307 and 0.3863.

Example:
    python3 scripts/level_statistics_sweep.py --length 10 --realizations 30 \
        --out sweep.csv
"""

import argparse
import dataclasses
import sys

import numpy as np

from ergoquench.experiment import ExperimentConfig, prepare_spectrum


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
            specs = (prepare_spectrum(dataclasses.replace(config, h=h,
                                                          disorder_seed=seed))
                     for seed in range(args.realizations))
            # spectra without a gap ratio report null and are left out
            r = np.array([s.r_mean for s in specs if s.r_mean is not None])
            if len(r) == 0:
                sink.write(f"{h},,,0\n")
                continue
            sem = r.std(ddof=1) / np.sqrt(len(r)) if len(r) > 1 else 0.0
            sink.write(f"{h},{r.mean():.6f},{sem:.6f},{len(r)}\n")
            if args.out:
                print(f"h={h}: r_mean={r.mean():.4f} +- {sem:.4f}")
    finally:
        if args.out:
            sink.close()


if __name__ == "__main__":
    main()
