"""Correctness gates applied to every benchmark operation.

Each check returns a list of problems; an empty list means the output
passed.  The tolerances are fixed here so a run states what it checked.

- Quench reports are compared with values recorded by
  `record_references.py`: |got - want| <= REPORT_ATOL + REPORT_RTOL |want|.
  REPORT_ATOL covers quantities that vanish by symmetry: the Q means,
  theory and numeric, sit below 1e-8, and a change of algorithm or dtype
  is free to move their rounding noise.  The Q sigmas of the mixed
  protocol (3e-11 to 2.4e-6 in the references) are physics, not noise,
  and the same bound gates them: 2.4e-6 to 0.4 %, 1e-7 to 10 %.
- Artifacts must read back: every series CSV holds the configured grid,
  and its trapezoid window mean and fluctuation reproduce the report's
  numeric_mean and numeric_sigma to READBACK_RTOL of the series scale.
- Monte-Carlo estimates must lie within ORACLE_Z standard errors of the
  analytic moments.  This holds for any correct sampler, whatever random
  stream it draws from.  ORACLE_ATOL admits rounding where an estimate has
  no spread at all (a one-dimensional sector).
"""

from __future__ import annotations

import os

import numpy as np

REPORT_RTOL = 1e-6
REPORT_ATOL = 1e-8
READBACK_RTOL = 1e-9
ORACLE_Z = 6.0
ORACLE_ATOL = 1e-12

SPECTRAL_KEYS = ("e_min", "e_max", "r_mean")
SERIES_KEYS = ("theory_mean", "theory_sigma", "numeric_mean", "numeric_sigma")


def report_numbers(report: dict) -> dict:
    """The gated numbers of a report.json, flattened to name -> value."""
    out = {f"spectral.{k}": report["spectral"][k] for k in SPECTRAL_KEYS}
    for protocol, block in report["protocols"].items():
        for observable, entry in block.items():
            for key in SERIES_KEYS:
                out[f"{protocol}.{observable}.{key}"] = entry[key]
    return out


def check_report(report: dict, reference: dict) -> list[str]:
    got = report_numbers(report)
    problems = []
    for key, want in reference.items():
        if key not in got:
            problems.append(f"report lacks {key}")
        elif not abs(got[key] - want) <= REPORT_ATOL + REPORT_RTOL * abs(want):
            problems.append(f"{key} = {got[key]!r}, reference {want!r}")
    return problems


def _read_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def window_mean_sigma(t: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Trapezoid window mean and rms fluctuation of a sampled series."""
    span = t[-1] - t[0]
    mean = float(np.trapezoid(v, t) / span)
    var = float(np.trapezoid((v - mean) ** 2, t) / span)
    return mean, float(np.sqrt(max(var, 0.0)))


def check_artifacts(out_dir: str, report: dict, time_window) -> list[str]:
    """Read the written CSVs back and check them against the report."""
    problems = []
    t0, t1, n_points = time_window
    grid = np.linspace(t0, t1, n_points)
    for protocol, block in report["protocols"].items():
        for observable, entry in block.items():
            name = f"series_{protocol}_{observable}.csv"
            data = _read_csv(os.path.join(out_dir, name))
            if data.shape != (n_points, 2):
                problems.append(f"{name}: shape {data.shape}, want ({n_points}, 2)")
                continue
            t, v = data[:, 0], data[:, 1]
            if np.max(np.abs(t - grid)) > 1e-12 * max(abs(t0), abs(t1)):
                problems.append(f"{name}: time column is not the configured grid")
            scale = max(float(np.max(np.abs(v))), 1e-300)
            mean, sigma = window_mean_sigma(t, v)
            for key, value in (("numeric_mean", mean), ("numeric_sigma", sigma)):
                if not abs(value - entry[key]) <= READBACK_RTOL * scale:
                    problems.append(f"{name}: {key} {value!r} read back, "
                                    f"report has {entry[key]!r}")
    dim = report["spectral"]["dim"]
    spectrum = _read_csv(os.path.join(out_dir, "spectrum.csv"))
    energies = spectrum[:, 1]
    if spectrum.shape != (dim, 2) or np.any(np.diff(energies) < 0):
        problems.append(f"spectrum.csv: shape {spectrum.shape} or order is wrong")
    elif (energies[0] != report["spectral"]["e_min"]
          or energies[-1] != report["spectral"]["e_max"]):
        problems.append("spectrum.csv: end points differ from e_min/e_max")
    overlaps = _read_csv(os.path.join(out_dir, "overlaps.csv"))
    if overlaps.shape != (dim, 5):
        problems.append(f"overlaps.csv: shape {overlaps.shape}, want ({dim}, 5)")
    elif not np.array_equal(overlaps[:, 1], energies):
        problems.append("overlaps.csv: energy column differs from spectrum.csv")
    return problems


def _outside(value, exact, std_error):
    """Elementwise: not within ORACLE_Z standard errors (NaN counts as out)."""
    within = (np.abs(value - exact)
              <= ORACLE_Z * std_error + ORACLE_ATOL * np.maximum(1.0, np.abs(exact)))
    return ~(within & np.isfinite(value) & np.isfinite(std_error))


def check_estimate(label: str, value: float, std_error: float,
                   exact: float) -> list[str]:
    if _outside(value, exact, std_error):
        return [f"{label}: estimate {value!r} +- {std_error:.3e}, "
                f"analytic {exact!r}"]
    return []


def check_state_mean(label: str, mean: np.ndarray, se_re: np.ndarray,
                     se_im: np.ndarray, exact: np.ndarray) -> list[str]:
    problems = []
    for part, got, se, want in (("re", mean.real, se_re, exact.real),
                                ("im", mean.imag, se_im, exact.imag)):
        bad = np.argwhere(_outside(got, want, se))
        if len(bad):
            i, j = bad[0]
            problems.append(f"{label}: {len(bad)} {part} entries outside "
                            f"{ORACLE_Z} standard errors, first ({i}, {j}): "
                            f"{got[i, j]!r} +- {se[i, j]:.3e} vs {want[i, j]!r}")
    return problems
