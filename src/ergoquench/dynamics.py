"""Unitary dynamics in the energy eigenbasis and time-window statistics.

The expectation value of an observable O under evolution of rho_0 is the
phase sum

    O(t) = sum_{m,n} rho_mn O_nm exp(-i (E_m - E_n) t)

evaluated on a uniform time grid.  Hermiticity pairs the (m, n) and (n, m)
terms into conjugates, so only the upper triangle is iterated and the
result is manifestly real.  Phases advance by one multiplication per step
and are re-anchored to exact exponentials periodically to stop rounding
drift from accumulating over long grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ergodic_ensemble import _entries, _operator
from .errors import ConstructionError, NumericalIntegrityError

DEFAULT_PRUNE_FLOOR = 1e-14
IMAG_RESIDUE_RTOL = 1e-6
PHASE_ANCHOR_STRIDE = 4096
GRID_RTOL = 1e-12


@dataclass(frozen=True)
class TimeSeries:
    """Real-valued samples on a uniform time grid.

    Uniformity is enforced relative to the grid magnitude (spacings of a
    float grid near t ~ 1e4 jitter by a few ulp of t, not of dt).
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(self.times, dtype=np.float64)
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if t.ndim != 1 or v.shape != t.shape:
            raise ConstructionError(
                f"times and values must be equal-length 1d arrays, "
                f"got {t.shape} and {v.shape}")
        if len(t) < 2:
            raise ConstructionError("a time series needs at least 2 points")
        dt = (t[-1] - t[0]) / (len(t) - 1)
        if dt <= 0:
            raise ConstructionError("time grid must be strictly increasing")
        scale = max(abs(t[0]), abs(t[-1]), 1.0)
        if np.max(np.abs(np.diff(t) - dt)) > GRID_RTOL * scale:
            raise ConstructionError("time grid is not uniform")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def n_points(self) -> int:
        return len(self.times)

    @property
    def dt(self) -> float:
        return float((self.times[-1] - self.times[0]) / (len(self.times) - 1))


def make_time_grid(t_start: float, t_end: float, n_points: int) -> np.ndarray:
    if t_end <= t_start:
        raise ConstructionError(f"need t_end > t_start, got [{t_start}, {t_end}]")
    if n_points < 2:
        raise ConstructionError(f"need at least 2 grid points, got {n_points}")
    return np.linspace(t_start, t_end, n_points)


def evolve_expectation(rho0, observable, energies: np.ndarray,
                       times: np.ndarray,
                       prune_floor: float = DEFAULT_PRUNE_FLOOR) -> TimeSeries:
    """Expectation-value series of one observable, all inputs in the eigenbasis.

    Terms with |rho_mn O_nm| below prune_floor times the largest term are
    dropped before the time loop; a floor of 0 keeps everything.  Inputs
    whose phase sum would carry an imaginary part above 1e-6 of the series
    scale (i.e. non-Hermitian data) raise NumericalIntegrityError.
    """
    m = _entries(rho0)
    o = _operator(observable)
    e = np.asarray(energies, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    d = len(e)
    if m.shape != (d, d) or o.shape != (d, d):
        raise ConstructionError(
            f"state {m.shape} / observable {o.shape} do not match {d} energies")
    if prune_floor < 0:
        raise ValueError(f"prune_floor must be >= 0, got {prune_floor}")

    coeff = m * o.T  # coeff[a, b] = rho_ab O_ba
    iu, ju = np.triu_indices(d, k=1)
    upper = coeff[iu, ju]
    lower = coeff[ju, iu]

    # bound on the imaginary part the unfolded sum could ever reach
    residue = float(np.sum(np.abs(upper - lower.conj()))
                    + abs(np.sum(np.diagonal(coeff).imag)))
    series_scale = float(np.sum(np.abs(coeff)))
    if residue > IMAG_RESIDUE_RTOL * max(series_scale, 1e-300):
        raise NumericalIntegrityError(
            f"imaginary residue bound {residue:.3e} exceeds "
            f"{IMAG_RESIDUE_RTOL:.0e} of series scale {series_scale:.3e}; "
            "inputs are not Hermitian")

    threshold = prune_floor * (float(np.max(np.abs(coeff))) if coeff.size else 0.0)
    diag = np.diagonal(coeff).real
    base = float(diag[np.abs(diag) >= threshold].sum())

    c = 0.5 * (upper + lower.conj())  # equals upper for Hermitian inputs
    keep = np.abs(c) >= threshold
    c = c[keep]
    omega = e[iu[keep]] - e[ju[keep]]

    n = len(t)
    t0 = t[0]
    dt = (t[-1] - t0) / (n - 1)
    step = np.exp(-1j * omega * dt)
    values = np.empty(n)
    z = c * np.exp(-1j * omega * t0)
    for j in range(n):
        if j and j % PHASE_ANCHOR_STRIDE == 0:
            z = c * np.exp(-1j * omega * (t0 + j * dt))
        values[j] = base + 2.0 * z.real.sum()
        z *= step
    return TimeSeries(times=t, values=values)


@dataclass(frozen=True)
class TimeStats:
    """Window average and fluctuation of a series, with scatter-based
    confidence measures.

    mean and sigma use trapezoidal quadrature over the full window; the
    window is then split into n_subintervals equal parts, the same
    quantities are recomputed on each, and the ci fields are the rms
    deviation of the per-subinterval results from the full-window ones.
    """

    mean: float
    sigma: float
    mean_ci: float
    sigma_ci: float
    n_subintervals: int

    @property
    def variance(self) -> float:
        return self.sigma**2


def _window_mean_sigma(t: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    span = t[-1] - t[0]
    mean = float(np.trapezoid(v, t) / span)
    var = float(np.trapezoid((v - mean) ** 2, t) / span)
    return mean, float(np.sqrt(max(var, 0.0)))


def time_stats(series: TimeSeries, n_subintervals: int = 10) -> TimeStats:
    if n_subintervals < 2:
        raise ValueError(f"need at least 2 subintervals, got {n_subintervals}")
    n = series.n_points
    if n < 10 * n_subintervals:
        raise ValueError(f"{n} points cannot support {n_subintervals} "
                         "subintervals (need >= 10 points per subinterval)")
    t, v = series.times, series.values
    mean, sigma = _window_mean_sigma(t, v)

    edges = np.round(np.linspace(0, n - 1, n_subintervals + 1)).astype(int)
    sub_means = np.empty(n_subintervals)
    sub_sigmas = np.empty(n_subintervals)
    for k in range(n_subintervals):
        sl = slice(edges[k], edges[k + 1] + 1)  # adjacent windows share an edge
        sub_means[k], sub_sigmas[k] = _window_mean_sigma(t[sl], v[sl])
    mean_ci = float(np.sqrt(np.mean((sub_means - mean) ** 2)))
    sigma_ci = float(np.sqrt(np.mean((sub_sigmas - sigma) ** 2)))
    return TimeStats(mean=mean, sigma=sigma, mean_ci=mean_ci,
                     sigma_ci=sigma_ci, n_subintervals=n_subintervals)


def write_series_csv(path, series: TimeSeries):
    with open(path, "w") as f:
        f.write("t,value\n")
        for t, v in zip(series.times, series.values):
            f.write(f"{float(t):.17g},{float(v):.17g}\n")


def read_series_csv(path) -> TimeSeries:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return TimeSeries(times=data[:, 0], values=data[:, 1])
