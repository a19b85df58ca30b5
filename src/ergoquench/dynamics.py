"""Unitary dynamics in the energy eigenbasis and time-window statistics.

The expectation value of an observable O under evolution of rho_0 is the
phase sum

    O(t) = sum_{m,n} rho_mn O_nm exp(-i (E_m - E_n) t)

evaluated on a uniform time grid.  With C = rho_0 * O^T (elementwise) and
the phase matrix U[t, m] = exp(-i E_m t), the series is the row sum of
(U C) * conj(U): one matrix product per block of times.  The phases of
every block are computed exactly, so accuracy does not depend on the grid
length, and the blocks are sized by PHASE_BLOCK_BYTES so that the phase
matrix of a whole grid is never held.  Real data stays real: a real C is
multiplied by the real cos and sin parts of U, never promoted to complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ergodic_ensemble import _entries, _operator
from .errors import ConstructionError, NumericalIntegrityError

IMAG_RESIDUE_RTOL = 1e-6
PHASE_BLOCK_BYTES = 1 << 22  # cos and sin of the phases of one block of times
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
                       times: np.ndarray) -> TimeSeries:
    """Expectation-value series of one observable, all inputs in the eigenbasis.

    With C = rho0 * observable.T (elementwise) and, for one block of times,
    c = cos(E t) and s = sin(E t), each value is

        O(t) = c.A.c + s.A.s + s.(B - B^T).c,    A = Re C, B = Im C,

    the real part of u C u^dag with u = exp(-i E t), which is the whole phase
    sum for Hermitian inputs.  Times are taken in blocks whose phases fill
    PHASE_BLOCK_BYTES, and each block's phases are computed exactly.  Inputs
    whose sum could carry an imaginary part above IMAG_RESIDUE_RTOL of the
    series scale (non-Hermitian data) raise NumericalIntegrityError.
    """
    m = _entries(rho0)
    o = _operator(observable)
    e = np.asarray(energies, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    d = len(e)
    if m.shape != (d, d) or o.shape != (d, d):
        raise ConstructionError(
            f"state {m.shape} / observable {o.shape} do not match {d} energies")

    coeff = m * o.T  # coeff[a, b] = rho_ab O_ba
    # the anti-Hermitian part of coeff is all the imaginary part could be made of
    residue = float(np.sum(np.abs(coeff - coeff.conj().T)))
    series_scale = float(np.sum(np.abs(coeff)))
    if residue > IMAG_RESIDUE_RTOL * max(series_scale, 1e-300):
        raise NumericalIntegrityError(
            f"imaginary residue bound {residue:.3e} exceeds "
            f"{IMAG_RESIDUE_RTOL:.0e} of series scale {series_scale:.3e}; "
            "inputs are not Hermitian")

    a = np.ascontiguousarray(coeff.real)  # no copy for real inputs
    b = coeff.imag - coeff.imag.T if np.iscomplexobj(coeff) else None
    rows = max(1, PHASE_BLOCK_BYTES // (16 * max(d, 1)))
    values = np.empty(len(t))
    for start in range(0, len(t), rows):
        phase = np.multiply.outer(t[start:start + rows], e)
        c, s = np.cos(phase), np.sin(phase)
        v = np.einsum("tm,tm->t", c @ a, c) + np.einsum("tm,tm->t", s @ a, s)
        if b is not None:
            v += np.einsum("tm,tm->t", s @ b, c)
        values[start:start + rows] = v
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
