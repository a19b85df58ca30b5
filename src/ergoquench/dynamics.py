"""Unitary dynamics in the energy eigenbasis and time-window statistics.

The expectation value of an observable O under evolution of rho_0 is the
phase sum

    O(t) = sum_{m,n} rho_mn O_nm exp(-i (E_m - E_n) t)

evaluated on a uniform time grid.  Two kernels evaluate it, chosen by the
input types alone:

* Dense.  With C = rho_0 * O^T (elementwise) and the phase matrix
  U[t, m] = exp(-i E_m t), the series is the row sum of (U C) * conj(U):
  two n x d x d matrix products over the grid.  C is the only d x d
  array this kernel builds: a state that keeps its factors is never
  formed whole, each tile of rho_0 is formed from them where C needs it.
* Factored.  A `PairOperator` Q = u v^dag + v u^dag read out on a
  `DensityMatrix` that keeps its factors, rho_0 = sum_k w_k psi_k psi_k^dag
  (built by `from_mixture` or `from_state_vector`), gives
  O(t) = sum_k w_k 2 Re[(psi_k(t)^dag u)(v^dag psi_k(t))]: one product
  of the phases with a d x 2r matrix, O(n d r) work for a rank-r state.
  Any other pair of inputs, such as a general DensityMatrix with a
  PairOperator, takes the dense kernel.

Both take the phases one block of times at a time from one generator,
with blocks sized by PHASE_BLOCK_BYTES so that the phase matrix of a whole
grid is never held.  Real data stays real: real coefficients are
multiplied by the real cos and sin parts of U, never promoted to complex.

The grid is uniform, so every block repeats the same offsets from its
first time.  cos and sin of E (t_r - t_0) for the r rows of one block are
tabulated once per call, and each block's phases come from that table by
angle addition with the block's start phase E t_start: d cos/sin values
per block instead of one per (time, level) entry.  The offsets of a float
grid differ from the table's by a few ulp of t; that difference
eps = (t_j - t_start) - (t_r - t_0) is computed exactly per block and
applied to first order, c -= s E eps and s += c E eps, with an error
(E eps)^2 / 2 below OFFSET_PHASE_MAX^2 / 2, under one ulp.  A block whose
max|E| max|eps| exceeds OFFSET_PHASE_MAX, which only a grid jittered
within the uniformity tolerance can give, evaluates its phases directly.
Every phase that reaches cos and sin, in the table, at a block start or
in such a block, is an exact product E t (a two-product and a first-order
term), so the phases carry no rounding that grows with t.

The dense kernel fills C one tile pair of `spin_chain.tile_pairs` at a
time, and while a tile and its mirror are in cache they also add to the
guard's two sums: the residue sum |C - C^dag| (each off-diagonal pair
counts twice, once for each of its mirrored entries) and the scale sum
|C|.  Only complex data still reads a whole matrix transposed, to form
B - B^T in `_dense_series`.  The factored kernel needs no guard: its
inputs are Hermitian by construction, and their constructors reject
non-finite entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ergodic_ensemble import _factors, _operator
from .errors import ConstructionError, NumericalIntegrityError
from .spin_chain import PairOperator, tile_pairs

IMAG_RESIDUE_RTOL = 1e-6
PHASE_BLOCK_BYTES = 1 << 22  # cos and sin of the phases of one block of times
GRID_RTOL = 1e-12
# largest max|E| max|eps| that a block corrects to first order: the error
# (E eps)^2 / 2 stays below one ulp of a cosine
OFFSET_PHASE_MAX = 2.0 ** -26


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
        _check_time_grid(t)
        if v.shape != t.shape:
            raise ConstructionError(
                f"times and values must be equal-length 1d arrays, "
                f"got {t.shape} and {v.shape}")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def n_points(self) -> int:
        return len(self.times)

    @property
    def dt(self) -> float:
        return float((self.times[-1] - self.times[0]) / (len(self.times) - 1))


def _check_time_grid(t: np.ndarray) -> None:
    """Raise ConstructionError unless t is a finite, uniform, strictly
    increasing 1d grid of at least 2 points.  Uniformity is relative to
    the grid magnitude: every spacing is within
    GRID_RTOL * max(|t_0|, |t_-1|, 1) of the mean spacing."""
    if t.ndim != 1:
        raise ConstructionError(f"time grid must be a 1d array, got {t.shape}")
    if len(t) < 2:
        raise ConstructionError("a time series needs at least 2 points")
    if not np.all(np.isfinite(t)):
        raise ConstructionError("time grid has a non-finite entry")
    dt = (t[-1] - t[0]) / (len(t) - 1)
    if dt <= 0:
        raise ConstructionError("time grid must be strictly increasing")
    scale = max(abs(t[0]), abs(t[-1]), 1.0)
    if np.max(np.abs(np.diff(t) - dt)) > GRID_RTOL * scale:
        raise ConstructionError("time grid is not uniform")


def make_time_grid(t_start: float, t_end: float, n_points: int) -> np.ndarray:
    if t_end <= t_start:
        raise ConstructionError(f"need t_end > t_start, got [{t_start}, {t_end}]")
    if n_points < 2:
        raise ConstructionError(f"need at least 2 grid points, got {n_points}")
    return np.linspace(t_start, t_end, n_points)


def evolve_expectation(rho0, observable, energies: np.ndarray,
                       times: np.ndarray) -> TimeSeries:
    """Expectation-value series of one observable, all inputs in the eigenbasis.

    A PairOperator u v^dag + v u^dag read out on a DensityMatrix that keeps
    its factors, rho0 = sum_k w_k psi_k psi_k^dag, takes the factored path
    (`_pair_series`); every other input is taken densely
    (`_dense_series`).  Both evaluate the phases c = cos(E t) and
    s = sin(E t) of one block of times at a time (`_phase_blocks`).  The
    grid is checked before any work: one that is not a uniform, increasing
    1d grid raises ConstructionError.
    """
    e = np.asarray(energies, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    d = len(e)
    factors = _factors(rho0)
    if isinstance(observable, PairOperator) and factors is not None:
        if not rho0.dim == observable.dim == d:
            raise ConstructionError(
                f"state dim {rho0.dim} / observable dim {observable.dim} "
                f"do not match {d} energies")
        _check_time_grid(t)
        values = _pair_series(*factors, observable, e, t)
    else:
        state = factors or _operator(rho0)  # tiles of rho come from factors
        o = _operator(observable)
        shape = (rho0.dim,) * 2 if factors else state.shape
        if shape != (d, d) or o.shape != (d, d):
            raise ConstructionError(
                f"state {shape} / observable {o.shape} do not match {d} energies")
        _check_time_grid(t)
        values = _dense_series(state, o, e, t)
    return TimeSeries(times=t, values=values)


def _dense_series(m, o: np.ndarray, e: np.ndarray,
                  t: np.ndarray) -> np.ndarray:
    """The series of a state m, a matrix or the factors (w, V) of
    (V * w) @ V^dag, and a dense observable o.  With C = m * o.T
    (elementwise), each value is

        O(t) = c.A.c + s.A.s + s.(B - B^T).c,    A = Re C, B = Im C,

    the real part of u C u^dag with u = exp(-i E t), which is the whole
    phase sum for Hermitian inputs.  Inputs whose sum could carry an
    imaginary part above IMAG_RESIDUE_RTOL of the series scale
    (non-Hermitian data), or that hold a non-finite entry, raise
    NumericalIntegrityError.
    """
    coeff, residue, series_scale = _phase_coefficients(m, o)
    # NaN and inf fail too
    if not (residue <= IMAG_RESIDUE_RTOL * max(series_scale, 1e-300)):
        raise NumericalIntegrityError(
            f"imaginary residue bound {residue:.3e} exceeds "
            f"{IMAG_RESIDUE_RTOL:.0e} of series scale {series_scale:.3e}; "
            "inputs are not Hermitian")

    a = np.ascontiguousarray(coeff.real)  # no copy for real inputs
    b = coeff.imag - coeff.imag.T if np.iscomplexobj(coeff) else None
    values = np.empty(len(t))
    for start, c, s in _phase_blocks(e, t):
        v = np.einsum("tm,tm->t", c @ a, c) + np.einsum("tm,tm->t", s @ a, s)
        if b is not None:
            v += np.einsum("tm,tm->t", s @ b, c)
        values[start:start + len(c)] = v
    return values


def _pair_series(weights: np.ndarray, vectors: np.ndarray, obs: PairOperator,
                 e: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The series of Q = u v^dag + v u^dag in rho0 = sum_k w_k psi_k psi_k^dag,

        O(t) = sum_k w_k 2 Re[(psi_k(t)^dag u)(v^dag psi_k(t))],

    with psi_k(t) = exp(-i E t) psi_k.  The two sums are x_k = alpha_k.(c + i s)
    and y_k = beta_k.(c - i s) with alpha_k = conj(psi_k) o u and
    beta_k = conj(v) o psi_k, so a block of times costs one product of its
    c and one of its s with the d x 2r matrix [alpha | beta]: O(n d r)
    work for a rank-r state.  A complex [alpha | beta] enters that product
    as its real view, so c and s stay real.  Both inputs are Hermitian by
    construction, and their constructors reject non-finite entries.
    """
    r = len(weights)
    g = np.concatenate((vectors.conj() * obs.u[:, None],
                        vectors * obs.v.conj()[:, None]), axis=1)
    as_real = g.view(np.float64) if np.iscomplexobj(g) else g
    values = np.empty(len(t))
    for start, c, s in _phase_blocks(e, t):
        cg = (c @ as_real).view(g.dtype)
        sg = (s @ as_real).view(g.dtype)
        x = cg[:, :r] + 1j * sg[:, :r]
        y = cg[:, r:] - 1j * sg[:, r:]
        values[start:start + len(c)] = 2.0 * ((x * y).real @ weights)
    return values


def _phase_blocks(e: np.ndarray, t: np.ndarray):
    """Yield (start, c, s) for consecutive blocks of times, c and s the
    (k, d) cos and sin of E t for the k times from t[start] on.

    Blocks hold PHASE_BLOCK_BYTES of phases.  A block's c and s come by
    angle addition from its start phase and a per-call table of cos/sin of
    E (t_r - t_0), with the block's exact offset error eps applied to first
    order; a block with max|E| max|eps| above OFFSET_PHASE_MAX takes cos
    and sin of its phases directly.  All these phases are exact products
    E t.
    """
    rows = max(1, PHASE_BLOCK_BYTES // (16 * max(len(e), 1)))
    offsets = t[:rows] - t[0]
    table_c, table_s = _cos_sin_of_product(e, offsets[:, None])
    e_max = float(np.max(np.abs(e), initial=0.0))
    for start in range(0, len(t), rows):
        block = t[start:start + rows]
        k = len(block)
        eps = (block - block[0]) - offsets[:k]
        drift = e_max * float(np.max(np.abs(eps)))
        if drift > OFFSET_PHASE_MAX:
            c, s = _cos_sin_of_product(e, block[:, None])
        else:
            base_c, base_s = _cos_sin_of_product(e, block[0])
            tc, ts = table_c[:k], table_s[:k]
            # cos(x + y) = cos x cos y - sin x sin y, sin(x + y) likewise
            c = tc * base_c - ts * base_s
            s = ts * base_c + tc * base_s
            if drift > 0.0:
                shift = np.multiply.outer(eps, e)
                c, s = c - s * shift, s + c * shift
        yield start, c, s


def _cos_sin_of_product(e: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the exact product e t (broadcast).  Dekker's
    two-product gives fl(e t) = p and its rounding error err exactly, and
    err, at most half an ulp of p, is applied to first order."""
    p = e * t
    e_hi, e_lo = _split(e)
    t_hi, t_lo = _split(t)
    err = ((e_hi * t_hi - p) + e_hi * t_lo + e_lo * t_hi) + e_lo * t_lo
    c, s = np.cos(p), np.sin(p)
    return c - s * err, s + c * err


def _split(x):
    """Veltkamp's split of x into a 26-bit high part and the rest."""
    y = 134217729.0 * x  # 2^27 + 1
    hi = y - (y - x)
    return hi, x - hi


def _phase_coefficients(m, o: np.ndarray):
    """C = m * o.T (elementwise, C[a, b] = rho_ab O_ba), the residue
    sum |C - C^dag| and the scale sum |C|, filled and summed by tile pairs.

    m is a matrix, or the factors (w, V) of rho = (V * w) @ V^dag, whose
    tile [r, c] is formed in place as (V[r] * w) @ V[c]^dag.  The
    anti-Hermitian part of C is all the imaginary part of the phase sum
    could be made of.
    """
    if isinstance(m, tuple):
        w, v = m
        dim, dtype = len(v), v.dtype

        def rho(r, c):
            return (v[r] * w) @ v[c].conj().T
    else:
        dim, dtype = len(m), m.dtype

        def rho(r, c):
            return m[r, c]
    coeff = np.empty((dim, dim), dtype=np.result_type(dtype, o))
    residue = scale = 0.0
    with np.errstate(invalid="ignore"):  # inf entries become a NaN residue
        for r, c in tile_pairs(dim):
            upper = coeff[r, c]
            np.multiply(rho(r, c), o[c, r].T, out=upper)
            if r == c:
                residue += float(np.sum(np.abs(upper - upper.conj().T)))
                scale += float(np.sum(np.abs(upper)))
            else:
                lower = coeff[c, r]
                np.multiply(rho(c, r), o[r, c].T, out=lower)
                residue += 2.0 * float(np.sum(np.abs(upper - lower.conj().T)))
                scale += float(np.sum(np.abs(upper)) + np.sum(np.abs(lower)))
    return coeff, residue, scale


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

