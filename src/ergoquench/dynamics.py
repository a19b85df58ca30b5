"""Unitary dynamics in the energy eigenbasis and time-window statistics.

The expectation value of an observable O under evolution of rho_0 is the
phase sum

    O(t) = sum_{m,n} rho_mn O_nm exp(-i (E_m - E_n) t)

evaluated on a uniform time grid.  Both operands pass the check that the
ensemble moments and the Monte-Carlo oracle apply
(`ergodic_ensemble._checked`), which also resolves them.  Two kernels
evaluate the sum, chosen by one rule: if the state and the observable
are both factored, as rho_0 = P S P^dag and O = Q T Q^dag with a few
columns in P and Q (a `DensityMatrix` that keeps its factors, from
`from_mixture` or `from_state_vector`, and a `PairOperator`), the factors
are used; otherwise the pair is taken densely.

Both take their phases u = exp(-i E t) from one generator,
`_phase_factors`, which never holds the n x d phase matrix of a grid.  The
grid is uniform, so it splits into sub-blocks of K = ceil(sqrt(n)) times,
t[a K + b] = T_a + sigma_b, and u factors as exp(-i E T_a) exp(-i E sigma_b):
d phases per block start T_a and per offset sigma_b, about 2 sqrt(n) d in
all.  The offsets of a float grid differ from the table's by a few ulp of
t; that difference eps = (t - T_a) - sigma_b is computed exactly per row
and applied to first order, u (1 - i E eps), with an error (E eps)^2 / 2
below OFFSET_PHASE_MAX^2 / 2, under one ulp.  A sub-block whose
max|E| max|eps| exceeds OFFSET_PHASE_MAX evaluates its phases directly.
eps is a few ulp of t, so that happens far from t = 0 on any float grid:
at t ~ 1e7 a plain linspace takes 36 of its 55 sub-blocks directly (d =
40, |E| <= 18), and a grid jittered within the uniformity tolerance
does so sooner.  Every phase that reaches cos and sin, offset, block
start or direct, is an exact product E t (a two-product and a
first-order term), so the phases carry no rounding that grows with t.
There is one phase table per grid: the offset table, the start phases
and eps of the last (energies, grid) pair are kept, read-only, so the
series of one run, which share both, compute them once.

* Factored.  O(t) = tr(S Z^dag T Z) with the q x r matrix
  Z(t) = Q^dag u P = sum_m G_m u_m, G = conj(Q) (x) P a d x qr matrix.
  The sum is contracted before the phases are expanded: the start phases
  scale G, and one complex product of the offset table with the scaled G
  of several starts gives Z at all their times.  O(n d q r) work from the
  2 sqrt(n) d phases; no (time, level) array is formed.
* Dense.  With C = rho_0 * O^T (elementwise), the series is the real part
  of u C u^dag, c.A.c + s.A.s + s.(B - B^T).c for A = Re C, B = Im C and
  c, s the cos and sin of E t.  Each block of PHASE_BLOCK_BYTES holds whole
  sub-blocks, built by in-place angle addition, and the two quadratic
  forms are x.U.x over the rows x of [c; s], one product per tile column
  of U.  The operands are Hermitian, so C is too and A is symmetric: U
  holds the diagonal tiles of A and twice its upper tiles, half the GEMM
  flops of the full product.  For complex data s.(B - B^T).c is one whole
  product.  C is the only d x d array this kernel builds, and only its
  tiles on and above the diagonal are formed, each once
  (`_phase_coefficients`); a factored state is never formed whole, each
  tile of rho_0 is formed from P and S where C needs it.

Real data stays real: real coefficients are multiplied by the real cos
and sin, never promoted to complex.  Only complex data reads a whole
matrix transposed, to form B - B^T in `_dense_series`.  A series value
that is not finite, from either kernel, raises NumericalIntegrityError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ergodic_ensemble import _checked, _checked_state
from .errors import ConstructionError, NumericalIntegrityError
from .spin_chain import ADJOINT_TILE, tile_pairs

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


def evolve_expectation(rho0, observable, energies: np.ndarray,
                       times: np.ndarray) -> TimeSeries:
    """Expectation-value series of one observable, all inputs in the eigenbasis.

    Both operands pass `ergodic_ensemble._checked` against the number of
    energies: another dimension raises SectorError, and a raw array that is
    not Hermitian to HERMITICITY_ATOL, or holds NaN or inf, raises
    StateValidationError.  The state is a DensityMatrix (`_checked_state`),
    so one without unit trace to TRACE_ATOL, or with an eigenvalue below
    -PSD_ATOL, raises StateValidationError too.  Then a grid that is not a
    uniform, increasing 1d grid raises ConstructionError; all before any
    work.  A state and an observable that are both factored,
    rho0 = P S P^dag and X = Q T Q^dag (a DensityMatrix that keeps its
    factors, a PairOperator), take the factored kernel
    (`_factored_series`); every other pair is taken densely
    (`_dense_series`), a factored state by its tiles.  Both take the phases
    exp(-i E t) as start phases times an offset table, one run of
    sub-blocks at a time (`_phase_factors`).  A series value that is not
    finite raises NumericalIntegrityError.
    """
    e = np.asarray(energies, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    state = _checked_state(rho0, len(e))
    obs = _checked(observable, len(e), factors=isinstance(state, tuple))
    _check_time_grid(t)
    kernel = _factored_series if isinstance(obs, tuple) else _dense_series
    values = kernel(state, obs, e, t)
    if not np.isfinite(values).all():
        raise NumericalIntegrityError("series has a value that is not finite")
    return TimeSeries(times=t, values=values)


def _dense_series(m, o: np.ndarray, e: np.ndarray,
                  t: np.ndarray) -> np.ndarray:
    """The series of a state m, a matrix or the factors (P, S) of
    P S P^dag, and a dense observable o.  With C = m * o.T (elementwise),
    each value is

        O(t) = c.A.c + s.A.s + s.(B - B^T).c,    A = Re C, B = Im C,

    the real part of u C u^dag with u = exp(-i E t), which is the whole
    phase sum for Hermitian inputs.  Each run of sub-blocks fills the
    rows x of [c; s] by angle addition in one reused buffer, and the two
    quadratic forms are x.U.x, one product per tile column of the block
    upper triangle U that `_phase_coefficients` forms in Re C.
    """
    coeff = _phase_coefficients(m, o)
    upper = np.ascontiguousarray(coeff.real)  # no copy for real inputs
    b = coeff.imag - coeff.imag.T if np.iscomplexobj(coeff) else None
    d = len(e)
    values = np.empty(len(t))
    buffer = np.empty(0)  # fresh pages for each run cost more than its fill
    for start, w, tau, eps in _phase_factors(e, t):
        k, rows = len(tau), len(w) * len(tau)
        if buffer.size < 2 * rows * d:
            buffer = np.empty(2 * rows * d)
        x = buffer[:2 * rows * d].reshape(2, len(w), k, d)  # c rows, s rows
        z = np.empty((k, d), dtype=np.complex128)
        for a, wa in enumerate(w):
            c, s = x[0, a], x[1, a]
            np.multiply(tau, wa, out=z)  # angle addition
            c[...] = z.real
            np.negative(z.imag, out=s)
            if eps is not None:
                shift = np.multiply.outer(eps[a], e)
                ds = c * shift
                c -= s * shift
                s += ds
        x = x.reshape(2 * rows, d)
        v = np.zeros(2 * rows)
        for lo in range(0, d, ADJOINT_TILE):
            cols = slice(lo, lo + ADJOINT_TILE)
            head = slice(0, cols.stop)
            v += np.einsum("tm,tm->t", x[:, head] @ upper[head, cols], x[:, cols])
        v = v[:rows] + v[rows:]
        if b is not None:
            v += np.einsum("tm,tm->t", x[rows:] @ b, x[:rows])
        values[start:start + rows] = v
    return values


def _factored_series(state, obs, e: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The series of rho0 = P S P^dag and X = Q T Q^dag, given as (P, S)
    and (Q, T):

        O(t) = tr(S Z^dag T Z),    Z(t) = Q^dag exp(-i E t) P,

    Z a q x r matrix for r columns in P and q in Q.  With G = conj(Q) (x) P
    taken row by row, a d x qr matrix, Z(t) = sum_m G_m exp(-i E_m t).  On
    a run of sub-blocks t = T_a + sigma_b (`_phase_factors`) that sum is
    contracted before the phases are expanded: the start phases scale G,
    and one complex product of the offset table with the scaled G of every
    start gives Z at every time of the run, O(n d q r) work from about
    2 sqrt(n) d phases.  A row's offset error eps enters to first order,
    Z - i eps Z_E, where Z_E comes from the same product with G o E.  The
    scaled G of a run holds qr columns per start (2 qr with eps), within
    PHASE_BLOCK_BYTES while that count is at most K.
    """
    (p, s_mat), (q, t_mat) = state, obs
    g = (q.conj()[:, :, None] * p[:, None, :]).reshape(len(p), -1)
    qr = g.shape[1]
    with_e = np.hstack((g, e[:, None] * g))
    values = np.empty(len(t))
    for start, w, tau, eps in _phase_factors(e, t):
        cols = g if eps is None else with_e
        scaled = (w.T[:, :, None] * cols[:, None, :]).reshape(len(e), -1)
        z = (tau @ scaled).reshape(len(tau), len(w), -1).transpose(1, 0, 2)
        if eps is not None:
            z = z[..., :qr] - 1j * eps[..., None] * z[..., qr:]
        z = z.reshape(-1, q.shape[1], p.shape[1])
        values[start:start + len(z)] = np.einsum(
            "kl,tml,mn,tnk->t", s_mat, z.conj(), t_mat, z).real
    return values


def _phase_factors(e: np.ndarray, t: np.ndarray):
    """Yield (start, w, tau, eps) for runs of consecutive sub-blocks of
    the grid: the u = exp(-i E t) of the rows start + a k + b of a run are
    w[a] * tau[b] * (1 - i E eps[a, b]), w the (A, d) start phases and tau
    the (k, d) offset phases; eps is None when it is 0 throughout.

    The grid splits as t[a K + b] = T_a + sigma_b with K = ceil(sqrt(n)),
    capped at the rows of one PHASE_BLOCK_BYTES block, and sigma_b =
    t[b] - t[0]: d phases per offset and per start, about 2 sqrt(n) d in
    all.  A run holds whole sub-blocks, at most as many as fit in that
    block, and each row's exact offset error eps = (t - T_a) - sigma_b
    applies to first order, with an error (E eps)^2 / 2.  A sub-block
    with max|E| max|eps| above OFFSET_PHASE_MAX, which any float grid far
    from t = 0 gives (eps is a few ulp of t), a plain linspace included,
    is a run of its own with w = 1 and its phases evaluated directly as
    tau.  A last sub-block shorter than K is a run of its own too, and it
    takes the table unless it is direct by that rule.  Every phase is an
    exact product E t.

    The offset table, the start phases and eps come from `_phase_table`,
    which keeps them for the last (energies, grid) pair, so the series of
    one run share one table; w, tau and eps are read-only views of it.
    Direct phases are evaluated on every call and not kept.
    """
    n, d = len(t), len(e)
    block_rows = max(1, PHASE_BLOCK_BYTES // (16 * max(d, 1)))
    k = min(math.isqrt(n - 1) + 1, block_rows)  # ceil(sqrt(n))
    table, start_phases, eps = _phase_table(e.tobytes(), t.tobytes(), k)
    starts = np.arange(0, n, k)
    e_max = float(np.max(np.abs(e), initial=0.0))
    drift = e_max * np.maximum.reduceat(np.abs(eps), starts)
    direct = drift > OFFSET_PHASE_MAX
    a = 0
    while a < len(starts):
        lo = starts[a]
        if direct[a]:
            yield lo, np.ones((1, d)), _phases(e, t[lo:lo + k, None]), None
            a += 1
            continue
        b = a + 1
        while (b < min(a + block_rows // k, len(starts)) and not direct[b]
               and starts[b] + k <= n):
            b += 1
        hi = min(starts[b - 1] + k, n)
        run_eps = eps[lo:hi].reshape(b - a, -1)
        yield (lo, start_phases[a:b], table[:run_eps.shape[1]],
               run_eps if run_eps.any() else None)
        a = b


@functools.lru_cache(maxsize=1)
def _phase_table(e_bytes: bytes, t_bytes: bytes, k: int):
    """The offset table exp(-i E sigma_b) (k, d), the phases exp(-i E T_a)
    of every sub-block start (ceil(n / k), d) and the offset errors eps
    (n,) of the float64 energies and grid given by their bytes, all
    read-only.  Keyed on the exact bytes, one entry: energies or a grid
    that differ in one ulp get a table of their own."""
    e, t = np.frombuffer(e_bytes), np.frombuffer(t_bytes)
    offsets = t[:k] - t[0]
    index = np.arange(len(t))
    eps = (t - t[index - index % k]) - offsets[index % k]
    out = (_phases(e, offsets[:, None]), _phases(e, t[::k, None]), eps)
    for x in out:
        x.flags.writeable = False
    return out


def _phases(e: np.ndarray, t) -> np.ndarray:
    """exp(-i e t) (broadcast) of the exact product e t."""
    c, s = _cos_sin_of_product(e, t)
    return c - 1j * s


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


def _phase_coefficients(m, o: np.ndarray) -> np.ndarray:
    """C = m * o.T (elementwise, C[a, b] = rho_ab O_ba), formed only on and
    above the diagonal tiles: the tiles above are doubled, those below 0.

    Both operands passed `ergodic_ensemble._checked`, so they are
    Hermitian: o.T = conj(o), and each tile of `spin_chain.tile_pairs` is
    formed once, as rho[r, c] * conj(o[r, c]), with no transposed read.  C
    is Hermitian too, so A = Re C is symmetric and x.A.x = x.U.x for U in
    Re C: the diagonal tiles of A and twice its upper tiles.  In Im C the
    same layout gives B - B^T as the whole of B would.  m is a matrix, or
    the factors (P, S) of rho = P S P^dag, each tile of rho formed as
    (P[r] @ S) @ P[c]^dag.  The tiles below the diagonal keep the 0 of
    np.zeros, so for real data their pages are never touched.
    """
    p, s = m if isinstance(m, tuple) else (None, None)
    coeff = np.zeros(o.shape, dtype=np.result_type(m if p is None else p, o))
    for r, c in tile_pairs(len(o)):
        rho = m[r, c] if p is None else (p[r] @ s) @ p[c].conj().T
        tile = coeff[r, c]
        np.multiply(rho, o[r, c].conj(), out=tile)
        if r != c:
            tile *= 2.0
    return coeff


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
