"""Moments of states averaged over sector-block unitary rotations.

The ensemble rotates a state by U = (+)_i U_i, one independent Haar-random
unitary per spectrum sector.  First and second moments of the rotated state
are analytic.  With sector blocks X^(ij) of an operator X and the shorthands

    t_i = tr rho^(ii)      p_i  = tr(rho^(ii) rho^(ii))
    a_i = tr A^(ii)        P_i  = tr(A^(ii) B^(ii))

the averaged expectation values contract to sector-restricted traces:

    E[tr(sigma A)]          = sum_i (t_i / d_i) a_i
    E[tr(sigma A) tr(sigma B)] =
        sum_i  (t_i^2 + p_i) / (d_i (d_i+1)) * (a_i b_i + P_i) / 2
      + sum_i  (t_i^2 - p_i) / (d_i (d_i-1)) * (a_i b_i - P_i) / 2   [d_i >= 2]
      + sum_{i!=j} t_i t_j a_i b_j / (d_i d_j)
      + sum_{i!=j} tr(rho^(ij) rho^(ji)) tr(A^(ji) B^(ij)) / (d_i d_j)

Everything here works on matrices already expressed in the eigenbasis that
defines the partition, real or complex as given.  No d^2 x d^2 object is
ever materialized; the test suite assembles one literally as a
small-dimension cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalIntegrityError, SectorError, StateValidationError
from .spectral import SectorPartition
from .spin_chain import HermitianOperator, as_inexact_array

TRACE_ATOL = 1e-10
TRACE_GATE_ATOL = 1e-8  # looser gate applied by the averaging operations
PSD_ATOL = 1e-10
UNIT_NORM_ATOL = 1e-10
IMAG_RESIDUE_RTOL = 1e-10
SHARED_SUPPORT_THRESHOLD = 0.05


def _hermitian_unit_trace(entries) -> np.ndarray:
    """The O(d^2) checks every density matrix passes: square, Hermitian,
    unit trace."""
    m = as_inexact_array(entries)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StateValidationError(f"density matrix must be square, got {m.shape}")
    herm = float(np.max(np.abs(m - m.conj().T)))
    if herm > 1e-12:
        raise StateValidationError(f"not Hermitian, max deviation {herm:.3e}")
    tr = m.trace()
    if abs(tr - 1.0) > TRACE_ATOL:
        raise StateValidationError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix: Hermitian, unit trace, positive semidefinite.
    Real input stays real.

    A general matrix is checked for positivity by an eigensolver; states
    built by `from_state_vector` and `from_mixture` are positive by
    construction, so those constructors check their inputs instead.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = _hermitian_unit_trace(self.entries)
        off = m.copy()
        np.fill_diagonal(off, 0.0)
        if np.all(off == 0.0):
            lo = float(m.diagonal().real.min())  # diagonal matrices need no solver
        else:
            lo = float(np.linalg.eigvalsh(m).min())
        if lo < -PSD_ATOL:
            raise StateValidationError(f"negative eigenvalue {lo:.3e}")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_state_vector(cls, psi: np.ndarray) -> "DensityMatrix":
        return cls.from_mixture([1.0], [psi])

    @classmethod
    def from_mixture(cls, weights, vectors) -> "DensityMatrix":
        """sum_k weights[k] |vectors[k]><vectors[k]| for unit vectors and
        nonnegative weights that sum to 1.  Such a sum is positive by
        construction, so these inputs are checked instead of the spectrum."""
        w = np.asarray(weights, dtype=np.float64).ravel()
        if len(w) != len(vectors) or len(w) == 0:
            raise StateValidationError(
                f"{len(w)} weights for {len(vectors)} vectors")
        if not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= TRACE_ATOL):
            raise StateValidationError(
                f"mixture weights must be >= 0 and sum to 1, got {w}")
        v = np.column_stack([as_inexact_array(psi).ravel() for psi in vectors])
        norms = np.linalg.norm(v, axis=0)
        if not np.all(np.abs(norms - 1.0) <= UNIT_NORM_ATOL):  # NaN fails too
            raise StateValidationError(f"state vector norms {norms} != 1")
        state = object.__new__(cls)  # bypasses __post_init__'s eigensolver
        object.__setattr__(state, "entries",
                           _hermitian_unit_trace((v * w) @ v.conj().T))
        return state


def _entries(rho) -> np.ndarray:
    """Accept DensityMatrix or a raw array (used by oracles and error-path tests)."""
    return as_inexact_array(rho.entries if isinstance(rho, DensityMatrix) else rho)


def _operator(op) -> np.ndarray:
    return as_inexact_array(op.entries if isinstance(op, HermitianOperator) else op)


def _check_shapes(partition: SectorPartition, *mats: np.ndarray):
    for m in mats:
        if m.shape != (partition.dim, partition.dim):
            raise SectorError(
                f"matrix shape {m.shape} does not match partition dim {partition.dim}")


def _block_sums(m: np.ndarray, starts: np.ndarray) -> np.ndarray:
    by_rows = np.add.reduceat(m, starts, axis=0)
    return np.add.reduceat(by_rows, starts, axis=1)


def _sector_traces(m: np.ndarray, starts: np.ndarray) -> np.ndarray:
    return np.add.reduceat(np.diagonal(m), starts)


def ensemble_mean(rho, partition: SectorPartition) -> DensityMatrix:
    """First moment of the rotated state: block i becomes (t_i / d_i) * identity.

    For a fully non-degenerate spectrum (all-singleton partition) this is the
    diagonal ensemble; for a single whole-space sector it is the
    microcanonical state 1/d.
    """
    m = _entries(rho)
    _check_shapes(partition, m)
    tr = m.trace()
    if abs(tr - 1.0) > TRACE_GATE_ATOL:
        raise StateValidationError(f"input trace deviates from 1 by {abs(tr - 1.0):.3e}")
    t = _sector_traces(m, partition.starts).real
    # dividing by the actual trace keeps marginally off-normalized inputs
    # (inside the gate above) from producing an invalid output state
    weights = np.repeat(t / partition.sizes, partition.sizes) / tr.real
    return DensityMatrix(np.diag(weights))


@dataclass(frozen=True)
class MomentPrediction:
    """Analytic first and second moment of a pair of observables.

    second_moment is reconstructed as mean_a * mean_b + connected, so the
    decomposition identity holds exactly by construction.
    """

    mean_a: float
    mean_b: float
    connected: float

    @property
    def second_moment(self) -> float:
        return self.mean_a * self.mean_b + self.connected


def second_moment_expectation(rho, partition: SectorPartition,
                              obs_a, obs_b) -> MomentPrediction:
    """E[tr(sigma A)], E[tr(sigma B)], and E[tr(sigma A) tr(sigma B)] with
    sigma = U rho U^dag averaged over sector-block unitaries.

    All inputs live in the basis defining the partition.
    """
    m = _entries(rho)
    a_mat = _operator(obs_a)
    b_mat = _operator(obs_b)
    _check_shapes(partition, m, a_mat, b_mat)
    if abs(m.trace() - 1.0) > TRACE_GATE_ATOL:
        raise StateValidationError(
            f"input trace deviates from 1 by {abs(m.trace() - 1.0):.3e}")

    starts = partition.starts
    d = partition.sizes.astype(float)
    t = _sector_traces(m, starts).real
    a_tr = _sector_traces(a_mat, starts)
    b_tr = _sector_traces(b_mat, starts)
    # R2[i, j] = tr(rho^(ij) rho^(ji)); elementwise |rho|^2 because rho is Hermitian
    r2 = _block_sums((m * m.T).real, starts)
    p = np.diagonal(r2)
    # M[i, j] = tr(A^(ij) B^(ji))
    ab = _block_sums(a_mat * b_mat.T, starts)
    p_ab = np.diagonal(ab)

    mean_a = float(np.sum(t * a_tr.real / d))
    mean_b = float(np.sum(t * b_tr.real / d))

    ab_diag = a_tr * b_tr  # a_i b_i; the real part is taken only at the end
    sym_pairs = (t**2 + p) / (d * (d + 1.0)) * 0.5 * (ab_diag + p_ab)
    anti_pairs = np.zeros_like(sym_pairs)
    big = d >= 2
    anti_pairs[big] = ((t[big]**2 - p[big]) / (d[big] * (d[big] - 1.0))
                       * 0.5 * (ab_diag[big] - p_ab[big]))

    u = t * a_tr / d
    v = t * b_tr / d
    direct_pairs = np.outer(u, v)
    np.fill_diagonal(direct_pairs, 0.0)
    exchange_pairs = r2 * ab.T / np.outer(d, d)
    np.fill_diagonal(exchange_pairs, 0.0)

    total = (sym_pairs.sum() + anti_pairs.sum()
             + direct_pairs.sum() + exchange_pairs.sum())
    scale = max(1.0, abs(total))
    if abs(total.imag) > IMAG_RESIDUE_RTOL * scale:
        raise NumericalIntegrityError(
            f"second moment has imaginary residue {total.imag:.3e}")
    second = float(total.real)
    return MomentPrediction(mean_a=mean_a, mean_b=mean_b,
                            connected=second - mean_a * mean_b)


def cat_q_variance_closed_form(phi1_overlaps: np.ndarray,
                               phi2_overlaps: np.ndarray,
                               overlap_threshold: float = SHARED_SUPPORT_THRESHOLD) -> float:
    """Quartic-overlap estimate of the ensemble variance of the swap
    observable Q = |phi1><phi2| + |phi2><phi1| for the even superposition
    of phi1 and phi2, valid when no eigenstate supports both components.

    Arguments are the eigenbasis overlap vectors <i|phi1> and <i|phi2>.
    Raises when sum_i |<i|phi1><i|phi2>| exceeds overlap_threshold, since
    the approximation discards exactly those shared-support terms.
    """
    v1 = np.asarray(phi1_overlaps).ravel()
    v2 = np.asarray(phi2_overlaps).ravel()
    if v1.shape != v2.shape:
        raise StateValidationError(f"overlap vectors differ in length: "
                                   f"{v1.shape} vs {v2.shape}")
    shared = float(np.sum(np.abs(v1 * v2)))
    if shared > overlap_threshold:
        raise StateValidationError(
            f"shared eigenstate support {shared:.3e} exceeds threshold "
            f"{overlap_threshold:.3e}; closed form not applicable")
    w = np.outer(v1, v2.conj()) + np.outer(v2, v1.conj())
    quartic = np.abs(w) ** 4
    return 0.25 * float(quartic.sum() - np.diagonal(quartic).sum())
