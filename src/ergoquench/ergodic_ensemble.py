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

All inputs must be Hermitian, and the pair traces are taken without a
transposed read: with X^T = conj(X),

    R2[i, j] = tr(rho^(ij) rho^(ji)) = block sums of |rho|^2
    M[i, j]  = tr(A^(ij) B^(ji))     = block sums of A o conj(B)

(o the elementwise product), so every d x d pass reads memory in order.

When both observables are `spin_chain.PairOperator`s, A = x y^dag + y x^dag
and B = z w^dag + w z^dag, neither is densified: a_i and b_i are sector sums
of x o conj(y) + y o conj(x) and its B counterpart, M is a sum of four
outer products of sector-sum vectors (`_pair_traces`), and the exchange
sum over R2 o M takes four matrix-vector products with R2.  The formula
itself is the same code for both.  R2 stays dense, and any other pair of
observables is taken densely, a PairOperator by its `dense` form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalIntegrityError, SectorError, StateValidationError
from .spectral import SectorPartition
from .spin_chain import (HERMITICITY_ATOL, HermitianOperator, PairOperator,
                         as_inexact_array, hermitian_deviation)

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
    herm = hermitian_deviation(m)
    if not (herm <= HERMITICITY_ATOL):  # NaN and inf fail too
        raise StateValidationError(f"not Hermitian, max deviation {herm:.3e}")
    tr = m.trace()
    if not (abs(tr - 1.0) <= TRACE_ATOL):
        raise StateValidationError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix: Hermitian, unit trace, positive semidefinite.
    Real input stays real.

    A general matrix is checked for positivity by an eigensolver; states
    built by `from_state_vector` and `from_mixture` are positive by
    construction, so those constructors check their inputs instead.  Such
    a state also keeps its factors, entries = (vectors * weights) @
    vectors^dag with the vectors as columns; both are None for a general
    matrix.
    """

    entries: np.ndarray
    weights: np.ndarray | None = field(default=None, init=False, repr=False,
                                       compare=False)
    vectors: np.ndarray | None = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        m = _hermitian_unit_trace(self.entries)
        # diagonal iff every nonzero sits on the diagonal; no copy of m
        if np.count_nonzero(m) == np.count_nonzero(m.diagonal()):
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
        w = np.array(weights, dtype=np.float64).ravel()
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
        object.__setattr__(state, "weights", w)
        object.__setattr__(state, "vectors", v)
        return state


def _entries(rho) -> np.ndarray:
    """Accept DensityMatrix or a raw array (used by oracles and error-path tests)."""
    return as_inexact_array(rho.entries if isinstance(rho, DensityMatrix) else rho)


def _operator(op) -> np.ndarray:
    """The dense matrix of an operator: the one place where a PairOperator
    is densified, for consumers without a factored path."""
    if isinstance(op, PairOperator):
        return op.dense()
    return as_inexact_array(op.entries if isinstance(op, HermitianOperator) else op)


def _check_shapes(partition: SectorPartition, *mats: np.ndarray):
    for m in mats:
        if m.shape != (partition.dim, partition.dim):
            raise SectorError(
                f"matrix shape {m.shape} does not match partition dim {partition.dim}")


def _block_sums(m: np.ndarray, starts: np.ndarray) -> np.ndarray:
    if len(starts) == m.shape[0]:
        return m  # all-singleton partition: every block is one entry
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

    All inputs live in the basis defining the partition and must be
    Hermitian: the pair traces R2 = block sums of |rho|^2 and M = block
    sums of A o conj(B) hold for Hermitian inputs only.  Raw arrays (not a
    DensityMatrix, HermitianOperator or PairOperator) are checked to
    HERMITICITY_ATOL.  When both observables are PairOperators, their
    sector traces and M come from their vectors (`_pair_traces`); any
    other pair is taken densely.
    """
    m = _entries(rho)
    pairs = isinstance(obs_a, PairOperator) and isinstance(obs_b, PairOperator)
    inputs = [(rho, m)]
    if pairs:
        if not obs_a.dim == obs_b.dim == partition.dim:
            raise SectorError(f"pair operator dims {obs_a.dim}, {obs_b.dim} "
                              f"do not match partition dim {partition.dim}")
    else:
        a_mat, b_mat = _operator(obs_a), _operator(obs_b)
        inputs += [(obs_a, a_mat), (obs_b, b_mat)]
    _check_shapes(partition, *(mat for _, mat in inputs))
    for given, mat in inputs:
        if not isinstance(given, (DensityMatrix, HermitianOperator, PairOperator)):
            dev = hermitian_deviation(mat)
            if not (dev <= HERMITICITY_ATOL):
                raise StateValidationError(
                    f"input not Hermitian, max deviation {dev:.3e}")
    if abs(m.trace() - 1.0) > TRACE_GATE_ATOL:
        raise StateValidationError(
            f"input trace deviates from 1 by {abs(m.trace() - 1.0):.3e}")

    starts = partition.starts
    d = partition.sizes.astype(float)
    inv_d = 1.0 / d
    t = _sector_traces(m, starts).real
    r2 = _block_sums((m * m.conj()).real, starts)  # R2[i, j] = tr(rho^(ij) rho^(ji))
    p = np.diagonal(r2)
    # M[i, j] = tr(A^(ij) B^(ji)), its diagonal P_i, and the exchange sum
    # sum_ij R2_ij M_ji / (d_i d_j); R2 is symmetric, so M_ji -> M_ij
    if pairs:
        a_tr, b_tr, left, right = _pair_traces(obs_a, obs_b, starts)
        p_ab = np.sum(left * right, axis=1)
        r2_ab = np.sum((left * inv_d[:, None]) * (r2 @ (right * inv_d[:, None])))
    else:
        a_tr = _sector_traces(a_mat, starts)
        b_tr = _sector_traces(b_mat, starts)
        ab = _block_sums(a_mat * b_mat.conj(), starts)
        p_ab = np.diagonal(ab)
        r2_ab = inv_d @ ((r2 * ab) @ inv_d)

    mean_a = float(np.sum(t * a_tr.real / d))
    mean_b = float(np.sum(t * b_tr.real / d))

    ab_diag = a_tr * b_tr  # a_i b_i; the real part is taken only at the end
    sym_pairs = (t**2 + p) / (d * (d + 1.0)) * 0.5 * (ab_diag + p_ab)
    anti_pairs = np.zeros_like(sym_pairs)
    big = d >= 2
    anti_pairs[big] = ((t[big]**2 - p[big]) / (d[big] * (d[big] - 1.0))
                       * 0.5 * (ab_diag[big] - p_ab[big]))

    # sum_{i != j} u_i v_j, without the outer product
    u = t * a_tr / d
    v = t * b_tr / d
    direct = u.sum() * v.sum() - np.sum(u * v)
    # sum_{i != j} R2_ij M_ji / (d_i d_j)
    exchange = r2_ab - np.sum(p * p_ab * inv_d**2)

    total = sym_pairs.sum() + anti_pairs.sum() + direct + exchange
    scale = max(1.0, abs(total))
    if abs(total.imag) > IMAG_RESIDUE_RTOL * scale:
        raise NumericalIntegrityError(
            f"second moment has imaginary residue {total.imag:.3e}")
    second = float(total.real)
    return MomentPrediction(mean_a=mean_a, mean_b=mean_b,
                            connected=second - mean_a * mean_b)


def _pair_traces(obs_a: PairOperator, obs_b: PairOperator, starts: np.ndarray):
    """Sector traces a_i, b_i of A = x y^dag + y x^dag and B = z w^dag +
    w z^dag, and M = block sums of A o conj(B) = left @ right.T.

    A_kl conj(B_kl) splits into four products f_k g_l, one for each choice
    of a member of (x, y) and one of (z, w): f = (x or y) o conj(z or w)
    and g = conj(the other of x, y) o (the other of z, w).  Block sums of
    f and g are the columns of left and right, O(d) work in all.
    """
    a_tr, b_tr = (np.add.reduceat(op.u * op.v.conj() + op.v * op.u.conj(), starts)
                  for op in (obs_a, obs_b))
    pa = np.column_stack([obs_a.u, obs_a.v])
    pb = np.column_stack([obs_b.u, obs_b.v])
    f = pa[:, :, None] * pb.conj()[:, None, :]
    g = pa.conj()[:, ::-1, None] * pb[:, None, ::-1]
    left = np.add.reduceat(f.reshape(len(pa), 4), starts, axis=0)
    right = np.add.reduceat(g.reshape(len(pa), 4), starts, axis=0)
    return a_tr, b_tr, left, right


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
