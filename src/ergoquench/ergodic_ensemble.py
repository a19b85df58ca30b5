"""Moments of states averaged over sector-block unitary rotations.

The ensemble rotates a state by U = (+)_i U_i, one independent Haar-random
unitary per spectrum sector.  First and second moments of the rotated state
are analytic.  With sector blocks X^(ij) of an operator X and the shorthands

    t_i = tr rho^(ii)      p_i  = tr(rho^(ii) rho^(ii))
    a_i = tr A^(ii)        P_i  = tr(A^(ii) B^(ii))

the averaged expectation values contract to sector-restricted traces.
The mean is

    E[tr(sigma A)] = sum_i (t_i / d_i) a_i

and the connected part, E[tr(sigma A) tr(sigma B)] minus the product of
the means, is the Haar covariance of each sector (Collins & Sniady,
Commun. Math. Phys. 264, 773 (2006)), zero for a sector of one level,
plus the exchange sum between sectors:

    sum_{d_i >= 2} (d_i p_i - t_i^2) (d_i P_i - a_i b_i) / (d_i^2 (d_i^2 - 1))
  + sum_{i!=j} tr(rho^(ij) rho^(ji)) tr(A^(ji) B^(ij)) / (d_i d_j)

It is summed as it stands, never as a second moment minus the product of
the means, which would cancel digits when the means are large.

Everything here works on matrices already expressed in the eigenbasis that
defines the partition, real or complex as given.  No d^2 x d^2 object is
ever materialized; the test suite assembles one literally as a
small-dimension cross-check.

All inputs must be Hermitian.  Every operand of `ensemble_mean` and
`second_moment_expectation`, and of the Monte-Carlo oracle that checks
them, passes one check (`_checked`): it must have the partition's
dimension, and a raw array, not a DensityMatrix, HermitianOperator or
PairOperator, must be Hermitian to HERMITICITY_ATOL, with no NaN or inf.
The pair traces are taken without a transposed read: with X^T = conj(X),

    R2[i, j] = tr(rho^(ij) rho^(ji)) = block sums of |rho|^2
    M[i, j]  = tr(A^(ij) B^(ji))     = block sums of A o conj(B)

(o the elementwise product), so every d x d pass reads memory in order.

Rank-structured inputs never form a d x d matrix.  A state that keeps its
factors, rho = sum_k w_k v_k v_k^dag (`DensityMatrix.from_mixture`), and a
`spin_chain.PairOperator`, A = x y^dag + y x^dag, are both X = P S P^dag
with a few columns in P (`_factored`).  For two such inputs the sector
traces and the block sums of X o conj(Y) (R2 for the state with itself, M
for the two observables) come from sector sums of products of their
columns (`_pair_traces`), O(d r^2) work, with the block sums as two
factors.  The exchange sum over R2 o M is then one pass over whichever of
the two is dense, or O(d) when both are factored (`_exchange_sum`).
The formula itself is the same code for every combination: a pair whose
members are both factored is taken from the factors, any other pair
densely, a PairOperator by its `dense` form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalIntegrityError, SectorError, StateValidationError
from .spectral import SectorPartition
from .spin_chain import (HERMITICITY_ATOL, NORM_ATOL, HermitianOperator,
                         PairOperator, as_inexact_array, hermitian_deviation)

TRACE_ATOL = 1e-10
TRACE_GATE_ATOL = 1e-8  # looser gate applied by the averaging operations
PSD_ATOL = 1e-10
IMAG_RESIDUE_RTOL = 1e-10
_FLOAT_MAX = np.finfo(np.float64).max
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


class DensityMatrix:
    """Validated density matrix: Hermitian, unit trace, positive semidefinite.
    Real input stays real.

    A general matrix is checked for positivity by an eigensolver.  States
    built by `from_state_vector` and `from_mixture` are positive by
    construction, so those constructors check their inputs instead, and
    they keep only their factors: rho = (vectors * weights) @ vectors^dag
    with the vectors as columns.  Their d x d `entries` are formed on first
    use, for consumers without a factored path (`ensemble_mean`,
    plain-matrix code), and then kept.  `weights` and
    `vectors` are None for a general matrix.
    """

    __slots__ = ("_entries", "weights", "vectors")

    def __init__(self, entries):
        m = _hermitian_unit_trace(entries)
        # diagonal iff every nonzero sits on the diagonal; no copy of m
        if np.count_nonzero(m) == np.count_nonzero(m.diagonal()):
            lo = float(m.diagonal().real.min())  # diagonal matrices need no solver
        else:
            lo = float(np.linalg.eigvalsh(m).min())
        if lo < -PSD_ATOL:
            raise StateValidationError(f"negative eigenvalue {lo:.3e}")
        self._entries = m
        self.weights = self.vectors = None

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            v = self.vectors
            self._entries = _hermitian_unit_trace((v * self.weights) @ v.conj().T)
        return self._entries

    @classmethod
    def from_state_vector(cls, psi: np.ndarray) -> "DensityMatrix":
        return cls.from_mixture([1.0], [psi])

    @classmethod
    def from_mixture(cls, weights, vectors) -> "DensityMatrix":
        """sum_k weights[k] |vectors[k]><vectors[k]| for unit vectors and
        nonnegative weights that sum to 1.  Such a sum is positive by
        construction, so these inputs and the trace sum_k w_k |v_k|^2 are
        checked instead of the spectrum, in O(d r) for r vectors."""
        w = np.array(weights, dtype=np.float64).ravel()
        if len(w) != len(vectors) or len(w) == 0:
            raise StateValidationError(
                f"{len(w)} weights for {len(vectors)} vectors")
        if not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= TRACE_ATOL):
            raise StateValidationError(
                f"mixture weights must be >= 0 and sum to 1, got {w}")
        v = np.column_stack([as_inexact_array(psi).ravel() for psi in vectors])
        norms = np.linalg.norm(v, axis=0)
        if not np.all(np.abs(norms - 1.0) <= NORM_ATOL):  # NaN fails too
            raise StateValidationError(f"state vector norms {norms} != 1")
        tr = float(w @ norms**2)
        if not (abs(tr - 1.0) <= TRACE_ATOL):
            raise StateValidationError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        state = object.__new__(cls)  # bypasses __init__'s eigensolver
        state._entries = None
        state.weights, state.vectors = w, v
        return state


def _factored(x):
    """(P, S) with X = P S P^dag: the vectors and diag(weights) of a state
    that keeps its factors, [u v] and the swap of a PairOperator; else None.
    The one reader of the factors of an operand."""
    if isinstance(x, PairOperator):
        return np.column_stack([x.u, x.v]), np.array([[0.0, 1.0], [1.0, 0.0]])
    if isinstance(x, DensityMatrix) and x.vectors is not None:
        return x.vectors, np.diag(x.weights)
    return None


def _operator(op) -> np.ndarray:
    """The dense matrix of an operator or state: the one place where a
    PairOperator is densified, for consumers without a factored path."""
    if isinstance(op, PairOperator):
        return op.dense()
    return as_inexact_array(
        op.entries if isinstance(op, (HermitianOperator, DensityMatrix)) else op)


def _checked(x, partition: SectorPartition, factors: bool = True):
    """One operand of a partition-based entry point, checked and resolved:
    (P, S) when `factors` and x keeps its factors (`_factored`), else its
    dense matrix (`_operator`).  A dimension other than the partition's
    raises SectorError.  A raw array (not a DensityMatrix,
    HermitianOperator or PairOperator, which are checked on creation) that
    is not Hermitian to HERMITICITY_ATOL raises StateValidationError; NaN
    and inf fail too."""
    resolved = (_factored(x) if factors else None) or _operator(x)
    shape = ((len(resolved[0]),) * 2 if isinstance(resolved, tuple)
             else resolved.shape)
    if shape != (partition.dim,) * 2:
        raise SectorError(f"operand of shape {shape} does not match "
                          f"partition dim {partition.dim}")
    if not isinstance(x, (DensityMatrix, HermitianOperator, PairOperator)):
        dev = hermitian_deviation(resolved)
        if not (dev <= HERMITICITY_ATOL):
            raise StateValidationError(
                f"input not Hermitian, max deviation {dev:.3e}")
    return resolved


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
    m = _checked(rho, partition, factors=False)
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
    HERMITICITY_ATOL.  A state that keeps its factors gives R2, and two
    factored observables give M, as two factors (`_pair_traces`); any
    other pair is taken densely.  The connected part is the sum of the
    sector covariances and the exchange sum (module docstring), never a
    difference of the second moment and mean_a mean_b.  A result that is
    not finite, or has an imaginary residue, raises
    NumericalIntegrityError.
    """
    for x in (rho, obs_a, obs_b):
        _checked(x, partition)

    starts = partition.starts
    d = partition.sizes.astype(float)
    t, _, r2 = _pair_traces(rho, rho, starts)  # R2[i, j] = tr(rho^(ij) rho^(ji))
    t = t.real
    if not (abs(t.sum() - 1.0) <= TRACE_GATE_ATOL):
        raise StateValidationError(
            f"input trace deviates from 1 by {abs(t.sum() - 1.0):.3e}")
    a_tr, b_tr, ab = _pair_traces(obs_a, obs_b, starts)  # M[i, j] = tr(A^(ij) B^(ji))

    mean_a = float(np.sum(t * a_tr.real / d))
    mean_b = float(np.sum(t * b_tr.real / d))

    # the covariance of a sector of one level is zero; taken before
    # _exchange_sum zeroes the diagonals of R2 and M
    k = d >= 2
    dk = d[k]
    covariance = ((dk * _diagonal(r2)[k] - t[k]**2)
                  * (dk * _diagonal(ab)[k] - a_tr[k] * b_tr[k])
                  / (dk**2 * (dk**2 - 1.0)))
    # sum_{i != j} R2_ij M_ji / (d_i d_j); R2 is symmetric, so M_ji -> M_ij
    connected = covariance.sum() + _exchange_sum(r2, ab, 1.0 / d)
    total = mean_a * mean_b + connected  # the real part is taken only at the end
    # NaN and inf fail too
    if not (np.max(np.abs([total, mean_a, mean_b])) <= _FLOAT_MAX):
        raise NumericalIntegrityError(
            f"second moment {total.real:.3e} (means {mean_a:.3e}, {mean_b:.3e}) "
            "is not finite")
    if not (abs(total.imag) <= IMAG_RESIDUE_RTOL * max(1.0, abs(total))):
        raise NumericalIntegrityError(
            f"second moment has imaginary residue {total.imag:.3e}")
    return MomentPrediction(mean_a=mean_a, mean_b=mean_b,
                            connected=float(connected.real))


def _pair_traces(x, y, starts: np.ndarray):
    """Sector traces of X and Y, and the block sums of X o conj(Y).

    For X = P S P^dag and Y = Q T Q^dag (`_factored`),
    X_ab conj(Y_ab) = sum_cc' f_c(a) K_cc' conj(f_c'(b)) with f the
    products p_k o conj(q_m) of their columns and K = S (x) conj(T).  So
    with F the block sums of f, the block sums are left @ right.T for
    left = F K and right = conj(F), returned as (left, right); and the
    sector traces are sector sums of the rows of (P S) o conj(P).  Unless
    both are factored, all three come from the dense matrices.
    """
    fx, fy = _factored(x), _factored(y)
    if fx is None or fy is None:
        xm, ym = _operator(x), _operator(y)
        return (_sector_traces(xm, starts), _sector_traces(ym, starts),
                _block_sums(xm * ym.conj(), starts))
    x_tr, y_tr = (np.add.reduceat(np.sum((p @ s) * p.conj(), axis=1), starts)
                  for p, s in (fx, fy))
    (p, s), (q, t) = fx, fy
    f = (p[:, :, None] * q.conj()[:, None, :]).reshape(len(p), -1)
    sums = np.add.reduceat(f, starts, axis=0)
    return x_tr, y_tr, (sums @ np.kron(s, t.conj()), sums.conj())


def _diagonal(x) -> np.ndarray:
    """Diagonal of a matrix, or of left @ right.T given as (left, right)."""
    return np.sum(x[0] * x[1], axis=1) if isinstance(x, tuple) else np.diagonal(x)


def _exchange_sum(x, y, s: np.ndarray):
    """sum_{i != j} s_i s_j X_ij Y_ij, each of X and Y a matrix or the factors
    (left, right) of left @ right.T.  No matrix is formed from factors:
    with X = A B^T the sum is sum(A' o (Y B')) for a matrix Y and
    sum((A'^T C) o (B'^T D)) for Y = C D^T, primes marking rows scaled by s.
    The i = i terms are left out, not summed and taken away, wherever one
    of X and Y is a matrix: its diagonal is zeroed in place, which the
    fresh block sums of `_pair_traces` allow.
    """
    if not isinstance(x, tuple):
        x, y = y, x
    if not isinstance(y, tuple):
        np.fill_diagonal(y, 0.0)
        if not isinstance(x, tuple):
            return s @ ((x * y) @ s)
    left, right = x[0] * s[:, None], x[1] * s[:, None]
    if not isinstance(y, tuple):
        return np.sum(left * (y @ right))
    return (np.sum((left.T @ y[0]) * (right.T @ y[1]))
            - np.sum(_diagonal(x) * _diagonal(y) * s**2))


def cat_q_variance_closed_form(phi1_overlaps: np.ndarray,
                               phi2_overlaps: np.ndarray) -> float:
    """Quartic-overlap estimate of the ensemble variance of the swap
    observable Q = |phi1><phi2| + |phi2><phi1| for the even superposition
    of phi1 and phi2, valid when no eigenstate supports both components.

    Arguments are the eigenbasis overlap vectors <i|phi1> and <i|phi2>.
    The result is 1/4 sum_{a != b} |w_ab|^4 with w = phi1 phi2^dag +
    phi2 phi1^dag, evaluated in O(d) without forming w.  Raises when
    sum_i |<i|phi1><i|phi2>| exceeds SHARED_SUPPORT_THRESHOLD, read at call
    time, since the approximation discards exactly those shared-support
    terms.
    """
    v1 = np.asarray(phi1_overlaps).ravel()
    v2 = np.asarray(phi2_overlaps).ravel()
    if v1.shape != v2.shape:
        raise StateValidationError(f"overlap vectors differ in length: "
                                   f"{v1.shape} vs {v2.shape}")
    shared = float(np.sum(np.abs(v1 * v2)))
    if not (shared <= SHARED_SUPPORT_THRESHOLD):  # NaN fails too
        raise StateValidationError(
            f"shared eigenstate support {shared:.3e} exceeds threshold "
            f"{SHARED_SUPPORT_THRESHOLD:.3e}; closed form not applicable")
    # |w_ab|^2 = sum_i f_i(a) g_i(b) for w = v1 v2^dag + v2 v1^dag, so the
    # quartic sum over all (a, b) is sum((F^T F) o (G^T G)), O(d)
    cross = v1 * v2.conj()
    f = np.column_stack([np.abs(v1)**2, cross, cross.conj(), np.abs(v2)**2])
    g = f[:, [3, 1, 2, 0]]
    quartic = np.sum((f.T @ f) * (g.T @ g)).real
    diagonal = np.sum((2.0 * cross.real)**4)  # |w_aa|^4
    return 0.25 * float(quartic - diagonal)
