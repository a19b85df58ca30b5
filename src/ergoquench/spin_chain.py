"""Disordered XXX spin chains in a fixed-magnetization sector.

Conventions used throughout:

* Pauli matrices with eigenvalues +-1 (not spin-1/2 operators), so a single
  XXX bond J sigma.sigma has eigenvalues {-3J, +J}.
* Basis configurations are integers where bit j encodes site j, with a set
  bit meaning spin up (sigma^z = +1).  Within a sector the configurations
  are listed in ascending integer order.
* Open boundary conditions: bond j couples sites j and j + 1 with the
  coupling J_j, which may be one J shared by every bond.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, SectorError

HERMITICITY_ATOL = 1e-12
NORM_ATOL = 1e-10
# side of the square tiles of d x d passes: `hermitian_deviation` reads a
# tile and its mirror, which stay in cache while one is read transposed; the
# dense phase sum forms and reads only the tiles on and above the diagonal
ADJOINT_TILE = 128


def as_inexact_array(m) -> np.ndarray:
    """Contiguous array at float64, or at complex128 for complex input, so
    real data is never widened to complex."""
    m = np.asarray(m)
    return np.ascontiguousarray(m, dtype=np.result_type(m.dtype, np.float64))


def tile_pairs(dim: int):
    """(rows, cols) slices of the tiles on and above the diagonal of a
    dim x dim matrix; the mirror tile of a pair is [cols, rows]."""
    for lo in range(0, dim, ADJOINT_TILE):
        rows = slice(lo, lo + ADJOINT_TILE)
        for hi in range(lo, dim, ADJOINT_TILE):
            yield rows, slice(hi, hi + ADJOINT_TILE)


def hermitian_deviation(m: np.ndarray) -> float:
    """max |m - m^dag| of a square matrix, read one tile pair at a time.
    `checked_hermitian` is its one caller in the package.

    Any non-finite entry makes the result NaN or inf, so a caller's
    `not (dev <= tol)` rejects it.
    """
    if m.size == 0:
        return 0.0
    # |m_ij - conj(m_ji)| = |m_ji - conj(m_ij)|: a tile covers its mirror.
    # np.max, not max(), so that a NaN tile is not passed over
    # inf - inf is reported as NaN and a difference that overflows as inf,
    # whatever the caller's np.errstate
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.max([np.max(np.abs(m[r, c] - m[c, r].conj().T))
                             for r, c in tile_pairs(m.shape[0])]))


def checked_hermitian(m, error: type[Exception]) -> tuple[np.ndarray, float]:
    """m as a square inexact array (`as_inexact_array`) and its
    `hermitian_deviation`, or `error` unless it is Hermitian to
    HERMITICITY_ATOL: the one check of every dense operator and state.
    Non-finite entries are looked for only once the deviation has failed,
    to name the cause, so an operand that passes costs one pass."""
    m = as_inexact_array(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise error(f"operator must be square, got {m.shape}")
    dev = hermitian_deviation(m)
    if not (dev <= HERMITICITY_ATOL):  # NaN and inf fail too
        if not np.all(np.isfinite(m)):
            raise error("operator has a non-finite entry")
        raise error(f"operator not Hermitian, max deviation {dev:.3e}")
    return m, dev


@dataclass(frozen=True)
class SpinBasis:
    """Computational basis of the total-S^z sector of an L-site chain."""

    n_sites: int
    total_sz: int
    states: np.ndarray  # sorted configuration integers, shape (dim,)

    @property
    def dim(self) -> int:
        return len(self.states)

    def occupations(self) -> np.ndarray:
        """(dim, L) array of bits, entry [a, j] is 1 if site j is up in state a."""
        sites = np.arange(self.n_sites)
        return (self.states[:, None] >> sites[None, :]) & 1


def build_basis(n_sites: int, total_sz: int) -> SpinBasis:
    """Enumerate the fixed-magnetization sector of an n_sites chain.

    total_sz is the eigenvalue of sum_j sigma_j^z, so it ranges over
    -L, -L+2, ..., L and must have the parity of L.  Chains of a single
    site are allowed (they appear as the halves of an L=2 split).
    """
    if n_sites < 1:
        raise SectorError(f"need at least one site, got {n_sites}")
    if abs(total_sz) > n_sites or (n_sites + total_sz) % 2 != 0:
        raise SectorError(f"no sector with total Sz={total_sz} on {n_sites} sites")
    n_up = (n_sites + total_sz) // 2
    configs = np.arange(1 << n_sites, dtype=np.int64)
    states = configs[np.bitwise_count(configs) == n_up]
    return SpinBasis(n_sites=n_sites, total_sz=total_sz, states=states)


def draw_disorder(n_sites: int, h_bound: float, seed: int) -> np.ndarray:
    """One draw of the on-site longitudinal fields h_j, uniform on [-h, h]."""
    return np.random.default_rng(seed).uniform(-h_bound, h_bound, size=n_sites)


@dataclass(frozen=True)
class HermitianOperator:
    """A dense operator on the sector, validated to be Hermitian on creation
    (`checked_hermitian`); `deviation` keeps the deviation measured then.
    Real input stays real."""

    entries: np.ndarray
    deviation: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m, dev = checked_hermitian(self.entries, ConstructionError)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "deviation", dev)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def symmetrized(entries: np.ndarray,
                overwrite: bool = False) -> HermitianOperator:
    """Wrap (M + M^dag)/2, for matrices Hermitian only up to rounding,
    such as a product formed in floating point.  On a matrix whose
    entries below the diagonal are already the adjoints of their mirrors
    (`EigenSystem.to_eigenbasis`'s result) the average leaves every real
    entry's bits as they are and only makes a complex diagonal real.

    Each tile pair is averaged once and its mirror written as the adjoint,
    which is bit-identical to averaging it: 0.5 * (x + conj y) and
    conj(0.5 * (y + conj x)) round the same.  A pair is read whole before
    either tile is written, so with overwrite=True, for a caller that
    gives M up, the average is written over M's own buffer when it is
    writeable and of an inexact dtype (`as_inexact_array` does not copy
    it): no d x d array is made, and the bits are those of the copy.
    """
    m = as_inexact_array(entries)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConstructionError(f"operator must be square, got {m.shape}")
    # a copy made by as_inexact_array is this call's own to overwrite
    out = m if overwrite and m.flags.writeable else np.empty_like(m)
    for r, c in tile_pairs(m.shape[0]):
        out[r, c] = 0.5 * (m[r, c] + m[c, r].conj().T)
        if r != c:
            out[c, r] = out[r, c].conj().T
    return HermitianOperator(out)


def build_hamiltonian(basis: SpinBasis, coupling: float | np.ndarray,
                      fields: np.ndarray) -> HermitianOperator:
    """Restriction of H = sum_j J_j sigma_j.sigma_{j+1} + sum_j h_j sigma_j^z.

    Parameters
    ----------
    basis : sector basis the operator acts on.
    coupling : exchange constant J of every bond, or one value J_j per bond
        (L - 1 of them); bond j couples sites j and j + 1.
    fields : on-site fields h_j, one per site of `basis`.

    A zero coupling or field drops its terms, so the same builder produces
    the full chain and any part of it, such as the right half: every term
    is still added, and a zero one adds exact zeros.

    Returns
    -------
    HermitianOperator on the sector.  Off-diagonal hop elements are exactly
    2 J_j; diagonal elements collect the J_j zz terms and the fields.
    """
    n = basis.n_sites
    couplings = np.asarray(coupling)
    if couplings.ndim == 0:
        couplings = np.full(n - 1, couplings)
    if couplings.shape != (n - 1,):
        raise ConstructionError(f"{couplings.size} couplings for {n - 1} bonds")
    if len(fields) != n:
        raise ConstructionError(f"{len(fields)} fields for {n} sites")

    occ = basis.occupations()
    z = 2.0 * occ - 1.0  # sigma^z eigenvalues per site
    diag = np.zeros(basis.dim)
    for j in range(n - 1):
        diag += couplings[j] * z[:, j] * z[:, j + 1]
    for j in range(n):
        diag += fields[j] * z[:, j]

    entries = np.zeros((basis.dim, basis.dim))
    entries[np.diag_indices(basis.dim)] = diag
    for j in range(n - 1):
        # sigma^x sigma^x + sigma^y sigma^y flips an anti-aligned pair with
        # amplitude 2; each configuration pair is connected by at most one bond.
        movable = occ[:, j] != occ[:, j + 1]
        src = np.nonzero(movable)[0]
        flipped = basis.states[src] ^ ((1 << j) | (1 << (j + 1)))
        dst = np.searchsorted(basis.states, flipped)
        entries[dst, src] += 2.0 * couplings[j]
    return HermitianOperator(entries)


@dataclass(frozen=True)
class PairOperator:
    """The rank-2 Hermitian operator u v^dag + v u^dag, held as its two
    vectors; the d x d matrix is formed only by `dense`.  Real input stays
    real."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = as_inexact_array(self.u).ravel()
        v = as_inexact_array(self.v).ravel()
        if u.shape != v.shape:
            raise ConstructionError(f"vector dimensions differ: {u.shape} vs {v.shape}")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ConstructionError("pair operator vector has a non-finite entry")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def nbytes(self) -> int:
        return self.u.nbytes + self.v.nbytes

    def dense(self) -> np.ndarray:
        """The d x d matrix u v^dag + v u^dag."""
        m = np.outer(self.u, self.v.conj())
        m += np.outer(self.v, self.u.conj())  # the adjoint, no transpose read
        return m


def build_projector_observable(phi1: np.ndarray, phi2: np.ndarray) -> PairOperator:
    """The swap-like observable |phi1><phi2| + |phi2><phi1|, as its two vectors.

    Both vectors must be unit-normalized and of equal dimension.  For an
    orthonormal pair the operator has trace 0 and squared trace 2.
    """
    q = PairOperator(phi1, phi2)
    for k, v in (("first", q.u), ("second", q.v)):
        norm = np.linalg.norm(v)
        if not (abs(norm - 1.0) <= NORM_ATOL):  # NaN fails too
            raise ConstructionError(f"{k} vector not normalized, |norm-1|={abs(norm-1):.3e}")
    return q
