"""Disordered XXX spin chains in a fixed-magnetization sector.

Conventions used throughout:

* Pauli matrices with eigenvalues +-1 (not spin-1/2 operators), so a single
  XXX bond J sigma.sigma has eigenvalues {-3J, +J}.
* Basis configurations are integers where bit j encodes site j, with a set
  bit meaning spin up (sigma^z = +1).  Within a sector the configurations
  are listed in ascending integer order.
* Open boundary conditions, bond j couples sites (j, j+1).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    ups = np.zeros_like(configs)
    for j in range(n_sites):  # popcount by shift and sum
        ups += (configs >> j) & 1
    states = configs[ups == n_up]
    return SpinBasis(n_sites=n_sites, total_sz=total_sz, states=states)


def draw_disorder(n_sites: int, h_bound: float, seed: int) -> np.ndarray:
    """One draw of the on-site longitudinal fields h_j, uniform on [-h, h]."""
    return np.random.default_rng(seed).uniform(-h_bound, h_bound, size=n_sites)


@dataclass(frozen=True)
class HermitianOperator:
    """A dense operator on the sector, validated to be Hermitian on creation.
    Real input stays real."""

    entries: np.ndarray

    def __post_init__(self):
        m = as_inexact_array(self.entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConstructionError(f"operator must be square, got {m.shape}")
        dev = hermitian_deviation(m)
        if not (dev <= HERMITICITY_ATOL):  # NaN and inf fail too
            raise ConstructionError(f"operator not Hermitian, max deviation {dev:.3e}")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def symmetrized(entries: np.ndarray) -> HermitianOperator:
    """Wrap (M + M^dag)/2, for matrices Hermitian only up to rounding
    (e.g. after a basis rotation).

    Each tile pair is averaged once and its mirror written as the adjoint,
    which is bit-identical to averaging it: 0.5 * (x + conj y) and
    conj(0.5 * (y + conj x)) round the same.
    """
    m = as_inexact_array(entries)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConstructionError(f"operator must be square, got {m.shape}")
    out = np.empty_like(m)
    for r, c in tile_pairs(m.shape[0]):
        out[r, c] = 0.5 * (m[r, c] + m[c, r].conj().T)
        if r != c:
            out[c, r] = out[r, c].conj().T
    return HermitianOperator(out)


def build_hamiltonian(
    basis: SpinBasis,
    coupling: float,
    fields: np.ndarray,
    bond_range: tuple[int, int] | None = None,
    field_sites: tuple[int, int] | None = None,
) -> HermitianOperator:
    """Restriction of H = sum_j J sigma_j.sigma_{j+1} + sum_j h_j sigma_j^z.

    Parameters
    ----------
    basis : sector basis the operator acts on.
    coupling : exchange constant J, shared by all bonds.
    fields : on-site fields h_j, one per site of `basis`.
    bond_range : inclusive interval (lo, hi) of bond indices to keep,
        default all bonds [0, L-2].  An interval with hi < lo is empty,
        which is how a single-site "chain" gets a field-only Hamiltonian.
    field_sites : inclusive interval of site indices whose field terms to
        keep, default all sites.  The same builder therefore produces the
        full chain and both halves of a split.

    Returns
    -------
    HermitianOperator on the sector.  Off-diagonal hop elements are exactly
    2J; diagonal elements collect J zz terms and the fields.
    """
    n = basis.n_sites
    if len(fields) != n:
        raise ConstructionError(f"{len(fields)} fields for {n} sites")
    bonds = _resolve_interval(bond_range, n - 2, "bond")
    sites = _resolve_interval(field_sites, n - 1, "field site")

    occ = basis.occupations()
    z = 2.0 * occ - 1.0  # sigma^z eigenvalues per site
    diag = np.zeros(basis.dim)
    for j in bonds:
        diag += coupling * z[:, j] * z[:, j + 1]
    for j in sites:
        diag += fields[j] * z[:, j]

    entries = np.zeros((basis.dim, basis.dim))
    entries[np.diag_indices(basis.dim)] = diag
    for j in bonds:
        # sigma^x sigma^x + sigma^y sigma^y flips an anti-aligned pair with
        # amplitude 2; each configuration pair is connected by at most one bond.
        movable = occ[:, j] != occ[:, j + 1]
        src = np.nonzero(movable)[0]
        flipped = basis.states[src] ^ ((1 << j) | (1 << (j + 1)))
        dst = np.searchsorted(basis.states, flipped)
        entries[dst, src] += 2.0 * coupling
    return HermitianOperator(entries)


def _resolve_interval(interval, last_valid, what) -> range:
    if interval is None:
        return range(0, last_valid + 1)
    lo, hi = interval
    if hi < lo:
        return range(0)
    if lo < 0 or hi > last_valid:
        raise ConstructionError(
            f"{what} interval [{lo}, {hi}] outside valid range [0, {last_valid}]")
    return range(lo, hi + 1)


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
