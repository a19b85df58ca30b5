"""Exact diagonalization, level statistics, and spectrum partitioning.

A SectorPartition groups the sorted eigenvalues into contiguous index
ranges.  The ergodic-ensemble averages treat each range as one invariant
block, so the partition is the single object connecting spectral structure
to the statistical predictions.
"""

from __future__ import annotations

import ctypes
import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalIntegrityError, SectorError
from .spin_chain import HermitianOperator

# rows of M per tile of EigenSystem.to_eigenbasis's sparse product M V
SUPPORT_TILE = 64


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition with energies ascending and eigenvectors as columns."""

    energies: np.ndarray
    vectors: np.ndarray

    def to_eigenbasis(self, entries: np.ndarray,
                      overwrite: bool = False) -> np.ndarray:
        """V^dag M V without re-symmetrization (callers wrap if needed).

        M V is formed SUPPORT_TILE rows at a time, each tile multiplied
        only with the rows of V where it has a nonzero column, and one
        dense product V^dag (M V) follows.  A local Hamiltonian in the
        sector basis has a few nonzeros per row, so M V costs far less
        than a GEMM; a dense M has full support and takes V whole.

        With overwrite=True the caller gives M up.  When M is a writeable
        C-ordered array of the result's dtype, each tile of M V is written
        over the rows of M it was formed from, so the call holds V, M and
        the result and no separate M V.  A caller that then drops M holds
        two d x d arrays.  The bits are those of the default path, which
        never changes M.
        """
        m = np.asarray(entries)
        v = self.vectors
        dtype = np.result_type(m, v)
        in_place = (overwrite and m.dtype == dtype and m.flags.c_contiguous
                    and m.flags.writeable)
        mv = m if in_place else np.empty((len(m), v.shape[1]), dtype=dtype)
        for lo in range(0, len(m), SUPPORT_TILE):
            tile, out = m[lo:lo + SUPPORT_TILE], mv[lo:lo + SUPPORT_TILE]
            cols = np.flatnonzero(np.any(tile, axis=0))
            if len(cols) == len(v):
                np.matmul(tile, v, out=out)
            else:  # the gathered copies are freed as soon as they are used
                np.matmul(tile[:, cols], v[cols], out=out)
        return v.conj().T @ mv

    def vector_to_eigenbasis(self, v: np.ndarray) -> np.ndarray:
        return self.vectors.conj().T @ np.asarray(v)


def diagonalize(op: HermitianOperator, overwrite: bool = False) -> EigenSystem:
    """Full eigendecomposition of a sector operator.

    The vectors have the operator's dtype: real for a real-symmetric
    operator, complex for a complex Hermitian one.  A solver that fails to
    converge, or whose energies overflow to inf or NaN (entries near the
    float64 limit), raises NumericalIntegrityError; the message gives the
    count of non-finite energies and the largest finite |E|.  Nothing is
    measured on the operator itself, before the solve or after it.

    A real operator is diagonalized by LAPACK dsyevd in place on one
    Fortran-ordered copy of its entries, so the solver holds three d x d
    arrays besides the operator: that copy, which becomes the
    eigenvectors, and a 2 d^2 workspace.  The workspace is freed before
    the vectors are copied back to C order.  A complex operator, or a
    numpy that does not export dsyevd, takes np.linalg.eigh, which also
    holds a separate output array.  On a real operator the two paths give
    the same bits.

    With overwrite=True the caller gives the operator up.  A real operator
    whose entries equal their transpose exactly, as build_hamiltonian's
    do, is then solved in place on its own buffer read as the Fortran
    array M^T, which holds the same matrix: no copy is made, and the call
    holds three d x d arrays in all.  Exact symmetry is the deviation the
    operator measured when it was made (`HermitianOperator.deviation`
    is 0.0), so its entries must not have changed since.  Any other
    operator takes the copy, so the energies and vectors have the same
    bits either way.
    """
    m = op.entries
    in_place = (overwrite and m.dtype == np.float64 and m.flags.writeable
                and op.deviation == 0.0)
    try:
        energies, vectors = _eigh(m.T if in_place else m)
    except np.linalg.LinAlgError as exc:
        raise NumericalIntegrityError(
            f"eigensolver did not converge (dim={op.dim}): {exc}") from exc
    finite = np.isfinite(energies)
    if not np.all(finite):  # overflow inside the solver
        largest = float(np.max(np.abs(energies[finite]), initial=0.0))
        raise NumericalIntegrityError(
            f"eigensolver returned {np.count_nonzero(~finite)} non-finite "
            f"energies of {op.dim}, largest finite |E| {largest:.3e}")
    return EigenSystem(energies=energies, vectors=vectors)


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(m): ascending energies and C-ordered vectors, or
    LinAlgError.  A float64 matrix goes to numpy's own dsyevd in place, with
    the arguments eigh passes it (jobz V, uplo L, the queried workspace):
    on m itself when m is a writeable Fortran-ordered array that is not
    also C-ordered (diagonalize passes one only to be overwritten), else
    on a Fortran-ordered copy."""
    lapack = _dsyevd() if m.dtype == np.float64 else None
    if lapack is None:
        return np.linalg.eigh(m)
    own = m.flags.f_contiguous and not m.flags.c_contiguous and m.flags.writeable
    a = m if own else np.array(m, order="F")  # overwritten with the eigenvectors
    w, work, iwork = np.empty(len(a)), np.empty(1), np.empty(1, dtype=np.int64)
    _syevd(lapack, a, w, work, -1, iwork, -1)  # workspace query
    work, iwork = np.empty(int(work[0])), np.empty(int(iwork[0]), dtype=np.int64)
    _syevd(lapack, a, w, work, len(work), iwork, len(iwork))
    del work, iwork  # freed before the C-ordered copy is made
    return w, np.ascontiguousarray(a)


def _syevd(lapack, a, w, work, lwork: int, iwork, liwork: int) -> None:
    n, lda, info = (ctypes.c_int64(k) for k in (len(a), max(len(a), 1), 0))
    lapack(b"V", b"L", n, a.ctypes.data, lda, w.ctypes.data, work.ctypes.data,
           ctypes.c_int64(lwork), iwork.ctypes.data, ctypes.c_int64(liwork),
           info, 1, 1)  # the trailing 1s are the lengths of jobz and uplo
    if info.value:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")


@functools.cache
def _dsyevd():
    """numpy's own LAPACK dsyevd as a ctypes function, or None.

    numpy's wheels bundle scipy-openblas64, whose ILP64 symbols carry a
    `scipy_` prefix and a `64_` suffix; the library np.linalg calls it
    from resolves them.  Looked up on the first call, not on import.
    """
    try:
        from numpy.linalg import _umath_linalg
        f = ctypes.CDLL(_umath_linalg.__file__).scipy_dsyevd_64_
    except (ImportError, AttributeError, OSError):
        return None
    i64 = ctypes.POINTER(ctypes.c_int64)
    ptr = ctypes.c_void_p
    f.restype = None
    f.argtypes = [ctypes.c_char_p, ctypes.c_char_p, i64, ptr, i64, ptr, ptr,
                  i64, ptr, i64, i64, ctypes.c_size_t, ctypes.c_size_t]
    return f


def level_spacing_ratio(energies: np.ndarray) -> float | None:
    """Mean adjacent-gap ratio r = <min(s_n, s_n+1) / max(s_n, s_n+1)>,
    or None where no ratio exists: fewer than 3 levels, or all equal.

    Reference values: ~0.53 for Wigner (ergodic) statistics, ~0.39 for
    Poisson (localized).  Pairs where both spacings vanish are skipped
    with a degeneracy warning; a single zero spacing contributes ratio 0.
    """
    e = np.sort(np.asarray(energies, dtype=float))
    if len(e) < 3 or e[-1] == e[0]:
        return None
    s = np.diff(e)
    lo = np.minimum(s[:-1], s[1:])
    hi = np.maximum(s[:-1], s[1:])
    degenerate = hi == 0.0
    if degenerate.any():
        warnings.warn(
            f"{int(degenerate.sum())} adjacent spacing pairs are exactly "
            "degenerate; skipping them in the gap-ratio mean",
            stacklevel=2,
        )
    keep = ~degenerate
    return float(np.mean(lo[keep] / hi[keep]))


@dataclass(frozen=True)
class SectorPartition:
    """Contiguous index ranges [starts[i], starts[i+1]) tiling range(dim)."""

    dim: int
    starts: np.ndarray

    def __post_init__(self):
        dim, s = int(_whole("dim", self.dim)), _whole("starts", self.starts)
        if dim < 1:
            raise SectorError(f"partition of empty spectrum (dim={self.dim})")
        if len(s) == 0 or s[0] != 0 or s[-1] >= dim or np.any(np.diff(s) <= 0):
            raise SectorError("sector starts must be strictly increasing, "
                              f"begin at 0, and stay below dim={dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "starts", s)

    @property
    def n_sectors(self) -> int:
        return len(self.starts)

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(np.append(self.starts, self.dim))


def _whole(name: str, x) -> np.ndarray:
    """x as int64; SectorError unless every entry is a whole number."""
    a = np.asarray(x)
    whole = a.dtype.kind in "iu" or (a.dtype.kind == "f" and bool(
        np.all((np.abs(a) < 2.0 ** 63) & (a == np.floor(a)))))  # NaN fails
    if not whole:
        raise SectorError(f"{name} must hold whole numbers, got {x!r}")
    return a.astype(np.int64)


def cluster_sectors(energies: np.ndarray, degeneracy_tol: float) -> SectorPartition:
    """Greedy left-to-right clustering of sorted energies.

    A new sector opens whenever the gap to the previous level exceeds
    degeneracy_tol.  With tol=0 a generic (all-distinct) spectrum gives
    singletons, while exact repeats still merge.
    """
    e = np.asarray(energies, dtype=float)
    if not np.all(np.isfinite(e)):
        raise SectorError("energies must be finite")
    if np.any(np.diff(e) < 0):
        raise SectorError("energies must be sorted ascending")
    if not degeneracy_tol >= 0:  # NaN fails too
        raise ValueError(f"degeneracy_tol must be >= 0, got {degeneracy_tol}")
    if len(e) == 0:
        raise SectorError("cannot partition an empty spectrum")
    gaps = np.diff(e)
    starts = np.concatenate(([0], np.nonzero(gaps > degeneracy_tol)[0] + 1))
    return SectorPartition(dim=len(e), starts=starts)
