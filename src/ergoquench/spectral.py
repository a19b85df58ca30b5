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
from .spin_chain import ADJOINT_TILE, HermitianOperator, tile_pairs

# rows of M per tile of EigenSystem.to_eigenbasis's sparse product M V:
# narrower tiles gather fewer columns of V, and with 16 rows one product
# H_R V took 0.10-0.12 s at L = 14 (d = 3432, 2 BLAS threads) against
# 0.16 s with 64
SUPPORT_TILE = 16
# column blocks [lo, hi) of EigenSystem.to_eigenbasis's V^dag (M V), one
# product V[:, :hi]^dag (M V)[:, lo:hi] each: a block holds at most
# d^2 / ROTATION_BLOCKS values, and with 4 blocks the products take 5/8 of
# the flops of the whole V^dag (M V)
ROTATION_BLOCKS = 4


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition with energies ascending and eigenvectors as columns."""

    energies: np.ndarray
    vectors: np.ndarray

    def to_eigenbasis(self, op: HermitianOperator,
                      overwrite: bool = False) -> np.ndarray:
        """V^dag M V of a Hermitian operator M, exactly Hermitian off the
        diagonal: each entry above it is formed once and its mirror
        written as the adjoint.

        M V is formed SUPPORT_TILE rows at a time, each tile multiplied
        only with the rows of V where it has a nonzero column.  A local
        Hamiltonian in the sector basis has a few nonzeros per row, so M V
        costs far less than a GEMM; a dense M has full support and takes
        V whole.  Then each of ROTATION_BLOCKS column blocks [lo, hi) of
        the result is formed only on rows [0, hi), as V[:, :hi]^dag
        (M V)[:, lo:hi], over the columns of M V it was formed from: the
        blocks form the upper block triangle, 5/8 of the flops of the
        whole product at 4 blocks.  Last, every strict-lower entry is
        written as the adjoint of its upper mirror, one tile pair of
        `spin_chain.tile_pairs` at a time.  The diagonal is as the
        product formed it, so on complex data it may hold rounding in its
        imaginary part.

        With overwrite=True the caller gives M up.  When M's entries are
        a writeable C-ordered array of the result's dtype, each tile of
        M V is written over the rows of M it was formed from, so the call
        holds V, M and one block of columns, 2.25 d^2, and the result is
        M's own buffer.  The bits are those of the default path, which
        never changes M and forms the same tiles and blocks in a new
        array.
        """
        m = op.entries
        v = self.vectors
        d = len(m)
        dtype = np.result_type(m, v)
        in_place = (overwrite and m.dtype == dtype and m.flags.c_contiguous
                    and m.flags.writeable)
        out = m if in_place else np.empty((d, d), dtype=dtype)
        for lo in range(0, d, SUPPORT_TILE):
            tile, rows = m[lo:lo + SUPPORT_TILE], out[lo:lo + SUPPORT_TILE]
            cols = np.flatnonzero(np.any(tile, axis=0))
            if len(cols) == d:
                np.matmul(tile, v, out=rows)
            else:  # the gathered copies are freed as soon as they are used
                np.matmul(tile[:, cols], v[cols], out=rows)
        adjoint = v.conj().T  # a view for real V
        width = max(1, -(-d // ROTATION_BLOCKS))
        for lo in range(0, d, width):
            hi = min(lo + width, d)
            out[:hi, lo:hi] = adjoint[:hi] @ out[:, lo:hi]
        below = np.tri(ADJOINT_TILE, k=-1, dtype=bool)
        for r, c in tile_pairs(d):
            if r == c:
                square = out[r, c]
                lower = below[:len(square), :len(square)]
                square[lower] = square.conj().T[lower]
            else:
                out[c, r] = out[r, c].conj().T
        return out

    def vector_to_eigenbasis(self, v: np.ndarray) -> np.ndarray:
        return self.vectors.conj().T @ np.asarray(v)


# d x d float64 arrays that a run holds at most, as measured: diagonalize
# keeps 2.5 of them, the copy of the operator, its reflectors and dstedc's
# workspace, and no later stage keeps more (the rotation of H_R holds V,
# H_R and a quarter of its columns; once the pair is in the eigenbasis V
# goes, so the moments hold H_R and a few tiles of 64 rows, and the H_R
# series H_R and half its coefficients).  An L = 14 run on 100 points
# peaked at 2.60 d^2 above its start (VmHWM and ru_maxrss, at the end of
# prepare_spectrum), LAPACK's own buffers included.  require_memory checks
# a run's size against it
PEAK_DXD_ARRAYS = 2.6
# the same count when np.linalg.eigh solves instead (`_lapack` is None):
# the operator, eigh's copy, dsyevd's 2 d^2 workspace and the output;
# an L = 14 run on 100 points peaked 5.09 and 5.18 d^2 above its start
# by ru_maxrss
EIGH_DXD_ARRAYS = 5.2
MEMINFO = "/proc/meminfo"


def require_memory(dim: int) -> None:
    """MemoryError unless the d x d float64 arrays of the solver that
    `diagonalize` takes for a real operator, PEAK_DXD_ARRAYS with `_lapack`
    and EIGH_DXD_ARRAYS without it, fit in the MemAvailable of MEMINFO,
    with the solver and both numbers in the message.  A host without that
    file, or without that line in it, is not checked."""
    try:
        with open(MEMINFO) as f:
            available = next(int(line.split()[1]) * 1024 for line in f
                             if line.startswith("MemAvailable:"))
    except (OSError, StopIteration, ValueError, IndexError):
        return
    solver, count = (("np.linalg.eigh", EIGH_DXD_ARRAYS) if _lapack() is None
                     else ("dsytrd, dstedc and dormtr", PEAK_DXD_ARRAYS))
    need = count * dim * dim * 8
    if need > available:
        raise MemoryError(
            f"d = {dim} needs {need / 1e6:.1f} MB for {count} d x d arrays "
            f"in {solver}, and {available / 1e6:.1f} MB is available")


def diagonalize(op: HermitianOperator, overwrite: bool = False) -> EigenSystem:
    """Full eigendecomposition of a sector operator.

    The vectors have the operator's dtype: real for a real-symmetric
    operator, complex for a complex Hermitian one.  A solver that fails to
    converge, or whose energies overflow to inf or NaN (entries near the
    float64 limit), raises NumericalIntegrityError; the message gives the
    count of non-finite energies and the largest finite |E|.  Nothing is
    measured on the operator itself, before the solve or after it.

    A real operator is diagonalized as LAPACK dsyevd diagonalizes it, by
    its three routines called one by one (`_eigh`), in place on one
    Fortran-ordered copy of its entries, so the solver holds 2.5 d x d
    arrays besides the operator: that copy, which becomes the
    eigenvectors, the Householder reflectors (d^2 / 2) and a d^2
    workspace; with LAPACK's own buffers a run peaks at PEAK_DXD_ARRAYS =
    2.6 d x d arrays, as measured.  Both are freed before the vectors are copied
    back to C order.  A complex operator, or a numpy that does not export
    those routines, takes np.linalg.eigh, which holds dsyevd's 2 d^2
    workspace and a separate output array (EIGH_DXD_ARRAYS in all).  On a
    real operator the two paths give the same bits.

    With overwrite=True the caller gives the operator up.  A real operator
    whose entries equal their transpose exactly, as build_hamiltonian's
    do, is then solved in place on its own buffer read as the Fortran
    array M^T, which holds the same matrix: no copy is made, and the call
    holds 2.5 d x d arrays in all.  Exact symmetry is the deviation the
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
    LinAlgError.  A float64 matrix of order n >= 2 is solved as numpy's
    dsyevd solves it, by dsytrd, dstedc and dormtr with the lower triangle,
    but called one by one, so that the eigenvectors take the buffer of the
    matrix itself and the solver holds 2.5 n^2 float64 in all: on m when m
    is a writeable Fortran-ordered array that is not also C-ordered
    (diagonalize passes one only to be overwritten), else on a
    Fortran-ordered copy.

    dsytrd leaves the Householder reflectors in the lower triangle.  It is
    copied out by column panels (n^2 / 2) before dstedc writes the
    eigenvectors of the tridiagonal matrix over it, and copied back into
    dstedc's n^2 workspace once dstedc returns, where dormtr reads it.
    The bits are those of dsyevd only with the workspace lengths dsyevd
    passes: the length eigh queries for it less 2 n to dsytrd, and less
    2 n + n^2 to dstedc and dormtr, each capped at what the routine can
    use.  dormtr's
    own workspace query leaves out the 65 x 64 block T of dormqr, and with
    that shorter workspace dormqr takes narrower panels and other bits.
    dsyevd's scaling of a matrix whose largest entry lies outside
    [2^-485, 2^485] is repeated too.
    """
    lapack = _lapack() if m.dtype == np.float64 and len(m) >= 2 else None
    if lapack is None:
        return np.linalg.eigh(m)
    own = m.flags.f_contiguous and not m.flags.c_contiguous and m.flags.writeable
    a = m if own else np.array(m, order="F")  # overwritten with the eigenvectors
    n = len(a)
    # column panels of the lower triangle: the rows below a panel's
    # diagonal tile, and the tile's own lower triangle
    tri = np.tri(ADJOINT_TILE, dtype=bool)
    panels = [(slice(lo, lo + ADJOINT_TILE), tri[:n - lo, :n - lo])
              for lo in range(0, n, ADJOINT_TILE)]
    # dlansy's max |a_ij| over the lower triangle, and dsyevd's scaling
    anrm = max(max(np.max(np.abs(a[c.stop:, c]), initial=0.0),
                   np.max(np.abs(a[c, c][below]), initial=0.0))
               for c, below in panels)
    sigma = (2.0 ** -485 / anrm if 0.0 < anrm < 2.0 ** -485 else
             2.0 ** 485 / anrm if anrm > 2.0 ** 485 else None)
    if sigma is not None:
        a *= sigma  # the upper triangle is never read
    w, e, tau, query = (np.empty(k) for k in (n, n - 1, n - 1, 1))
    _call(lapack["dsytrd"], b"L", n, a, n, w, e, tau, query, -1)
    lwork_trd = int(query[0])
    lwork = max(1 + 6 * n + 2 * n * n, 2 * n + lwork_trd)  # eigh's query
    _call(lapack["dsytrd"], b"L", n, a, n, w, e, tau, np.empty(lwork_trd),
          lwork_trd)
    stash = [(a[c.stop:, c].copy(order="F"), a[c, c][below])
             for c, below in panels]
    work = np.empty(n * n + 4 * n + 1)
    iwork = np.empty(3 + 5 * n, dtype=np.int64)
    _call(lapack["dstedc"], b"I", n, w, e, a, n, work, len(work), iwork,
          len(iwork))
    del iwork
    reflectors = work[:n * n].reshape((n, n), order="F")
    for (c, below), (under, own) in zip(panels, stash):
        reflectors[c.stop:, c] = under
        reflectors[c, c][below] = own
    del stash
    # dormqr's largest use: 64 columns of n and its 65 x 64 block T
    work_ormtr = np.empty(min(lwork - 2 * n - n * n, 64 * n + 65 * 64))
    _call(lapack["dormtr"], b"L", b"L", b"N", n, n, reflectors, n, tau, a, n,
          work_ormtr, len(work_ormtr))
    del work, reflectors, work_ormtr  # freed before the C-ordered copy is made
    if sigma is not None:
        w *= 1.0 / sigma
    return w, np.ascontiguousarray(a)


# the argument kinds of each LAPACK routine that _eigh calls: c a
# one-character option, i an ILP64 integer, p an array; each c adds a
# hidden length after the last argument
_SIGNATURES = {"dsytrd": "cipippppii", "dstedc": "cipppipipii",
               "dormtr": "ccciipippipii"}


def _call(routine, *args) -> None:
    """Call a routine of `_lapack`: bytes are options, arrays pass their
    buffers and ints are ILP64 integers; LinAlgError if info is not 0."""
    info = ctypes.c_int64(0)
    values = [a.ctypes.data if isinstance(a, np.ndarray) else
              a if isinstance(a, bytes) else ctypes.c_int64(a) for a in args]
    options = sum(isinstance(a, bytes) for a in args)
    routine(*values, info, *[1] * options)
    if info.value:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")


@functools.cache
def _lapack():
    """numpy's own LAPACK dsytrd, dstedc and dormtr as ctypes functions by
    name, or None.

    numpy's wheels bundle scipy-openblas64, whose ILP64 symbols carry a
    `scipy_` prefix and a `64_` suffix; the library np.linalg calls them
    from resolves them.  Looked up on the first call, not on import.
    """
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
        routines = {name: getattr(lib, f"scipy_{name}_64_")
                    for name in _SIGNATURES}
    except (ImportError, AttributeError, OSError):
        return None
    kinds = {"c": ctypes.c_char_p, "i": ctypes.POINTER(ctypes.c_int64),
             "p": ctypes.c_void_p}
    for name, f in routines.items():
        f.restype = None
        f.argtypes = ([kinds[k] for k in _SIGNATURES[name]]
                      + [ctypes.c_size_t] * _SIGNATURES[name].count("c"))
    return routines


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
