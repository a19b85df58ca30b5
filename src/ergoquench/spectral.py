"""Exact diagonalization, level statistics, and spectrum partitioning.

A SectorPartition groups the sorted eigenvalues into contiguous index
ranges.  The ergodic-ensemble averages treat each range as one invariant
block, so the partition is the single object connecting spectral structure
to the statistical predictions.
"""

from __future__ import annotations

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

    @property
    def dim(self) -> int:
        return len(self.energies)

    def to_eigenbasis(self, entries: np.ndarray) -> np.ndarray:
        """V^dag M V without re-symmetrization (callers wrap if needed).

        M V is formed SUPPORT_TILE rows at a time, each tile multiplied
        only with the rows of V where it has a nonzero column, and one
        dense product V^dag (M V) follows.  A local Hamiltonian in the
        sector basis has a few nonzeros per row, so M V costs far less
        than a GEMM; a dense M has full support and takes V whole.
        """
        m = np.asarray(entries)
        v = self.vectors
        mv = np.empty((len(m), v.shape[1]), dtype=np.result_type(m, v))
        for lo in range(0, len(m), SUPPORT_TILE):
            tile = m[lo:lo + SUPPORT_TILE]
            cols = np.flatnonzero(np.any(tile, axis=0))
            mv[lo:lo + SUPPORT_TILE] = (tile @ v if len(cols) == len(v)
                                        else tile[:, cols] @ v[cols])
        return v.conj().T @ mv

    def vector_to_eigenbasis(self, v: np.ndarray) -> np.ndarray:
        return self.vectors.conj().T @ np.asarray(v)


def diagonalize(op: HermitianOperator) -> EigenSystem:
    """Full eigendecomposition of a sector operator.

    The vectors have the operator's dtype: real for a real-symmetric
    operator, complex for a complex Hermitian one.  A solver that fails to
    converge, or whose energies overflow to inf or NaN (entries near the
    float64 limit), raises NumericalIntegrityError.
    """
    m = op.entries
    try:
        energies, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        scale = float(np.max(np.abs(m))) if m.size else 0.0
        raise NumericalIntegrityError(
            f"eigensolver did not converge (dim={op.dim}, max|entry|={scale:.3e}): {exc}"
        ) from exc
    if not np.all(np.isfinite(energies)):  # overflow inside the solver
        raise NumericalIntegrityError(
            f"eigensolver returned non-finite energies (dim={op.dim}, "
            f"max|entry|={float(np.max(np.abs(m))):.3e})")
    return EigenSystem(energies=energies, vectors=vectors)


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

    def slices(self) -> list[slice]:
        stops = np.append(self.starts[1:], self.dim)
        return [slice(int(a), int(b)) for a, b in zip(self.starts, stops)]

    @classmethod
    def singletons(cls, dim: int) -> "SectorPartition":
        return cls(dim=dim, starts=np.arange(dim, dtype=np.int64))

    @classmethod
    def whole(cls, dim: int) -> "SectorPartition":
        return cls(dim=dim, starts=np.zeros(1, dtype=np.int64))


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
