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


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition with energies ascending and eigenvectors as columns."""

    energies: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.energies)

    def to_eigenbasis(self, entries: np.ndarray) -> np.ndarray:
        """V^dag M V without re-symmetrization (callers wrap if needed)."""
        return self.vectors.conj().T @ np.asarray(entries) @ self.vectors

    def vector_to_eigenbasis(self, v: np.ndarray) -> np.ndarray:
        return self.vectors.conj().T @ np.asarray(v)


def diagonalize(op: HermitianOperator) -> EigenSystem:
    """Full eigendecomposition of a sector operator.

    The vectors have the operator's dtype: real for a real-symmetric
    operator, complex for a complex Hermitian one.
    """
    m = op.entries
    try:
        energies, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        scale = float(np.max(np.abs(m))) if m.size else 0.0
        raise NumericalIntegrityError(
            f"eigensolver did not converge (dim={op.dim}, max|entry|={scale:.3e}): {exc}"
        ) from exc
    return EigenSystem(energies=energies, vectors=vectors)


def level_spacing_ratio(energies: np.ndarray) -> float:
    """Mean adjacent-gap ratio r = <min(s_n, s_n+1) / max(s_n, s_n+1)>.

    Reference values: ~0.53 for Wigner (ergodic) statistics, ~0.39 for
    Poisson (localized).  Pairs where both spacings vanish are skipped
    with a degeneracy warning; a single zero spacing contributes ratio 0.
    """
    e = np.sort(np.asarray(energies, dtype=float))
    if len(e) < 3:
        raise ValueError(f"need at least 3 levels, got {len(e)}")
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
    if not keep.any():
        raise ValueError("all spacing pairs degenerate, gap ratio undefined")
    return float(np.mean(lo[keep] / hi[keep]))


@dataclass(frozen=True)
class SectorPartition:
    """Contiguous index ranges [starts[i], starts[i+1]) tiling range(dim)."""

    dim: int
    starts: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.starts, dtype=np.int64)
        if self.dim < 1:
            raise SectorError(f"partition of empty spectrum (dim={self.dim})")
        if len(s) == 0 or s[0] != 0 or s[-1] >= self.dim or np.any(np.diff(s) <= 0):
            raise SectorError("sector starts must be strictly increasing, "
                              f"begin at 0, and stay below dim={self.dim}")
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


def cluster_sectors(energies: np.ndarray, degeneracy_tol: float) -> SectorPartition:
    """Greedy left-to-right clustering of sorted energies.

    A new sector opens whenever the gap to the previous level exceeds
    degeneracy_tol.  With tol=0 a generic (all-distinct) spectrum gives
    singletons, while exact repeats still merge.
    """
    e = np.asarray(energies, dtype=float)
    if np.any(np.diff(e) < 0):
        raise SectorError("energies must be sorted ascending")
    if degeneracy_tol < 0:
        raise ValueError(f"degeneracy_tol must be >= 0, got {degeneracy_tol}")
    if len(e) == 0:
        raise SectorError("cannot partition an empty spectrum")
    gaps = np.diff(e)
    starts = np.concatenate(([0], np.nonzero(gaps > degeneracy_tol)[0] + 1))
    return SectorPartition(dim=len(e), starts=starts)
