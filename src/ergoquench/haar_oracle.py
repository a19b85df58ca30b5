"""Monte-Carlo sampling of sector-block Haar unitaries.

This is the independent check on the analytic moment formulas: conjugate
the state by U = (+)_i U_i with each block drawn Haar-uniformly, and
average observables over many draws.

Sampling uses the QR decomposition of a complex Ginibre matrix with the
R-diagonal phase fix, which makes the distribution exactly Haar.  Every
sample k gets its own counter-based Philox stream keyed by (seed, k), so
results are reproducible bit-for-bit no matter how samples are batched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ergodic_ensemble import _entries, _operator
from .errors import SectorError
from .spectral import SectorPartition

DEFAULT_CHUNK = 2048


@dataclass(frozen=True)
class BlockUnitary:
    """One unitary per sector, acting block-diagonally on the full space."""

    partition: SectorPartition
    blocks: tuple

    def to_matrix(self) -> np.ndarray:
        d = self.partition.dim
        out = np.zeros((d, d), dtype=np.complex128)
        for sl, blk in zip(self.partition.slices(), self.blocks):
            out[sl, sl] = blk
        return out

    def conjugate(self, matrix) -> np.ndarray:
        """U M U^dag, computed blockwise."""
        m = _entries(matrix)
        if m.shape != (self.partition.dim,) * 2:
            raise SectorError(f"matrix shape {m.shape} does not match "
                              f"partition dim {self.partition.dim}")
        slices = self.partition.slices()
        out = np.empty(m.shape, dtype=np.complex128)
        for i, sl_i in enumerate(slices):
            for j, sl_j in enumerate(slices):
                out[sl_i, sl_j] = self.blocks[i] @ m[sl_i, sl_j] @ self.blocks[j].conj().T
        return out

    def max_unitarity_defect(self) -> float:
        worst = 0.0
        for blk in self.blocks:
            eye = np.eye(blk.shape[0])
            worst = max(worst, float(np.max(np.abs(blk @ blk.conj().T - eye))))
        return worst


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    std_error: float
    n_samples: int


def _fix_phases(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Rescale Q columns so the effective R diagonal is positive real;
    this removes the QR gauge ambiguity and yields exact Haar measure."""
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(diag)
    safe = np.where(mag == 0.0, 1.0, mag)
    phase = np.where(mag == 0.0, 1.0 + 0.0j, diag / safe)
    return q * phase[..., None, :]


def _haar_blocks(partition: SectorPartition, seed: int, first_index: int,
                 count: int) -> list[np.ndarray]:
    """Per-sector (count, d_i, d_i) stacks of Haar unitaries for samples
    first_index .. first_index + count - 1.

    Sample k draws its Ginibre entries from its own (seed, k) Philox
    substream in a fixed layout: sector by sector, real parts then
    imaginary parts, each row-major.
    """
    sizes = [int(d) for d in partition.sizes]
    flat = np.empty((count, sum(2 * d * d for d in sizes)))
    for k in range(count):
        rng = np.random.Generator(np.random.Philox(key=[seed, first_index + k]))
        rng.standard_normal(out=flat[k])
    blocks = []
    pos = 0
    for d in sizes:
        re = flat[:, pos:pos + d * d].reshape(count, d, d)
        im = flat[:, pos + d * d:pos + 2 * d * d].reshape(count, d, d)
        blocks.append(_fix_phases(*np.linalg.qr((re + 1j * im) / np.sqrt(2.0))))
        pos += 2 * d * d
    return blocks


def sample_block_unitary(partition: SectorPartition, seed: int,
                         sample_index: int = 0) -> BlockUnitary:
    """Draw one block unitary from its own (seed, sample_index) substream."""
    blocks = _haar_blocks(partition, seed, sample_index, 1)
    return BlockUnitary(partition=partition, blocks=tuple(b[0] for b in blocks))


def _rotated_states(rho, partition: SectorPartition, n_samples: int,
                    seed: int, chunk_size: int):
    """Yield (first_index, sigma) per chunk, sigma the (count, d, d) stack
    of U rho U^dag for samples first_index .. first_index + count - 1."""
    m = _entries(rho)
    d = partition.dim
    chunk_size = _bounded_chunk(chunk_size, d)
    for done in range(0, n_samples, chunk_size):
        count = min(chunk_size, n_samples - done)
        u = np.zeros((count, d, d), dtype=np.complex128)
        for sl, q in zip(partition.slices(),
                         _haar_blocks(partition, seed, done, count)):
            u[:, sl, sl] = q
        yield done, u @ m @ u.conj().transpose(0, 2, 1)


def estimate_moments(rho, partition: SectorPartition, observables,
                     order: int, n_samples: int, seed: int,
                     chunk_size: int = DEFAULT_CHUNK) -> list[MomentEstimate]:
    """Monte-Carlo estimate of ensemble moments.

    order 1 returns one MomentEstimate per observable, each averaging
    tr(U rho U^dag A) over samples.  For order n >= 2 the observable list
    must have exactly n entries and the returned single estimate averages
    the per-sample product prod_j tr(U rho U^dag A_j).

    std_error is the sample standard deviation over the per-sample values
    divided by sqrt(n_samples).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    obs = [_operator(o) for o in observables]
    if order >= 2 and len(obs) != order:
        raise ValueError(f"order {order} needs exactly {order} observables, "
                         f"got {len(obs)}")
    if not obs:
        raise ValueError("no observables given")
    per_obs = [np.empty(n_samples) for _ in obs]
    for done, sigma in _rotated_states(rho, partition, n_samples, seed,
                                       chunk_size):
        for vals, a in zip(per_obs, obs):
            vals[done:done + len(sigma)] = np.einsum("bij,ji->b", sigma, a).real

    if order == 1:
        return [_summarize(v) for v in per_obs]
    prod = per_obs[0].copy()
    for v in per_obs[1:]:
        prod *= v
    return [_summarize(prod)]


def _summarize(values: np.ndarray) -> MomentEstimate:
    n = len(values)
    return MomentEstimate(value=float(values.mean()),
                          std_error=float(values.std(ddof=1) / np.sqrt(n)),
                          n_samples=n)


def _bounded_chunk(chunk_size: int, dim: int) -> int:
    """Keep the (chunk, dim, dim) sample stacks around 64 MB or less."""
    return max(1, min(chunk_size, (1 << 22) // max(1, dim * dim)))


def estimate_state_mean(rho, partition: SectorPartition, n_samples: int,
                        seed: int, chunk_size: int = DEFAULT_CHUNK):
    """Element-wise Monte-Carlo mean of U rho U^dag.

    Returns (mean, se_real, se_imag): the averaged matrix plus standard
    errors of the real and imaginary parts of every element, for direct
    element-wise comparison against ensemble_mean.
    """
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    d = partition.dim
    acc = np.zeros((d, d), dtype=np.complex128)
    acc_re2 = np.zeros((d, d))
    acc_im2 = np.zeros((d, d))
    for _, sigma in _rotated_states(rho, partition, n_samples, seed, chunk_size):
        acc += sigma.sum(axis=0)
        acc_re2 += (sigma.real**2).sum(axis=0)
        acc_im2 += (sigma.imag**2).sum(axis=0)

    mean = acc / n_samples
    bessel = n_samples / (n_samples - 1.0)
    var_re = np.maximum(bessel * (acc_re2 / n_samples - mean.real**2), 0.0)
    var_im = np.maximum(bessel * (acc_im2 / n_samples - mean.imag**2), 0.0)
    return mean, np.sqrt(var_re / n_samples), np.sqrt(var_im / n_samples)
