"""Dense references the tests check the package against: the literal
d^2 x d^2 second moment behind `second_moment_expectation` at small
dimension, and the Monte-Carlo oracle's dense path behind
`estimate_moments` and `estimate_state_mean`, built on one sample's
block unitaries drawn as the estimators draw them."""

from dataclasses import dataclass

import numpy as np

from ergoquench.ergodic_ensemble import _checked, _operator
from ergoquench.haar_oracle import _group_unitaries, _size_groups
from ergoquench.spectral import SectorPartition

DENSE_REFERENCE_MAX_DIM = 64


@dataclass(frozen=True)
class BlockUnitary:
    """One unitary per sector, acting block-diagonally on the full space."""

    partition: SectorPartition
    blocks: tuple

    def max_unitarity_defect(self) -> float:
        worst = 0.0
        for blk in self.blocks:
            eye = np.eye(blk.shape[0])
            worst = max(worst, float(np.max(np.abs(blk @ blk.conj().T - eye))))
        return worst


def sample_block_unitary(partition: SectorPartition, seed: int,
                         sample_index: int = 0) -> BlockUnitary:
    """Draw sample number sample_index of the seed's stream; the same
    sample as the estimators draw at that index."""
    groups, _, n_entries = _size_groups(partition)
    blocks = [None] * partition.n_sectors
    for grp, stack in zip(groups, _group_unitaries(groups, n_entries, seed,
                                                   sample_index, 1)):
        for k, i in enumerate(grp.sectors):
            blocks[i] = stack[0, k]
    return BlockUnitary(partition=partition, blocks=tuple(blocks))


def dense_second_moment_reference(rho, partition: SectorPartition) -> np.ndarray:
    """Literal d^2 x d^2 matrix E[sigma (x) sigma], assembled from the four
    identity operators term by term.

    Deliberately independent of the contraction path so the two can check
    each other; guarded to dim <= 64 because of the quartic memory cost.
    """
    m = _checked(rho, partition.dim, factors=False)
    d = partition.dim
    if d > DENSE_REFERENCE_MAX_DIM:
        raise ValueError(f"dense reference limited to dim <= {DENSE_REFERENCE_MAX_DIM}, "
                         f"got {d}")
    slices = partition.slices()
    sizes = partition.sizes
    out = np.zeros((d * d, d * d), dtype=np.complex128)

    for i, sl in enumerate(slices):
        di = int(sizes[i])
        block = m[sl, sl]
        t_i = block.trace().real
        p_i = (block @ block).trace().real
        w_sym = (t_i**2 + p_i) / (di * (di + 1.0))
        idx = range(sl.start, sl.stop)
        for nu in idx:
            for nu2 in idx:
                # (|nu,nu2> + |nu2,nu>) / 2 outer itself, summed over all pairs
                pos = _two_body([(nu, nu2, 1.0), (nu2, nu, 1.0)], d)
                _accumulate(out, pos, 0.25 * w_sym)
        if di >= 2:
            w_anti = (t_i**2 - p_i) / (di * (di - 1.0))
            for nu in idx:
                for nu2 in idx:
                    if nu == nu2:
                        continue
                    pos = _two_body([(nu, nu2, 1.0), (nu2, nu, -1.0)], d)
                    _accumulate(out, pos, 0.25 * w_anti)

    for i, sl_i in enumerate(slices):
        for j, sl_j in enumerate(slices):
            if i == j:
                continue
            dij = float(sizes[i] * sizes[j])
            w_direct = (m[sl_i, sl_i].trace() * m[sl_j, sl_j].trace()).real / dij
            w_exch = (m[sl_i, sl_j] @ m[sl_j, sl_i]).trace().real / dij
            for nu1 in range(sl_i.start, sl_i.stop):
                for nu2 in range(sl_j.start, sl_j.stop):
                    row = nu1 * d + nu2
                    out[row, row] += w_direct
                    out[row, nu2 * d + nu1] += w_exch
    return out


def _two_body(amplitudes, d):
    """Collapse [(nu, nu2, amp), ...] into {flat_index: amplitude}."""
    pos: dict[int, float] = {}
    for nu, nu2, amp in amplitudes:
        k = nu * d + nu2
        pos[k] = pos.get(k, 0.0) + amp
    return pos


def _accumulate(out, pos, weight):
    for r, ar in pos.items():
        for c, ac in pos.items():
            out[r, c] += weight * ar * ac


def contract_with_pair(dense: np.ndarray, obs_a, obs_b) -> float:
    """tr(dense * A (x) B) for a d^2 x d^2 dense second moment."""
    a_mat = _operator(obs_a)
    b_mat = _operator(obs_b)
    val = np.trace(dense @ np.kron(a_mat, b_mat))
    return float(val.real)


def quartic_overlap_reference(v1: np.ndarray, v2: np.ndarray) -> float:
    """1/4 sum_{a != b} |w_ab|^4 with the d x d matrix w = v1 v2^dag +
    v2 v1^dag formed literally: the oracle for `cat_q_variance_closed_form`."""
    w = np.outer(v1, v2.conj()) + np.outer(v2, v1.conj())
    quartic = np.abs(w) ** 4
    return 0.25 * float(quartic.sum() - np.trace(quartic))


def dense_rotated_states(rho, partition: SectorPartition, n_samples: int,
                         seed: int) -> np.ndarray:
    """(n_samples, d, d) stack of sigma = U rho U^dag, each U assembled as
    a dense d x d matrix from `sample_block_unitary`, the same sample the
    estimators draw at that index."""
    m = _operator(rho)
    d = partition.dim
    sigma = np.empty((n_samples, d, d), dtype=np.complex128)
    for k in range(n_samples):
        u = np.zeros((d, d), dtype=np.complex128)
        for sl, blk in zip(partition.slices(),
                           sample_block_unitary(partition, seed, k).blocks):
            u[sl, sl] = blk
        sigma[k] = u @ m @ u.conj().T
    return sigma


def dense_trace_values(rho, partition: SectorPartition, observables,
                       n_samples: int, seed: int) -> np.ndarray:
    """(len(observables), n_samples) per-sample tr(sigma A), by einsum."""
    sigma = dense_rotated_states(rho, partition, n_samples, seed)
    return np.array([np.einsum("bij,ji->b", sigma, _operator(a)).real
                     for a in observables])


def dense_state_mean(rho, partition: SectorPartition, n_samples: int,
                     seed: int):
    """(mean, var_re, var_im): the element-wise sample mean of sigma and the
    sample variances of its real and imaginary parts, each formed as the
    mean square minus the squared mean."""
    sigma = dense_rotated_states(rho, partition, n_samples, seed)
    mean = sigma.mean(axis=0)
    bessel = n_samples / (n_samples - 1.0)
    var_re = bessel * ((sigma.real**2).mean(axis=0) - mean.real**2)
    var_im = bessel * ((sigma.imag**2).mean(axis=0) - mean.imag**2)
    return mean, var_re, var_im
