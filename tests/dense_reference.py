"""Dense d^2 x d^2 reference for the analytic second moment: the oracle
the tests check `second_moment_expectation` against at small dimension."""

import numpy as np

from ergoquench.ergodic_ensemble import _check_shapes, _entries, _operator
from ergoquench.spectral import SectorPartition

DENSE_REFERENCE_MAX_DIM = 64


def dense_second_moment_reference(rho, partition: SectorPartition) -> np.ndarray:
    """Literal d^2 x d^2 matrix E[sigma (x) sigma], assembled from the four
    identity operators term by term.

    Deliberately independent of the contraction path so the two can check
    each other; guarded to dim <= 64 because of the quartic memory cost.
    """
    m = _entries(rho)
    _check_shapes(partition, m)
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
