"""Monte-Carlo sampling of sector-block Haar unitaries.

This is the independent check on the analytic moment formulas: conjugate
the state by U = (+)_i U_i with each block drawn Haar-uniformly, and
average observables over many draws.

Sampling uses the QR decomposition of a complex Ginibre matrix with the
R-diagonal phase fix, which makes the distribution exactly Haar (Mezzadri,
math-ph/0609050).  The Ginibre entries come from one counter-based Philox
stream keyed by the seed (Salmon et al., SC 2011), turned into normals by
Box-Muller with one tangent per entry: with t = tan(pi u), the angle 2 pi u
has cosine (1 - t^2) / (1 + t^2) and sine 2 t / (1 + t^2).  Every sample
consumes the same fixed number of 64-bit words, so sample k sits at a
counter fixed by k alone, and results are reproducible bit-for-bit no
matter how samples are batched.

No d x d unitary is formed.  Sectors of equal size are drawn as one stack
(one batched QR, or g / |g| for blocks of one level, which is what QR with
the phase fix gives there), and the sampled U acts block by block, in a
basis reordered so that each size group is one contiguous range
(`_size_groups`).  For the moments a state that keeps its factors,
rho = P S P^dag, is rotated as U P, held as its transpose, (samples, r, d),
and U rho U^dag is never formed; each observable is contracted with it in
the form the observable is stored in.  A dense state, and every state whose
element-wise mean is asked for, is rotated as sigma = U rho U^dag, one
product per size group on each side.  The state and every observable pass
the check the analytic moments apply (`ergodic_ensemble._checked`): the
partition's dimension, and Hermiticity for a raw array, so the oracle and
the formulas it checks accept the same operands.

The chunks of one call run at the same time, one per core on a thread pool
(`_in_order`): numpy's ufuncs, the LAPACK gufuncs and Philox release the
GIL, so one chunk's draws, QRs and products overlap another's.  The results
are still the same bit for bit whatever the number of cores.  The chunk
boundaries come from the module constant DEFAULT_CHUNK, read at call time,
and the memory bound alone, each sample from its own counter, and each
chunk writes its per-sample values into its own slice; the element-wise
mean adds the chunks' sums in chunk order.
"""

from __future__ import annotations

import contextvars
import os
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ergodic_ensemble import _FLOAT_MAX, _checked
from .errors import NumericalIntegrityError
from .spectral import SectorPartition

DEFAULT_CHUNK = 512


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


def _ginibre_entries(seed: int, first_index: int, count: int,
                     n_entries: int) -> np.ndarray:
    """(count, n_entries) complex Ginibre entries, E|g|^2 = 1, for samples
    first_index .. first_index + count - 1.

    The words come from one Philox4x64 stream keyed by the seed.  Each
    sample consumes W = 2 n_entries 64-bit words rounded up to whole
    blocks of 4 words, so sample k is read with the stream's counter
    starting at k W / 4, whatever chunk it is drawn in.  Every word becomes
    one 53-bit uniform u = (word >> 11) 2^-53 in [0, 1).  Words
    0 .. n_entries - 1 of a sample are radii, words
    n_entries .. 2 n_entries - 1 angles, the rest padding.  Entry j is
    sqrt(-log(1 - u_j)) exp(2 pi i u_(n_entries + j)), which is Box-Muller:
    sqrt(2) times its real part (the cosine) and its imaginary part (the
    sine) are two independent standard normals.  u is a multiple of 2^-53
    below 1, so 1 - u is exact and never 0.

    The cosine and sine come from one tangent, t = tan(pi u): with
    s = radius / (1 + t^2) the entry is (2 s - radius) + 2 s t i, which is
    radius ((1 - t^2) + 2 t i) / (1 + t^2).  Against cos and sin of the
    angle 2 pi u this moves an entry by at most 5e-16 of its modulus (4e6
    draws), and it takes about half the time.  At u = 1/2, t is about
    1.6e16, still finite, and the cosine is -1.
    """
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 1 << 64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    width = -(-2 * n_entries // 4) * 4
    stream = np.random.Generator(np.random.Philox(
        key=int(seed), counter=first_index * (width // 4)))
    u = stream.random((count, width))
    # in place, so a chunk holds only the words and the entries: radius and
    # t overwrite their words, s the imaginary parts it is scaled into
    radius, t = u[:, :n_entries], u[:, n_entries:2 * n_entries]
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    np.negative(radius, out=radius)
    np.sqrt(radius, out=radius)
    t *= np.pi
    np.tan(t, out=t)
    entries = np.empty((count, n_entries), dtype=np.complex128)
    s = np.multiply(t, t, out=entries.imag)
    s += 1.0
    np.divide(radius, s, out=s)
    np.multiply(s, 2.0, out=entries.real)
    entries.real -= radius
    s *= t
    s *= 2.0
    return entries


class _Group(NamedTuple):
    """The sectors of one size: their indices, the columns of their
    Ginibre entries in a sample's stream, and their rows in the reordered
    basis."""

    size: int
    sectors: np.ndarray
    columns: np.ndarray
    rows: slice


def _size_groups(partition: SectorPartition):
    """(groups, order, n_entries): one _Group per distinct sector size, in
    order of first appearance; the basis order that makes each group one
    contiguous range of rows; and the Ginibre entries per sample,
    sum_i d_i^2, which run sector by sector, each block row-major."""
    sizes = partition.sizes
    offsets = np.concatenate(([0], np.cumsum(sizes * sizes)))
    groups, order, lo = [], [], 0
    for d in dict.fromkeys(int(x) for x in sizes):
        sectors = np.flatnonzero(sizes == d)
        columns = (offsets[sectors][:, None] + np.arange(d * d)).ravel()
        hi = lo + d * len(sectors)
        groups.append(_Group(d, sectors, columns, slice(lo, hi)))
        order.append((partition.starts[sectors][:, None] + np.arange(d)).ravel())
        lo = hi
    return groups, np.concatenate(order), int(offsets[-1])


def _group_unitaries(groups, n_entries: int, seed: int, first_index: int,
                     count: int) -> list[np.ndarray]:
    """One (count, n_g, d_g, d_g) stack of Haar unitaries per size group,
    for samples first_index .. first_index + count - 1."""
    g = _ginibre_entries(seed, first_index, count, n_entries)
    # copies in C order, unlike g[:, columns]; g is let go before the QRs,
    # so a chunk holds its entries once
    zs = [np.take(g, grp.columns, axis=1).reshape(
        count, len(grp.sectors), grp.size, grp.size) for grp in groups]
    del g
    stacks = []
    for grp, z in zip(groups, zs):
        if grp.size == 1:
            z /= np.abs(z)
            stacks.append(z)
        else:
            stacks.append(_fix_phases(*np.linalg.qr(z)))
    return stacks


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


def _times_blocks(groups, stacks, m: np.ndarray, out: np.ndarray):
    """out = m V in the reordered basis, V = (+) of the blocks in `stacks`
    acting on the columns of m: m is (k, d) or (count, k, d), out a
    (count, k, d) array or a view of one whose columns split in place."""
    for grp, v in zip(groups, stacks):
        count, n, d = v.shape[:3]
        src, dst = m[..., grp.rows], out[..., grp.rows]
        if d == 1:
            np.multiply(src, v.reshape(count, 1, n), out=dst)
        else:
            np.matmul(src.reshape(src.shape[:-1] + (n, d)).swapaxes(-2, -3), v,
                      out=dst.reshape(dst.shape[:-1] + (n, d)).swapaxes(-2, -3))


def _rotated(groups, stacks, m: np.ndarray, factored: bool) -> np.ndarray:
    """For a factored state, m = P^T and the (count, r, d) stack of
    (U P)^T = P^T U^T, one row per column of P; for a dense state, m = rho
    and the (count, d, d) stack sigma = U rho U^dag = W^T U^dag with
    W = rho^T U^T."""
    transposed = [u.swapaxes(-1, -2) for u in stacks]
    x = np.empty((len(stacks[0]),) + m.shape, dtype=np.complex128)
    _times_blocks(groups, transposed, m if factored else m.T, x)
    if factored:
        return x
    sigma = np.empty_like(x)
    _times_blocks(groups, [u.conj() for u in transposed], x.transpose(0, 2, 1),
                  sigma)
    return sigma


def _bounded_chunk(per_sample: int) -> int:
    """DEFAULT_CHUNK samples, read at call time, or fewer: keep the largest
    array of a chunk, per_sample complex numbers per sample, around 64 MB
    or less."""
    return max(1, min(DEFAULT_CHUNK, (1 << 22) // max(1, per_sample)))


def _in_basis(x, partition: SectorPartition, order: np.ndarray,
              factored: bool):
    """x in the reordered basis: (P[order], S) for X = P S P^dag when
    `factored` and x keeps its factors, else its dense matrix with rows and
    columns taken in `order`; checked by `_checked`."""
    m = _checked(x, partition, factored)
    if isinstance(m, tuple):
        p, s = m
        return p[order], s
    return m[np.ix_(order, order)]


def _samples(rho, partition: SectorPartition, n_samples: int, seed: int,
             factored: bool = True):
    """(order, s, rotated, firsts) for rho rotated by the sampled block
    unitaries, everything in the reordered basis `order` (`_size_groups`).

    `firsts` are the first sample indices of the chunks and `rotated(first)`
    is rho rotated by the samples of the chunk starting there.  For a
    factored rho = P S P^dag (S real symmetric, as `_factored` gives it),
    unless `factored` is False, s is S and that is Y = (U P)^T of shape
    (count, r, d); for a dense rho s is None and it is sigma.  The chunk is
    bounded by its largest array: the Ginibre entries, sigma or Y.
    """
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    groups, order, n_entries = _size_groups(partition)
    m = _in_basis(rho, partition, order, factored)
    s = None
    if isinstance(m, tuple):
        p, s = m
        m = np.ascontiguousarray(p.T)
    step = _bounded_chunk(max(n_entries, m.size))

    def rotated(first):
        count = min(step, n_samples - first)
        stacks = _group_unitaries(groups, n_entries, seed, first, count)
        return _rotated(groups, stacks, m, s is not None)

    return order, s, rotated, range(0, n_samples, step)


def _cores() -> int:
    """The number of cores this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _in_order(work, firsts):
    """Yield work(first) for each chunk start in `firsts`, in that order.

    The calls run on a thread pool, one per core: numpy's ufuncs, the
    LAPACK gufuncs and Philox release the GIL.  No more calls are in flight
    than there are workers, so no more chunks are held.  Each call runs in
    a copy of the caller's context, so np.errstate reaches it.  An
    exception in a call is raised here once the calls in flight are done.
    """
    # imported here: the CLI imports this module at start-up
    from concurrent.futures import ThreadPoolExecutor

    workers = min(_cores(), len(firsts))
    with ThreadPoolExecutor(workers) as pool:
        running = deque()
        for first in firsts:
            if len(running) == workers:
                yield running.popleft().result()
            running.append(pool.submit(contextvars.copy_context().run, work,
                                       first))
        while running:
            yield running.popleft().result()


def _traces(y: np.ndarray, s: np.ndarray, a) -> np.ndarray:
    """tr(sigma A) per sample for sigma = Y^T S conj(Y), Y (count, r, d),
    S real symmetric: sum_kl S_kl Re G_lk with G_lk = y_l^dag A y_k for the
    rows y of Y.  A = Q T Q^dag given as (Q, T) goes through Q^dag y, O(d)
    per row; a dense Hermitian A through one GEMM of the rows, a real
    one through one real GEMM of their real and imaginary parts stacked,
    Re G_lk = Re y_l . A Re y_k + Im y_l . A Im y_k."""
    d = y.shape[-1]
    if isinstance(a, tuple):
        q, t = a
        z = y @ q.conj()
        g = np.einsum("blx,xy,bky->blk", z.conj(), t, z).real
    elif np.isrealobj(a):
        parts = np.stack((y.real, y.imag))
        ap = (parts.reshape(-1, d) @ a).reshape(parts.shape)
        g = (parts @ ap.swapaxes(-1, -2)).sum(axis=0)
    else:
        g = ((y.conj().reshape(-1, d) @ a).reshape(y.shape)
             @ y.swapaxes(-1, -2)).real
    return np.einsum("kl,blk->b", s, g)


def sample_traces(rho, partition: SectorPartition, observables,
                  n_samples: int, seed: int) -> list[np.ndarray]:
    """tr(U rho U^dag A) for samples 0 .. n_samples - 1 of the seed's
    stream: one array of n_samples values per observable, in the order
    given.  An observable listed more than once is evaluated once per
    sample, and its array is listed that many times.
    """
    observables = list(observables)
    if not observables:
        raise ValueError("no observables given")
    basis, s, rotated, firsts = _samples(rho, partition, n_samples, seed)
    forms = {id(o): _in_basis(o, partition, basis, s is not None)
             for o in observables}
    values = {key: np.empty(n_samples) for key in forms}

    def traces(first):
        x = rotated(first)
        for key, a in forms.items():
            values[key][first:first + len(x)] = (
                np.einsum("bij,ji->b", x, a).real if s is None
                else _traces(x, s, a))

    for _ in _in_order(traces, firsts):
        pass
    return [values[id(o)] for o in observables]


def estimate_moments(rho, partition: SectorPartition, observables,
                     order: int, n_samples: int,
                     seed: int) -> list[MomentEstimate]:
    """Monte-Carlo estimate of ensemble moments.

    order 1 returns one MomentEstimate per observable, each averaging
    tr(U rho U^dag A) over samples.  For order n >= 2 the observable list
    must have exactly n entries and the returned single estimate averages
    the per-sample product prod_j tr(U rho U^dag A_j).  The per-sample
    values are those of `sample_traces`.

    std_error is the sample standard deviation over the per-sample values
    divided by sqrt(n_samples).  An estimate or standard error that is not
    finite raises NumericalIntegrityError.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    observables = list(observables)
    if order >= 2 and len(observables) != order:
        raise ValueError(f"order {order} needs exactly {order} observables, "
                         f"got {len(observables)}")
    per_obs = sample_traces(rho, partition, observables, n_samples, seed)
    if order == 1:
        return [summarize(v) for v in per_obs]
    prod = per_obs[0].copy()
    for v in per_obs[1:]:
        prod *= v
    return [summarize(prod)]


def summarize(values: np.ndarray) -> MomentEstimate:
    """The mean of per-sample values and its standard error; one that is
    not finite raises NumericalIntegrityError."""
    n = len(values)
    est = MomentEstimate(value=float(values.mean()),
                         std_error=float(values.std(ddof=1) / np.sqrt(n)),
                         n_samples=n)
    # NaN and inf fail too
    if not (abs(est.value) <= _FLOAT_MAX and est.std_error <= _FLOAT_MAX):
        raise NumericalIntegrityError(
            f"Monte-Carlo estimate {est.value:.3e} with standard error "
            f"{est.std_error:.3e} is not finite")
    return est


def estimate_state_mean(rho, partition: SectorPartition, n_samples: int,
                        seed: int):
    """Element-wise Monte-Carlo mean of U rho U^dag.

    Returns (mean, se_real, se_imag): the averaged matrix plus standard
    errors of the real and imaginary parts of every element, for direct
    element-wise comparison against ensemble_mean.  A factored rho is
    rotated densely too: its squared elements cost d^2 per sample either
    way.
    """
    d = partition.dim
    basis, _, rotated, firsts = _samples(rho, partition, n_samples, seed,
                                         factored=False)

    def sums(first):
        x = rotated(first)
        return (x.sum(axis=0), np.einsum("bij,bij->ij", x.real, x.real),
                np.einsum("bij,bij->ij", x.imag, x.imag))

    # the chunks' sums are added in chunk order, whichever worker ran them
    acc = np.zeros((d, d), dtype=np.complex128)
    acc_re2 = np.zeros((d, d))
    acc_im2 = np.zeros((d, d))
    for total, re2, im2 in _in_order(sums, firsts):
        acc += total
        acc_re2 += re2
        acc_im2 += im2

    back = np.ix_(*[np.argsort(basis)] * 2)
    mean = acc[back] / n_samples
    bessel = n_samples / (n_samples - 1.0)
    var_re = np.maximum(bessel * (acc_re2[back] / n_samples - mean.real**2), 0.0)
    var_im = np.maximum(bessel * (acc_im2[back] / n_samples - mean.imag**2), 0.0)
    return mean, np.sqrt(var_re / n_samples), np.sqrt(var_im / n_samples)
