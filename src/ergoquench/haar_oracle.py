"""Monte-Carlo sampling of sector-block Haar unitaries.

This is the independent check on the analytic moment formulas: conjugate
the state by U = (+)_i U_i with each block drawn Haar-uniformly, and
average observables over many draws.

Each block is drawn as a product of Householder reflectors,
U = H_0 H_1 ... H_(d-2) diag(phases), each reflector from a fresh
Gaussian column (Stewart, SIAM J. Numer. Anal. 17, 403 (1980)).  That is
the Q of a Ginibre matrix's QR with the R-diagonal phase fix, which is
exactly Haar (Mezzadri, math-ph/0609050), from d (d + 1) / 2 entries
instead of d^2, with a few vectorized operations per column over a whole
stack of blocks and no LAPACK call per matrix (`_householder_unitaries`).
A block of one level is the phase g / |g| of its entry.  The Ginibre
entries come from one counter-based Philox stream keyed by the seed
(Salmon et al., SC 2011), turned into normals by Box-Muller with one
tangent per entry: with t = tan(pi u), the angle 2 pi u has cosine
(1 - t^2) / (1 + t^2) and sine 2 t / (1 + t^2).  Every sample consumes
the same fixed number of 64-bit words, so sample k sits at a counter
fixed by k alone, and results are reproducible bit-for-bit no matter how
samples are batched.

No d x d unitary is formed.  Sectors of equal size are drawn as one
stack, and the sampled U acts block by block, in a basis reordered so that
each size group is one contiguous range (`_size_groups`).  For the moments
a state that keeps its factors, rho = P S P^dag, is rotated as U P, held
as its transpose, (samples, r, d), and U rho U^dag is never formed; each
observable is contracted with it in the form the observable is stored in.
A dense state, and every state whose element-wise mean is asked for, is
rotated as sigma = U rho U^dag, one product per size group on each side.
The state and every observable pass the check the analytic moments apply
(`ergodic_ensemble._checked`): the partition's dimension, and Hermiticity
for a raw array; the state is also a DensityMatrix, with unit trace and no
negative eigenvalue (`_checked_state`).  So the oracle, the formulas it
checks and the phase sums accept the same operands.

A chunk of samples holds at most three chunk-sized arrays at once, an
array being a chunk's unitaries (sum_i d_i^2 complex numbers a sample) or
its rotated state, whichever is larger (`_bounded_chunk`).  By stage:
  entries     the Ginibre entries, half the unitaries' size or less, are
              copied once into the layout each size group is drawn in and
              let go before any unitary is built (`_group_unitaries`);
  unitaries   each group's stack is built on a (d, d, samples) work array
              and copied out sample by sample, beside its own entries;
  rotated     W = rho^T U^T, or Y = (U P)^T for a factored state, is
              written beside the unitaries;
  sigma       U rho U^dag is formed as conj(conj(W)^T U^T) beside W and
              the unitaries, with both conjugates taken in place.
So a dense chunk peaks at three arrays.

The chunks of one call run at the same time, one per core on a thread pool
(`_in_order`): numpy's ufuncs, matmul and Philox release the GIL, so
one chunk's draws and products overlap another's.  The results are still
the same bit for bit whatever the number of cores.  The chunk boundaries
come from the module constant DEFAULT_CHUNK, read at call time, and the
memory bound alone, each sample from its own counter, and each
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

from .ergodic_ensemble import _FLOAT_MAX, _checked, _checked_state
from .errors import NumericalIntegrityError
from .spectral import SectorPartition

DEFAULT_CHUNK = 512


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    std_error: float
    n_samples: int


def _phase(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """z / |z| element-wise, and 1 where z is 0."""
    mag = np.abs(z)
    zero = mag == 0.0
    if zero.any():
        mag[zero] = 1.0
        z = np.where(zero, 1.0, z)
    return np.divide(z, mag, out=out)


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
    below 1, so 1 - u is exact and never 0; a radius word of 0 (chance
    2^-53) gives an entry of exactly 0, whose phase the unitaries take
    as 1.  `_size_groups` says which entries make up which block: d (d + 1)
    / 2 of them, a lower triangle column by column.

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
    contiguous range of rows; and the Ginibre entries per sample.

    The entries run sector by sector.  A block of d levels takes
    d (d + 1) / 2 of them, the lower triangle of a d x d Ginibre matrix
    column by column (rows k .. d - 1 of column k, for k = 0 .. d - 1).
    """
    sizes = partition.sizes
    offsets = np.concatenate(([0], np.cumsum(sizes * (sizes + 1) // 2)))
    groups, order, lo = [], [], 0
    for d in dict.fromkeys(int(x) for x in sizes):
        sectors = np.flatnonzero(sizes == d)
        columns = (offsets[sectors][:, None]
                   + np.arange(d * (d + 1) // 2)).ravel()
        hi = lo + d * len(sectors)
        groups.append(_Group(d, sectors, columns, slice(lo, hi)))
        order.append((partition.starts[sectors][:, None] + np.arange(d)).ravel())
        lo = hi
    return groups, np.concatenate(order), int(offsets[-1])


def _householder_unitaries(x: np.ndarray, d: int) -> np.ndarray:
    """(..., d, d) Haar unitaries, d > 1, from x, (d (d + 1) / 2, ...): the
    lower triangle of one Ginibre matrix Z per block, column by column down
    the first axis.  x is the caller's to lose: a zero column is patched in
    it.

    U = H_0 H_1 ... H_(d-2) diag(-alpha_0, ..., -alpha_(d-2), Z_(d-1,d-1)
    / |Z_(d-1,d-1)|).  Column k of the triangle, x = Z[k:, k], gives the
    reflector H_k on rows k .. d - 1: with alpha = x_0 / |x_0| and
    v = x + alpha |x| e_0, H_k = 1 - 2 v v^dag / (v^dag v) sends x to
    -alpha |x| e_0.  That is the Householder QR of Z with the R diagonal
    made positive, except that each reflector comes from fresh entries:
    after k reflections, rows and columns k .. d - 1 are again Ginibre and
    independent of the reflectors so far, so U is exactly Haar (Stewart,
    SIAM J. Numer. Anal. 17, 403 (1980); Mezzadri, math-ph/0609050).

    U is accumulated from the last reflector back to the first on a
    (d, d, samples) stack: a few vectorized operations per column and no
    LAPACK call per matrix.  With B the block of rows and columns
    k + 1 .. d - 1 so far, rows and columns k .. d - 1 become
    H_k (-alpha (+) B): first column x / |x|, first row -alpha y / |x| and
    inner block B - x_1.. y / (|x| (|x| + |x_0|)), with y = x_1..^dag B.
    A zero x_0 takes alpha = 1, and an all-zero x stands for e_0.
    """
    shape = x.shape[1:]
    x = x.reshape(x.shape[0], -1)
    samples = x.shape[1]
    if samples == 1:
        # numpy multiplies complex operands broadcast to a one-element result
        # without the fused multiply-add its vector loops use, so a lone
        # block is drawn twice over to get the bits it has in a stack
        x = np.repeat(x, 2, axis=1)
    u = np.empty((d, d, x.shape[1]), dtype=np.complex128)
    _phase(x[-1], out=u[d - 1, d - 1])
    # per reflector: where its column starts, its norm and x_0's phase
    starts = np.array([k * d - k * (k - 1) // 2 for k in range(d - 1)],
                      dtype=np.intp)
    body = x[:-1]
    norm = np.sqrt(np.add.reduceat(body.real * body.real
                                   + body.imag * body.imag, starts, axis=0))
    dead = norm == 0.0
    if dead.any():
        x[starts] += dead
        norm[dead] = 1.0
    head = x[starts]
    phase = _phase(head)
    inv = 1.0 / norm
    # a row at a time, with one buffer: faster than one broadcast product
    buf = np.empty((d - 1, x.shape[1]), dtype=np.complex128)
    for k in range(d - 2, -1, -1):
        col = x[starts[k]:starts[k] + d - k]
        inner, tail, part = u[k + 1:, k + 1:], col[1:], buf[:d - k - 1]
        np.multiply(col, inv[k], out=u[k:, k])
        conj = tail.conj()
        y = conj[0] * inner[0]
        for c, row in zip(conj[1:], inner[1:]):
            y += np.multiply(c, row, out=part)
        np.multiply(y, -phase[k] * inv[k], out=u[k, k + 1:])
        y *= inv[k] / (norm[k] + np.abs(head[k]))
        for c, row in zip(tail, inner):
            row -= np.multiply(c, y, out=part)
    return np.ascontiguousarray(
        np.moveaxis(u[..., :samples], -1, 0)).reshape(shape + (d, d))


def _group_unitaries(groups, n_entries: int, seed: int, first_index: int,
                     count: int) -> list[np.ndarray]:
    """One (count, n_g, d_g, d_g) stack of Haar unitaries per size group,
    for samples first_index .. first_index + count - 1.

    Each group's entries are copied out of g once, in the layout its draw
    works in, and g is let go before the unitaries are built, so a chunk
    holds its entries once.  Blocks of d > 1 levels are gathered
    entry-major, (d (d + 1) / 2, n_g, count), by indexing the rows of g^T
    (np.take would copy all of g^T first); their stack comes out
    (n_g, count, d, d) in memory and is handed on with those two axes
    swapped.  One-level blocks are gathered sample-major, (count, n_g), and
    their phases are written over the entries.
    """
    g = _ginibre_entries(seed, first_index, count, n_entries)
    zs = [np.take(g, grp.columns, axis=1) if grp.size == 1
          else g.T[grp.columns.reshape(len(grp.sectors), -1).T]
          for grp in groups]
    del g
    return [_phase(z, out=z).reshape(count, -1, 1, 1) if grp.size == 1
            else _householder_unitaries(z, grp.size).swapaxes(0, 1)
            for grp, z in zip(groups, zs)]


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
    W = rho^T U^T, formed as conj(conj(W)^T U^T): the conjugates are taken
    in place, on W and on sigma, so no conjugate of the unitaries is held
    beside them."""
    transposed = [u.swapaxes(-1, -2) for u in stacks]
    x = np.empty((len(stacks[0]),) + m.shape, dtype=np.complex128)
    _times_blocks(groups, transposed, m if factored else m.T, x)
    if factored:
        return x
    sigma = np.empty_like(x)
    _times_blocks(groups, transposed, np.conjugate(x, out=x).transpose(0, 2, 1),
                  sigma)
    return np.conjugate(sigma, out=sigma)


def _bounded_chunk(per_sample: int) -> int:
    """DEFAULT_CHUNK samples, read at call time, or fewer: keep the largest
    array of a chunk, per_sample complex numbers per sample, around 64 MB
    or less."""
    return max(1, min(DEFAULT_CHUNK, (1 << 22) // max(1, per_sample)))


def _in_basis(m, order: np.ndarray):
    """A checked operand in the reordered basis: (P[order], S) for factors
    (P, S), else the matrix with rows and columns taken in `order`."""
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
    bounded by its largest array: the unitaries (sum_i d_i^2 entries a
    sample, at least as many as the Ginibre entries), sigma or Y.
    """
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    groups, order, n_entries = _size_groups(partition)
    m = _in_basis(_checked_state(rho, partition.dim, factored), order)
    s = None
    if isinstance(m, tuple):
        p, s = m
        m = np.ascontiguousarray(p.T)
    step = _bounded_chunk(max(int(partition.sizes @ partition.sizes),
                              m.size))

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

    The calls run on a thread pool, one per core: numpy's ufuncs, matmul
    and Philox release the GIL.  No more calls are in flight
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
    per row; a dense Hermitian A through one GEMM of the rows, as
    conj(Y conj(A)) so that the product is conjugated in place and not Y;
    a real one through one real GEMM of their real and imaginary parts
    stacked, Re G_lk = Re y_l . A Re y_k + Im y_l . A Im y_k."""
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
        p = (y.reshape(-1, d) @ a.conj()).reshape(y.shape)
        g = (np.conjugate(p, out=p) @ y.swapaxes(-1, -2)).real
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
    forms = {id(o): _in_basis(_checked(o, partition.dim, s is not None),
                              basis)
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
