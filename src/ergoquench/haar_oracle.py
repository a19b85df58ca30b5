"""Monte-Carlo sampling of sector-block Haar unitaries.

This is the independent check on the analytic moment formulas: conjugate
the state by U = (+)_i U_i with each block drawn Haar-uniformly, and
average observables over many draws.

Each block is drawn as a product of Householder reflectors,
U = H_0 H_1 ... H_(d-2) diag(phases), each reflector from a fresh
Gaussian column (Stewart, SIAM J. Numer. Anal. 17, 403 (1980)).  That is
the Q of a Ginibre matrix's QR with the R-diagonal phase fix, which is
exactly Haar (Mezzadri, math-ph/0609050), from d (d + 1) / 2 entries
instead of d^2.  One kernel applies a block's reflectors, a row at a
time over a whole stack of blocks and with no LAPACK call per matrix
(`_reflected`): to the identity, which gives U, or to the rows of a
state's factor P, which gives U P.  A block of one level is the phase
g / |g| of its entry.  The Ginibre
entries come from one counter-based Philox stream keyed by the seed
(Salmon et al., SC 2011), turned into normals by Box-Muller with one
tangent per entry: with t = tan(pi u), the angle 2 pi u has cosine
(1 - t^2) / (1 + t^2) and sine 2 t / (1 + t^2).  Every sample consumes
the same fixed number of 64-bit words, so sample k sits at a counter
fixed by k alone, and results are reproducible bit-for-bit no matter how
samples are batched.

No d x d unitary is formed.  Sectors of equal size are drawn as one
stack, and the sampled U acts block by block, in a basis reordered so that
each size group is one contiguous range (`_size_groups`).  Every state is
held by its factors, rho = P diag(w) P^dag: a DensityMatrix that keeps
its vectors by them and its weights, any other state by `eigh`, once per
call (`_samples`).  It is rotated as U P, held as its transpose
Y = (U P)^T, (samples, r, d) (`_group_reflected`).  A size group of more
levels than P has columns passes P's rows through its reflectors, in
O(d_g^2 r) a block where forming U would take O(d_g^3); any other group
forms its blocks' U and takes U P in one batched product.  Each
observable is contracted with Y in the form it is stored in (`_traces`),
and the element-wise mean forms sigma = Y^T diag(w) conj(Y) chunk by
chunk.
The state and every observable pass the check the analytic moments apply
(`ergodic_ensemble._checked`): the partition's dimension, and Hermiticity
for a raw array; the state is also a DensityMatrix, with unit trace and no
negative eigenvalue (`_checked_state`).  So the oracle, the formulas it
checks and the phase sums accept the same operands.

A chunk of samples holds at most three chunk-sized arrays at once, an
array being a chunk's Ginibre entries (sum_i d_i (d_i + 1) / 2 complex
numbers a sample), its Y (r d) or, for the element-wise mean, its sigma
(d^2), whichever is largest (`_bounded_chunk`).  By stage:
  entries     the Ginibre entries are drawn from as many random words,
              copied once into the layout each size group is drawn in,
              and the draw is let go (`_group_entries`);
  unitaries   the groups of no more levels than P has columns form their
              (d_g, d_g, n_g, samples) stacks of U beside the entries,
              and those groups' entries are let go;
  rotated     Y is written beside the unitaries, or beside the remaining
              entries and a group's (d_g, r, n_g, samples) reflected rows
              of P;
  sigma       Y diag(w) is taken, Y is conjugated in place, and sigma is
              formed beside both.
So a chunk of a full-rank state peaks at three arrays, and one of a
low-rank state, whose Y is r d complex numbers a sample, at about twice
its entries.

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


def _reflected(x: np.ndarray, d: int, m: np.ndarray | None = None):
    """U m, (d, c) + x.shape[1:], for the Haar unitaries U of d levels
    drawn from x, (d (d + 1) / 2,) + batch: the lower triangle of one
    Ginibre matrix Z per block, column by column down the first axis.  m
    is a (d, c) + batch stack, or None for the identity, which gives U
    itself.  x is the caller's to lose: a zero column is patched in it.

    U = H_0 H_1 ... H_(d-2) diag(-alpha_0, ..., -alpha_(d-2), Z_(d-1,d-1)
    / |Z_(d-1,d-1)|).  Column k of the triangle, x = Z[k:, k], gives the
    reflector H_k on rows k .. d - 1: with alpha = x_0 / |x_0| and
    v = x + alpha |x| e_0, H_k = 1 - v v^dag / (|x| (|x| + |x_0|)) sends x
    to -alpha |x| e_0.  That is the Householder QR of Z with the R diagonal
    made positive, except that each reflector comes from fresh entries:
    after k reflections, rows and columns k .. d - 1 are again Ginibre and
    independent of the reflectors so far, so U is exactly Haar (Stewart,
    SIAM J. Numer. Anal. 17, 403 (1980); Mezzadri, math-ph/0609050).  A
    zero x_0 takes alpha = 1, and an all-zero x stands for e_0.  A block
    of one level is the phase Z / |Z| of its entry.

    The phases act first and H_0 last, each reflector on rows k .. d - 1
    of the whole stack, a row at a time: a few vectorized operations per
    row and no LAPACK call per matrix.  On the identity, rows k .. d - 1
    are zero left of column k until H_k acts, so only columns k .. d - 1
    are updated: about the flops of accumulating U in closed form.
    """
    lone = x[0].size == 1
    if lone:
        # numpy multiplies complex operands broadcast to a one-element result
        # without the fused multiply-add its vector loops use, so a lone
        # block is drawn twice over to get the bits it has in a stack
        x = np.repeat(x, 2, axis=-1)
        m = None if m is None else np.repeat(m, 2, axis=-1)
    # per reflector: where its column starts, its norm and x_0's phase
    starts = np.cumsum(np.arange(d + 1, 2, -1)) - (d + 1)
    norm = np.sqrt(np.add.reduceat(x.real[:-1] * x.real[:-1]
                                   + x.imag[:-1] * x.imag[:-1], starts, axis=0))
    dead = norm == 0.0
    if dead.any():
        x[starts] += dead
        norm[dead] = 1.0
    phase = _phase(x[starts])
    # v_0 = x_0 + alpha |x| = alpha (|x_0| + |x|), written over x_0
    big = norm + np.abs(x[starts])
    x[starts] = phase * big
    diag = np.concatenate((-phase, _phase(x[-1:])))
    out = diag[:, None] * (np.eye(d).reshape((d, d) + (1,) * (x.ndim - 1))
                           if m is None else m)
    scale = 1.0 / (norm * big)
    for k in range(d - 2, -1, -1):
        v = x[starts[k]:starts[k] + d - k]
        block = out[k:, k:] if m is None else out[k:]
        conj, buf = v.conj(), np.empty_like(block[0])
        y = conj[0] * block[0]
        for c, row in zip(conj[1:], block[1:]):
            y += np.multiply(c, row, out=buf)
        y *= scale[k]
        for c, row in zip(v, block):
            row -= np.multiply(c, y, out=buf)
    return out[..., :1] if lone else out


def _group_entries(groups, n_entries: int, seed: int, first_index: int,
                   count: int) -> list[np.ndarray]:
    """Each size group's Ginibre entries for samples first_index ..
    first_index + count - 1, (d (d + 1) / 2, n_g, count), copied once out
    of one draw by indexing the rows of its transpose (np.take would copy
    it all first); the draw is let go when they are returned."""
    g = _ginibre_entries(seed, first_index, count, n_entries)
    return [g.T[grp.columns.reshape(len(grp.sectors), -1).T] for grp in groups]


def _group_reflected(groups, n_entries: int, seed: int, first_index: int,
                     count: int, pt: np.ndarray) -> np.ndarray:
    """Y = (U P)^T, (count, r, d), for samples first_index ..
    first_index + count - 1 and pt = P^T in the reordered basis.  A size
    group of more levels than P has columns passes its rows of P,
    (d_g, r, n_g) and broadcast over the samples, through its blocks'
    reflectors, in O(d_g^2 r) a block.  Any other group forms its blocks'
    U, in O(d_g^3), before Y is allocated, so that Y, a unitary stack and
    the entries are never held at once; U P is then one batched product
    that reads U in the (d_g, d_g, n_g, count) layout the kernel leaves it
    in (a block of one level is a phase, and the product element-wise)."""
    r = len(pt)
    draws = [_reflected(z, grp.size) if grp.size <= r else z
             for grp, z in zip(groups, _group_entries(
                 groups, n_entries, seed, first_index, count))]
    y = np.empty((count,) + pt.shape, dtype=np.complex128)
    for grp, x in zip(groups, draws):
        d = grp.size
        p = pt[:, grp.rows].reshape(r, -1, d)
        dst = y[..., grp.rows].reshape(count, r, -1, d)
        if d > r:
            p = p.transpose(2, 0, 1)[..., None]
            dst[...] = _reflected(x, d, np.broadcast_to(
                p, p.shape[:-1] + (count,))).transpose(3, 1, 2, 0)
        else:
            (np.multiply if d == 1 else np.matmul)(
                p.swapaxes(0, 1), x.transpose(3, 2, 1, 0),
                out=dst.swapaxes(1, 2))
    return y


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
             held: int):
    """(order, w, rotated, firsts) for rho = P diag(w) P^dag rotated by the
    sampled block unitaries, everything in the reordered basis `order`
    (`_size_groups`).

    A DensityMatrix that keeps its factors gives its vectors and weights;
    any other state is factored here, once, by `eigh` of its complex cast,
    so a real state and its complex cast give the same bits.  `firsts` are
    the first sample indices of the chunks and `rotated(first)` is
    Y = (U P)^T, (count, r, d), for the samples of the chunk starting
    there.  The chunk is bounded by its largest array: the Ginibre entries,
    Y, or the `held` complex numbers a sample that the caller forms from Y.
    """
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    groups, order, n_entries = _size_groups(partition)
    state = _checked_state(rho, partition.dim)
    if isinstance(state, tuple):
        p, w = state[0], np.diagonal(state[1])
    else:
        w, p = np.linalg.eigh(state.astype(np.complex128))
    pt = np.ascontiguousarray(p[order].T)
    step = _bounded_chunk(max(n_entries, pt.size, held))

    def rotated(first):
        return _group_reflected(groups, n_entries, seed, first,
                                min(step, n_samples - first), pt)

    return order, w, rotated, range(0, n_samples, step)


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


def _times(m: np.ndarray, a: np.ndarray) -> np.ndarray:
    """m A for a stack m of r x d matrices, one per sample.  Fewer rows
    than columns are stacked over the samples into one GEMM; with r >= d
    each matrix is a GEMM of its own.  Stacked, the rows of a full-rank
    16-level state made a GEMM that BLAS shared out among its threads,
    which then held the core of the second sampling worker: the
    `oracle-haar` benchmark ran 9 % slower and 3.5 MB larger."""
    r, d = m.shape[-2:]
    return m @ a if r >= d else (m.reshape(-1, d) @ a).reshape(m.shape)


def _traces(y: np.ndarray, w: np.ndarray, a) -> np.ndarray:
    """tr(sigma A) per sample for sigma = Y^T diag(w) conj(Y), Y
    (count, r, d): sum_k w_k Re G_kk with G_kk = y_k^dag A y_k for the
    rows y_k of Y, so only the diagonal of G is formed.  A = Q T Q^dag
    given as (Q, T) goes through Q^dag y, O(d) per row; a dense Hermitian
    A through one product of the rows (`_times`), as conj(Y conj(A)) so
    that the product is conjugated in place and not Y; a real one through
    one real product of their real and imaginary parts stacked,
    Re G_kk = Re y_k . A Re y_k + Im y_k . A Im y_k.  The sums are
    einsum's: summed by BLAS (g @ w), the values changed in their last
    bits with the number of sampling workers."""
    if isinstance(a, tuple):
        q, t = a
        z = y @ q.conj()
        g = np.einsum("bkx,xy,bky->bk", z.conj(), t, z).real
    elif np.isrealobj(a):
        parts = np.stack((y.real, y.imag))
        g = np.einsum("pbkx,pbkx->bk", parts, _times(parts, a))
    else:
        p = _times(y, a.conj())
        g = np.einsum("bkx,bkx->bk", np.conjugate(p, out=p), y).real
    return np.einsum("k,bk->b", w, g)


def sample_traces(rho, partition: SectorPartition, observables,
                  n_samples: int, seed: int) -> list[np.ndarray]:
    """tr(U rho U^dag A) for samples 0 .. n_samples - 1 of the seed's
    stream: one array of n_samples values per observable, in the order
    given, each from Y = (U P)^T (`_samples`, `_traces`).  An observable
    listed more than once is evaluated once per sample, and its array is
    listed that many times.
    """
    observables = list(observables)
    if not observables:
        raise ValueError("no observables given")
    basis, w, rotated, firsts = _samples(rho, partition, n_samples, seed,
                                         held=0)
    forms = {id(o): _in_basis(_checked(o, partition.dim), basis)
             for o in observables}
    values = {key: np.empty(n_samples) for key in forms}

    def traces(first):
        y = rotated(first)
        for key, a in forms.items():
            values[key][first:first + len(y)] = _traces(y, w, a)

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
    element-wise comparison against ensemble_mean.  Each chunk forms
    sigma = Y^T diag(w) conj(Y) from Y = (U P)^T (`_samples`), so its
    samples are bounded by sigma's d^2 complex numbers a sample.
    """
    d = partition.dim
    basis, w, rotated, firsts = _samples(rho, partition, n_samples, seed,
                                         held=d * d)

    def sums(first):
        y = rotated(first)
        # Y diag(w) is taken before Y is conjugated in place
        x = (y * w[:, None]).swapaxes(1, 2) @ np.conjugate(y, out=y)
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
