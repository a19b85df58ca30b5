"""Shared helpers for the test suite.

Random states and observables are drawn through plain functions instead of
fixtures so tests can control the generator seed explicitly; reproducibility
matters more here than fixture magic.
"""

import numpy as np
import pytest

from ergoquench import dynamics
from ergoquench.dynamics import TimeSeries
from ergoquench.ergodic_ensemble import DensityMatrix
from ergoquench.spectral import SectorPartition
from ergoquench.spin_chain import HermitianOperator, PairOperator


def whole_partition(dim):
    """One sector of all dim levels."""
    return SectorPartition(dim=dim, starts=np.zeros(1, dtype=np.int64))


def singleton_partition(dim):
    """dim sectors of one level each."""
    return SectorPartition(dim=dim, starts=np.arange(dim, dtype=np.int64))


def sector_slices(partition):
    """The index range of each sector, in order."""
    stops = np.append(partition.starts[1:], partition.dim)
    return [slice(int(a), int(b)) for a, b in zip(partition.starts, stops)]


def random_density(rng, dim, rank=None):
    """Full-rank (or rank-limited) random density matrix."""
    r = rank or dim
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator((g + g.conj().T) / 2)


def random_pure(rng, dim, complex_data=True):
    v = rng.normal(size=dim)
    if complex_data:
        v = v + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_mixture(rng, dim, rank, complex_data):
    """A DensityMatrix built from `rank` random unit vectors, so it keeps
    its factors."""
    w = rng.uniform(0.1, 1.0, size=rank)
    return DensityMatrix.from_mixture(
        w / w.sum(), [random_pure(rng, dim, complex_data) for _ in range(rank)])


def random_pair(rng, dim, complex_data, equal_vectors=False):
    """PairOperator of two random unit vectors, or of one vector twice (the
    phi1 = phi2 case)."""
    u = random_pure(rng, dim, complex_data)
    v = u if equal_vectors else random_pure(rng, dim, complex_data)
    return PairOperator(u, v)


def block_matrix(u):
    """The dense d x d matrix of a BlockUnitary."""
    d = u.partition.dim
    out = np.zeros((d, d), dtype=np.complex128)
    for sl, blk in zip(sector_slices(u.partition), u.blocks):
        out[sl, sl] = blk
    return out


def block_conjugate(u, m):
    """U M U^dag for a BlockUnitary U, computed blockwise."""
    slices = sector_slices(u.partition)
    out = np.empty(np.shape(m), dtype=np.complex128)
    for i, sl_i in enumerate(slices):
        for j, sl_j in enumerate(slices):
            out[sl_i, sl_j] = u.blocks[i] @ m[sl_i, sl_j] @ u.blocks[j].conj().T
    return out


def read_series_csv(path):
    """A series CSV written by `experiment.write_artifacts`, read back."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return TimeSeries(times=data[:, 0], values=data[:, 1])


@pytest.fixture()
def phase_calls(monkeypatch):
    """Spy on the phase evaluations of `dynamics`, starting from an empty
    phase memo: the times of each evaluation, in order, every one taken at
    all the energies.  The memo is emptied again afterwards, so that no
    other test meets a table computed under this spy."""
    dynamics._phase_table.cache_clear()
    calls = []
    real = dynamics._cos_sin_of_product

    def spy(e, t):
        calls.append(np.ravel(t))
        return real(e, t)

    monkeypatch.setattr(dynamics, "_cos_sin_of_product", spy)
    yield calls
    dynamics._phase_table.cache_clear()
