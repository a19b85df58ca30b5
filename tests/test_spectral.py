"""Diagonalization, gap-ratio statistics, and spectrum partitioning."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergoquench import spectral, spin_chain
from ergoquench.errors import NumericalIntegrityError, SectorError
from ergoquench.spectral import (SectorPartition, cluster_sectors,
                                 diagonalize, level_spacing_ratio)
from ergoquench.spin_chain import (HermitianOperator, build_basis,
                                   build_hamiltonian, draw_disorder)

from conftest import (random_hermitian, sector_slices, singleton_partition,
                      whole_partition)


def assert_hermitian_off_diagonal(x):
    """Every strict-lower entry of x is the conjugate of its mirror."""
    lower = np.tril_indices(len(x), -1)
    assert np.array_equal(x[lower], x.conj().T[lower])


class TestDiagonalize:
    def test_pauli_x(self):
        eig = diagonalize(HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert np.allclose(eig.energies, [-1.0, 1.0])

    def test_energies_ascending_for_diagonal_input(self):
        eig = diagonalize(HermitianOperator(np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(eig.energies, [1.0, 2.0, 3.0])

    def test_reconstruction_complex(self):
        rng = np.random.default_rng(1)
        op = random_hermitian(rng, 50)
        eig = diagonalize(op)
        rebuilt = eig.vectors @ np.diag(eig.energies) @ eig.vectors.conj().T
        scale = np.max(np.abs(op.entries))
        assert np.max(np.abs(rebuilt - op.entries)) < 1e-9 * scale
        assert eig.vectors.dtype == np.complex128

    def test_real_input_stays_real(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(20, 20))
        op = HermitianOperator((m + m.T) / 2)
        eig = diagonalize(op)
        assert eig.vectors.dtype == np.float64
        rebuilt = eig.vectors @ np.diag(eig.energies) @ eig.vectors.conj().T
        assert np.max(np.abs(rebuilt - op.entries)) < 1e-10

    def test_non_finite_energies_raise(self, monkeypatch):
        real_eigh = spectral._eigh

        def overflowing_eigh(m):
            energies, vectors = real_eigh(m)
            energies[-1] = np.inf
            return energies, vectors

        monkeypatch.setattr(spectral, "_eigh", overflowing_eigh)
        with pytest.raises(NumericalIntegrityError,
                           match=r"1 non-finite energies of 3, "
                                 r"largest finite \|E\| 2\.000e\+00"):
            diagonalize(HermitianOperator(np.diag([3.0, 1.0, 2.0])))

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 200), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["dense", "repeated_blocks", "few_levels"]))
    def test_real_path_is_eighs_bits(self, dim, seed, kind):
        # exactly repeated eigenvalues: copies of one block, or a diagonal
        # of a few small integers mixed by a permutation
        rng = np.random.default_rng(seed)
        if kind == "dense":
            m = rng.normal(size=(dim, dim))
        elif kind == "repeated_blocks":
            b = rng.normal(size=(3, 3))
            m = np.kron(np.eye(-(-dim // 3)), b)[:dim, :dim]
        else:
            m = np.diag(rng.integers(-2, 3, size=dim).astype(float))
            m = m[np.ix_(*(2 * [rng.permutation(dim)]))]
        op = HermitianOperator((m + m.T) / 2)
        before = op.entries.copy()
        eig = diagonalize(op)
        energies, vectors = np.linalg.eigh(before)
        assert np.array_equal(eig.energies, energies)
        assert np.array_equal(eig.vectors, vectors)
        assert eig.vectors.flags.c_contiguous
        assert np.array_equal(op.entries, before)
        # (m + m^T) / 2 is exactly symmetric, so overwrite solves in place
        given_up = diagonalize(HermitianOperator(before.copy()), overwrite=True)
        assert np.array_equal(given_up.energies, energies)
        assert np.array_equal(given_up.vectors, vectors)

    def test_overwrite_copies_an_operator_symmetric_only_to_rounding(self):
        # M^T is not M, so the in-place path would solve another matrix
        rng = np.random.default_rng(8)
        m = rng.normal(size=(40, 40))
        m = (m + m.T) / 2
        m[0, 1] += 1e-14
        op = HermitianOperator(m)
        eig = diagonalize(op, overwrite=True)
        energies, vectors = np.linalg.eigh(m)
        assert np.array_equal(eig.energies, energies)
        assert np.array_equal(eig.vectors, vectors)
        assert np.array_equal(op.entries, m)

    @pytest.mark.skipif(spectral._lapack() is None,
                        reason="numpy does not export dsytrd, dstedc, dormtr")
    def test_overwrite_takes_the_deviation_measured_on_creation(self,
                                                                monkeypatch):
        # the L = 10 chain: its exact symmetry is the deviation measured
        # when it was built, and diagonalize makes no pass of its own
        op = build_hamiltonian(build_basis(10, 0), 1.0,
                               draw_disorder(10, 1.0, seed=0))
        assert op.deviation == 0.0
        before = op.entries.copy()

        def no_pass(m):
            raise AssertionError("the operator was measured again")

        monkeypatch.setattr(spin_chain, "hermitian_deviation", no_pass)
        monkeypatch.setattr(spectral, "hermitian_deviation", no_pass,
                            raising=False)
        eig = diagonalize(op, overwrite=True)
        energies, vectors = np.linalg.eigh(before)
        assert np.array_equal(eig.energies, energies)
        assert np.array_equal(eig.vectors, vectors)
        # solved in place: the buffer, read as the Fortran array M^T, now
        # holds the eigenvectors
        assert np.array_equal(op.entries.T, vectors)

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_fallback_is_eigh(self, complex_data, monkeypatch):
        # a numpy without the symbol, and any complex operator, take eigh
        if not complex_data:
            monkeypatch.setattr(spectral, "_lapack", lambda: None)
        rng = np.random.default_rng(5)
        op = (random_hermitian(rng, 30) if complex_data else
              HermitianOperator(np.real(random_hermitian(rng, 30).entries)))
        eig = diagonalize(op)
        energies, vectors = np.linalg.eigh(op.entries)
        assert eig.vectors.dtype == op.entries.dtype
        assert np.array_equal(eig.energies, energies)
        assert np.array_equal(eig.vectors, vectors)

    @pytest.mark.skipif(spectral._lapack() is None,
                        reason="numpy does not export dsytrd, dstedc, dormtr")
    def test_lapack_failure_raises(self, monkeypatch):
        def not_converging(*args):  # dstedc's arguments, info second to last
            args[-2].value = 1

        routines = dict(spectral._lapack(), dstedc=not_converging)
        monkeypatch.setattr(spectral, "_lapack", lambda: routines)
        with pytest.raises(NumericalIntegrityError, match="did not converge"):
            diagonalize(HermitianOperator(np.diag([3.0, 1.0, 2.0])))

    @pytest.mark.parametrize("scale", [1e-200, 1e200, 1e300])
    def test_scaled_matrix_is_eighs_bits(self, scale):
        # a largest entry outside [2^-485, 2^485] is scaled as dsyevd
        # scales it, before the reduction and after the solve
        m = np.random.default_rng(9).normal(size=(40, 40))
        op = HermitianOperator(scale * (m + m.T) / 2)
        eig = diagonalize(op)
        energies, vectors = np.linalg.eigh(op.entries)
        assert np.array_equal(eig.energies, energies)
        assert np.array_equal(eig.vectors, vectors)

    @pytest.mark.skipif(spectral._lapack() is None,
                        reason="numpy does not export dsytrd, dstedc, dormtr")
    def test_real_path_holds_one_copy_and_the_workspace(self):
        # the L = 10 chain (d = 252): at its peak the call holds the copy,
        # which becomes the vectors, the reflectors (d^2 / 2) and dstedc's
        # d^2 + 4 d + 1 workspace; afterwards the C-ordered vectors.
        # np.linalg.eigh allocates outside tracemalloc, so this pins the
        # LAPACK path only.
        basis = build_basis(10, 0)
        op = build_hamiltonian(basis, 1.0, draw_disorder(10, 1.0, 0))
        d2 = op.dim ** 2 * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            eig = diagonalize(op)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op.dim == 252
        assert peak - start <= 2.6 * d2
        assert current - start <= 1.02 * d2
        assert eig.vectors.shape == (252, 252)

    @pytest.mark.skipif(spectral._lapack() is None,
                        reason="numpy does not export dsytrd, dstedc, dormtr")
    def test_overwrite_holds_the_workspace_only(self):
        # the same chain solved on its own buffer: no copy, so the call
        # holds the reflectors and dstedc's workspace, and then the
        # C-ordered vectors
        basis = build_basis(10, 0)
        op = build_hamiltonian(basis, 1.0, draw_disorder(10, 1.0, 0))
        want = np.linalg.eigh(op.entries)
        d2 = op.dim ** 2 * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            eig = diagonalize(op, overwrite=True)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 1.6 * d2
        assert current - start <= 1.02 * d2
        assert np.array_equal(eig.vectors, want[1])

    def test_to_eigenbasis_diagonalizes_own_operator(self):
        rng = np.random.default_rng(3)
        op = random_hermitian(rng, 12)
        eig = diagonalize(op)
        rotated = eig.to_eigenbasis(op)
        assert np.max(np.abs(rotated - np.diag(eig.energies))) < 1e-10
        assert_hermitian_off_diagonal(rotated)

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(1, 200), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["dense", "sparse", "zero_rows", "complex",
                                 "complex_m", "complex_v"]))
    def test_to_eigenbasis_matches_the_two_sided_product(self, dim, seed, kind):
        # the support product M V must agree with V^dag M V however sparse
        # M is: full, a few nonzeros per row, or whole tiles of zero rows
        # (and columns, so that they stay zero in (m + m^dag) / 2).  M and
        # V are each real or complex ("complex": both)
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(dim, dim))
        if kind in ("complex", "complex_m"):
            m = m + 1j * rng.normal(size=(dim, dim))
        if kind != "dense":
            m[rng.random((dim, dim)) > min(1.0, 5.0 / dim)] = 0.0
        if kind == "zero_rows":
            zero = rng.random(dim) < 0.5
            zero[:min(dim, 70)] = True  # at least one all-zero tile
            m[zero] = 0.0
            m[:, zero] = 0.0
        m = (m + m.conj().T) / 2
        h = rng.normal(size=(dim, dim))
        if kind in ("complex", "complex_v"):
            h = h + 1j * rng.normal(size=(dim, dim))
        eig = diagonalize(HermitianOperator((h + h.conj().T) / 2))
        v = eig.vectors
        want = v.conj().T @ m @ v
        got = eig.to_eigenbasis(HermitianOperator(m))
        assert got.dtype == want.dtype
        scale = max(float(np.max(np.abs(m))), 1e-300)
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
        assert_hermitian_off_diagonal(got)
        # overwrite uses M's buffer where the dtypes allow; same bits
        reused = eig.to_eigenbasis(HermitianOperator(m.copy()), overwrite=True)
        assert reused.dtype == got.dtype
        assert np.array_equal(reused, got)

    @pytest.mark.parametrize("kind", ["sparse", "complex", "dense",
                                      "complex_dense"])
    def test_to_eigenbasis_in_column_blocks(self, kind):
        # blocks of 76, 76, 76 and 74 columns, 16-row support tiles of
        # which the last holds 14 rows, and 128 x 128 mirror tiles of which
        # the last holds 46: both paths form the same blocks, the given-up
        # buffer holds the result, and every entry below the diagonal is
        # the adjoint of its mirror, bit for bit
        dim = 302
        rng = np.random.default_rng(10)
        m = rng.normal(size=(dim, dim))
        if "dense" not in kind:
            m[rng.random((dim, dim)) > 5.0 / dim] = 0.0
        h = rng.normal(size=(dim, dim))
        if "complex" in kind:
            m = m + 1j * rng.normal(size=(dim, dim))
            h = h + 1j * rng.normal(size=(dim, dim))
        m = (m + m.conj().T) / 2
        eig = diagonalize(HermitianOperator((h + h.conj().T) / 2))
        v = eig.vectors
        got = eig.to_eigenbasis(HermitianOperator(m))
        want = v.conj().T @ m @ v
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(m))
        assert_hermitian_off_diagonal(got)
        given_up = m.copy()
        reused = eig.to_eigenbasis(HermitianOperator(given_up), overwrite=True)
        assert reused is given_up
        assert np.array_equal(reused, got)

    def test_vector_rotation_preserves_norm(self):
        rng = np.random.default_rng(4)
        op = random_hermitian(rng, 9)
        eig = diagonalize(op)
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        v /= np.linalg.norm(v)
        assert abs(np.linalg.norm(eig.vector_to_eigenbasis(v)) - 1.0) < 1e-12


class TestLevelSpacingRatio:
    def test_equally_spaced_gives_one(self):
        assert level_spacing_ratio(np.arange(10.0)) == pytest.approx(1.0)

    def test_geometric_gaps(self):
        # gaps 1, 2, 4 -> adjacent ratios 1/2, 1/2
        assert level_spacing_ratio(np.array([0.0, 1.0, 3.0, 7.0])) == pytest.approx(0.5)

    def test_poisson_limit(self):
        rng = np.random.default_rng(5)
        energies = np.cumsum(rng.exponential(size=100_000))
        r = level_spacing_ratio(energies)
        assert abs(r - (2.0 * np.log(2.0) - 1.0)) < 0.01

    def test_unsorted_input_is_sorted_internally(self):
        e = np.array([3.0, 0.0, 1.0, 7.0])
        assert level_spacing_ratio(e) == level_spacing_ratio(np.sort(e))

    def test_double_degeneracy_warns_and_skips(self):
        with pytest.warns(UserWarning, match="degenerate"):
            r = level_spacing_ratio(np.array([0.0, 0.0, 0.0, 1.0]))
        assert r == 0.0  # the surviving pair has one zero spacing

    def test_fully_degenerate_gives_none(self):
        # no gap ratio exists, and that is no warning (tier-1 makes
        # warnings errors)
        assert level_spacing_ratio(np.zeros(5)) is None

    def test_needs_three_levels(self):
        assert level_spacing_ratio(np.array([0.0, 1.0])) is None
        assert level_spacing_ratio(np.array([])) is None

    @given(seed=st.integers(0, 10_000),
           scale=st.floats(0.1, 50.0),
           shift=st.floats(-100.0, 100.0))
    @settings(deadline=None, max_examples=40)
    def test_affine_invariance_and_range(self, seed, scale, shift):
        rng = np.random.default_rng(seed)
        e = np.sort(rng.normal(size=30))
        r = level_spacing_ratio(e)
        assert 0.0 <= r <= 1.0
        assert level_spacing_ratio(scale * e + shift) == pytest.approx(r, rel=1e-9)


class TestSectorPartition:
    def test_sizes_and_slices(self):
        p = SectorPartition(dim=9, starts=np.array([0, 5]))
        assert list(p.sizes) == [5, 4]
        assert sector_slices(p) == [slice(0, 5), slice(5, 9)]
        assert p.n_sectors == 2

    def test_singletons_and_whole(self):
        s = singleton_partition(4)
        assert list(s.sizes) == [1, 1, 1, 1]
        w = whole_partition(4)
        assert list(w.sizes) == [4]

    @pytest.mark.parametrize("dim,starts", [
        (4, [1, 2]),        # must begin at 0
        (4, [0, 2, 2]),     # strictly increasing
        (4, [0, 4]),        # start beyond the last index
        (4, []),            # empty
        (0, [0]),           # empty spectrum
    ])
    def test_invalid_starts_rejected(self, dim, starts):
        with pytest.raises(SectorError):
            SectorPartition(dim=dim, starts=np.asarray(starts, dtype=np.int64))

    @pytest.mark.parametrize("dim,starts", [
        (5.5, [0, 2]),            # sizes would be [2, 3.5]
        (5, [0, 2.7]),            # would be cut to 2
        (5, [0.0, np.nan]),
        (np.inf, [0]),
        (5, [True, False]),
    ])
    def test_fractional_sizes_rejected(self, dim, starts):
        with pytest.raises(SectorError, match="whole numbers"):
            SectorPartition(dim=dim, starts=starts)

    def test_whole_floats_become_integers(self):
        p = SectorPartition(dim=5.0, starts=[0.0, 2.0])
        assert p.dim == 5 and isinstance(p.dim, int)
        assert p.starts.dtype == np.int64 and list(p.sizes) == [2, 3]

    @given(dim=st.integers(1, 40), data=st.data())
    @settings(deadline=None, max_examples=50)
    def test_slices_tile_the_range(self, dim, data):
        cuts = data.draw(st.lists(st.integers(1, max(1, dim - 1)),
                                  unique=True, max_size=max(0, dim - 1)))
        starts = np.array(sorted({0, *cuts}), dtype=np.int64)
        starts = starts[starts < dim]
        p = SectorPartition(dim=dim, starts=starts)
        assert int(p.sizes.sum()) == dim
        covered = np.concatenate([np.arange(s.start, s.stop) for s in sector_slices(p)])
        assert np.array_equal(covered, np.arange(dim))


class TestClusterSectors:
    def test_gap_threshold_splits(self):
        e = np.array([0.0, 0.1, 0.1001, 5.0])
        p = cluster_sectors(e, degeneracy_tol=0.01)
        assert list(p.starts) == [0, 1, 3]

    def test_zero_tolerance_keeps_exact_repeats_together(self):
        p = cluster_sectors(np.array([1.0, 1.0, 2.0]), degeneracy_tol=0.0)
        assert list(p.starts) == [0, 2]

    def test_zero_tolerance_generic_spectrum_gives_singletons(self):
        p = cluster_sectors(np.array([0.0, 0.5, 1.25, 9.0]), degeneracy_tol=0.0)
        assert p.n_sectors == 4

    def test_requires_sorted_input(self):
        with pytest.raises(SectorError):
            cluster_sectors(np.array([1.0, 0.0]), degeneracy_tol=0.1)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            cluster_sectors(np.array([0.0, 1.0]), degeneracy_tol=-1.0)

    def test_nan_tolerance_rejected(self):
        # every gap > nan is False, which would make one sector of all
        with pytest.raises(ValueError, match="degeneracy_tol"):
            cluster_sectors(np.array([0.0, 1.0, 2.0]), degeneracy_tol=float("nan"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_energies_rejected(self, bad):
        e = np.array([0.0, 1.0, 2.0, 3.0])
        e[2] = bad
        with pytest.raises(SectorError, match="finite"):
            cluster_sectors(e, degeneracy_tol=0.1)

    @given(seed=st.integers(0, 5_000), tol=st.floats(0.0, 2.0))
    @settings(deadline=None, max_examples=40)
    def test_within_sector_gaps_never_exceed_tolerance(self, seed, tol):
        rng = np.random.default_rng(seed)
        e = np.sort(rng.uniform(0, 10, size=25))
        p = cluster_sectors(e, tol)
        for sl in sector_slices(p):
            if sl.stop - sl.start > 1:
                assert np.max(np.diff(e[sl])) <= tol
