"""Basis enumeration and Hamiltonian construction.

The load-bearing check is an independent oracle: the Hamiltonian is rebuilt
on the full 2^L space with dumb per-site loops over Pauli matrices and then
projected onto the sector, with no code shared with the package builder.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergoquench.ergodic_ensemble import _pair_traces
from ergoquench.errors import ConstructionError, SectorError
from ergoquench.spin_chain import (ADJOINT_TILE, HermitianOperator,
                                   PairOperator,
                                   build_basis,
                                   build_hamiltonian,
                                   build_projector_observable, draw_disorder,
                                   hermitian_deviation, symmetrized)

# Pauli matrices indexed by bit value (row/col 0 = down, 1 = up), so
# sigma^z is diag(-1, +1) in this ordering.
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SZ = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)


def one_site(pauli, j, n_sites):
    """Operator acting with `pauli` on site j, identity elsewhere.

    Built with explicit bit loops on the full 2^L space; deliberately naive.
    """
    dim = 1 << n_sites
    m = np.zeros((dim, dim), dtype=complex)
    for s in range(dim):
        b = (s >> j) & 1
        for b_new in (0, 1):
            s_new = (s & ~(1 << j)) | (b_new << j)
            m[s_new, s] += pauli[b_new, b]
    return m


def full_space_hamiltonian(n_sites, coupling, fields):
    dim = 1 << n_sites
    h = np.zeros((dim, dim), dtype=complex)
    for j in range(n_sites - 1):
        for p in (SX, SY, SZ):
            h += coupling * one_site(p, j, n_sites) @ one_site(p, j + 1, n_sites)
    for j in range(n_sites):
        h += fields[j] * one_site(SZ, j, n_sites)
    return h


def project_to_sector(full, basis):
    return full[np.ix_(basis.states, basis.states)]


class TestBasis:
    def test_two_site_zero_magnetization(self):
        basis = build_basis(2, 0)
        assert list(basis.states) == [1, 2]
        assert basis.dim == 2

    def test_sector_dimension_is_binomial(self):
        import math
        basis = build_basis(12, 0)
        assert basis.dim == math.comb(12, 6) == 924

    def test_fully_polarized_sector_is_one_dimensional(self):
        basis = build_basis(4, 4)
        assert basis.dim == 1
        assert basis.states[0] == 0b1111

    def test_parity_mismatch_rejected(self):
        with pytest.raises(SectorError):
            build_basis(4, 1)
        with pytest.raises(SectorError):
            build_basis(3, 5)

    def test_empty_chain_rejected(self):
        with pytest.raises(SectorError):
            build_basis(0, 0)

    def test_single_site_chain_allowed(self):
        up = build_basis(1, 1)
        down = build_basis(1, -1)
        assert list(up.states) == [1] and list(down.states) == [0]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_the_brute_force_list(self, n):
        for sz in range(-n, n + 1, 2):
            basis = build_basis(n, sz)
            want = [s for s in range(1 << n)
                    if bin(s).count("1") == (n + sz) // 2]
            assert basis.states.dtype == np.int64
            assert basis.states.tolist() == want

    def test_occupations_match_popcount(self):
        basis = build_basis(5, 1)
        occ = basis.occupations()
        assert occ.shape == (basis.dim, 5)
        assert np.all(occ.sum(axis=1) == 3)

    @given(n=st.integers(2, 8), data=st.data())
    @settings(deadline=None)
    def test_states_sorted_and_consistent(self, n, data):
        sz = data.draw(st.sampled_from([n - 2 * k for k in range(n + 1)]))
        basis = build_basis(n, sz)
        assert np.all(np.diff(basis.states) > 0)
        assert np.all(basis.occupations().sum(axis=1) == (n + sz) // 2)


class TestDisorder:
    def test_draw_is_reproducible_and_bounded(self):
        a = draw_disorder(10, 2.5, seed=3)
        b = draw_disorder(10, 2.5, seed=3)
        assert a.dtype == np.float64 and a.shape == (10,)
        assert np.array_equal(a, b)
        assert np.all(np.abs(a) <= 2.5)


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ConstructionError):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ConstructionError):
            HermitianOperator(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ConstructionError, match="not Hermitian"):
            HermitianOperator(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_symmetrized_accepts_rounding_noise(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(5, 5))
        h = (m + m.T) / 2 + 1e-9 * rng.normal(size=(5, 5))
        with pytest.raises(ConstructionError):
            HermitianOperator(h)
        op = symmetrized(h)
        assert np.max(np.abs(op.entries - op.entries.conj().T)) == 0.0


# tile boundaries of the adjoint passes, and matrices of several tiles
TILED_SIZES = sorted({1, 255, 256, 257, 600,
                      ADJOINT_TILE - 1, ADJOINT_TILE, ADJOINT_TILE + 1})


def random_complex_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g + g.conj().T


class TestHermitianDeviation:
    @pytest.mark.parametrize("d", TILED_SIZES)
    @pytest.mark.parametrize("tile", ["diagonal", "far"])
    def test_matches_whole_array_deviation(self, d, tile):
        rng = np.random.default_rng(d)
        m = random_complex_hermitian(rng, d)
        m += 1e-9 * rng.normal(size=(d, d))  # noise everywhere, below the defect
        # a defect in the first diagonal tile or in the farthest tile
        where = (0, min(d - 1, ADJOINT_TILE // 3)) if tile == "diagonal" else (d - 1, 0)
        m[where] += 1e-6j
        whole = float(np.max(np.abs(m - m.conj().T)))
        assert whole > 1e-6
        assert hermitian_deviation(m) == whole

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (ADJOINT_TILE + 2, 1)])
    def test_non_finite_entry_is_not_a_small_deviation(self, bad, where):
        m = np.zeros((ADJOINT_TILE + 5, ADJOINT_TILE + 5))
        m[where] = m[where[::-1]] = bad  # symmetric, so only its value is wrong
        assert not (hermitian_deviation(m) <= 1.0)
        with pytest.raises(ConstructionError):
            HermitianOperator(m)

    def test_overflowing_difference_is_inf_under_any_errstate(self):
        # finite entries, but m - m^T passes the largest float
        m = np.array([[0.0, 1.7e308], [-1.7e308, 0.0]])
        with np.errstate(over="raise"):
            assert hermitian_deviation(m) == np.inf
            with pytest.raises(ConstructionError):
                HermitianOperator(m)


class TestTiledAdjointPasses:
    def test_symmetrized_is_bit_identical_to_the_whole_array_average(self):
        rng = np.random.default_rng(600)
        for m in (rng.normal(size=(600, 600)),
                  rng.normal(size=(600, 600)) + 1j * rng.normal(size=(600, 600))):
            assert np.array_equal(symmetrized(m).entries, 0.5 * (m + m.conj().T))

    def test_symmetrized_rejects_nan(self):
        m = np.eye(3)
        m[1, 2] = np.nan
        with pytest.raises(ConstructionError):
            symmetrized(m)

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_projector_matches_outer_plus_adjoint(self, complex_data):
        rng = np.random.default_rng(7)
        v1, v2 = rng.normal(size=(2, 300))
        if complex_data:
            v1, v2 = v1 + 1j * rng.normal(size=300), v2 + 1j * rng.normal(size=300)
        v1, v2 = v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)
        m = np.outer(v1, v2.conj())
        got = build_projector_observable(v1, v2).dense()
        if complex_data:  # complex products may round in either operand order
            assert np.max(np.abs(got - (m + m.conj().T))) < 1e-16
        else:
            assert np.array_equal(got, m + m.T)


class TestHamiltonian:
    def test_two_site_literal_matrix(self):
        basis = build_basis(2, 0)
        h = build_hamiltonian(basis, 1.0, np.zeros(2))
        assert np.allclose(h.entries, [[-1.0, 2.0], [2.0, -1.0]])
        assert np.allclose(np.linalg.eigvalsh(h.entries), [-3.0, 1.0])

    @pytest.mark.parametrize("n_sites,total_sz,seed", [
        (2, 0, 1), (3, 1, 2), (3, -1, 3), (4, 0, 4), (4, 2, 5), (5, 1, 6),
    ])
    def test_matches_full_space_oracle(self, n_sites, total_sz, seed):
        rng = np.random.default_rng(seed)
        coupling = float(rng.uniform(0.5, 2.0))
        fields = rng.uniform(-1.5, 1.5, size=n_sites)
        basis = build_basis(n_sites, total_sz)
        built = build_hamiltonian(basis, coupling, fields)
        oracle = project_to_sector(
            full_space_hamiltonian(n_sites, coupling, fields), basis)
        assert np.max(np.abs(built.entries - oracle)) < 1e-12

    def test_split_plus_cut_bond_reassembles_chain(self):
        # restricting bonds/fields to the two halves and the single cut bond
        # must add up to the full Hamiltonian exactly
        n, half = 6, 3
        basis = build_basis(n, 0)
        fields = draw_disorder(n, 1.0, seed=9)
        full = build_hamiltonian(basis, 1.3, fields)
        left = build_hamiltonian(basis, 1.3, fields,
                                 bond_range=(0, half - 2),
                                 field_sites=(0, half - 1))
        right = build_hamiltonian(basis, 1.3, fields,
                                  bond_range=(half, n - 2),
                                  field_sites=(half, n - 1))
        cut = build_hamiltonian(basis, 1.3, fields,
                                bond_range=(half - 1, half - 1),
                                field_sites=(1, 0))  # empty interval
        total = left.entries + right.entries + cut.entries
        assert np.max(np.abs(total - full.entries)) < 1e-12

    def test_empty_intervals_give_zero_operator(self):
        basis = build_basis(4, 0)
        fields = draw_disorder(4, 1.0, seed=0)
        h = build_hamiltonian(basis, 1.0, fields,
                              bond_range=(2, 1), field_sites=(3, 0))
        assert np.all(h.entries == 0.0)

    def test_interval_bounds_checked(self):
        basis = build_basis(4, 0)
        fields = draw_disorder(4, 1.0, seed=0)
        with pytest.raises(ConstructionError):
            build_hamiltonian(basis, 1.0, fields, bond_range=(0, 3))
        with pytest.raises(ConstructionError):
            build_hamiltonian(basis, 1.0, fields, field_sites=(-1, 2))

    def test_field_count_must_match_sites(self):
        basis = build_basis(4, 0)
        with pytest.raises(ConstructionError):
            build_hamiltonian(basis, 1.0, np.zeros(3))

    @given(seed=st.integers(0, 10_000))
    @settings(deadline=None, max_examples=30)
    def test_off_diagonal_structure(self, seed):
        # every off-diagonal element is exactly 2J or 0, and row sums of the
        # hop pattern count the movable bonds of each configuration
        rng = np.random.default_rng(seed)
        coupling = float(rng.uniform(0.2, 3.0))
        basis = build_basis(6, 0)
        h = build_hamiltonian(basis, coupling, draw_disorder(6, 1.0, seed))
        off = h.entries.copy()
        np.fill_diagonal(off, 0.0)
        nonzero = off[off != 0.0]
        assert np.allclose(nonzero, 2.0 * coupling)
        occ = basis.occupations()
        movable = (occ[:, :-1] != occ[:, 1:]).sum(axis=1)
        assert np.array_equal((off != 0).sum(axis=0), movable)


class TestProjectorObservable:
    def test_orthonormal_pair_traces(self):
        v1 = np.zeros(4, dtype=complex); v1[0] = 1.0
        v2 = np.zeros(4, dtype=complex); v2[2] = 1.0
        q = build_projector_observable(v1, v2)
        # tr Q and tr(Q Q) from the vectors: the whole space as one sector
        trace, _, (left, right) = _pair_traces(q, q, np.zeros(1, dtype=np.int64))
        assert abs(trace[0]) < 1e-14
        assert abs(left[0] @ right[0] - 2.0) < 1e-14
        assert np.allclose(q.u * np.vdot(q.v, v2) + q.v * np.vdot(q.u, v2), v1)
        assert np.allclose(q.u * np.vdot(q.v, v1) + q.v * np.vdot(q.u, v1), v2)

    def test_requires_normalized_inputs(self):
        v = np.ones(3, dtype=complex)
        with pytest.raises(ConstructionError):
            build_projector_observable(v, v / np.linalg.norm(v))

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, which, bad):
        vectors = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
        vectors[which][2] = bad
        with pytest.raises(ConstructionError):
            build_projector_observable(*vectors)
        with pytest.raises(ConstructionError):
            PairOperator(*vectors)

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_holds_its_two_vectors_only(self, complex_data):
        v1 = np.zeros(300, dtype=complex if complex_data else float)
        v2 = v1.copy()
        v1[0], v2[1] = 1.0, 1.0
        q = build_projector_observable(v1, v2)
        assert q.u.dtype == q.v.dtype == v1.dtype
        assert q.nbytes == v1.nbytes + v2.nbytes
        assert not hasattr(q, "entries")

    def test_requires_matching_dimensions(self):
        with pytest.raises(ConstructionError):
            build_projector_observable(np.array([1.0, 0.0]),
                                       np.array([1.0, 0.0, 0.0]))
