"""Analytic ensemble moments against three independent oracles.

The verification triangle: the fast sector-trace contraction, the literal
d^2 x d^2 dense assembly, and Monte-Carlo sampling must all agree, and the
all-singleton case additionally matches a hand-derived dephasing formula.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergoquench import ergodic_ensemble
from ergoquench.ergodic_ensemble import (MOMENT_TILE, DensityMatrix,
                                         _block_rows, _exchange_sum,
                                         _pair_traces,
                                         cat_q_variance_closed_form,
                                         ensemble_mean,
                                         second_moment_expectation)
from ergoquench.errors import (NumericalIntegrityError, SectorError,
                               StateValidationError)
from ergoquench.haar_oracle import estimate_moments, estimate_state_mean
from ergoquench.spectral import SectorPartition
from ergoquench.spin_chain import HermitianOperator, PairOperator

from conftest import (block_conjugate, random_density, random_hermitian,
                      random_mixture, random_pair, random_pure,
                      sector_slices, singleton_partition, whole_partition)
from dense_reference import (contract_with_pair, dense_second_moment_reference,
                             quartic_overlap_reference, sample_block_unitary)


def singleton_oracle(rho, a, b):
    """Hand-derived dephasing-ensemble second moment for all-singleton
    partitions: diagonal means plus the cross-coherence exchange sum."""
    r, am, bm = rho.entries, a.entries, b.entries
    d = r.shape[0]
    mean_a = sum(r[i, i].real * am[i, i].real for i in range(d))
    mean_b = sum(r[i, i].real * bm[i, i].real for i in range(d))
    cross = sum((abs(r[i, j]) ** 2 * (am[j, i] * bm[i, j])).real
                for i in range(d) for j in range(d) if i != j)
    return mean_a * mean_b + cross


class TestDensityMatrix:
    def test_maximally_mixed_accepted(self):
        dm = DensityMatrix(np.eye(3) / 3.0)
        assert np.array_equal(dm.entries, np.eye(3) / 3.0)

    def test_rejects_non_hermitian(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(StateValidationError):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateValidationError):
            DensityMatrix(np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        m = np.diag([0.5, 0.5, 0.0])
        m[2, 2] = bad
        with pytest.raises(StateValidationError, match="non-finite entry"):
            DensityMatrix(m)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(StateValidationError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_diagonal_fast_path_catches_negativity(self):
        with pytest.raises(StateValidationError):
            DensityMatrix(np.diag([1.2, -0.2, 0.0]))

    def test_from_state_vector(self):
        v = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        dm = DensityMatrix.from_state_vector(v)
        assert abs(np.trace(dm.entries) - 1.0) < 1e-14
        with pytest.raises(StateValidationError):
            DensityMatrix.from_state_vector(np.array([1.0, 1.0]))

    def test_general_non_psd_matrix_rejected(self):
        # not diagonal, so only the eigensolver can see the -0.3 eigenvalue
        with pytest.raises(StateValidationError, match="negative eigenvalue"):
            DensityMatrix(np.array([[0.5, 0.8], [0.8, 0.5]]))

    def test_factors_kept_only_by_the_factored_constructors(self):
        rng = np.random.default_rng(6)
        v1, v2 = random_pure(rng, 5), random_pure(rng, 5)
        mixed = DensityMatrix.from_mixture([0.25, 0.75], [v1, v2])
        assert np.array_equal(mixed.weights, [0.25, 0.75])
        assert np.array_equal(mixed.vectors, np.column_stack([v1, v2]))
        pure = DensityMatrix.from_state_vector(v1)
        assert pure.vectors.shape == (5, 1)
        general = DensityMatrix(mixed.entries)
        assert general.weights is None and general.vectors is None

    def test_from_mixture_matches_the_weighted_sum(self):
        rng = np.random.default_rng(7)
        v1, v2 = random_pure(rng, 5), random_pure(rng, 5)
        state = DensityMatrix.from_mixture([0.25, 0.75], [v1, v2])
        expected = (0.25 * np.outer(v1, v1.conj())
                    + 0.75 * np.outer(v2, v2.conj()))
        assert np.max(np.abs(state.entries - expected)) < 1e-15

    @pytest.mark.parametrize("weights,vectors", [
        ([1.5, -0.5], [[1.0, 0.0], [0.0, 1.0]]),   # negative weight
        ([0.5, 0.4], [[1.0, 0.0], [0.0, 1.0]]),    # weights sum to 0.9
        ([0.5, 0.5], [[1.0, 0.0], [1.0, 1.0]]),    # second vector not unit
        ([1.0], [[1.0, 0.0], [0.0, 1.0]]),         # one weight, two vectors
        ([float("nan"), 1.0], [[1.0, 0.0], [0.0, 1.0]]),
        # each norm within NORM_ATOL of 1, the trace 1 + 1.8e-10 not
        ([0.5, 0.5], [[1.0 + 9e-11, 0.0], [0.0, 1.0 + 9e-11]]),
    ])
    def test_from_mixture_checks_its_inputs(self, weights, vectors):
        with pytest.raises(StateValidationError):
            DensityMatrix.from_mixture(weights, [np.array(v) for v in vectors])


class TestEnsembleMean:
    def test_singleton_partition_is_dephasing(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 5)
        mean = ensemble_mean(rho, singleton_partition(5))
        assert np.allclose(mean.entries, np.diag(np.diag(rho.entries)))

    def test_whole_partition_is_maximally_mixed(self):
        rng = np.random.default_rng(1)
        rho = random_density(rng, 6)
        mean = ensemble_mean(rho, whole_partition(6))
        assert np.allclose(mean.entries, np.eye(6) / 6.0)

    def test_block_weights_are_sector_traces(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 5)
        part = SectorPartition(5, np.array([0, 2]))
        mean = ensemble_mean(rho, part)
        t0 = np.trace(rho.entries[:2, :2]).real
        t1 = np.trace(rho.entries[2:, 2:]).real
        expected = np.diag([t0 / 2, t0 / 2, t1 / 3, t1 / 3, t1 / 3])
        assert np.allclose(mean.entries, expected)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 6)
        part = SectorPartition(6, np.array([0, 2, 3]))
        once = ensemble_mean(rho, part)
        twice = ensemble_mean(once, part)
        assert np.allclose(once.entries, twice.entries, atol=1e-14)

    def test_matches_monte_carlo_elementwise(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 5)
        part = SectorPartition(5, np.array([0, 2]))
        mean = ensemble_mean(rho, part)
        mc, se_re, se_im = estimate_state_mean(rho, part, n_samples=20_000, seed=17)
        assert np.all(np.abs(mc.real - mean.entries.real) <= 4.0 * se_re + 1e-12)
        assert np.all(np.abs(mc.imag - mean.entries.imag) <= 4.0 * se_im + 1e-12)

    def test_marginal_trace_renormalized(self):
        # trace off by 5e-11 passes the gate and the output is exactly valid
        m = np.diag([0.5 + 5e-11, 0.5]).astype(complex)
        mean = ensemble_mean(m, singleton_partition(2))
        assert abs(np.trace(mean.entries) - 1.0) < 1e-12

    def test_bad_trace_rejected(self):
        with pytest.raises(StateValidationError):
            ensemble_mean(np.eye(2, dtype=complex), whole_partition(2))

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(SectorError):
            ensemble_mean(random_density(rng, 4), whole_partition(5))

    @pytest.mark.parametrize("defect", ["NaN", "asymmetric"])
    def test_raw_non_hermitian_state_rejected(self, defect):
        # the diagonal alone has unit trace, so only the check of the whole
        # matrix can tell
        m = np.diag([0.5, 0.5]).astype(complex)
        if defect == "NaN":
            m[0, 1] = np.nan
            cause = "non-finite entry"
        else:
            m[0, 1] = 0.1
            cause = "not Hermitian"
        with pytest.raises(StateValidationError, match=cause):
            ensemble_mean(m, singleton_partition(2))

    def test_exactly_hermitian_raw_state_matches_typed(self):
        rng = np.random.default_rng(6)
        part = SectorPartition(5, np.array([0, 2]))
        rho = random_density(rng, 5)
        for state in (rho, random_mixture(rng, 5, 2, True)):
            assert np.array_equal(ensemble_mean(state.entries, part).entries,
                                  ensemble_mean(state, part).entries)


def partitions_of(dim, rng, count=3):
    """A few random partitions plus the two extremes."""
    out = [singleton_partition(dim), whole_partition(dim)]
    for _ in range(count):
        n_cuts = int(rng.integers(1, dim)) if dim > 1 else 0
        cuts = np.sort(rng.choice(np.arange(1, dim), size=n_cuts, replace=False)) \
            if n_cuts else np.array([], dtype=np.int64)
        out.append(SectorPartition(dim, np.concatenate(([0], cuts)).astype(np.int64)))
    return out


def per_block_sums(m, partition):
    """Block sums of m by a loop over pairs of sectors."""
    slices = sector_slices(partition)
    return np.array([[m[si, sj].sum() for sj in slices] for si in slices])


def tiled_pass_against_a_per_block_loop(rho, a, b, partition):
    """`_exchange_sum` of the pairs that `_pair_traces` gives against the
    per-block sums R2 of |rho|^2 and M of A o conj(B): their diagonals, and
    sum_{i != j} s_i s_j R2_ij M_ij with random weights s."""
    s = np.random.default_rng(33).uniform(0.5, 2.0, size=partition.n_sectors)
    pairs = [_pair_traces(x, y, partition.starts)[2]
             for x, y in ((rho, rho), (a, b))]
    got_r2, got_m, got = _exchange_sum(*pairs, partition, s)
    r, am, bm = (x.dense() if isinstance(x, PairOperator) else x.entries
                 for x in (rho, a, b))
    r2 = per_block_sums(np.abs(r)**2, partition)
    m = per_block_sums(am * bm.conj(), partition)
    terms = np.outer(s, s) * r2 * m
    np.fill_diagonal(terms, 0.0)
    assert np.allclose(got_r2, np.diagonal(r2), rtol=1e-12, atol=1e-15)
    assert np.allclose(got_m, np.diagonal(m), rtol=1e-12, atol=1e-12)
    assert abs(got - terms.sum()) <= 1e-12 * np.sum(np.abs(terms))


def real_or_complex(rng, dim, complex_data):
    g = rng.normal(size=(dim, dim))
    return g + 1j * rng.normal(size=(dim, dim)) if complex_data else g


def operands(rng, dim, complex_data, factored_state, pair_observables):
    """A state and two observables, real or complex: the state dense or
    kept as factors, the observables dense or PairOperators."""
    if factored_state:
        rho = random_mixture(rng, dim, 2, complex_data)
    else:
        g = real_or_complex(rng, dim, complex_data)
        rho = DensityMatrix(g @ g.conj().T / np.sum(np.abs(g)**2))
    if pair_observables:
        return (rho, random_pair(rng, dim, complex_data),
                random_pair(rng, dim, complex_data))
    g, h = (real_or_complex(rng, dim, complex_data) for _ in range(2))
    return (rho, HermitianOperator((g + g.conj().T) / 2),
            HermitianOperator((h + h.conj().T) / 2))


class TestBlockSums:
    """The tiled pass of the moments: rows of block sums formed a tile of
    whole sectors at a time (`_block_rows`), contracted by `_exchange_sum`."""

    def test_singleton_blocks_are_the_input(self):
        rng = np.random.default_rng(30)
        x, y = rng.normal(size=(2, 5, 5))
        rows = _block_rows(x, y, singleton_partition(5).starts, 1, 3)
        assert np.array_equal(rows, x[1:3] * y[1:3])

    def test_mixed_partition_matches_a_per_block_loop(self):
        rng = np.random.default_rng(31)
        part = SectorPartition(7, np.array([0, 1, 4, 5]))
        x, y = (rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
                for _ in range(2))
        want = per_block_sums(x * y.conj(), part)
        for i in range(4):
            for j in range(i + 1, 5):
                assert np.allclose(_block_rows(x, y, part.starts, i, j),
                                   want[i:j], rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("sizes", [(1,) * 150, (3,) * 50, (150,)])
    def test_every_sector_size_matches_a_per_block_loop(self, sizes):
        rng = np.random.default_rng(32)
        starts = np.cumsum((0,) + sizes[:-1])
        part = SectorPartition(150, starts)
        tiled_pass_against_a_per_block_loop(
            *operands(rng, 150, False, False, False), part)

    @pytest.mark.parametrize("pair_observables", [False, True])
    @pytest.mark.parametrize("factored_state", [False, True])
    @pytest.mark.parametrize("complex_data", [False, True])
    def test_sectors_straddling_the_tile_height(self, complex_data,
                                                factored_state,
                                                pair_observables):
        # sectors just below, at and above the tile height, two taller
        # than a tile, and single levels on either side of them
        k = MOMENT_TILE
        sizes = (1, k - 2, 3, k, k + 1, 1, 1, 20, k // 2 + 1, 2 * k + 3, 5)
        part = SectorPartition(sum(sizes), np.cumsum((0,) + sizes[:-1]))
        rng = np.random.default_rng(34)
        tiled_pass_against_a_per_block_loop(
            *operands(rng, part.dim, complex_data, factored_state,
                      pair_observables), part)


class TestSecondMoment:
    def test_agrees_with_dense_reference(self):
        rng = np.random.default_rng(6)
        for dim in (2, 3, 5, 8, 12):
            for part in partitions_of(dim, rng):
                rho = random_density(rng, dim)
                a = random_hermitian(rng, dim)
                b = random_hermitian(rng, dim)
                pred = second_moment_expectation(rho, part, a, b).second_moment
                ref = contract_with_pair(dense_second_moment_reference(rho, part), a, b)
                assert pred == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_singleton_hand_formula(self):
        rng = np.random.default_rng(7)
        for dim in (2, 4, 7):
            rho = random_density(rng, dim)
            a = random_hermitian(rng, dim)
            b = random_hermitian(rng, dim)
            pred = second_moment_expectation(
                rho, singleton_partition(dim), a, b).second_moment
            assert pred == pytest.approx(singleton_oracle(rho, a, b), rel=1e-12)

    def test_agrees_with_monte_carlo(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, 5)
        part = SectorPartition(5, np.array([0, 2]))
        a = random_hermitian(rng, 5)
        b = random_hermitian(rng, 5)
        pred = second_moment_expectation(rho, part, a, b).second_moment
        est = estimate_moments(rho, part, [a, b], order=2,
                               n_samples=100_000, seed=23)[0]
        assert abs(est.value - pred) <= 4.0 * est.std_error

    @pytest.mark.parametrize("factored", [True, False])
    def test_connected_part_of_a_large_mean(self, factored):
        # means near 7 and a connected part near 2e-8: a connected part
        # formed as the second moment minus mean_a mean_b loses about 9 of
        # its digits
        rng = np.random.default_rng(21)
        d = 40
        psi = random_pure(rng, d, complex_data=False)
        x = rng.normal(size=(d, d))
        x = x + x.T
        np.fill_diagonal(x, 0.0)
        a = np.diag(rng.uniform(5.0, 10.0, size=d)) + 1e-4 * x
        rho = (DensityMatrix.from_state_vector(psi) if factored
               else np.outer(psi, psi))
        pred = second_moment_expectation(rho, singleton_partition(d), a, a)
        w = psi**2
        want = sum(w[i] * w[j] * a[i, j]**2
                   for i in range(d) for j in range(d) if i != j)
        assert pred.connected == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_pure_state_whole_space_closed_form(self):
        # rank-one input and one sector: E = (tr A tr B + tr(AB)) / d(d+1)
        rng = np.random.default_rng(9)
        d = 6
        rho = DensityMatrix.from_state_vector(random_pure(rng, d))
        a = random_hermitian(rng, d)
        b = random_hermitian(rng, d)
        pred = second_moment_expectation(rho, whole_partition(d), a, b)
        expected = (np.trace(a.entries) * np.trace(b.entries)
                    + np.trace(a.entries @ b.entries)).real / (d * (d + 1))
        assert pred.second_moment == pytest.approx(float(expected), rel=1e-12)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(10)
        rho = random_density(rng, 6)
        part = SectorPartition(6, np.array([0, 3]))
        pred = second_moment_expectation(rho, part,
                                         random_hermitian(rng, 6),
                                         random_hermitian(rng, 6))
        assert pred.second_moment == pred.mean_a * pred.mean_b + pred.connected

    def test_conserved_observable_does_not_fluctuate(self):
        # block-scalar observables commute with every sector rotation
        rng = np.random.default_rng(11)
        part = SectorPartition(6, np.array([0, 2, 5]))
        weights = np.repeat([0.7, -1.3, 2.0], part.sizes)
        a = np.diag(weights).astype(complex)
        rho = random_density(rng, 6)
        pred = second_moment_expectation(rho, part, a, a)
        assert abs(pred.connected) < 1e-13

    def test_invariant_under_block_rotation_of_state(self):
        rng = np.random.default_rng(12)
        d = 7
        part = SectorPartition(d, np.array([0, 3, 5]))
        rho = random_density(rng, d)
        a = random_hermitian(rng, d)
        b = random_hermitian(rng, d)
        u = sample_block_unitary(part, seed=99)
        rotated = DensityMatrix(block_conjugate(u, rho.entries))
        p1 = second_moment_expectation(rho, part, a, b)
        p2 = second_moment_expectation(rotated, part, a, b)
        assert p2.second_moment == pytest.approx(p1.second_moment, rel=1e-10)
        assert p2.mean_a == pytest.approx(p1.mean_a, rel=1e-10)

    def test_one_dimensional_space_is_deterministic(self):
        rho = DensityMatrix(np.eye(1, dtype=complex))
        a = random_hermitian(np.random.default_rng(13), 1)
        pred = second_moment_expectation(rho, whole_partition(1), a, a)
        assert pred.connected == pytest.approx(0.0, abs=1e-14)
        assert pred.second_moment == pytest.approx(pred.mean_a ** 2)

    def test_trace_gate(self):
        part = whole_partition(3)
        a = random_hermitian(np.random.default_rng(15), 3)
        with pytest.raises(StateValidationError):
            second_moment_expectation(np.eye(3, dtype=complex) / 2.9, part, a, a)

    @given(seed=st.integers(0, 10_000))
    @settings(deadline=None, max_examples=25)
    def test_self_moment_bounds_variance(self, seed):
        # E[x^2] >= E[x]^2 must hold for any state/observable/partition
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        part = partitions_of(dim, rng, count=1)[-1]
        pred = second_moment_expectation(random_density(rng, dim), part,
                                         *(random_hermitian(rng, dim),) * 2)
        assert pred.connected >= -1e-11


def transposed_second_moment(rho, part, a, b):
    """The contraction with the pair traces read against transposes,
    R2 = block sums of rho o rho^T and M = block sums of A o B^T, and the
    pair sums formed as outer products with the diagonal zeroed."""
    starts, d = part.starts, part.sizes.astype(float)

    def block_sums(m):
        return np.add.reduceat(np.add.reduceat(m, starts, axis=0), starts, axis=1)

    t = np.add.reduceat(np.diagonal(rho), starts).real
    a_tr = np.add.reduceat(np.diagonal(a), starts)
    b_tr = np.add.reduceat(np.diagonal(b), starts)
    r2 = block_sums((rho * rho.T).real)
    ab = block_sums(a * b.T)
    p, p_ab = np.diagonal(r2), np.diagonal(ab)
    ab_diag = a_tr * b_tr
    sym = (t**2 + p) / (d * (d + 1.0)) * 0.5 * (ab_diag + p_ab)
    big = d >= 2
    anti = np.zeros_like(sym)
    anti[big] = ((t[big]**2 - p[big]) / (d[big] * (d[big] - 1.0))
                 * 0.5 * (ab_diag[big] - p_ab[big]))
    direct = np.outer(t * a_tr / d, t * b_tr / d)
    np.fill_diagonal(direct, 0.0)
    exchange = r2 * ab.T / np.outer(d, d)
    np.fill_diagonal(exchange, 0.0)
    second = (sym.sum() + anti.sum() + direct.sum() + exchange.sum()).real
    return float(np.sum(t * a_tr.real / d)), float(second)


class TestHermitianPairTraces:
    def test_matches_transposed_formulas_for_complex_inputs(self):
        rng = np.random.default_rng(300)
        d = 300
        sizes = rng.integers(1, 12, size=d)
        starts = np.cumsum(np.concatenate(([0], sizes)))
        part = SectorPartition(d, starts[starts < d])
        assert part.sizes.max() > 1 and part.n_sectors > 1
        rho = random_density(rng, d, rank=3)
        a, b = random_hermitian(rng, d), random_hermitian(rng, d)
        pred = second_moment_expectation(rho, part, a, b)
        mean_a, second = transposed_second_moment(rho.entries, part,
                                                  a.entries, b.entries)
        assert pred.mean_a == pytest.approx(mean_a, rel=1e-12)
        assert pred.second_moment == pytest.approx(second, rel=1e-12)

    @pytest.mark.parametrize("which", ["rho", "a", "b"])
    def test_raw_non_hermitian_input_rejected(self, which):
        rng = np.random.default_rng(301)
        d = 5
        inputs = {"rho": np.eye(d) / d, "a": np.diag(rng.normal(size=d)),
                  "b": np.diag(rng.normal(size=d))}
        inputs[which] = inputs[which].astype(complex)
        inputs[which][0, 3] += 1e-6j  # no conjugate partner
        with pytest.raises(StateValidationError, match="not Hermitian"):
            second_moment_expectation(inputs["rho"],
                                      SectorPartition(d, np.array([0, 2])),
                                      inputs["a"], inputs["b"])


class TestPairOperatorMoments:
    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 12), rank=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), complex_data=st.booleans(),
           equal_vectors=st.booleans(), same_observable=st.booleans())
    def test_matches_the_dense_operators(self, dim, rank, seed, complex_data,
                                         equal_vectors, same_observable):
        rng = np.random.default_rng(seed)
        rho = random_mixture(rng, dim, rank, complex_data)
        a = random_pair(rng, dim, complex_data, equal_vectors)
        b = a if same_observable else random_pair(rng, dim, complex_data)
        for part in partitions_of(dim, rng, count=1):  # singletons, whole, mixed
            got = second_moment_expectation(rho, part, a, b)
            want = second_moment_expectation(rho, part, a.dense(), b.dense())
            for field in ("mean_a", "mean_b", "second_moment"):
                assert getattr(got, field) == pytest.approx(
                    getattr(want, field), rel=1e-12, abs=1e-15)

    def test_one_pair_and_one_dense_operator(self):
        rng = np.random.default_rng(310)
        rho = random_mixture(rng, 7, 2, True)
        a, b = random_pair(rng, 7, True), random_hermitian(rng, 7)
        part = SectorPartition(7, np.array([0, 2, 3]))
        got = second_moment_expectation(rho, part, a, b)
        want = second_moment_expectation(rho, part, a.dense(), b)
        assert got == want

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(311)
        rho = random_mixture(rng, 5, 1, False)
        a = random_pair(rng, 4, False)
        with pytest.raises(SectorError):
            second_moment_expectation(rho, whole_partition(5), a, a)


def random_observable(rng, dim, complex_data, pair):
    """A PairOperator, or a dense Hermitian array, real or complex."""
    if pair:
        return random_pair(rng, dim, complex_data)
    g = rng.normal(size=(dim, dim))
    if complex_data:
        g = g + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


class TestFactoredStateMoments:
    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 12), rank=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), complex_data=st.booleans(),
           pairs=st.sampled_from([(False, False), (True, True), (True, False)]))
    def test_matches_the_dense_state(self, dim, rank, seed, complex_data, pairs):
        # R2 from the factors against R2 from the formed matrix, with dense,
        # pair and mixed observables
        rng = np.random.default_rng(seed)
        rho = random_mixture(rng, dim, rank, complex_data)
        a, b = (random_observable(rng, dim, complex_data, pair) for pair in pairs)
        dense_rho = rho.entries.copy()  # a raw array: no factors
        for part in partitions_of(dim, rng, count=1):  # singletons, whole, mixed
            got = second_moment_expectation(rho, part, a, b)
            want = second_moment_expectation(dense_rho, part, a, b)
            for field in ("mean_a", "mean_b", "second_moment"):
                assert getattr(got, field) == pytest.approx(
                    getattr(want, field), rel=1e-12, abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(312)
        rho = random_mixture(rng, 5, 2, True)
        a = random_pair(rng, 5, True)
        with pytest.raises(SectorError):
            second_moment_expectation(rho, whole_partition(4), a, a)

    def test_non_finite_moment_rejected(self):
        rho = DensityMatrix.from_state_vector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        huge = np.array([[1e200, 0.0], [0.0, -1e200]])
        # the squared entries overflow on the way, as they should
        with (pytest.warns(RuntimeWarning, match="overflow"),
              pytest.raises(NumericalIntegrityError, match="not finite")):
            second_moment_expectation(rho, whole_partition(2), huge, huge)


class TestDenseReference:
    def test_total_trace_is_one(self):
        rng = np.random.default_rng(16)
        for dim, starts in ((4, [0, 2]), (5, [0, 1, 2, 3, 4]), (3, [0])):
            part = SectorPartition(dim, np.asarray(starts, dtype=np.int64))
            dense = dense_second_moment_reference(random_density(rng, dim), part)
            assert np.trace(dense).real == pytest.approx(1.0, abs=1e-12)

    def test_partial_trace_recovers_mean(self):
        rng = np.random.default_rng(17)
        d = 5
        part = SectorPartition(d, np.array([0, 2]))
        rho = random_density(rng, d)
        dense = dense_second_moment_reference(rho, part).reshape(d, d, d, d)
        first = np.einsum("abcb->ac", dense)
        second = np.einsum("abad->bd", dense)
        mean = ensemble_mean(rho, part).entries
        assert np.max(np.abs(first - mean)) < 1e-12
        assert np.max(np.abs(second - mean)) < 1e-12

    def test_dimension_guard(self):
        rng = np.random.default_rng(18)
        with pytest.raises(ValueError):
            dense_second_moment_reference(random_density(rng, 65),
                                          whole_partition(65))


class TestCatVarianceClosedForm:
    def test_matches_contraction_for_disjoint_support(self):
        # with disjoint eigenstate supports the quartic formula is exact:
        # compare against the full contraction for the cat state
        rng = np.random.default_rng(19)
        d, k = 9, 4
        v1 = np.zeros(d, dtype=complex)
        v2 = np.zeros(d, dtype=complex)
        v1[:k] = random_pure(rng, k)
        v2[k:] = random_pure(rng, d - k)
        cat = (v1 + v2) / np.sqrt(2.0)
        rho = DensityMatrix.from_state_vector(cat)
        q = np.outer(v1, v2.conj())
        q = q + q.conj().T
        pred = second_moment_expectation(rho, singleton_partition(d), q, q)
        closed = cat_q_variance_closed_form(v1, v2)
        assert closed == pytest.approx(pred.connected, rel=1e-12)
        assert pred.mean_a == pytest.approx(0.0, abs=1e-14)

    def test_brute_force_quartic_sum(self):
        rng = np.random.default_rng(20)
        d, k = 7, 3
        v1 = np.zeros(d, dtype=complex)
        v2 = np.zeros(d, dtype=complex)
        v1[:k] = random_pure(rng, k)
        v2[k:] = random_pure(rng, d - k)
        w = np.outer(v1, v2.conj()) + np.outer(v2, v1.conj())
        brute = 0.25 * sum(abs(w[i, j]) ** 4
                           for i in range(d) for j in range(d) if i != j)
        assert cat_q_variance_closed_form(v1, v2) == pytest.approx(brute, rel=1e-13)

    def test_basis_vector_pair_gives_half(self):
        v1 = np.zeros(5, dtype=complex); v1[0] = 1.0
        v2 = np.zeros(5, dtype=complex); v2[3] = 1.0
        assert cat_q_variance_closed_form(v1, v2) == pytest.approx(0.5)

    def test_shared_support_rejected(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        with pytest.raises(StateValidationError, match="shared"):
            cat_q_variance_closed_form(v, v)

    def test_threshold_constant_respected(self, monkeypatch):
        rng = np.random.default_rng(21)
        v1 = random_pure(rng, 4)
        v2 = random_pure(rng, 4)
        assert float(np.sum(np.abs(v1 * v2))) > 0.2
        monkeypatch.setattr(ergodic_ensemble, "SHARED_SUPPORT_THRESHOLD", 2.0)
        cat_q_variance_closed_form(v1, v2)  # no raise
        monkeypatch.setattr(ergodic_ensemble, "SHARED_SUPPORT_THRESHOLD", 0.1)
        with pytest.raises(StateValidationError):
            cat_q_variance_closed_form(v1, v2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(StateValidationError):
            cat_q_variance_closed_form(np.zeros(3), np.zeros(4))

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           complex_data=st.booleans(), disjoint=st.booleans())
    def test_matches_the_literal_quartic_sum(self, dim, seed, complex_data,
                                             disjoint):
        rng = np.random.default_rng(seed)
        v1 = random_pure(rng, dim, complex_data)
        v2 = random_pure(rng, dim, complex_data)
        if disjoint and dim > 1:
            k = int(rng.integers(1, dim))
            v1[k:] = 0.0
            v2[:k] = 0.0
            v1, v2 = v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)
        want = quartic_overlap_reference(v1, v2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ergodic_ensemble, "SHARED_SUPPORT_THRESHOLD", np.inf)
            got = cat_q_variance_closed_form(v1, v2)
        # the O(d) form sums 16 Gram terms of at most |v1|^4 |v2|^4 = 1
        # each, so it rounds at that scale even where the result cancels
        # to 0 (d = 1): abs is 1e-15 of 16
        assert got == pytest.approx(want, rel=1e-13, abs=1.6e-14)

    def test_nan_overlap_rejected(self):
        v = np.array([np.nan, 1.0])
        with pytest.raises(StateValidationError, match="shared"):
            cat_q_variance_closed_form(v, v)
