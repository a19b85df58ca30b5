"""Sampling correctness of the block-unitary oracle.

Where possible the expected values come from quadrature or combinatorics
computed inside the test (Euler-angle integral for d=2, Beta-moment
factorials for higher powers), never from the module under test.
"""

import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergoquench.ergodic_ensemble import DensityMatrix
from ergoquench.errors import StateValidationError
from ergoquench.experiment import (ExperimentConfig, prepare_protocol_state,
                                   prepare_quench)
from ergoquench import haar_oracle
from ergoquench.haar_oracle import (DEFAULT_CHUNK, _ginibre_entries,
                                    _group_unitaries, _size_groups,
                                    estimate_moments, estimate_state_mean,
                                    sample_traces, summarize)
from ergoquench.spectral import SectorPartition
from ergoquench.spin_chain import HermitianOperator

from conftest import (block_conjugate, block_matrix, random_density,
                      random_hermitian, random_mixture, random_pair,
                      random_pure)
from dense_reference import (BlockUnitary, dense_state_mean,
                             dense_trace_values, sample_block_unitary)


def haar_first_entry_power(d, k):
    """E[|U_00|^(2k)] for Haar U(d): the squared entry is Beta(1, d-1),
    so the moment is k! (d-1)! / (d-1+k)!."""
    return math.factorial(k) * math.factorial(d - 1) / math.factorial(d - 1 + k)


class TestSampling:
    def test_blocks_are_unitary(self):
        part = SectorPartition(9, np.array([0, 2, 5]))
        u = sample_block_unitary(part, seed=0)
        assert u.max_unitarity_defect() < 1e-12

    def test_full_matrix_is_block_diagonal_and_unitary(self):
        part = SectorPartition(6, np.array([0, 2]))
        m = block_matrix(sample_block_unitary(part, seed=1))
        assert np.max(np.abs(m @ m.conj().T - np.eye(6))) < 1e-12
        assert np.all(m[:2, 2:] == 0.0) and np.all(m[2:, :2] == 0.0)

    def test_same_stream_reproduces_exactly(self):
        part = SectorPartition(5, np.array([0, 3]))
        u1 = sample_block_unitary(part, seed=7, sample_index=4)
        u2 = sample_block_unitary(part, seed=7, sample_index=4)
        for b1, b2 in zip(u1.blocks, u2.blocks):
            assert np.array_equal(b1, b2)

    def test_different_indices_differ(self):
        part = SectorPartition.whole(4)
        u1 = sample_block_unitary(part, seed=7, sample_index=0)
        u2 = sample_block_unitary(part, seed=7, sample_index=1)
        assert not np.allclose(u1.blocks[0], u2.blocks[0])

    def test_conjugate_matches_dense_sandwich(self):
        rng = np.random.default_rng(2)
        part = SectorPartition(7, np.array([0, 3, 5]))
        u = sample_block_unitary(part, seed=3)
        m = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        dense = block_matrix(u)
        assert np.max(np.abs(block_conjugate(u, m) - dense @ m @ dense.conj().T)) < 1e-12

    def test_global_phase_cancels_in_conjugation(self):
        part = SectorPartition(5, np.array([0, 2]))
        u = sample_block_unitary(part, seed=5)
        phased = BlockUnitary(part, tuple(np.exp(0.7j) * b for b in u.blocks))
        rng = np.random.default_rng(6)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        assert np.max(np.abs(block_conjugate(phased, m)
                             - block_conjugate(u, m))) < 1e-13


class TestStream:
    # a sample takes two words per entry, padded to whole blocks of 4:
    # (1,) has 1 entry (2 words, padded to 4), (1, 2) has 1 + 3 (8 words),
    # and the last partition draws blocks of 1, 2, 13 and 57 levels (the
    # largest energy shells of width 0.2 and 1.0 at L = 12) out of order
    @pytest.mark.parametrize("sizes", [
        (1,), (1, 2), (2, 1, 57, 2, 13, 1)])
    def test_chunks_match_single_samples_bit_for_bit(self, sizes):
        part = SectorPartition(sum(sizes), np.cumsum((0,) + sizes[:-1]))
        groups, _, n_entries = _size_groups(part)
        first = _group_unitaries(groups, n_entries, 9, 0, 3)
        second = _group_unitaries(groups, n_entries, 9, 3, 4)
        for k in range(7):
            single = sample_block_unitary(part, seed=9, sample_index=k).blocks
            chunk, j = (first, k) if k < 3 else (second, k - 3)
            for grp, stack in zip(groups, chunk):
                for pos, i in enumerate(grp.sectors):
                    assert np.array_equal(stack[j, pos], single[i])

    # blocks of 1, 2 and 3 levels, sizes 1 and 2 twice, drawn in chunks of
    # 2 so that the second chunk starts at sample 2: the seed's stream,
    # split into blocks as `_size_groups` lays it out
    PINNED = {
        "dense": ([0.5271083972527697, 0.7356440663962436, 0.45759703869973833],
                  [0.03350419935761351, 0.05158779126050488,
                   0.040266420588870686]),
        "factored": ([-0.17617917794909194, -0.057239139617805496,
                      -0.4908856115773296],
                     [-0.06344921344172334, -0.26058587775522607,
                      -0.09445397106734063]),
    }

    @pytest.mark.parametrize("state", ["dense", "factored"])
    def test_sample_traces_are_pinned(self, state, monkeypatch):
        # a change of which entries feed which block, or of the order of
        # the samples, changes these values, although every chunk would
        # still agree with the single draws
        sizes = (2, 1, 3, 2, 1)
        part = SectorPartition(sum(sizes), np.cumsum((0,) + sizes[:-1]))
        monkeypatch.setattr(haar_oracle, "DEFAULT_CHUNK", 2)
        rng = np.random.default_rng(31)
        rho = (random_density(rng, 9) if state == "dense"
               else random_mixture(rng, 9, 2, True))
        observables = [random_hermitian(rng, 9), random_pair(rng, 9, True)]
        got = sample_traces(rho, part, observables, 3, seed=2024)
        for values, want in zip(got, self.PINNED[state]):
            assert values == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_singleton_draws_are_the_phases_of_their_entries(self):
        groups, _, n_entries = _size_groups(SectorPartition.singletons(6))
        for first, count in ((5, 4), (2, 1)):
            stack, = _group_unitaries(groups, n_entries, 9, first, count)
            g = _ginibre_entries(9, first, count, 6)
            assert np.array_equal(stack.reshape(count, 6), g / np.abs(g))

    def test_zero_entries_give_unitary_draws(self, monkeypatch):
        # an entry is exactly 0 when its radius word is 0 (chance 2^-53)
        sizes = (1, 2, 13)
        part = SectorPartition(sum(sizes), np.cumsum((0,) + sizes[:-1]))
        groups, _, n_entries = _size_groups(part)

        def triangle_columns(offset, d):
            starts = [offset + k * d - k * (k - 1) // 2 for k in range(d + 1)]
            return [list(range(a, b)) for a, b in zip(starts, starts[1:])]

        columns = (triangle_columns(0, 1) + triangle_columns(1, 2)
                   + triangle_columns(4, 13))
        assert n_entries == 4 + 13 * 14 // 2
        zeros = [
            # the first entry of every column: x_0 = 0, and the singleton
            [c[0] for c in columns],
            # every other column all zero
            sum(columns[::2], []),
            list(range(n_entries)),
        ]
        draw = haar_oracle._ginibre_entries

        def with_zeros(seed, first_index, count, n):
            g = draw(seed, first_index, count, n)
            for k in range(first_index, min(first_index + count, len(zeros))):
                g[k - first_index, zeros[k]] = 0.0
            return g

        monkeypatch.setattr(haar_oracle, "_ginibre_entries", with_zeros)
        for stack in _group_unitaries(groups, n_entries, 3, 0, len(zeros)):
            assert np.all(np.isfinite(stack))
            eye = np.eye(stack.shape[-1])
            assert np.max(np.abs(stack @ stack.conj().swapaxes(-1, -2)
                                 - eye)) < 1e-12
        for k in range(len(zeros)):
            u = sample_block_unitary(part, seed=3, sample_index=k)
            assert all(np.all(np.isfinite(b)) for b in u.blocks)
            assert u.max_unitarity_defect() < 1e-12

    def test_different_seeds_differ(self):
        part = SectorPartition(3, np.array([0, 1]))
        groups, _, n_entries = _size_groups(part)
        for stack, other in zip(_group_unitaries(groups, n_entries, 4, 0, 2),
                                _group_unitaries(groups, n_entries, 5, 0, 2)):
            assert not np.allclose(stack[..., 0, 0], other[..., 0, 0])

    def test_normals_have_gaussian_moments(self):
        # sqrt(2) Re g and sqrt(2) Im g are standard normals; 1e5 of them
        # give standard errors 1/sqrt(n), sqrt(2/n) and sqrt(96/n) for the
        # mean, the variance and the fourth moment (E z^8 = 105)
        g = _ginibre_entries(17, 0, 10_000, 5)
        z = np.sqrt(2.0) * np.concatenate([g.real.ravel(), g.imag.ravel()])
        n = z.size
        assert n == 100_000
        assert abs(z.mean()) <= 5.0 / np.sqrt(n)
        assert abs(np.mean(z**2) - 1.0) <= 5.0 * np.sqrt(2.0 / n)
        assert abs(np.mean(z**4) - 3.0) <= 5.0 * np.sqrt(96.0 / n)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_accepted(self, seed):
        u = sample_block_unitary(SectorPartition.whole(2), seed=seed)
        assert u.max_unitarity_defect() < 1e-12

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.0, "3"])
    def test_seed_outside_range_rejected(self, seed):
        part = SectorPartition.whole(2)
        with pytest.raises(ValueError, match="seed"):
            sample_block_unitary(part, seed=seed)
        with pytest.raises(ValueError, match="seed"):
            estimate_moments(np.eye(2) / 2.0, part, [np.eye(2)], order=1,
                             n_samples=4, seed=seed)


class TestFirstEntryMoment:
    def test_d2_against_euler_angle_quadrature(self):
        # for U(2), |U_00|^2 = cos^2(theta) with density sin(2 theta) on
        # [0, pi/2]; integrate numerically and compare with sampling
        theta = np.linspace(0.0, np.pi / 2.0, 20_001)
        quad = np.trapezoid(np.cos(theta) ** 2 * np.sin(2.0 * theta), theta)
        assert quad == pytest.approx(haar_first_entry_power(2, 1), abs=1e-8)

        part = SectorPartition.whole(2)
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        proj = np.diag([1.0, 0.0]).astype(complex)
        est = estimate_moments(rho, part, [proj], order=1,
                               n_samples=40_000, seed=11)[0]
        assert abs(est.value - quad) <= 4.0 * est.std_error

    def test_d3_mean_is_one_third(self):
        part = SectorPartition.whole(3)
        rho = DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
        proj = np.diag([1.0, 0.0, 0.0]).astype(complex)
        est = estimate_moments(rho, part, [proj], order=1,
                               n_samples=40_000, seed=12)[0]
        assert abs(est.value - 1.0 / 3.0) <= 4.0 * est.std_error

    def test_fourth_power_beta_moment(self):
        # tr(sigma P)^4 for a rank-one state is |U_00|^8, whose Haar mean
        # is 4! 2! / 6! = 1/15 at d=3
        assert haar_first_entry_power(3, 4) == pytest.approx(1.0 / 15.0)
        part = SectorPartition.whole(3)
        rho = DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
        proj = np.diag([1.0, 0.0, 0.0]).astype(complex)
        est = estimate_moments(rho, part, [proj] * 4, order=4,
                               n_samples=30_000, seed=13)[0]
        assert abs(est.value - 1.0 / 15.0) <= 4.0 * est.std_error

    @pytest.mark.parametrize("level", ["first", "last"])
    @pytest.mark.parametrize("d", [2, 13, 32])
    def test_diagonal_entry_powers(self, d, level):
        # U_00 of a reflector product is its first Gaussian column
        # normalized, so the last level, reached through every reflector,
        # is checked too: each |U_jj|^2 is Beta(1, d - 1)
        j = 0 if level == "first" else d - 1
        proj = np.zeros((d, d))
        proj[j, j] = 1.0
        values, = sample_traces(DensityMatrix(proj.astype(complex)),
                                SectorPartition.whole(d), [proj],
                                n_samples=4000, seed=14)
        for k in (1, 2, 3):
            est = summarize(values ** k)
            assert abs(est.value - haar_first_entry_power(d, k)) \
                <= 4.0 * est.std_error


class TestEstimateMoments:
    def test_identity_observable_is_exact(self):
        rng = np.random.default_rng(3)
        part = SectorPartition(4, np.array([0, 2]))
        est = estimate_moments(random_density(rng, 4), part,
                               [np.eye(4, dtype=complex)], order=1,
                               n_samples=500, seed=0)[0]
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.std_error < 1e-12

    def test_singleton_partition_diagonal_observable_is_exact(self):
        # phases leave the diagonal untouched, so every sample lands on the
        # dephased value with zero scatter
        rng = np.random.default_rng(4)
        rho = random_density(rng, 5)
        a = np.diag(rng.normal(size=5)).astype(complex)
        est = estimate_moments(rho, SectorPartition.singletons(5), [a],
                               order=1, n_samples=200, seed=1)[0]
        expected = float(np.sum(np.diag(rho.entries).real * np.diag(a).real))
        assert est.value == pytest.approx(expected, abs=1e-12)
        assert est.std_error < 1e-12

    def test_chunk_size_does_not_change_the_stream(self, monkeypatch):
        rng = np.random.default_rng(5)
        part = SectorPartition(5, np.array([0, 2]))
        rho = random_density(rng, 5)
        a = random_hermitian(rng, 5)
        monkeypatch.setattr(haar_oracle, "DEFAULT_CHUNK", 7)
        e1 = estimate_moments(rho, part, [a], order=1, n_samples=300,
                              seed=2)[0]
        monkeypatch.setattr(haar_oracle, "DEFAULT_CHUNK", 300)
        e2 = estimate_moments(rho, part, [a], order=1, n_samples=300,
                              seed=2)[0]
        assert e1.value == e2.value and e1.std_error == e2.std_error

    def test_real_state_matches_its_complex_cast(self):
        # a real rho must not lose the imaginary part of U rho U^dag
        rng = np.random.default_rng(12)
        part = SectorPartition(4, np.array([0, 1]))
        g = rng.normal(size=(4, 4))
        m = g @ g.T
        rho = DensityMatrix(m / np.trace(m))
        assert rho.entries.dtype == np.float64
        a = random_hermitian(rng, 4)
        as_complex = rho.entries.astype(complex)
        got = estimate_moments(rho, part, [a, a], order=2, n_samples=64, seed=1)
        want = estimate_moments(as_complex, part, [a, a], order=2,
                                n_samples=64, seed=1)
        assert got == want
        mean, se_re, se_im = estimate_state_mean(rho, part, n_samples=64, seed=1)
        assert mean.dtype == np.complex128 and np.any(se_im > 0.0)
        for x, y in zip((mean, se_re, se_im),
                        estimate_state_mean(as_complex, part, n_samples=64, seed=1)):
            assert np.array_equal(x, y)

    def test_std_error_scales_as_root_n(self):
        rng = np.random.default_rng(6)
        part = SectorPartition.whole(4)
        rho = DensityMatrix.from_state_vector(random_pure(rng, 4))
        a = random_hermitian(rng, 4)
        small = estimate_moments(rho, part, [a], order=1,
                                 n_samples=4_000, seed=3)[0]
        large = estimate_moments(rho, part, [a], order=1,
                                 n_samples=16_000, seed=3)[0]
        assert small.std_error / large.std_error == pytest.approx(2.0, rel=0.2)

    def test_order_one_returns_per_observable(self):
        rng = np.random.default_rng(7)
        part = SectorPartition.whole(3)
        rho = random_density(rng, 3)
        ests = estimate_moments(rho, part,
                                [random_hermitian(rng, 3) for _ in range(3)],
                                order=1, n_samples=100, seed=4)
        assert len(ests) == 3

    @pytest.mark.parametrize("defect", ["asymmetric", "NaN"])
    @pytest.mark.parametrize("which", ["rho", "a", "b"])
    def test_raw_non_hermitian_operand_rejected(self, which, defect):
        # the operands second_moment_expectation rejects, rejected alike
        rng = np.random.default_rng(25)
        d = 5
        part = SectorPartition(d, np.array([0, 2]))
        inputs = {"rho": np.eye(d) / d, "a": np.diag(rng.normal(size=d)),
                  "b": np.diag(rng.normal(size=d))}
        bad = inputs[which] = inputs[which].astype(complex)
        if defect == "NaN":
            bad[0, 3] = bad[3, 0] = np.nan
        else:
            bad[0, 3] += 1e-6j  # no conjugate partner
        rho, a, b = inputs["rho"], inputs["a"], inputs["b"]
        calls = [lambda: estimate_moments(rho, part, [a, b], order=1,
                                          n_samples=10, seed=0),
                 lambda: estimate_moments(rho, part, [a, b], order=2,
                                          n_samples=10, seed=0),
                 lambda: sample_traces(rho, part, [a, b], 10, 0)]
        if which == "rho":
            calls.append(lambda: estimate_state_mean(rho, part, 10, 0))
        for call in calls:
            with pytest.raises(StateValidationError, match="not Hermitian"):
                call()

    def test_typed_and_exactly_hermitian_raw_operands_accepted(self):
        # raw observables built as the oracle-haar benchmark workload builds
        # them, (x + x^dag) / (2 sqrt d), are Hermitian to the last bit: they
        # pass, and give the values of the same matrices typed
        rng = np.random.default_rng(26)
        d = 16
        part = SectorPartition(d, np.array([0, 1, 4, 8]))
        rho = random_density(rng, d)
        raw = []
        for _ in range(2):
            x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            raw.append((x + x.conj().T) / (2.0 * np.sqrt(d)))
        typed = [HermitianOperator(m) for m in raw]
        for order in (1, 2):
            assert (estimate_moments(rho, part, raw[:order], order, 64, 3)
                    == estimate_moments(rho, part, typed[:order], order, 64, 3))
        for x, y in zip(sample_traces(rho.entries, part, raw, 64, 3),
                        sample_traces(rho, part, typed, 64, 3)):
            assert np.array_equal(x, y)
        for x, y in zip(estimate_state_mean(rho.entries, part, 64, 3),
                        estimate_state_mean(rho, part, 64, 3)):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("state", ["dense", "factored"])
    @pytest.mark.parametrize("obs", ["dense", "pair"])
    def test_size_other_than_the_partition_rejected(self, state, obs):
        rng = np.random.default_rng(14)
        part = SectorPartition(4, np.array([0, 1, 3]))
        make_rho = {"dense": random_density,
                    "factored": lambda r, d: random_mixture(r, d, 2, True)}[state]
        make_obs = {"dense": random_hermitian,
                    "pair": lambda r, d: random_pair(r, d, True)}[obs]
        # one level too many or too few, in the state or in the observable
        for rho, a in ((make_rho(rng, 5), make_obs(rng, 4)),
                       (make_rho(rng, 4), make_obs(rng, 5)),
                       (make_rho(rng, 3), make_obs(rng, 4)),
                       (make_rho(rng, 4), make_obs(rng, 3))):
            for order, observables in ((1, [a]), (2, [a, a])):
                with pytest.raises(ValueError, match="the 4 energy levels"):
                    estimate_moments(rho, part, observables, order=order,
                                     n_samples=10, seed=0)
        for rho in (make_rho(rng, 5), make_rho(rng, 3)):
            with pytest.raises(ValueError, match="the 4 energy levels"):
                estimate_state_mean(rho, part, n_samples=10, seed=0)

    def test_argument_validation(self):
        rng = np.random.default_rng(8)
        part = SectorPartition.whole(3)
        rho = random_density(rng, 3)
        a = random_hermitian(rng, 3)
        with pytest.raises(ValueError):
            estimate_moments(rho, part, [a], order=0, n_samples=10, seed=0)
        with pytest.raises(ValueError):
            estimate_moments(rho, part, [a], order=1, n_samples=1, seed=0)
        with pytest.raises(ValueError):
            estimate_moments(rho, part, [a], order=2, n_samples=10, seed=0)
        with pytest.raises(ValueError):
            estimate_moments(rho, part, [], order=1, n_samples=10, seed=0)


class TestEstimateStateMean:
    def test_matches_analytic_mean(self):
        rng = np.random.default_rng(9)
        part = SectorPartition(5, np.array([0, 2]))
        rho = random_density(rng, 5)
        from ergoquench.ergodic_ensemble import ensemble_mean
        mean = ensemble_mean(rho, part).entries
        mc, se_re, se_im = estimate_state_mean(rho, part, n_samples=20_000, seed=5)
        assert np.all(np.abs(mc.real - mean.real) <= 4.0 * se_re + 1e-12)
        assert np.all(np.abs(mc.imag - mean.imag) <= 4.0 * se_im + 1e-12)

    def test_preserves_trace_every_sample(self):
        rng = np.random.default_rng(10)
        part = SectorPartition.singletons(4)
        rho = random_density(rng, 4)
        mc, _, _ = estimate_state_mean(rho, part, n_samples=50, seed=6)
        assert abs(np.trace(mc) - 1.0) < 1e-12

    def test_needs_two_samples(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            estimate_state_mean(random_density(rng, 3),
                                SectorPartition.whole(3), n_samples=1, seed=0)


class TestWorkers:
    """Chunks run on a thread pool, one per core; nothing may depend on how
    many workers there are."""

    # singletons and repeated sizes, not grouped in the basis order
    PART = SectorPartition(10, np.array([0, 1, 3, 4, 7, 9]))
    N_SAMPLES = 600  # two chunks at the default size
    # one sample per chunk: still 20 chunks for each of 3 workers
    N_SINGLE_SAMPLES = 60

    def results(self, monkeypatch, cores, chunk_size, n_samples=N_SAMPLES):
        monkeypatch.setattr(haar_oracle, "_cores", lambda: cores)
        monkeypatch.setattr(haar_oracle, "DEFAULT_CHUNK", chunk_size)
        rng = np.random.default_rng(21)
        dense = random_density(rng, self.PART.dim)
        factored = random_mixture(rng, self.PART.dim, 2, True)
        a = random_hermitian(rng, self.PART.dim)
        b = random_pair(rng, self.PART.dim, True)
        baseline = threading.active_count()
        out = []
        for rho, order in ((dense, 1), (factored, 2)):
            ests = estimate_moments(rho, self.PART, [a, b], order,
                                    n_samples, seed=22)
            out.append([(e.value, e.std_error) for e in ests])
            assert threading.active_count() == baseline
        mean = estimate_state_mean(dense, self.PART, n_samples, seed=22)
        assert threading.active_count() == baseline
        return out, mean

    def test_bit_identical_for_any_worker_count(self, monkeypatch):
        wants = {n: self.results(monkeypatch, 1, DEFAULT_CHUNK, n)[0]
                 for n in (self.N_SINGLE_SAMPLES, self.N_SAMPLES)}
        # more workers than cores, switching threads often: a chunk written
        # to the wrong slice, or lost, changes the values
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for chunk_size in (1, 7, DEFAULT_CHUNK):
                n = (self.N_SINGLE_SAMPLES if chunk_size == 1
                     else self.N_SAMPLES)
                want = wants[n]
                # the state mean adds its chunks' sums, so its last bits
                # depend on the chunk size, but not on the workers
                _, want_mean = self.results(monkeypatch, 1, chunk_size, n)
                for cores in (2, 3):
                    got, mean = self.results(monkeypatch, cores, chunk_size, n)
                    assert got == want
                    for x, y in zip(mean, want_mean):
                        assert np.array_equal(x, y)
        finally:
            sys.setswitchinterval(interval)

    def test_no_more_chunks_in_flight_than_workers(self, monkeypatch):
        monkeypatch.setattr(haar_oracle, "_cores", lambda: 2)
        lock, running, most = threading.Lock(), [0], [0]
        draw = haar_oracle._group_unitaries

        def counting(*args):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            time.sleep(0.002)
            try:
                return draw(*args)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(haar_oracle, "_group_unitaries", counting)
        monkeypatch.setattr(haar_oracle, "DEFAULT_CHUNK", 3)
        rng = np.random.default_rng(23)
        estimate_moments(random_density(rng, 4), SectorPartition.whole(4),
                         [random_hermitian(rng, 4)], order=1, n_samples=60,
                         seed=0)
        assert 1 <= most[0] <= 2

    @pytest.mark.parametrize("call", ["moments", "state_mean"])
    def test_error_in_a_chunk_reaches_the_caller(self, monkeypatch, call):
        monkeypatch.setattr(haar_oracle, "_cores", lambda: 2)
        draw = haar_oracle._group_unitaries

        def failing(groups, n_entries, seed, first_index, count):
            if first_index == 7:  # the second chunk
                raise RuntimeError("chunk failed")
            return draw(groups, n_entries, seed, first_index, count)

        monkeypatch.setattr(haar_oracle, "_group_unitaries", failing)
        monkeypatch.setattr(haar_oracle, "DEFAULT_CHUNK", 7)
        rng = np.random.default_rng(24)
        rho, a = random_density(rng, 3), random_hermitian(rng, 3)
        part = SectorPartition(3, np.array([0, 1]))
        baseline = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk failed"):
            if call == "moments":
                estimate_moments(rho, part, [a], order=1, n_samples=30,
                                 seed=0)
            else:
                estimate_state_mean(rho, part, n_samples=30, seed=0)
        assert threading.active_count() == baseline

    def test_errstate_reaches_the_workers(self, monkeypatch):
        # Hermitian entries of modulus up to 2.4e308 rotated by unit
        # phases: the products overflow in the workers, where np.errstate
        # must hold as well
        monkeypatch.setattr(haar_oracle, "_cores", lambda: 2)
        monkeypatch.setattr(haar_oracle, "DEFAULT_CHUNK", 5)
        part = SectorPartition.singletons(2)
        rho = 1.7e308 * np.array([[1.0, 1.0 + 1.0j], [1.0 - 1.0j, 1.0]])
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            estimate_moments(rho, part, [np.eye(2)], order=1, n_samples=40,
                             seed=0)


def frobenius(x) -> float:
    """||x||_F of a state or observable, dense or factored."""
    m = x.dense() if hasattr(x, "dense") else getattr(x, "entries", x)
    return float(np.linalg.norm(m))


def assert_matches_dense_reference(rho, partition, observables, n_samples,
                                   seed, chunk_size=DEFAULT_CHUNK):
    """Orders 1 and 2 and the state mean against the dense reference, drawn
    in chunks of chunk_size samples.

    Agreement is 1e-12 relative to the size bound of each quantity:
    |tr(sigma A)| <= ||rho||_F ||A||_F, so a value, a product of values or
    a standard error moves by no more than 1e-12 times the product of those
    bounds; an element of sigma by no more than 1e-12 ||rho||_F, and the
    variance of one by no more than 1e-12 ||rho||_F^2.  (A vanishing
    standard error, or a vanishing mean such as that of Q, has no digits of
    its own to compare.)
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(haar_oracle, "DEFAULT_CHUNK", chunk_size)
        values = dense_trace_values(rho, partition, observables, n_samples, seed)
        bounds = [frobenius(rho) * frobenius(a) for a in observables]
        ests = estimate_moments(rho, partition, observables, order=1,
                                n_samples=n_samples, seed=seed)
        for est, v, bound in zip(ests, values, bounds):
            assert abs(est.value - v.mean()) <= 1e-12 * bound
            assert abs(est.std_error - v.std(ddof=1) / np.sqrt(n_samples)) \
                <= 1e-12 * bound
        pairs = [(0, 0), (0, len(observables) - 1)]
        for i, j in pairs:
            est = estimate_moments(rho, partition,
                                   [observables[i], observables[j]], order=2,
                                   n_samples=n_samples, seed=seed)[0]
            prod = values[i] * values[j]
            bound = bounds[i] * bounds[j]
            assert abs(est.value - prod.mean()) <= 1e-12 * bound
            assert abs(est.std_error - prod.std(ddof=1) / np.sqrt(n_samples)) \
                <= 1e-12 * bound

        mean, se_re, se_im = estimate_state_mean(rho, partition, n_samples, seed)
        want, var_re, var_im = dense_state_mean(rho, partition, n_samples, seed)
        scale = frobenius(rho)
        assert np.max(np.abs(mean - want)) <= 1e-12 * scale
        for se, var in ((se_re, var_re), (se_im, var_im)):
            assert np.max(np.abs(n_samples * se**2 - np.maximum(var, 0.0))) \
                <= 1e-12 * scale**2


def random_state(rng, dim, kind, complex_data):
    if kind == "factored":
        return random_mixture(rng, dim, int(rng.integers(1, 3)), complex_data)
    g = rng.normal(size=(dim, dim))
    if complex_data:
        g = g + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T) / np.trace(m).real
    return DensityMatrix(m) if kind == "dense" else m


def random_observable(rng, dim, kind):
    if kind == "pair":
        return random_pair(rng, dim, complex_data=bool(rng.integers(2)))
    if kind == "real":
        g = rng.normal(size=(dim, dim))
        return g + g.T
    return random_hermitian(rng, dim)


class TestDenseReference:
    """The sampler against the dense path it replaced (a d x d unitary
    assembled per sample, sigma = U rho U^dag, einsum contractions), on
    the same draws."""

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=5),
           state=st.sampled_from(["dense", "factored", "raw"]),
           complex_data=st.booleans(),
           kinds=st.tuples(*[st.sampled_from(["pair", "real", "complex"])] * 2),
           chunk_size=st.sampled_from([1, 7, DEFAULT_CHUNK]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_on_random_instances(self, sizes, state, complex_data,
                                         kinds, chunk_size, seed):
        rng = np.random.default_rng(seed)
        part = SectorPartition(sum(sizes), np.cumsum([0] + sizes[:-1]))
        rho = random_state(rng, part.dim, state, complex_data)
        observables = [random_observable(rng, part.dim, k) for k in kinds]
        assert_matches_dense_reference(rho, part, observables, 12, seed,
                                       chunk_size)

    def test_matches_on_the_criteria_instances(self):
        # the states, observables, partitions and sampler seeds of
        # acceptance criteria 1-3, at fewer samples
        rng = np.random.default_rng(100)
        for part in (SectorPartition.singletons(6),
                     SectorPartition(5, np.array([0, 2])),
                     SectorPartition(4, np.array([0, 1, 2])),
                     SectorPartition.whole(6)):
            rho = random_density(rng, part.dim)
            assert_matches_dense_reference(rho, part, [np.eye(part.dim)],
                                           300, 101)
        rng = np.random.default_rng(200)
        for part in (SectorPartition(5, np.array([0, 2])),
                     SectorPartition(4, np.array([0, 1, 2])),
                     SectorPartition.whole(6),
                     SectorPartition.singletons(6)):
            rho = random_density(rng, part.dim)
            a = random_hermitian(rng, part.dim)
            b = random_hermitian(rng, part.dim)
            assert_matches_dense_reference(rho, part, [a, b], 300, 201)
        part = SectorPartition.whole(3)
        rho = DensityMatrix.from_state_vector(
            random_pure(np.random.default_rng(300), 3))
        proj = np.diag([1.0, 0.0, 0.0]).astype(complex)
        est = estimate_moments(rho, part, [proj] * 4, order=4, n_samples=300,
                               seed=301)[0]
        want = dense_trace_values(rho, part, [proj], 300, 301)[0] ** 4
        assert abs(est.value - want.mean()) <= 1e-12
        assert abs(est.std_error - want.std(ddof=1) / np.sqrt(300)) <= 1e-12
        assert_matches_dense_reference(rho, part, [proj], 300, 301)

    def test_matches_on_a_state_of_full_rank(self):
        # as many vectors as levels, so r^2 is far above d
        rng = np.random.default_rng(15)
        part = SectorPartition(9, np.array([0, 1, 4, 6]))
        rho = random_mixture(rng, part.dim, part.dim, True)
        assert_matches_dense_reference(
            rho, part, [random_pair(rng, part.dim, True),
                        random_hermitian(rng, part.dim)], 40, 16, chunk_size=7)

    @pytest.mark.parametrize("protocol", ["cat", "mixed"])
    def test_matches_on_pipeline_states(self, protocol):
        q = prepare_quench(ExperimentConfig(L=8))
        rho = prepare_protocol_state(q.phi1, q.phi2, protocol)
        assert_matches_dense_reference(
            rho, q.partition, [q.observables["H_R"], q.observables["Q"]],
            64, 5, chunk_size=7)


def test_full_size_sampling_holds_no_dense_stack():
    # L = 12, d = 924, every sector a singleton: a (2048, d, d) complex stack
    # would take 28 GB, and the dense path peaked at 280 MB for 8 samples
    q = prepare_quench(ExperimentConfig(L=12))
    rho = prepare_protocol_state(q.phi1, q.phi2, "cat")
    obs = q.observables["Q"]
    tracemalloc.start()
    try:
        est = estimate_moments(rho, q.partition, [obs, obs], order=2,
                               n_samples=2048, seed=0)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20
    assert est.n_samples == 2048 and est.std_error > 0.0


def test_dense_chunk_holds_three_chunk_sized_arrays(monkeypatch):
    # one chunk of 512 samples of a 16-level block: its unitaries, W and
    # sigma are 512 * 16^2 complex numbers each, the entries half that and
    # let go before W; a conjugated copy of the unitaries would be a fourth
    monkeypatch.setattr(haar_oracle, "_cores", lambda: 1)
    monkeypatch.setattr(haar_oracle, "DEFAULT_CHUNK", 512)
    d, n = 16, 512
    part = SectorPartition.whole(d)
    rho = random_density(np.random.default_rng(27), d)
    # a first call leaves the thread pool's imports out of the peak
    estimate_state_mean(rho, part, n, seed=0)
    tracemalloc.start()
    try:
        estimate_state_mean(rho, part, n, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * n * d * d * 16
