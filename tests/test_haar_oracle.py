"""Sampling correctness of the block-unitary oracle.

Where possible the expected values come from quadrature or combinatorics
computed inside the test (Euler-angle integral for d=2, Beta-moment
factorials for higher powers), never from the module under test.
"""

import math

import numpy as np
import pytest

from ergoquench.ergodic_ensemble import DensityMatrix
from ergoquench.errors import SectorError
from ergoquench.haar_oracle import (BlockUnitary, estimate_moments,
                                    estimate_state_mean, sample_block_unitary)
from ergoquench.spectral import SectorPartition

from conftest import random_density, random_hermitian, random_pure


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
        m = sample_block_unitary(part, seed=1).to_matrix()
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
        dense = u.to_matrix()
        assert np.max(np.abs(u.conjugate(m) - dense @ m @ dense.conj().T)) < 1e-12

    def test_conjugate_of_real_matrix_is_complex(self):
        part = SectorPartition(5, np.array([0, 2]))
        u = sample_block_unitary(part, seed=4)
        m = np.random.default_rng(7).normal(size=(5, 5))
        dense = u.to_matrix()
        rotated = u.conjugate(m)
        assert rotated.dtype == np.complex128
        assert np.max(np.abs(rotated - dense @ m @ dense.conj().T)) < 1e-12

    def test_conjugate_checks_shape(self):
        part = SectorPartition.whole(3)
        u = sample_block_unitary(part, seed=0)
        with pytest.raises(SectorError):
            u.conjugate(np.zeros((4, 4), dtype=complex))

    def test_global_phase_cancels_in_conjugation(self):
        part = SectorPartition(5, np.array([0, 2]))
        u = sample_block_unitary(part, seed=5)
        phased = BlockUnitary(part, tuple(np.exp(0.7j) * b for b in u.blocks))
        rng = np.random.default_rng(6)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        assert np.max(np.abs(phased.conjugate(m) - u.conjugate(m))) < 1e-13


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

    def test_chunk_size_does_not_change_the_stream(self):
        rng = np.random.default_rng(5)
        part = SectorPartition(5, np.array([0, 2]))
        rho = random_density(rng, 5)
        a = random_hermitian(rng, 5)
        e1 = estimate_moments(rho, part, [a], order=1, n_samples=300,
                              seed=2, chunk_size=7)[0]
        e2 = estimate_moments(rho, part, [a], order=1, n_samples=300,
                              seed=2, chunk_size=300)[0]
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
