"""Time evolution of expectation values and window statistics.

The reference for the evolution kernel is a dense double loop over all
(m, n) pairs evaluated per time point, slow but transparently the phase
sum it claims to be.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergoquench import dynamics
from ergoquench.dynamics import (TimeSeries, evolve_expectation,
                                 make_time_grid, read_series_csv, time_stats,
                                 write_series_csv)
from ergoquench.ergodic_ensemble import DensityMatrix
from ergoquench.errors import ConstructionError, NumericalIntegrityError

from conftest import random_density, random_hermitian


def dense_evolution(rho, obs, energies, times):
    """O(t) term by term, one time point at a time."""
    d = len(energies)
    out = np.zeros(len(times))
    for k, t in enumerate(times):
        acc = 0.0j
        for m in range(d):
            for n in range(d):
                acc += rho[m, n] * obs[n, m] * np.exp(-1j * (energies[m] - energies[n]) * t)
        out[k] = acc.real
    return out


class TestTimeSeries:
    def test_basic_properties(self):
        ts = TimeSeries(times=np.linspace(0.0, 1.0, 11), values=np.zeros(11))
        assert ts.n_points == 11
        assert ts.dt == pytest.approx(0.1)

    def test_large_offset_grid_accepted(self):
        # linspace grids at t ~ 1e4 jitter by ulps of t; the uniformity
        # check must be relative to the grid scale
        t = make_time_grid(3000.0, 13000.0, 20_000)
        TimeSeries(times=t, values=np.zeros(20_000))

    def test_non_uniform_rejected(self):
        with pytest.raises(ConstructionError):
            TimeSeries(times=np.array([0.0, 1.0, 3.0]), values=np.zeros(3))

    def test_descending_rejected(self):
        with pytest.raises(ConstructionError):
            TimeSeries(times=np.array([1.0, 0.5, 0.0]), values=np.zeros(3))

    def test_too_short_rejected(self):
        with pytest.raises(ConstructionError):
            TimeSeries(times=np.array([0.0]), values=np.array([1.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConstructionError):
            TimeSeries(times=np.linspace(0, 1, 5), values=np.zeros(4))

    def test_grid_constructor_validation(self):
        with pytest.raises(ConstructionError):
            make_time_grid(1.0, 1.0, 10)
        with pytest.raises(ConstructionError):
            make_time_grid(0.0, 1.0, 1)


class TestEvolveExpectation:
    def test_stationary_state_is_flat(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        obs = np.diag([2.0, -1.0]).astype(complex)
        ts = evolve_expectation(rho, obs, np.array([0.0, 1.7]),
                                make_time_grid(0.0, 10.0, 50))
        assert np.allclose(ts.values, 0.6 * 2.0 - 0.4)

    def test_two_level_cosine(self):
        # |+><+| under H = diag(0, w) with sigma_x read out: exactly cos(w t)
        omega = 1.3
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        rho = np.outer(plus, plus).astype(complex)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        t = make_time_grid(0.0, 20.0, 400)
        ts = evolve_expectation(rho, sx, np.array([0.0, omega]), t)
        assert np.max(np.abs(ts.values - np.cos(omega * t))) < 1e-12

    @pytest.mark.parametrize("dim,seed", [(4, 0), (9, 1), (16, 2)])
    def test_matches_dense_double_loop(self, dim, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, dim)
        obs = random_hermitian(rng, dim)
        energies = np.sort(rng.normal(size=dim))
        t = make_time_grid(0.0, 30.0, 257)
        ts = evolve_expectation(rho, obs, energies, t)
        ref = dense_evolution(rho.entries, obs.entries, energies, t)
        assert np.max(np.abs(ts.values - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("n_points", [4_517, 37])
    def test_long_grids_cross_block_boundaries(self, monkeypatch, n_points):
        # blocks of 100 times: 4517 points end in a partial 46th block and
        # reach t = 500, 37 points fit in less than one block
        monkeypatch.setattr(dynamics, "PHASE_BLOCK_BYTES", 100 * 16 * 3)
        rng = np.random.default_rng(3)
        rho = random_density(rng, 3)
        obs = random_hermitian(rng, 3)
        energies = np.array([-1.0, 0.3, 2.2])
        t = make_time_grid(0.0, 500.0 * n_points / 4_517, n_points)
        ts = evolve_expectation(rho, obs, energies, t)
        ref = dense_evolution(rho.entries, obs.entries, energies, t)
        assert np.max(np.abs(ts.values - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_grid_prefix_gives_series_prefix(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, 40)
        obs = random_hermitian(rng, 40)
        energies = np.sort(rng.normal(size=40))
        t = make_time_grid(3000.0, 13000.0, 20_000)
        full = evolve_expectation(rho, obs, energies, t).values
        for k in (1_000, 6_999, 13_107):
            head = evolve_expectation(rho, obs, energies, t[:k]).values
            assert np.max(np.abs(head - full[:k])) < 1e-13 * max(1.0, np.max(np.abs(full)))

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           complex_data=st.booleans())
    def test_matches_dense_sum_for_real_and_complex_data(self, dim, seed,
                                                         complex_data):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(dim, dim))
        h = rng.normal(size=(dim, dim))
        if complex_data:
            g = g + 1j * rng.normal(size=(dim, dim))
            h = h + 1j * rng.normal(size=(dim, dim))
        rho = g @ g.conj().T
        rho = DensityMatrix(rho / np.trace(rho).real)
        obs = (h + h.conj().T) / 2
        energies = rng.uniform(-20.0, 20.0, size=dim)
        t = make_time_grid(rng.uniform(0.0, 1e4), 1e4 + 50.0, 31)
        ts = evolve_expectation(rho, obs, energies, t)
        ref = dense_evolution(rho.entries, obs, energies, t)
        # phases reach 4e5 rad, whose rounding (ulp 6e-11) both sums commit
        scale = np.sum(np.abs(rho.entries * obs.T))
        assert np.max(np.abs(ts.values - ref)) < 1e-9 * max(1.0, scale)

    def test_non_hermitian_input_rejected(self):
        m = np.zeros((2, 2), dtype=complex)
        m[0, 0] = 1.0
        m[0, 1] = 0.5  # no conjugate partner
        obs = np.eye(2, dtype=complex) + 1.0
        with pytest.raises(NumericalIntegrityError):
            evolve_expectation(m, obs, np.array([0.0, 1.0]),
                               make_time_grid(0.0, 1.0, 10))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConstructionError):
            evolve_expectation(np.eye(2, dtype=complex) / 2,
                               np.eye(3, dtype=complex),
                               np.array([0.0, 1.0]),
                               make_time_grid(0.0, 1.0, 10))


class TestTimeStats:
    def test_sine_over_whole_periods(self):
        # 20 periods sampled densely: mean ~ 0, rms exactly 1/sqrt(2)
        t = make_time_grid(0.0, 20.0 * 2.0 * np.pi, 40_001)
        ts = TimeSeries(times=t, values=np.sin(t))
        stats = time_stats(ts)
        assert abs(stats.mean) < 1e-3
        assert stats.sigma == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-3)
        assert stats.variance == pytest.approx(stats.sigma ** 2)

    def test_constant_series(self):
        t = make_time_grid(0.0, 1.0, 200)
        stats = time_stats(TimeSeries(times=t, values=np.full(200, 3.5)))
        assert stats.mean == pytest.approx(3.5)
        assert stats.sigma == 0.0
        assert stats.mean_ci == pytest.approx(0.0, abs=1e-12)
        assert stats.sigma_ci == pytest.approx(0.0, abs=1e-12)

    def test_linear_ramp(self):
        # trapezoid integrates linear functions exactly; the rms deviation
        # of t on [0, 1] is 1/sqrt(12)
        t = make_time_grid(0.0, 1.0, 5_000)
        stats = time_stats(TimeSeries(times=t, values=t.copy()))
        assert stats.mean == pytest.approx(0.5, abs=1e-12)
        assert stats.sigma == pytest.approx(1.0 / np.sqrt(12.0), abs=1e-6)

    def test_subinterval_scatter_reflects_drift(self):
        # a drifting series has subinterval means far from the global mean
        t = make_time_grid(0.0, 1.0, 1_000)
        drifting = time_stats(TimeSeries(times=t, values=t.copy()))
        flat = time_stats(TimeSeries(times=t, values=np.ones(1_000)))
        assert drifting.mean_ci > 0.1
        assert flat.mean_ci < 1e-12

    def test_needs_enough_points(self):
        t = make_time_grid(0.0, 1.0, 50)
        ts = TimeSeries(times=t, values=np.zeros(50))
        with pytest.raises(ValueError):
            time_stats(ts, n_subintervals=10)
        time_stats(ts, n_subintervals=5)  # 50 points cover 5 subintervals

    def test_subinterval_count_validated(self):
        t = make_time_grid(0.0, 1.0, 100)
        with pytest.raises(ValueError):
            time_stats(TimeSeries(times=t, values=np.zeros(100)), n_subintervals=1)


class TestSeriesUtilities:
    def test_csv_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        t = make_time_grid(3000.0, 13000.0, 300)
        ts = TimeSeries(times=t, values=rng.normal(size=300))
        path = tmp_path / "series.csv"
        write_series_csv(path, ts)
        back = read_series_csv(path)
        assert np.array_equal(back.times, ts.times)
        assert np.array_equal(back.values, ts.values)
