"""Time evolution of expectation values and window statistics.

The reference for the evolution kernel is a dense double loop over all
(m, n) pairs evaluated per time point, slow but transparently the phase
sum it claims to be.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergoquench import dynamics
from ergoquench.dynamics import TimeSeries, evolve_expectation, time_stats
from ergoquench.ergodic_ensemble import (DensityMatrix, _factored,
                                         ensemble_mean,
                                         second_moment_expectation)
from ergoquench.errors import (ConstructionError, NumericalIntegrityError,
                               SectorError, StateValidationError)
from ergoquench.haar_oracle import estimate_state_mean, sample_traces
from ergoquench.spectral import SectorPartition
from ergoquench.spin_chain import ADJOINT_TILE, HermitianOperator

from conftest import (random_density, random_hermitian, random_mixture,
                      random_pair)


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


def extended_precision_series(coeff, energies, times):
    """c.C.c + s.C.s for a real symmetric C, with the phases E t and the
    sums in long double."""
    c_ext = np.asarray(coeff, dtype=np.longdouble)
    e_ext = np.asarray(energies, dtype=np.longdouble)
    out = np.empty(len(times))
    for k, t in enumerate(times):
        phase = e_ext * np.longdouble(t)
        c, s = np.cos(phase), np.sin(phase)
        out[k] = float(c @ c_ext @ c + s @ c_ext @ s)
    return out


def real_inputs(rng, d):
    g = rng.normal(size=(d, d))
    rho = g @ g.T
    h = rng.normal(size=(d, d))
    return DensityMatrix(rho / np.trace(rho)), (h + h.T) / 2


def sub_block_times(n_points, d):
    """K = ceil(sqrt(n)), capped at the rows of one PHASE_BLOCK_BYTES
    block: the times of one sub-block of the phase generator."""
    rows = dynamics.PHASE_BLOCK_BYTES // (16 * d)
    return min(math.isqrt(n_points - 1) + 1, rows)


def count_direct_blocks(calls, t, k):
    """The first phase evaluation on the grid t is the offset table, later
    ones the starts of sub-blocks of k times; one that holds any other time
    of the grid is a sub-block evaluated directly."""
    return sum(not np.isin(c, t[::k]).all() for c in calls[1:])


class TestTimeSeries:
    def test_basic_properties(self):
        ts = TimeSeries(times=np.linspace(0.0, 1.0, 11), values=np.zeros(11))
        assert ts.n_points == 11

    def test_large_offset_grid_accepted(self):
        # linspace grids at t ~ 1e4 jitter by ulps of t; the uniformity
        # check must be relative to the grid scale
        t = np.linspace(3000.0, 13000.0, 20_000)
        TimeSeries(times=t, values=np.zeros(20_000))

    def test_non_uniform_rejected(self):
        with pytest.raises(ConstructionError):
            TimeSeries(times=np.array([0.0, 1.0, 3.0]), values=np.zeros(3))

    def test_descending_rejected(self):
        with pytest.raises(ConstructionError):
            TimeSeries(times=np.array([1.0, 0.5, 0.0]), values=np.zeros(3))

    def test_zero_span_rejected(self):
        with pytest.raises(ConstructionError):
            TimeSeries(times=np.full(10, 1.0), values=np.zeros(10))

    def test_too_short_rejected(self):
        with pytest.raises(ConstructionError):
            TimeSeries(times=np.array([0.0]), values=np.array([1.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConstructionError):
            TimeSeries(times=np.linspace(0, 1, 5), values=np.zeros(4))


class TestEvolveExpectation:
    def test_stationary_state_is_flat(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        obs = np.diag([2.0, -1.0]).astype(complex)
        ts = evolve_expectation(rho, obs, np.array([0.0, 1.7]),
                                np.linspace(0.0, 10.0, 50))
        assert np.allclose(ts.values, 0.6 * 2.0 - 0.4)

    def test_two_level_cosine(self):
        # |+><+| under H = diag(0, w) with sigma_x read out: exactly cos(w t)
        omega = 1.3
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        rho = np.outer(plus, plus).astype(complex)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        t = np.linspace(0.0, 20.0, 400)
        ts = evolve_expectation(rho, sx, np.array([0.0, omega]), t)
        assert np.max(np.abs(ts.values - np.cos(omega * t))) < 1e-12

    @pytest.mark.parametrize("dim,seed", [(4, 0), (9, 1), (16, 2)])
    def test_matches_dense_double_loop(self, dim, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, dim)
        obs = random_hermitian(rng, dim)
        energies = np.sort(rng.normal(size=dim))
        t = np.linspace(0.0, 30.0, 257)
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
        t = np.linspace(0.0, 500.0 * n_points / 4_517, n_points)
        ts = evolve_expectation(rho, obs, energies, t)
        ref = dense_evolution(rho.entries, obs.entries, energies, t)
        assert np.max(np.abs(ts.values - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_grid_prefix_gives_series_prefix(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, 40)
        obs = random_hermitian(rng, 40)
        energies = np.sort(rng.normal(size=40))
        t = np.linspace(3000.0, 13000.0, 20_000)
        full = evolve_expectation(rho, obs, energies, t).values
        for k in (1_000, 6_999, 13_107):
            head = evolve_expectation(rho, obs, energies, t[:k]).values
            assert np.max(np.abs(head - full[:k])) < 1e-13 * max(1.0, np.max(np.abs(full)))

    def test_long_grid_matches_extended_precision(self):
        # 3000..13000 in 20 000 points: dt is not a float, so block offsets
        # differ from the table's by ulps and take the first-order correction
        rng = np.random.default_rng(8)
        d = 40
        rho, obs = real_inputs(rng, d)
        energies = np.sort(rng.uniform(-18.0, 18.0, size=d))
        t = np.linspace(3000.0, 13000.0, 20_000)
        values = evolve_expectation(rho, obs, energies, t).values
        rows = dynamics.PHASE_BLOCK_BYTES // (16 * d)
        starts = np.arange(0, len(t), rows)
        edges = np.concatenate((starts, starts[1:] - 1, [len(t) - 1]))
        picks = np.union1d(edges, rng.integers(0, len(t), size=12))
        assert len(picks) >= 20
        coeff = rho.entries * obs.T
        ref = extended_precision_series(coeff, energies, t[picks])
        # every phase is cos/sin of an exact product, so only the sums'
        # rounding is left; rounded phases fl(E t) give 4e-13 here
        assert np.max(np.abs(values[picks] - ref)) < 1e-13 * np.sum(np.abs(coeff))

    def test_jittered_grid_uses_the_corrected_table(self, monkeypatch,
                                                    phase_calls):
        # every time moved by up to half the uniformity tolerance; 16
        # sub-blocks of 17 times, two to a block of 40 times, so each
        # sub-block's offsets differ from the table's
        monkeypatch.setattr(dynamics, "PHASE_BLOCK_BYTES", 40 * 16 * 16)
        rng = np.random.default_rng(9)
        rho = random_density(rng, 16)
        obs = random_hermitian(rng, 16)
        energies = np.sort(rng.uniform(-18.0, 18.0, size=16))
        t = np.linspace(0.0, 30.0, 257)
        t[1:-1] += rng.uniform(-0.5, 0.5, size=255) * dynamics.GRID_RTOL * 30.0
        TimeSeries(times=t, values=np.zeros(257))  # still a uniform grid
        got = evolve_expectation(rho, obs, energies, t).values
        k = sub_block_times(257, 16)
        assert count_direct_blocks(phase_calls, t, k) == 0
        ref = dense_evolution(rho.entries, obs.entries, energies, t)
        assert np.max(np.abs(got - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_far_jittered_grid_takes_direct_phases(self, monkeypatch,
                                                   phase_calls):
        # at t ~ 1e4 the same relative jitter moves times by ~1e-8, which
        # puts max|E| max|eps| above OFFSET_PHASE_MAX in all 20 sub-blocks
        # but the first (whose offsets are the table's own)
        monkeypatch.setattr(dynamics, "PHASE_BLOCK_BYTES", 50 * 16 * 6)
        rng = np.random.default_rng(10)
        rho, obs = real_inputs(rng, 6)
        energies = np.sort(rng.uniform(-18.0, 18.0, size=6))
        t = np.linspace(3000.0, 13000.0, 400)
        t[1:-1] += rng.uniform(-0.5, 0.5, size=398) * dynamics.GRID_RTOL * 13000.0
        TimeSeries(times=t, values=np.zeros(400))
        got = evolve_expectation(rho, obs, energies, t).values
        k = sub_block_times(400, 6)
        assert count_direct_blocks(phase_calls, t, k) == len(t[::k]) - 1 == 19
        coeff = rho.entries * obs.T
        ref = extended_precision_series(coeff, energies, t)
        assert np.max(np.abs(got - ref)) < 1e-13 * np.sum(np.abs(coeff))

    def test_far_uniform_grid_takes_direct_phases(self, phase_calls):
        # a plain linspace at t ~ 1e7: its offsets drift from the table's
        # by ulps of t, so 36 of its 55 sub-blocks have max|E| max|eps|
        # above OFFSET_PHASE_MAX; energies on a 1/64 lattice make E t
        # exact in long double, so the reference carries no phase error
        rng = np.random.default_rng(11)
        d = 40
        rho, obs = real_inputs(rng, d)
        energies = np.sort(rng.integers(-18 * 64, 18 * 64, size=d,
                                        endpoint=True)) / 64.0
        t = np.linspace(1e7, 1e7 + 1000.0, 3001)
        values = evolve_expectation(rho, obs, energies, t).values
        k = sub_block_times(3001, d)
        assert (k, len(t[::k])) == (55, 55)
        assert count_direct_blocks(phase_calls, t, k) == 36
        picks = np.union1d([0, k - 1, k, len(t) - 1],
                           rng.integers(0, len(t), size=20))
        assert len(picks) >= 24
        coeff = rho.entries * obs.T
        ref = extended_precision_series(coeff, energies, t[picks])
        assert np.max(np.abs(values[picks] - ref)) < 1e-13 * np.sum(np.abs(coeff))

    @pytest.mark.parametrize("grid", [[0.0, 1.0, 3.0], [1.0, 0.5, 0.0], [2.0],
                                      [[0.0, 1.0], [2.0, 3.0]],
                                      [0.0, np.nan, 2.0], [np.nan, 1.0, 2.0],
                                      [0.0, 1.0, np.inf]])
    def test_grid_checked_before_any_work(self, monkeypatch, grid):
        def no_work(*args):
            raise AssertionError("evolution started on a bad grid")

        monkeypatch.setattr(dynamics, "_phase_coefficients", no_work)
        with pytest.raises(ConstructionError):
            evolve_expectation(np.eye(3) / 3, np.eye(3),
                               np.array([0.0, 1.0, 2.0]), np.array(grid))

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
        t = np.linspace(rng.uniform(0.0, 1e4), 1e4 + 50.0, 31)
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
        with pytest.raises(StateValidationError):
            evolve_expectation(m, obs, np.array([0.0, 1.0]),
                               np.linspace(0.0, 1.0, 10))

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_tiled_coefficients_match_the_literal_sums(self, complex_data):
        # quarter-integer entries make every product exact, so the literal
        # sums match whichever path numpy's multiply takes
        rng = np.random.default_rng(41)
        d = 2 * ADJOINT_TILE + 37

        def quarters():
            return rng.integers(-8, 9, size=(d, d)) / 4.0

        m, o = quarters(), quarters()
        if complex_data:
            m, o = m + 1j * quarters(), o + 1j * quarters()
        m, o = (m + m.conj().T) / 2, (o + o.conj().T) / 2
        coeff = dynamics._phase_coefficients(m, o)
        assert coeff.dtype == m.dtype
        # Hermitian operands: C = m * o.T = m * conj(o), formed on and above
        # the diagonal tiles, doubled above them, and 0 below
        literal = m * o.conj()
        tile = np.arange(d) // ADJOINT_TILE
        above = tile[:, None] < tile[None, :]
        below = tile[:, None] > tile[None, :]
        want = np.where(above, 2.0 * literal, np.where(below, 0.0, literal))
        assert np.array_equal(coeff, want)

    def test_complex_series_across_tiles(self):
        rng = np.random.default_rng(43)
        d = ADJOINT_TILE + 20
        rho = random_density(rng, d, rank=2)
        obs = random_hermitian(rng, d)
        energies = np.sort(rng.uniform(-5.0, 5.0, size=d))
        t = np.linspace(0.0, 3.0, 7)
        u = np.exp(-1j * np.multiply.outer(t, energies))
        coeff = rho.entries * obs.entries.T
        want = np.sum((u @ coeff) * u.conj(), axis=1).real
        got = evolve_expectation(rho, obs, energies, t).values
        assert np.max(np.abs(got - want)) < 1e-13 * np.sum(np.abs(coeff))

    @pytest.mark.parametrize("factored", [False, True])
    @pytest.mark.parametrize("complex_data", [False, True])
    @pytest.mark.parametrize("d", [1, ADJOINT_TILE - 1, ADJOINT_TILE,
                                   ADJOINT_TILE + 1, 2 * ADJOINT_TILE + 37])
    def test_upper_tiles_give_the_full_product(self, d, complex_data, factored):
        # the kernel is called directly, on operands Hermitian to rounding
        rng = np.random.default_rng(70 + d)
        rho = random_mixture(rng, d, 2, complex_data)
        state = _factored(rho) if factored else rho.entries.copy()
        g = rng.normal(size=(d, d))
        if complex_data:
            g = g + 1j * rng.normal(size=(d, d))
        obs = (g + g.conj().T) / 2
        energies = np.sort(rng.uniform(-5.0, 5.0, size=d))
        t = np.linspace(0.0, 3.0, 50)
        u = np.exp(-1j * np.multiply.outer(t, energies))
        coeff = rho.entries * obs.T
        want = np.sum((u @ coeff) * u.conj(), axis=1).real
        got = dynamics._dense_series(state, obs, energies, t)
        assert np.max(np.abs(got - want)) < 1e-13 * np.sum(np.abs(coeff))

    def test_non_hermitian_state_rejected_across_tiles(self):
        rng = np.random.default_rng(42)
        d = 2 * ADJOINT_TILE + 37
        rho = random_density(rng, d, rank=2).entries.copy()
        rho[d - 1, 1] += 1e-3  # in the farthest tile, no conjugate partner
        obs = random_hermitian(rng, d)
        t = np.linspace(0.0, 1.0, 10)
        with pytest.raises(StateValidationError, match="not Hermitian"):
            evolve_expectation(rho, obs, np.linspace(-1.0, 1.0, d), t)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_observable_rejected(self, bad):
        obs = np.eye(3)
        obs[1, 1] = bad
        with pytest.raises(StateValidationError):
            evolve_expectation(np.eye(3) / 3, obs, np.array([0.0, 1.0, 2.0]),
                               np.linspace(0.0, 1.0, 10))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SectorError):
            evolve_expectation(np.eye(2, dtype=complex) / 2,
                               np.eye(3, dtype=complex),
                               np.array([0.0, 1.0]),
                               np.linspace(0.0, 1.0, 10))

    def test_overflowing_series_rejected(self):
        # a typed operand is not checked again, and its finite entries give
        # a series beyond the float64 range
        state = DensityMatrix.from_state_vector(np.ones(2) / np.sqrt(2.0))
        obs = HermitianOperator(np.full((2, 2), 1.5e308))
        with (np.errstate(over="ignore"),
              pytest.raises(NumericalIntegrityError, match="not finite")):
            evolve_expectation(state, obs, np.array([0.0, 1.0]),
                               np.linspace(0.0, 1.0, 10))


class TestOneOperandCheck:
    """The phase sums, the ensemble moments and the oracle give one raw
    operand the same verdict."""

    D = 5
    DEFECTS = {"1e-9 anti-Hermitian": StateValidationError,
               "NaN entry": StateValidationError,
               "inf entry": StateValidationError,
               "one level too many": SectorError,
               "trace 2": StateValidationError,
               "negative eigenvalue": StateValidationError}
    # an observable has no trace or spectrum to check
    CASES = [(which, defect)
             for which, defect in itertools.product(("observable", "state"),
                                                    DEFECTS)
             if which == "state"
             or defect not in ("trace 2", "negative eigenvalue")]

    @classmethod
    def operands(cls, which, defect):
        rng = np.random.default_rng(80)
        d = cls.D
        rho, obs = np.eye(d) / d, random_hermitian(rng, d).entries
        bad = (rho if which == "state" else obs).astype(complex)
        if defect == "1e-9 anti-Hermitian":
            k = rng.normal(size=(d, d))
            bad += 1e-9j * (k + k.T)
        elif defect == "one level too many":
            bad = np.pad(bad, ((0, 1), (0, 1)))
        elif defect == "trace 2":
            bad *= 2.0  # Hermitian and positive semidefinite
        elif defect == "negative eigenvalue":
            # Hermitian with unit trace, but a coherence larger than any
            # state allows: eigenvalues 1/d +- 1.5
            bad[0, 3] = bad[3, 0] = 1.5
        else:
            bad[0, 3] = bad[3, 0] = np.nan if defect == "NaN entry" else np.inf
        return (bad, obs) if which == "state" else (rho, bad)

    @pytest.mark.parametrize("which, defect", CASES)
    def test_same_verdict_from_all_three_views(self, which, defect):
        rho, obs = self.operands(which, defect)
        energies = np.arange(self.D, dtype=float)
        part = SectorPartition(self.D, np.array([0, 2]))
        views = [lambda: evolve_expectation(rho, obs, energies,
                                            np.linspace(0.0, 1.0, 10)),
                 lambda: second_moment_expectation(rho, part, obs, obs),
                 lambda: sample_traces(rho, part, [obs], 10, 0)]
        if which == "state":  # the views that take a state alone
            views += [lambda: ensemble_mean(rho, part),
                      lambda: estimate_state_mean(rho, part, 10, 0)]
        raised = []
        for view in views:
            with pytest.raises(Exception) as info:
                view()
            raised.append(type(info.value))
        assert raised == [self.DEFECTS[defect]] * len(views)


# offsets k * 0.5 from t_0 = 3000 are exact, so every block's eps is 0;
# the default window's dt = 10000 / 19999 is not a float, so eps != 0
PAIR_GRIDS = {"eps = 0": (3000.0, 12999.5, 20_000),
              "eps != 0": (3000.0, 13000.0, 20_000)}


class TestPairSeries:
    @pytest.mark.parametrize("grid", PAIR_GRIDS)
    @settings(max_examples=20, deadline=None)
    @given(dim=st.integers(1, 8), rank=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), complex_data=st.booleans(),
           equal_vectors=st.booleans(), mixture=st.booleans())
    def test_matches_the_dense_path(self, grid, dim, rank, seed, complex_data,
                                    equal_vectors, mixture):
        # the observable is a pair or a second factored state
        rng = np.random.default_rng(seed)
        rho = random_mixture(rng, dim, rank, complex_data)
        if mixture:
            obs = random_mixture(rng, dim, int(rng.integers(1, 4)), complex_data)
            dense_obs = obs.entries
        else:
            obs = random_pair(rng, dim, complex_data, equal_vectors)
            dense_obs = obs.dense()
        energies = np.sort(rng.uniform(-18.0, 18.0, size=dim))
        t = np.linspace(*PAIR_GRIDS[grid])

        def no_dense(*args):
            raise AssertionError("dense kernel used for factored inputs")

        with pytest.MonkeyPatch.context() as mp:  # blocks of 1000 times
            mp.setattr(dynamics, "PHASE_BLOCK_BYTES", 1000 * 16 * dim)
            want = evolve_expectation(rho, dense_obs, energies, t).values
            mp.setattr(dynamics, "_phase_coefficients", no_dense)
            got = evolve_expectation(rho, obs, energies, t).values
        scale = np.sum(np.abs(rho.entries * dense_obs.T))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    @settings(max_examples=15, deadline=None)
    @given(dim=st.integers(1, 2 * ADJOINT_TILE + 5), rank=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), complex_data=st.booleans())
    def test_dense_observable_on_factors_matches_the_formed_state(
            self, dim, rank, seed, complex_data):
        # the dense kernel forms each tile of rho from the factors
        rng = np.random.default_rng(seed)
        rho = random_mixture(rng, dim, rank, complex_data)
        g = rng.normal(size=(dim, dim))
        if complex_data:
            g = g + 1j * rng.normal(size=(dim, dim))
        obs = (g + g.conj().T) / 2
        energies = np.sort(rng.uniform(-18.0, 18.0, size=dim))
        t = np.linspace(0.0, 40.0, 60)
        got = evolve_expectation(rho, obs, energies, t).values
        formed = rho.entries.copy()  # a raw array: no factors
        want = evolve_expectation(formed, obs, energies, t).values
        scale = np.sum(np.abs(formed * obs.T))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    def test_factored_inputs_skip_the_dense_kernel(self, monkeypatch):
        rng = np.random.default_rng(50)
        rho = random_mixture(rng, 6, 2, False)
        q = random_pair(rng, 6, False)
        energies = np.sort(rng.normal(size=6))
        t = np.linspace(0.0, 30.0, 257)
        want = dense_evolution(rho.entries, q.dense(), energies, t)

        def no_dense(*args):
            raise AssertionError("dense kernel used for factored inputs")

        monkeypatch.setattr(dynamics, "_phase_coefficients", no_dense)
        got = evolve_expectation(rho, q, energies, t).values
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("raw_array", [False, True])
    def test_state_without_factors_takes_the_dense_path(self, monkeypatch,
                                                         raw_array):
        rng = np.random.default_rng(51)
        entries = random_mixture(rng, 6, 2, True).entries
        rho = entries if raw_array else DensityMatrix(entries)
        q = random_pair(rng, 6, True)
        energies = np.sort(rng.normal(size=6))
        t = np.linspace(0.0, 30.0, 257)

        def no_pair(*args):
            raise AssertionError("factored kernel used for a dense state")

        monkeypatch.setattr(dynamics, "_factored_series", no_pair)
        got = evolve_expectation(rho, q, energies, t).values
        assert np.array_equal(got, evolve_expectation(rho, q.dense(),
                                                      energies, t).values)

    @pytest.mark.parametrize("n_points", [50 ** 2 - 1, 50 ** 2 + 1, 20_000])
    def test_contraction_matches_extended_precision(self, n_points):
        # K^2 - 1 and K^2 + 1 times end in a partial sub-block; on
        # 3000..13000 dt is not a float, so every grid has eps != 0, and
        # 20 000 times is the default window
        rng = np.random.default_rng(54)
        d = 40
        rho = random_mixture(rng, d, 2, False)
        q = random_pair(rng, d, False)
        energies = np.sort(rng.uniform(-18.0, 18.0, size=d))
        t = np.linspace(3000.0, 13000.0, n_points)
        values = evolve_expectation(rho, q, energies, t).values
        starts = np.arange(0, n_points, sub_block_times(n_points, d))
        edges = np.concatenate((starts, starts[1:] - 1, [n_points - 1]))
        picks = np.union1d(edges, rng.integers(0, n_points, size=12))
        assert len(picks) >= 20
        coeff = rho.entries * q.dense().T
        ref = extended_precision_series(coeff, energies, t[picks])
        assert np.max(np.abs(values[picks] - ref)) < 1e-13 * np.sum(np.abs(coeff))

    def test_factored_kernel_evaluates_2_sqrt_n_phases(self, phase_calls):
        # offsets k * 0.5 from 3000 are exact, so no sub-block is direct;
        # each time is taken at all d energies, so (K + ceil(n / K)) d
        # phases are K + ceil(n / K) times
        rng = np.random.default_rng(55)
        d, n_points = 30, 20_000
        t = np.linspace(3000.0, 12999.5, n_points)
        evolve_expectation(random_mixture(rng, d, 2, False),
                           random_pair(rng, d, False),
                           np.sort(rng.uniform(-18.0, 18.0, size=d)), t)
        k = sub_block_times(n_points, d)
        assert sum(map(len, phase_calls)) <= k + -(-n_points // k)

    def test_grid_checked_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("evolution started on a bad grid")

        monkeypatch.setattr(dynamics, "_phase_factors", no_work)
        rng = np.random.default_rng(52)
        with pytest.raises(ConstructionError):
            evolve_expectation(random_mixture(rng, 3, 1, False),
                               random_pair(rng, 3, False),
                               np.array([0.0, 1.0, 2.0]),
                               np.array([0.0, 1.0, 3.0]))

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(53)
        with pytest.raises(SectorError):
            evolve_expectation(random_mixture(rng, 3, 1, False),
                               random_pair(rng, 4, False),
                               np.array([0.0, 1.0, 2.0]),
                               np.linspace(0.0, 1.0, 10))


class TestPhaseMemo:
    """The phases of one (energies, grid) pair are computed once and shared
    by every series on it."""

    @staticmethod
    def inputs(seed):
        # 3000..13000: dt is not a float, so eps != 0 in every sub-block
        rng = np.random.default_rng(seed)
        energies = np.sort(rng.uniform(-18.0, 18.0, size=24))
        return rng, energies, np.linspace(3000.0, 13000.0, 2_000)

    def test_one_ulp_gets_a_fresh_table(self, phase_calls):
        rng, energies, t = self.inputs(60)
        rho = random_mixture(rng, 24, 2, False)
        obs = random_pair(rng, 24, False)
        evolve_expectation(rho, obs, energies, t)
        cold = len(phase_calls)
        assert cold > 0
        evolve_expectation(rho, obs.dense(), energies, t)
        assert len(phase_calls) == cold
        moved_e = energies.copy()
        moved_e[7] = np.nextafter(moved_e[7], np.inf)
        moved_t = t.copy()
        moved_t[900] = np.nextafter(moved_t[900], np.inf)
        for e, grid in ((moved_e, t), (energies, moved_t), (energies, t)):
            del phase_calls[:]
            evolve_expectation(rho, obs, e, grid)
            assert len(phase_calls) == cold

    def test_cached_phases_are_read_only(self, phase_calls):
        _, energies, t = self.inputs(61)
        runs = list(dynamics._phase_factors(energies, t))
        assert all(eps is not None for *_, eps in runs)
        for _, w, tau, eps in runs:
            assert not (w.flags.writeable or tau.flags.writeable
                        or eps.flags.writeable)

    @pytest.mark.parametrize("factored", [True, False])
    def test_warm_and_cold_series_are_bitwise_equal(self, phase_calls,
                                                    factored):
        rng, energies, t = self.inputs(62)
        rho, obs = random_mixture(rng, 24, 2, True), random_pair(rng, 24, True)
        if not factored:
            obs = obs.dense()
        cold = evolve_expectation(rho, obs, energies, t).values
        evaluated = len(phase_calls)
        evolve_expectation(rho, random_pair(rng, 24, True), energies, t)
        warm = evolve_expectation(rho, obs, energies, t).values
        assert len(phase_calls) == evaluated  # no phase evaluated again
        assert np.array_equal(warm, cold)


class TestTimeStats:
    def test_sine_over_whole_periods(self):
        # 20 periods sampled densely: mean ~ 0, rms exactly 1/sqrt(2)
        t = np.linspace(0.0, 20.0 * 2.0 * np.pi, 40_001)
        ts = TimeSeries(times=t, values=np.sin(t))
        stats = time_stats(ts)
        assert abs(stats.mean) < 1e-3
        assert stats.sigma == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-3)

    def test_constant_series(self):
        t = np.linspace(0.0, 1.0, 200)
        stats = time_stats(TimeSeries(times=t, values=np.full(200, 3.5)))
        assert stats.mean == pytest.approx(3.5)
        assert stats.sigma == 0.0
        assert stats.mean_ci == pytest.approx(0.0, abs=1e-12)
        assert stats.sigma_ci == pytest.approx(0.0, abs=1e-12)

    def test_linear_ramp(self):
        # trapezoid integrates linear functions exactly; the rms deviation
        # of t on [0, 1] is 1/sqrt(12)
        t = np.linspace(0.0, 1.0, 5_000)
        stats = time_stats(TimeSeries(times=t, values=t.copy()))
        assert stats.mean == pytest.approx(0.5, abs=1e-12)
        assert stats.sigma == pytest.approx(1.0 / np.sqrt(12.0), abs=1e-6)

    def test_subinterval_scatter_reflects_drift(self):
        # a drifting series has subinterval means far from the global mean
        t = np.linspace(0.0, 1.0, 1_000)
        drifting = time_stats(TimeSeries(times=t, values=t.copy()))
        flat = time_stats(TimeSeries(times=t, values=np.ones(1_000)))
        assert drifting.mean_ci > 0.1
        assert flat.mean_ci < 1e-12

    def test_needs_enough_points(self):
        t = np.linspace(0.0, 1.0, 50)
        ts = TimeSeries(times=t, values=np.zeros(50))
        with pytest.raises(ValueError):
            time_stats(ts, n_subintervals=10)
        time_stats(ts, n_subintervals=5)  # 50 points cover 5 subintervals

    def test_subinterval_count_validated(self):
        t = np.linspace(0.0, 1.0, 100)
        with pytest.raises(ValueError):
            time_stats(TimeSeries(times=t, values=np.zeros(100)), n_subintervals=1)
