"""End-to-end pipeline: configs, product-state search, runs, artifacts, CLI."""

import contextlib
import dataclasses
import json
import math
import os
import warnings

import numpy as np
import pytest

from ergoquench import dynamics, experiment, haar_oracle
from ergoquench.cli import main
from ergoquench.dynamics import TimeSeries, evolve_expectation, time_stats
from ergoquench.ergodic_ensemble import (PSD_ATOL, DensityMatrix,
                                         second_moment_expectation)
from ergoquench.errors import PipelineError, StateValidationError
from ergoquench.experiment import (MAX_COUNT, ExperimentConfig,
                                   ExperimentReport, ExperimentResult,
                                   find_product_eigenstates,
                                   prepare_protocol_state, prepare_quench,
                                   run_experiment, write_artifacts)
from ergoquench.haar_oracle import estimate_moments
from ergoquench.spectral import diagonalize
from ergoquench.spin_chain import build_basis, build_hamiltonian, draw_disorder

from conftest import random_pure, read_series_csv

FAST_WINDOW = (100.0, 600.0, 2000)


def fast_config(**overrides):
    base = dict(L=6, h=1.0, disorder_seed=1, time_window=FAST_WINDOW)
    base.update(overrides)
    return ExperimentConfig(**base)


def same_product_state_warning(expected: bool):
    """Expect the warning that both spectral edges select one product state,
    or nothing where `expected` is false."""
    if expected:
        return pytest.warns(UserWarning, match="same product state")
    return contextlib.nullcontext()


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig()
        assert cfg.L == 12 and cfg.protocols == ("cat", "mixed")

    @pytest.mark.parametrize("bad", [
        dict(L=7),                      # odd chains cannot split in half
        dict(L=0),
        dict(protocol="quench"),
        dict(time_window=(10.0, 5.0, 500)),
        dict(time_window=(0.0, 1.0, 10)),  # too few points
        dict(h=-1.0),
        dict(mc_samples=-5),
        dict(mc_samples=1),             # no standard error from one sample
        dict(degeneracy_tol=-1.0),
        dict(J=float("nan")),
        dict(J=float("inf")),
        dict(h=float("nan")),
        dict(h=float("inf")),
        dict(degeneracy_tol=float("nan")),
        dict(degeneracy_tol=float("inf")),
        dict(time_window=(0.0, 1.0, 100.7)),  # a point count is whole
        dict(n_subintervals=1),
        dict(n_subintervals=2.5),
        dict(n_subintervals=True),
        dict(time_window=(0.0, 49.5, 100), n_subintervals=11),
        dict(mc_samples=MAX_COUNT + 1),  # no float64 array is that long
        dict(time_window=(0.0, 1.0, MAX_COUNT + 1)),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"L": 6, "coupling": 2.0})
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"L": 6, "prune_floor": 1e-14})

    def test_dict_round_trip(self):
        cfg = fast_config(mc_samples=50)
        again = ExperimentConfig.from_dict(dataclasses.asdict(cfg))
        assert again == cfg

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"L": 6, "time_window": [100.0, 600.0, 2000]}))
        cfg = ExperimentConfig.from_file(path)
        assert cfg.L == 6 and cfg.time_window == (100.0, 600.0, 2000)

    def test_whole_float_counts_are_integers(self):
        cfg = fast_config(time_window=(0.0, 1.0, 20000.0),
                          n_subintervals=10.0)
        assert cfg.time_window == (0.0, 1.0, 20000)
        assert cfg.n_subintervals == 10
        assert all(isinstance(x, int) for x in (cfg.time_window[2],
                                                cfg.n_subintervals))

    def test_single_protocol_selection(self):
        assert fast_config(protocol="cat").protocols == ("cat",)


def edge_bounds(basis, fields, coupling=1.0):
    eig = diagonalize(build_hamiltonian(basis, coupling, fields))
    return float(eig.energies[0]), float(eig.energies[-1])


class TestSplitHalves:
    def test_two_site_energies_by_hand(self):
        # each half is one site, so the product energies are +-(h0 - h1):
        # the left spin up (n_left_up 1) and the right one down, or not
        h0, h1 = fields = draw_disorder(2, 1.0, seed=5)
        basis = build_basis(2, 0)
        low, high = find_product_eigenstates(1.0, fields, basis,
                                             edge_bounds(basis, fields))
        assert {low.n_left_up, high.n_left_up} == {0, 1}
        for prod in (low, high):
            sign = 1.0 if prod.n_left_up == 1 else -1.0
            assert prod.energy == pytest.approx(sign * (h0 - h1))
            # configuration 0b01 (left up) is the first basis state
            assert np.abs(prod.vector).tolist() == (
                [1.0, 0.0] if prod.n_left_up == 1 else [0.0, 1.0])
        assert low.energy == pytest.approx(-abs(h0 - h1))

    def test_split_dimensions_cover_the_sector(self, monkeypatch):
        # the scan builds a left and a right half basis per split; together
        # their products span the whole sector
        halves = []

        def recording(n_sites, total_sz):
            sector = build_basis(n_sites, total_sz)
            halves.append(sector)
            return sector

        fields = draw_disorder(8, 1.0, seed=0)
        basis = build_basis(8, 0)
        bounds = edge_bounds(basis, fields)
        monkeypatch.setattr(experiment, "build_basis", recording)
        find_product_eigenstates(1.0, fields, basis, bounds)
        total = sum(left.dim * right.dim
                    for left, right in zip(halves[::2], halves[1::2]))
        assert len(halves) == 2 * 5 and total == basis.dim


class TestProductEigenstates:
    @staticmethod
    def brute_force(fields, goal):
        """(deviation, n_left_up, left index, right index) of the best
        product of half-chain eigenstates, every pair tried in order."""
        half = len(fields) // 2
        best = None
        for n_left in range(half + 1):
            e_l, e_r = (diagonalize(build_hamiltonian(
                build_basis(half, 2 * n - half), 1.0, part)).energies
                for n, part in ((n_left, fields[:half]),
                                (half - n_left, fields[half:])))
            for a, ea in enumerate(e_l):
                for b, eb in enumerate(e_r):
                    cand = (abs(ea + eb - goal), n_left, a, b)
                    if best is None or cand < best:
                        best = cand
        return best

    @pytest.mark.parametrize("k", [0, 1], ids=["near_min", "near_max"])
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_matches_exhaustive_scan(self, seed, k):
        # one call gives both edges; each case checks the state at edge k
        fields = draw_disorder(6, 1.0, seed=seed)
        basis = build_basis(6, 0)
        bounds = edge_bounds(basis, fields)
        found = find_product_eigenstates(1.0, fields, basis, bounds)[k]
        dev, n_left, a, b = self.brute_force(fields, bounds[k])
        assert (found.n_left_up, found.left_index, found.right_index) == \
            (n_left, a, b)
        assert abs(found.energy - bounds[k]) == pytest.approx(dev, abs=1e-12)

    @pytest.mark.parametrize("total_sz,expected", [(0, (0, 0, 0)),
                                                   (8, (4, 0, 0))])
    def test_ties_break_toward_the_first_split(self, total_sz, expected):
        # at J = h = 0 every product energy is 0 and ties with every other:
        # the first split, left index and right index win at both edges
        fields = draw_disorder(8, 0.0, seed=0)
        basis = build_basis(8, total_sz)
        found = find_product_eigenstates(0.0, fields, basis,
                                         edge_bounds(basis, fields, 0.0))
        for prod in found:
            assert (prod.n_left_up, prod.left_index, prod.right_index) == expected
            assert prod.energy == 0.0

    def test_embedded_vector_is_split_eigenstate(self):
        # H_left + H_right on the full sector must have each embedded product
        # as an exact eigenvector with the reported energy
        n, half = 6, 3
        fields = draw_disorder(n, 1.0, seed=2)
        basis = build_basis(n, 0)
        bounds = edge_bounds(basis, fields)
        # each half keeps its own sites and bonds; the cut bond half - 1
        # is in neither
        sites, bonds = np.arange(n), np.arange(n - 1)
        h_left = build_hamiltonian(basis, 1.0 * (bonds < half - 1),
                                   fields * (sites < half))
        h_right = build_hamiltonian(basis, 1.0 * (bonds >= half),
                                    fields * (sites >= half))
        h_split = h_left.entries + h_right.entries
        for prod in find_product_eigenstates(1.0, fields, basis, bounds):
            residual = h_split @ prod.vector - prod.energy * prod.vector
            assert np.max(np.abs(residual)) < 1e-10
            assert abs(np.linalg.norm(prod.vector) - 1.0) < 1e-12


class TestProtocolStates:
    def test_cat_of_orthogonal_pair(self):
        v1 = np.zeros(4, dtype=complex); v1[0] = 1.0
        v2 = np.zeros(4, dtype=complex); v2[2] = 1.0
        rho = prepare_protocol_state(v1, v2, "cat")
        expected = np.zeros((4, 4), dtype=complex)
        expected[np.ix_([0, 2], [0, 2])] = 0.5
        assert np.allclose(rho.entries, expected)

    def test_mixed_of_orthogonal_pair(self):
        v1 = np.zeros(4, dtype=complex); v1[0] = 1.0
        v2 = np.zeros(4, dtype=complex); v2[2] = 1.0
        rho = prepare_protocol_state(v1, v2, "mixed")
        assert np.allclose(rho.entries, np.diag([0.5, 0.0, 0.5, 0.0]))

    @pytest.mark.parametrize("seed", range(4))
    def test_states_from_unit_vectors_are_psd(self, seed):
        # these constructors skip the eigensolver; run it here instead
        rng = np.random.default_rng(seed)
        d = 12
        v1, v2, v3 = (random_pure(rng, d) for _ in range(3))
        w = rng.uniform(size=3)
        states = [
            prepare_protocol_state(v1, v2, "cat"),
            prepare_protocol_state(v1, v2, "mixed"),
            prepare_protocol_state(v1.real / np.linalg.norm(v1.real),
                                   v2.real / np.linalg.norm(v2.real), "mixed"),
            DensityMatrix.from_mixture(w / w.sum(), [v1, v2, v3]),
        ]
        for state in states:
            assert np.linalg.eigvalsh(state.entries).min() >= -PSD_ATOL
            assert np.trace(state.entries).real == pytest.approx(1.0, abs=1e-12)

    def test_cat_of_opposite_vectors_rejected(self):
        v = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(StateValidationError):
            prepare_protocol_state(v, -v, "cat")

    def test_requires_unit_vectors(self):
        v = np.array([1.0, 1.0], dtype=complex)
        with pytest.raises(StateValidationError):
            prepare_protocol_state(v, v / np.linalg.norm(v), "mixed")

    def test_unknown_protocol_rejected(self):
        v = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            prepare_protocol_state(v, v, "thermal")


def right_half_reduced(rho_sector, basis):
    """Partial trace over the left half, via scatter into the full 2^L space.

    Test-local on purpose: no partial-trace helper exists in the package, so
    this cross-checks the protocol states independently.
    """
    n = basis.n_sites
    half = n // 2
    dim_half = 1 << half
    full = np.zeros((1 << n, 1 << n), dtype=complex)
    full[np.ix_(basis.states, basis.states)] = rho_sector
    # configuration integer = left_bits + right_bits * 2**half, so the
    # reshaped axes come out as (right, left, right', left')
    t = full.reshape(dim_half, dim_half, dim_half, dim_half)
    return np.einsum("abcb->ac", t)


class TestReducedStates:
    def test_cat_and_mixture_share_half_chain_marginals(self):
        # the two protocols differ only in cross terms between the product
        # components; with orthogonal half-chain factors those cross terms
        # vanish under partial trace over either half
        n = 8
        basis = build_basis(n, 0)
        fields = draw_disorder(n, 1.0, seed=0)
        p1, p2 = find_product_eigenstates(1.0, fields, basis,
                                          edge_bounds(basis, fields))
        assert p1.n_left_up != p2.n_left_up  # generic disorder: distinct splits
        cat = prepare_protocol_state(p1.vector, p2.vector, "cat")
        mixed = prepare_protocol_state(p1.vector, p2.vector, "mixed")
        red_cat = right_half_reduced(cat.entries, basis)
        red_mixed = right_half_reduced(mixed.entries, basis)
        assert np.max(np.abs(red_cat - red_mixed)) < 1e-12
        assert np.trace(red_cat).real == pytest.approx(1.0, abs=1e-12)


class TestPrepareQuench:
    def test_real_pipeline_stays_real(self):
        q = prepare_quench(fast_config())
        arrays = {"eigenvectors": q.eig.vectors,
                  "H_R": q.observables["H_R"].entries,
                  "Q u": q.observables["Q"].u,
                  "Q v": q.observables["Q"].v}
        for protocol in ("cat", "mixed"):
            arrays[protocol] = prepare_protocol_state(q.phi1, q.phi2,
                                                      protocol).entries
        assert {k: a.dtype for k, a in arrays.items()} == \
            dict.fromkeys(arrays, np.float64)


@pytest.fixture
def drawn(monkeypatch):
    """The sample indices whose Ginibre entries are drawn, one entry per
    draw."""
    indices = []
    draw = haar_oracle._ginibre_entries

    def recording(seed, first_index, count, n_entries):
        indices.extend(range(first_index, first_index + count))
        return draw(seed, first_index, count, n_entries)

    monkeypatch.setattr(haar_oracle, "_ginibre_entries", recording)
    return indices


class TestRunExperiment:
    def test_small_run_report_structure(self):
        res = run_experiment(fast_config())
        rep = res.report
        assert set(rep.protocols) == {"cat", "mixed"}
        for block in rep.protocols.values():
            assert set(block) == {"H_R", "Q"}
            for entry in block.values():
                assert entry["theory_sigma"] >= 0.0
                assert entry["numeric_sigma"] >= 0.0
                assert np.isfinite(entry["numeric_mean"])
        assert 0.0 < rep.spectral["r_mean"] < 1.0
        assert rep.spectral["e_min"] < rep.spectral["e_max"]
        assert rep.runtime_seconds > 0.0
        assert len(res.series) == 4
        assert np.all(np.diff(res.energies) >= 0.0)
        assert res.overlaps.shape == (rep.spectral["dim"], 2)

    def test_report_gives_the_aliasing_margin(self):
        # (e_max - e_min) dt / pi: L = 6, seed 1 has a spectral width of
        # 16.7204 on the fast grid, dt = 500 / 1999
        spectral = run_experiment(fast_config()).report.spectral
        assert spectral["nyquist_ratio"] == pytest.approx(
            16.7204 * (500.0 / 1999.0) / np.pi, rel=1e-5)
        assert spectral["nyquist_ratio"] > 1.0
        fine = run_experiment(
            fast_config(time_window=(100.0, 101.0, 2000))).report.spectral
        assert fine["nyquist_ratio"] == pytest.approx(
            16.7204 * (1.0 / 1999.0) / np.pi, rel=1e-5)
        assert fine["nyquist_ratio"] < 1.0

    def test_seeded_rerun_is_deterministic(self):
        cfg = fast_config()
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        d1 = dataclasses.asdict(r1.report)
        d2 = dataclasses.asdict(r2.report)
        for d in (d1, d2):
            d.pop("runtime_seconds")
            d.pop("timestamp")
        assert d1 == d2
        for key in r1.series:
            assert np.array_equal(r1.series[key].values, r2.series[key].values)

    def test_mc_block_present_when_requested(self):
        res = run_experiment(fast_config(mc_samples=400, protocol="cat"))
        entry = res.report.protocols["cat"]["H_R"]
        assert entry["mc"]["n_samples"] == 400
        # the estimate should land near the analytic mean
        assert abs(entry["mc"]["mean"] - entry["theory_mean"]) <= \
            5.0 * entry["mc"]["mean_se"]

    def test_one_sampling_pass_per_state(self, drawn):
        config = fast_config(mc_samples=40, protocol="both")
        res = run_experiment(config)
        # both observables and both moments of each of the two states
        assert sorted(drawn) == sorted(list(range(40)) * 2)

        q = prepare_quench(config)
        for protocol in ("cat", "mixed"):
            rho0 = prepare_protocol_state(q.phi1, q.phi2, protocol)
            for name, obs in q.observables.items():
                first, = estimate_moments(rho0, q.partition, [obs], 1, 40,
                                          seed=config.disorder_seed)
                second, = estimate_moments(rho0, q.partition, [obs, obs], 2,
                                           40, seed=config.disorder_seed)
                assert res.report.protocols[protocol][name]["mc"] == {
                    "mean": first.value, "mean_se": first.std_error,
                    "second_moment": second.value,
                    "second_moment_se": second.std_error, "n_samples": 40}

    def test_series_of_a_run_share_one_phase_table(self, phase_calls):
        res = run_experiment(fast_config(protocol="both"))
        assert len(res.series) == 4
        in_run = len(phase_calls)
        dynamics._phase_table.cache_clear()
        del phase_calls[:]
        grid = np.linspace(*FAST_WINDOW)
        list(dynamics._phase_factors(res.energies, grid))
        assert in_run == len(phase_calls) > 0

    def test_protocol_states_are_never_formed_densely(self, monkeypatch):
        formed = []
        entries = DensityMatrix.entries

        def recording(state):
            if state.vectors is not None:
                formed.append(state.vectors.shape)
            return entries.fget(state)

        monkeypatch.setattr(DensityMatrix, "entries", property(recording))
        config = fast_config(L=8, mc_samples=0)
        run_experiment(config)
        assert formed == []
        # the Monte-Carlo oracle rotates the factors, U P, too
        run_experiment(dataclasses.replace(config, mc_samples=2))
        assert formed == []

    def test_q_theory_mean_is_tiny_for_small_overlap(self):
        res = run_experiment(fast_config())
        overlap = res.report.states["overlap_sum"]
        for protocol in ("cat", "mixed"):
            q = res.report.protocols[protocol]["Q"]
            assert abs(q["theory_mean"]) <= 2.0 * overlap + 1e-12


    @pytest.mark.parametrize("overrides", [
        {},
        {"L": 4, "J": 0.0, "h": 0.0},  # phi1 = phi2, so Q = 2 phi phi^T
    ])
    def test_q_numbers_match_the_dense_operator(self, overrides):
        config = fast_config(**overrides)
        with same_product_state_warning(bool(overrides)):
            res = run_experiment(config)
        q = prepare_quench(config)
        dense = q.observables["Q"].dense()
        grid = np.linspace(*config.time_window)
        for protocol in ("cat", "mixed"):
            rho0 = prepare_protocol_state(q.phi1, q.phi2, protocol)
            pred = second_moment_expectation(rho0, q.partition, dense, dense)
            series = evolve_expectation(rho0, dense, q.eig.energies, grid)
            stats = time_stats(series, config.n_subintervals)
            want = {"theory_mean": pred.mean_a,
                    "theory_sigma": float(np.sqrt(max(pred.connected, 0.0))),
                    "numeric_mean": stats.mean, "numeric_sigma": stats.sigma}
            got = res.report.protocols[protocol]["Q"]
            for key, value in want.items():
                assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-15)
            gap = res.series[(protocol, "Q")].values - series.values
            assert np.max(np.abs(gap)) <= 1e-13 * np.max(np.abs(series.values))


class TestSameProductState:
    @pytest.mark.parametrize("overrides", [
        {"L": 4, "J": 0.0, "h": 0.0},  # flat spectrum: every product state ties
        {"L": 4, "total_sz": 4},       # one level, one product state
    ])
    def test_coincident_pair_is_flagged(self, overrides):
        with pytest.warns(UserWarning, match="cat and mixed are then one state"):
            res = run_experiment(fast_config(**overrides))
        assert res.report.states["same_product_state"] is True

    def test_default_config_is_not_flagged(self):
        # the default chain and realization; the flag does not depend on
        # the time window
        config = dataclasses.replace(ExperimentConfig(),
                                     time_window=(3000.0, 3099.5, 200))
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            res = run_experiment(config)
        assert res.report.states["same_product_state"] is False


class TestArtifacts:
    def test_writes_complete_set(self, tmp_path):
        res = run_experiment(fast_config())
        out = tmp_path / "run1"
        written = write_artifacts(res, out)
        names = sorted(os.path.basename(p) for p in written)
        assert names == ["overlaps.csv", "report.json",
                         "series_cat_H_R.csv", "series_cat_Q.csv",
                         "series_mixed_H_R.csv", "series_mixed_Q.csv",
                         "spectrum.csv"]
        report = json.loads((out / "report.json").read_text())
        assert report["spectral"]["dim"] == 20
        assert report["timestamp"]
        back = read_series_csv(out / "series_cat_H_R.csv")
        assert np.array_equal(back.values, res.series[("cat", "H_R")].values)
        spectrum = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)
        assert np.allclose(spectrum[:, 1], res.energies)

    @staticmethod
    def bare_result(energies, series):
        """A result holding only what the CSVs are formatted from."""
        report = ExperimentReport(config={}, spectral={}, states={},
                                  protocols={}, closed_form={})
        return ExperimentResult(
            report=report, series=series, energies=energies,
            overlaps=np.column_stack([energies, energies[::-1]]))

    def test_series_csv_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        ts = TimeSeries(times=np.linspace(3000.0, 13000.0, 300),
                        values=rng.normal(size=300))
        write_artifacts(self.bare_result(np.zeros(2), {("cat", "Q"): ts}),
                        tmp_path)
        back = read_series_csv(tmp_path / "series_cat_Q.csv")
        assert np.array_equal(back.times, ts.times)
        assert np.array_equal(back.values, ts.values)

    def test_series_csv_bytes_match_per_row_formatting(self, tmp_path):
        values = np.array([-0.0, 5e-324, 1e308, -1e308, 3000.0, 0.1])
        ts = TimeSeries(times=np.linspace(0.1, 3000.0, 6), values=values)
        write_artifacts(self.bare_result(np.zeros(2), {("mixed", "H_R"): ts}),
                        tmp_path)
        want = "t,value\n" + "".join(
            f"{float(t):.17g},{float(v):.17g}\n"
            for t, v in zip(ts.times, ts.values))
        assert (tmp_path / "series_mixed_H_R.csv").read_bytes() == \
            want.encode()
        assert "-0\n" in want and "4.9406564584124654e-324" in want

    def test_csv_bytes_match_per_row_formatting(self, tmp_path):
        edge = np.array([-0.0, 5e-324, 1e308, -1e308, 3000.0, 0.1])
        result = self.bare_result(edge, {})
        spectrum, overlaps = ["index,energy\n"], [
            "index,energy,abs_phi1,abs_phi2,shared_support\n"]
        with np.errstate(over="ignore"):  # 1e308 * -1e308 is -inf
            write_artifacts(result, tmp_path)
            for i, e in enumerate(result.energies):
                spectrum.append(f"{i},{float(e):.17g}\n")
                a1, a2 = result.overlaps[i]
                overlaps.append(f"{i},{float(e):.17g},{a1:.17g},{a2:.17g},"
                                f"{a1 * a2:.17g}\n")
        assert (tmp_path / "spectrum.csv").read_bytes() == \
            "".join(spectrum).encode()
        assert (tmp_path / "overlaps.csv").read_bytes() == \
            "".join(overlaps).encode()

    def test_failure_leaves_no_partial_output(self, tmp_path):
        res = run_experiment(fast_config())
        res.report.protocols["cat"]["H_R"]["numeric_mean"] = float("nan")
        out = tmp_path / "broken"
        with pytest.raises(PipelineError, match="report"):
            write_artifacts(res, out)
        assert list(out.iterdir()) == []


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "L": 6, "h": 1.0, "disorder_seed": 1,
        "time_window": [100.0, 600.0, 2000],
        "output_dir": str(tmp_path / "default_out"),
    }))
    return path


class TestCli:
    def test_run_writes_artifacts(self, config_file, tmp_path, capsys):
        out = tmp_path / "cli_out"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        assert "seed 1 done" in capsys.readouterr().out

    def test_run_batch_aggregates(self, config_file, tmp_path):
        out = tmp_path / "batch"
        code = main(["run", "--config", str(config_file),
                     "--realizations", "2", "--out", str(out)])
        assert code == 0
        assert (out / "seed_1" / "report.json").exists()
        assert (out / "seed_2" / "report.json").exists()
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["seeds"] == [1, 2]
        assert len(agg["r_mean_per_seed"]) == 2

    def test_output_dir_precedence(self, config_file, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("ERGOQUENCH_OUTPUT_DIR", str(env_dir))
        assert main(["run", "--config", str(config_file)]) == 0
        assert (env_dir / "report.json").exists()
        flag_dir = tmp_path / "from_flag"
        assert main(["run", "--config", str(config_file),
                     "--out", str(flag_dir)]) == 0
        assert (flag_dir / "report.json").exists()

    def test_spectrum_prints_diagnostics(self, config_file, capsys):
        assert main(["spectrum", "--config", str(config_file)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dim"] == 20
        assert 0.0 < data["r_mean"] < 1.0

    def test_oracle_reports_analytic_comparison(self, config_file, capsys):
        code = main(["oracle", "--config", str(config_file),
                     "--order", "1", "--samples", "200"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        entry = data["protocols"]["cat"]["H_R"]
        assert {"estimate", "std_error", "analytic"} <= set(entry)

    def test_missing_config_is_tagged_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert "[config]" in capsys.readouterr().err

    def test_invalid_config_is_tagged_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"L": 7}))
        assert main(["run", "--config", str(path)]) == 1
        assert "[config]" in capsys.readouterr().err

    def test_oracle_at_full_size(self, tmp_path, capsys):
        # L = 12, d = 924 in singleton sectors: every estimate within 6
        # standard errors of the analytic second moment
        path = tmp_path / "l12.json"
        path.write_text(json.dumps({"L": 12}))
        code = main(["oracle", "--config", str(path), "--order", "2",
                     "--samples", "1000"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_samples"] == 1000
        entries = [e for block in data["protocols"].values()
                   for e in block.values()]
        assert len(entries) == 4
        for entry in entries:
            assert entry["std_error"] > 0.0
            assert abs(entry["estimate"] - entry["analytic"]) \
                <= 6.0 * entry["std_error"]

    def test_oracle_is_one_pass_per_state(self, config_file, capsys, drawn):
        assert main(["oracle", "--config", str(config_file), "--order", "3",
                     "--samples", "30"]) == 0
        assert sorted(drawn) == sorted(list(range(30)) * 2)

        data = json.loads(capsys.readouterr().out)
        config = ExperimentConfig.from_file(config_file)
        q = prepare_quench(config)
        for protocol in ("cat", "mixed"):
            rho0 = prepare_protocol_state(q.phi1, q.phi2, protocol)
            for name, obs in q.observables.items():
                est, = estimate_moments(rho0, q.partition, [obs] * 3, 3, 30,
                                        seed=config.disorder_seed)
                assert data["protocols"][protocol][name] == {
                    "estimate": est.value, "std_error": est.std_error}

    def test_single_sample_config_fails_under_config(self, tmp_path, capsys,
                                                     monkeypatch):
        built = []
        monkeypatch.setattr("ergoquench.experiment.prepare_quench",
                            lambda *args: built.append(args))
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"L": 6, "mc_samples": 1}))
        assert main(["run", "--config", str(path)]) == 1
        assert "[config]" in capsys.readouterr().err and built == []

    @pytest.mark.parametrize("window", [
        dict(time_window=[0, 49.5, 100], n_subintervals=11),
        dict(n_subintervals=2.5),
        dict(n_subintervals=1),
        dict(time_window=[0, 49.5, 100.7]),
        dict(time_window=[0, 49.5, 10**400]),
        dict(time_window=[0, math.inf, 100]),
        dict(time_window=[-1e308, 1e308, 100]),
    ])
    def test_bad_window_fails_under_config(self, window, tmp_path, capsys,
                                           monkeypatch):
        built = []
        monkeypatch.setattr("ergoquench.experiment.prepare_quench",
                            lambda *args: built.append(args))
        path = tmp_path / "window.json"
        path.write_text(json.dumps(dict(L=8, **window)))
        assert main(["run", "--config", str(path)]) == 1
        assert "[config]" in capsys.readouterr().err and built == []

    @pytest.mark.parametrize("raw", [
        {"L": 4.5}, {"total_sz": 0.5}, {"disorder_seed": 1.5},
        {"disorder_seed": -1}, {"disorder_seed": 2**64, "mc_samples": 2},
        {"mc_samples": 2.5}, {"J": True}, {"h": False},
        {"degeneracy_tol": True}, {"output_dir": 5}, {"mc_samples": 10**400},
        {"J": 10**400}, {"h": 10**400}, {"degeneracy_tol": 10**400},
    ])
    def test_bad_field_fails_under_config(self, raw, tmp_path, capsys,
                                          monkeypatch):
        built = []
        monkeypatch.setattr("ergoquench.experiment.prepare_quench",
                            lambda *args: built.append(args))
        path = tmp_path / "field.json"
        path.write_text(json.dumps(dict({"L": 4}, **raw)))
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "[config]" in err and f"{next(iter(raw))} " in err
        assert built == []

    @pytest.mark.parametrize("raw", [
        {"L": 4, "mc_samples": 10**300},
        {"L": 4, "time_window": [100, 600, 10**300]},
    ])
    def test_count_beyond_any_array_fails_before_diagonalizing(
            self, raw, tmp_path, capsys, monkeypatch):
        # 10**300 is a finite float64, but numpy cannot shape an array of
        # that many values
        solved = []
        monkeypatch.setattr("ergoquench.experiment.diagonalize",
                            lambda *args: solved.append(args))
        path = tmp_path / "count.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 1
        assert "[config]" in capsys.readouterr().err and solved == []

    def test_batch_past_the_last_seed_fails_under_config(self, tmp_path,
                                                         capsys, monkeypatch):
        built = []
        monkeypatch.setattr("ergoquench.experiment.prepare_quench",
                            lambda *args: built.append(args))
        path = write_config(tmp_path, {"L": 4, "disorder_seed": 2**64 - 1})
        assert main(["run", "--config", str(path), "--realizations", "2",
                     "--out", str(tmp_path / "out")]) == 1
        assert "[config] disorder_seed " in capsys.readouterr().err
        assert built == []

    def test_whole_float_length_runs_like_the_int(self, tmp_path):
        reports = []
        for length in (4, 4.0):
            path = write_config(tmp_path, {"L": length})
            out = tmp_path / f"out_{length}"
            assert main(["run", "--config", str(path), "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            del report["timestamp"], report["runtime_seconds"]
            reports.append((report, sorted(
                (p.name, p.read_bytes()) for p in out.glob("*.csv"))))
        assert reports[0] == reports[1]
        assert reports[0][0]["config"]["L"] == 4

    def test_bad_oracle_arguments(self, config_file, capsys):
        assert main(["oracle", "--config", str(config_file),
                     "--order", "0", "--samples", "100"]) == 1
        assert "[config]" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", [MAX_COUNT + 1, 10**20])
    def test_oracle_samples_beyond_any_array_fail_before_the_quench(
            self, samples, tmp_path, capsys, monkeypatch):
        # the bound of mc_samples, checked before anything is diagonalized
        built = []
        monkeypatch.setattr("ergoquench.cli.prepare_quench",
                            lambda *args: built.append(args))
        path = tmp_path / "count.json"
        path.write_text(json.dumps({"L": 4}))
        assert main(["oracle", "--config", str(path), "--order", "2",
                     "--samples", str(samples)]) == 1
        err = capsys.readouterr().err
        assert f"[config] --samples must be 2 to {MAX_COUNT}" in err
        assert built == []


SMALL_SECTORS = [{"L": 2}, {"L": 4, "total_sz": 4}]  # 2 levels, 1 level


def write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(raw, time_window=[100.0, 600.0, 200])))
    return path


def cli_args(command, path, tmp_path):
    extra = {"run": ["--out", str(tmp_path / "out")],
             "spectrum": [],
             "oracle": ["--order", "2", "--samples", "50"]}[command]
    return [command, "--config", str(path), *extra]


class TestCliSharedPrefix:
    @pytest.mark.parametrize("command", ["run", "spectrum", "oracle"])
    @pytest.mark.parametrize("raw", SMALL_SECTORS)
    def test_small_sector_reports_null_gap_ratio(self, command, raw,
                                                 tmp_path, capsys):
        one_level = raw is SMALL_SECTORS[1]  # both edges pick its one state
        with same_product_state_warning(command == "run" and one_level):
            assert main(cli_args(command, write_config(tmp_path, raw),
                                 tmp_path)) == 0
        if command == "run":
            report = json.loads((tmp_path / "out" / "report.json").read_text())
            assert report["spectral"]["r_mean"] is None
        elif command == "spectrum":
            assert json.loads(capsys.readouterr().out)["r_mean"] is None

    def test_batch_average_skips_null_gap_ratios(self, tmp_path):
        path = write_config(tmp_path, SMALL_SECTORS[0])
        out = tmp_path / "batch"
        assert main(["run", "--config", str(path), "--realizations", "2",
                     "--out", str(out)]) == 0
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["r_mean_per_seed"] == [None, None]
        assert agg["r_mean_average"] is None and agg["r_mean_std"] is None

    @pytest.mark.parametrize("command", ["run", "spectrum", "oracle"])
    @pytest.mark.parametrize("field,text", [
        ("h", "NaN"), ("J", "Infinity"), ("J", "-Infinity"),
        ("degeneracy_tol", "NaN"),
    ])
    def test_non_finite_parameter_is_a_config_error(self, command, field, text,
                                                    tmp_path, capsys):
        path = tmp_path / "config.json"  # json reads NaN and Infinity literally
        path.write_text(f'{{"L": 4, "{field}": {text}, '
                        '"time_window": [100.0, 600.0, 200]}')
        assert main(cli_args(command, path, tmp_path)) == 1
        err = capsys.readouterr().err
        assert "[config]" in err and f"{field} " in err

    @pytest.mark.parametrize("command", ["run", "spectrum", "oracle"])
    @pytest.mark.parametrize("raw,tag", [
        ({"L": 4, "total_sz": 1}, "[build]"),              # parity mismatch
    ])
    def test_prefix_failure_has_the_same_stage_tag(self, command, raw, tag,
                                                   tmp_path, capsys):
        assert main(cli_args(command, write_config(tmp_path, raw), tmp_path)) == 1
        err = capsys.readouterr().err
        assert tag in err and "[unexpected]" not in err

    @pytest.mark.parametrize("command", ["run", "spectrum", "oracle"])
    def test_solver_overflow_is_a_diagonalize_error(self, command, monkeypatch,
                                                    tmp_path, capsys):
        # no finite config makes every LAPACK build overflow, so a stand-in
        # eigh returns one overflowed energy
        real_eigh = np.linalg.eigh

        def overflowing_eigh(m):
            energies, vectors = real_eigh(m)
            energies[0] = -np.inf
            return energies, vectors

        monkeypatch.setattr(np.linalg, "eigh", overflowing_eigh)
        path = write_config(tmp_path, {"L": 4})
        assert main(cli_args(command, path, tmp_path)) == 1
        err = capsys.readouterr().err
        assert "[diagonalize]" in err and "non-finite energies" in err

    @pytest.mark.parametrize("command", ["run", "spectrum", "oracle"])
    def test_overflowing_spectral_width_is_a_diagonalize_error(self, command,
                                                               tmp_path, capsys):
        # finite energies about -1.3e308 and 6e307: only their difference
        # overflows, and it must fail before any evolution
        path = write_config(tmp_path, {"L": 4, "J": 2e307})
        assert main(cli_args(command, path, tmp_path)) == 1
        captured = capsys.readouterr()
        assert "[diagonalize]" in captured.err and "overflows" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    # a finite spectrum of width 9.5e160 whose second moments overflow
    OVERFLOWING_MOMENTS = {"L": 4, "J": 1e160}

    def test_overflowing_moment_fails_run_before_any_series(self, monkeypatch,
                                                            tmp_path, capsys):
        evolved = []
        monkeypatch.setattr("ergoquench.experiment.evolve_expectation",
                            lambda *args: evolved.append(args))
        path = write_config(tmp_path, self.OVERFLOWING_MOMENTS)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(cli_args("run", path, tmp_path)) == 1
        err = capsys.readouterr().err
        assert "[evolve]" in err and "not finite" in err
        assert evolved == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("order", ["1", "2"])
    def test_overflowing_moment_fails_oracle(self, order, tmp_path, capsys):
        path = write_config(tmp_path, self.OVERFLOWING_MOMENTS)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["oracle", "--config", str(path), "--order", order,
                         "--samples", "8"]) == 1
        captured = capsys.readouterr()
        assert "[oracle]" in captured.err and "not finite" in captured.err
        assert captured.out == ""

    def test_spectrum_of_overflowing_moments_is_finite_json(self, tmp_path,
                                                            capsys):
        # the spectrum itself is finite, so spectrum succeeds with strict JSON
        path = write_config(tmp_path, self.OVERFLOWING_MOMENTS)
        assert main(cli_args("spectrum", path, tmp_path)) == 0

        def reject(name):
            raise ValueError(f"non-finite {name} in the output")

        out = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert out["spectral_width"] == pytest.approx(9.46e160, rel=1e-3)

    @pytest.mark.parametrize("command", ["run", "spectrum", "oracle"])
    def test_fully_degenerate_spectrum_reports_null_gap_ratio(self, command,
                                                              tmp_path, capsys):
        # J = h = 0: every level is 0, so only the gap ratio is undefined
        path = write_config(tmp_path, {"L": 4, "J": 0.0, "h": 0.0})
        with same_product_state_warning(command == "run"):
            assert main(cli_args(command, path, tmp_path)) == 0
        if command == "run":
            report = json.loads((tmp_path / "out" / "report.json").read_text())
            assert report["spectral"]["r_mean"] is None
            assert report["spectral"]["n_sectors"] == 1
        elif command == "spectrum":
            assert json.loads(capsys.readouterr().out)["r_mean"] is None
