"""End-to-end pipeline: configs, product-state search, runs, artifacts, CLI."""

import contextlib
import dataclasses
import json
import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from ergoquench import dynamics, experiment, haar_oracle, spectral
from ergoquench.cli import main
from ergoquench.dynamics import TimeSeries, evolve_expectation, time_stats
from ergoquench.ergodic_ensemble import (PSD_ATOL, DensityMatrix,
                                         second_moment_expectation)
from ergoquench.errors import PipelineError, StateValidationError
from ergoquench.experiment import (ARTIFACTS, MAX_COUNT, ExperimentConfig,
                                   ExperimentReport, ExperimentResult,
                                   disorder_average, find_product_eigenstates,
                                   json_text, prediction_block,
                                   prepare_protocol_state, prepare_quench,
                                   quench_states, run_experiment,
                                   write_artifacts)
from ergoquench.haar_oracle import estimate_moments
from ergoquench.spectral import cluster_sectors, diagonalize
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
        dict(L=True),                   # a bool is not a number
        dict(J=float("nan")),
        dict(J=float("inf")),
        dict(h=float("nan")),
        dict(h=float("inf")),
        dict(h=10**400),                # beyond float64
        dict(disorder_seed=2**64),
        dict(time_window=(0.0, 1.0, 100.7)),  # a point count is whole
        dict(time_window=(0.0, 1.0, 99)),  # fewer than ten per sub-window
        dict(time_window=(5.0, 5.0, 100)),  # no span
        dict(total_sz=0.5),
        dict(time_window=(0.0, math.inf, 100)),  # no finite span
        dict(mc_samples=MAX_COUNT + 1),  # no float64 array is that long
        dict(time_window=(0.0, 1.0, MAX_COUNT + 1)),
        dict(L=8, J=5e307),             # a diagonal sum beyond float64
        dict(L=8, h=5e307),
        dict(L=2, J=1e308),             # the hop 2 J beyond float64
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"L": 6, "coupling": 2.0})
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"L": 6, "prune_floor": 1e-14})
        for key, value in (("n_subintervals", 10), ("output_dir", "x"),
                           ("degeneracy_tol", 0.1)):
            with pytest.raises(ValueError, match="unknown config keys"):
                ExperimentConfig.from_dict({key: value})

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
        cfg = fast_config(time_window=(0.0, 1.0, 20000.0), mc_samples=50.0)
        assert cfg.time_window == (0.0, 1.0, 20000) and cfg.mc_samples == 50
        assert all(isinstance(x, int) for x in (cfg.time_window[2],
                                                cfg.mc_samples))
        # a JSON list, integer bounds included, is stored as (float, float, int)
        window = ExperimentConfig.from_dict(
            {"time_window": [0, 1, 20000.0]}).time_window
        assert type(window) is tuple and window == (0.0, 1.0, 20000)
        assert [type(x) for x in window] == [float, float, int]

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
    @pytest.mark.parametrize("seed,f", [(0, 0.0), (3, 0.0), (7, 0.0),
                                        (3, 0.25)],
                             ids=["0", "3", "7", "3-interior"])
    def test_matches_exhaustive_scan(self, seed, f, k):
        # one call gives both targets, (E_min + f W, E_max - f W) over the
        # spectral width W; each case checks the state nearest target k
        fields = draw_disorder(6, 1.0, seed=seed)
        basis = build_basis(6, 0)
        e_min, e_max = edge_bounds(basis, fields)
        inset = f * (e_max - e_min)
        targets = (e_min + inset, e_max - inset)
        found = find_product_eigenstates(1.0, fields, basis, targets)[k]
        dev, n_left, a, b = self.brute_force(fields, targets[k])
        assert (found.n_left_up, found.left_index, found.right_index) == \
            (n_left, a, b)
        assert abs(found.energy - targets[k]) == pytest.approx(dev, abs=1e-12)

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
        arrays = {"eigenvectors": experiment.prepare_spectrum(
                      fast_config()).eig.vectors,
                  "H_R": q.observables["H_R"].entries,
                  "Q u": q.observables["Q"].u,
                  "Q v": q.observables["Q"].v}
        for protocol in ("cat", "mixed"):
            arrays[protocol] = prepare_protocol_state(q.phi1, q.phi2,
                                                      protocol).entries
        assert {k: a.dtype for k, a in arrays.items()} == \
            dict.fromkeys(arrays, np.float64)

    @pytest.mark.skipif(spectral._lapack() is None,
                        reason="numpy does not export dsytrd, dstedc, dormtr")
    def test_holds_three_dxd_arrays_at_most(self):
        # the L = 12 chain (d = 924): H is solved in place (H, the
        # reflectors, d^2 / 2, and dstedc's d^2 workspace), then H_R V is
        # formed over H_R and V^dag (H_R V) one block of columns at a time
        # (V, H_R and the block), and H_R is averaged in place; the product
        # states, found last, add vectors of length d only.  A first small
        # run loads the solver, whose one-time allocations are not part of
        # it.  (The name predates the bound of 2.5 d x d arrays.)
        config = ExperimentConfig(L=12, time_window=(3000.0, 3049.5, 100))
        prepare_quench(dataclasses.replace(config, L=4))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            q = prepare_quench(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q.spectral["dim"] == 924
        assert peak - start <= 2.6 * q.spectral["dim"] ** 2 * 8

    @pytest.mark.skipif(spectral._lapack() is None,
                        reason="numpy does not export dsytrd, dstedc, dormtr")
    def test_run_holds_two_and_a_half_dxd_arrays_at_most(self):
        # the L = 12 chain (d = 924) on 100 points: after the prefix (the
        # test above) V is gone, so the moments hold H_R and a few tiles of
        # 64 rows, and the H_R series H_R and half of its coefficients, so
        # the run's peak is the prefix's.  At L = 10 the
        # arrays of length d and fixed overheads alone pass the bound.
        config = ExperimentConfig(L=12, time_window=(3000.0, 3049.5, 100))
        run_experiment(dataclasses.replace(config, L=4))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        d = result.report.spectral["dim"]
        assert d == 924
        assert peak - start <= 2.6 * d ** 2 * 8

    @pytest.mark.parametrize("available_kb,fits", [(60, False), (250, True)])
    def test_memory_check_before_the_build(self, available_kb, fits,
                                           tmp_path, monkeypatch):
        # L = 8 (d = 70) needs 2.6 d^2 float64, 102 kB, with the LAPACK
        # routines and 5.2 d^2, 204 kB, in np.linalg.eigh without them
        meminfo = tmp_path / "meminfo"
        meminfo.write_text(f"MemTotal: 900 kB\nMemAvailable: {available_kb} kB\n")
        monkeypatch.setattr(spectral, "MEMINFO", str(meminfo))
        config = ExperimentConfig(L=8, time_window=(3000.0, 3049.5, 100))
        if fits:
            assert experiment.prepare_spectrum(config).basis.dim == 70
            return
        with pytest.raises(PipelineError,
                           match=r"\[build\] d = 70 needs 0\.[12] MB for "
                                 r"(2\.6|5\.2) d x d arrays in .+, and "
                                 r"0\.1 MB is available"):
            experiment.prepare_spectrum(config)

    def test_memory_check_counts_the_solver_path(self, tmp_path,
                                                 monkeypatch):
        # 150 kB holds the 102 kB of the LAPACK routines at L = 8 (d = 70),
        # not the 204 kB of np.linalg.eigh
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal: 900 kB\nMemAvailable: 150 kB\n")
        monkeypatch.setattr(spectral, "MEMINFO", str(meminfo))
        config = ExperimentConfig(L=8, time_window=(3000.0, 3049.5, 100))
        if spectral._lapack() is not None:
            assert experiment.prepare_spectrum(config).basis.dim == 70
        monkeypatch.setattr(spectral, "_lapack", lambda: None)
        with pytest.raises(PipelineError,
                           match=r"\[build\] d = 70 needs 0\.2 MB for 5\.2 "
                                 r"d x d arrays in np\.linalg\.eigh, and "
                                 r"0\.2 MB is available"):
            experiment.prepare_spectrum(config)

    @pytest.mark.parametrize("clustered", [False, True])
    def test_moments_hold_no_dxd_array(self, clustered):
        # the L = 12 run's cat state (d = 924) over its singletons and over
        # the 903 sectors of cluster_sectors(energies, 1e-4 W): the moments
        # of H_R and Q hold a few tiles of 64 rows beside their inputs
        q = prepare_quench(ExperimentConfig(
            L=12, time_window=(3000.0, 3049.5, 100)))
        e = q.energies
        partition = (cluster_sectors(e, 1e-4 * (e[-1] - e[0])) if clustered
                     else q.partition)
        assert partition.n_sectors == (903 if clustered else 924)
        rho0 = prepare_protocol_state(q.phi1, q.phi2, "cat")
        prediction_block(rho0, partition, q.observables, 0, 0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            prediction_block(rho0, partition, q.observables, 0, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 0.4 * len(e) ** 2 * 8

    def test_host_without_meminfo_is_not_checked(self, tmp_path, monkeypatch):
        monkeypatch.setattr(spectral, "MEMINFO", str(tmp_path / "absent"))
        config = ExperimentConfig(L=8, time_window=(3000.0, 3049.5, 100))
        assert experiment.prepare_spectrum(config).basis.dim == 70

    def test_one_spectrum_serves_many_targets_and_partitions(self,
                                                             monkeypatch):
        # L = 10 (d = 252): three target pairs, (E_min + f W, E_max - f W)
        # over the spectral width W, and five partitions, all from one
        # full-chain diagonalization and one rotation of H_R; the run's
        # own prefix is made afterwards, for comparison
        solved, rotated = [], []
        solve = experiment.diagonalize
        rotate = spectral.EigenSystem.to_eigenbasis

        def counting_solve(op, **kwargs):
            solved.append(op.dim)
            return solve(op, **kwargs)

        def counting_rotate(eig, *args, **kwargs):
            rotated.append(len(eig.energies))
            return rotate(eig, *args, **kwargs)

        monkeypatch.setattr(experiment, "diagonalize", counting_solve)
        monkeypatch.setattr(spectral.EigenSystem, "to_eigenbasis",
                            counting_rotate)
        config = ExperimentConfig(L=10, time_window=(3000.0, 3049.5, 100))
        spec = experiment.prepare_spectrum(config)
        h_r = experiment.right_half_energy(spec, config.J)
        e_min, e_max = spec.bounds
        width = e_max - e_min
        pairs = [quench_states(spec, config.J, (e_min + f * width,
                                                e_max - f * width), h_r)
                 for f in (0.0, 0.1, 0.25)]
        partitions = [cluster_sectors(spec.eig.energies, rel * width)
                      for rel in (1e-8, 1e-3, 1e-2, 3e-2, 1e-1)]
        blocks = [prediction_block(prepare_protocol_state(p.phi1, p.phi2, pr),
                                   part, p.observables, 0, 0)
                  for p in pairs for part in partitions
                  for pr in ("cat", "mixed")]
        d = spec.basis.dim
        assert d == 252 and solved.count(d) == 1 and rotated == [d]
        # f = 0 is the run's pair, bit for bit
        q = prepare_quench(config)
        assert np.array_equal(h_r.entries, q.observables["H_R"].entries)
        edge = pairs[0]
        for name in ("vector", "energy", "n_left_up", "left_index",
                     "right_index"):
            for got, want in ((edge.prod1, q.prod1), (edge.prod2, q.prod2)):
                assert np.array_equal(getattr(got, name), getattr(want, name))
        assert np.array_equal(edge.phi1, q.phi1)
        assert np.array_equal(edge.phi2, q.phi2)
        # the targets move inward, and so do the states nearest them
        lows = [p.prod1.energy for p in pairs]
        highs = [p.prod2.energy for p in pairs]
        assert lows == sorted(set(lows)) and highs == sorted(set(highs))[::-1]
        # the run's own partition first, then ever coarser ones
        assert np.array_equal(partitions[0].starts, spec.partition.starts)
        counts = [part.n_sectors for part in partitions]
        assert counts == sorted(set(counts))[::-1]
        assert len(blocks) == 30 and all(
            math.isfinite(entry[key]) for block in blocks
            for entry in block.values()
            for key in ("theory_mean", "theory_sigma"))


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
        # each fact once: overlap_sum lives in states only
        assert set(rep.states) == {"e1", "e2", "overlap_max", "overlap_sum",
                                   "same_product_state"}
        sigma = {"sigma_q"} if rep.closed_form["applicable"] else set()
        assert set(rep.closed_form) == {"applicable", "threshold"} | sigma

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
                first, = estimate_moments(rho0, q.partition, [obs], 1,
                                          40, seed=config.disorder_seed)
                second, = estimate_moments(rho0, q.partition, [obs, obs],
                                           2, 40, seed=config.disorder_seed)
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
            pred = second_moment_expectation(rho0, q.partition, dense,
                                             dense)
            series = evolve_expectation(rho0, dense, q.energies, grid)
            stats = time_stats(series)
            want = {"theory_mean": pred.mean_a,
                    "theory_sigma": float(np.sqrt(max(pred.connected, 0.0))),
                    "theory_second_moment": pred.second_moment,
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

    def test_series_of_protocols_left_out_are_removed(self, tmp_path):
        # another run's series never sit beside this run's report, and no
        # file outside the fixed set of series names is touched
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        write_artifacts(run_experiment(fast_config()), out)
        kept = ["notes.txt", "series_both_Q.csv"]
        for name in kept:
            (out / name).write_text("kept")
        cat = run_experiment(fast_config(protocol="cat"))
        write_artifacts(cat, out)
        write_artifacts(cat, fresh)
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [p.name for p in fresh.iterdir()] + kept)
        assert all((out / name).read_text() == "kept" for name in kept)


class TestBlocks:
    @pytest.mark.parametrize("values,want", [
        ([], (None, None, 0)),
        ([None, None], (None, None, 0)),
        ([0.5], (0.5, 0.0, 1)),
        ([None, 0.4, None, 0.6], (0.5, math.sqrt(0.02), 2)),
        ([0.1, 0.2, 0.6, 0.3], (0.3, math.sqrt(0.14 / 3), 4)),
    ])
    def test_disorder_average_leaves_out_nulls(self, values, want):
        got = disorder_average(iter(values))
        assert got == pytest.approx(want, rel=1e-14)
        assert [type(x) for x in got] == [type(x) for x in want]

    def test_json_text_is_sorted_indented_strict_json(self):
        assert json_text({"b": 1, "a": [0.5, None]}) == (
            '{\n  "a": [\n    0.5,\n    null\n  ],\n  "b": 1\n}\n')
        with pytest.raises(ValueError):
            json_text({"a": math.nan})


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "L": 6, "h": 1.0, "disorder_seed": 1,
        "time_window": [100.0, 600.0, 2000],
    }))
    return path


def with_samples(path, n_samples):
    """A copy of the config at `path`, beside it, with mc_samples set."""
    copy = path.with_name(f"mc_{n_samples}.json")
    copy.write_text(json.dumps(dict(json.loads(path.read_text()),
                                    mc_samples=n_samples)))
    return copy


class TestCli:
    def test_run_writes_artifacts(self, config_file, tmp_path, capsys):
        out = tmp_path / "cli_out"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        assert "seed 1 done" in capsys.readouterr().out

    def test_run_prints_one_table_row_per_series(self, config_file, tmp_path,
                                                capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file),
                     "--out", str(out)]) == 0
        header, *rows, done = capsys.readouterr().out.splitlines()
        assert header.split() == ["protocol", "obs", "theory_mean",
                                  "numeric_mean", "theory_sigma",
                                  "numeric_sigma"]
        assert done.startswith("run: seed 1 done")
        report = json.loads((out / "report.json").read_text())["protocols"]
        assert [row.split()[:2] for row in rows] == [
            ["cat", "H_R"], ["cat", "Q"], ["mixed", "H_R"], ["mixed", "Q"]]
        for row in rows:
            protocol, name, *values = row.split()
            entry = report[protocol][name]
            assert all(math.isfinite(float(v)) for v in values)
            assert values == [f"{entry[key]:.4e}" for key in
                              ("theory_mean", "numeric_mean", "theory_sigma",
                               "numeric_sigma")]

    def test_run_batch_aggregates(self, config_file, tmp_path, capsys):
        out = tmp_path / "batch"
        code = main(["run", "--config", str(config_file),
                     "--realizations", "2", "--out", str(out)])
        assert code == 0
        assert (out / "seed_1" / "report.json").exists()
        assert (out / "seed_2" / "report.json").exists()
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["seeds"] == [1, 2]
        assert len(agg["r_mean_per_seed"]) == 2
        # one line per seed and one for the batch, no table
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 and all(x.startswith("run: ") for x in lines)

    def test_output_dir_precedence(self, config_file, tmp_path, monkeypatch):
        # --out is the one route: without it the run writes ./runs, and
        # no environment variable redirects it
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("ERGOQUENCH_OUTPUT_DIR", str(tmp_path / "from_env"))
        assert main(["run", "--config", str(config_file)]) == 0
        assert (tmp_path / "runs" / "report.json").exists()
        flag_dir = tmp_path / "from_flag"
        assert main(["run", "--config", str(config_file),
                     "--out", str(flag_dir)]) == 0
        assert (flag_dir / "report.json").exists()
        assert not (tmp_path / "from_env").exists()

    def test_report_holds_the_spectrum_tolerance(self, config_file, tmp_path,
                                                 capsys):
        assert main(["spectrum", "--config", str(config_file)]) == 0
        spectrum = json.loads(capsys.readouterr().out)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["spectral"]["degeneracy_tol"] == \
            spectrum["degeneracy_tol"] > 0.0
        assert "degeneracy_tol" not in report["config"]

    @pytest.mark.parametrize("realizations", [None, "2"])
    def test_out_naming_a_file_fails_under_report(self, realizations,
                                                  config_file, tmp_path,
                                                  capsys, monkeypatch):
        # the output is checked before any work
        built = []
        monkeypatch.setattr("ergoquench.experiment.prepare_spectrum",
                            lambda *args: built.append(args))
        out = tmp_path / "taken"
        out.write_text("")
        batch = [] if realizations is None else ["--realizations",
                                                 realizations]
        assert main(["run", "--config", str(config_file),
                     "--out", str(out)] + batch) == 1
        assert "error: [report]" in capsys.readouterr().err
        assert built == []

    def test_out_holds_the_last_layout_only(self, tmp_path, capsys):
        # a batch after a larger batch, a single run after a batch and a
        # batch after a single run each leave only their own outputs; files
        # of other names stay, and so does a seed_<k> directory holding one
        path = write_config(tmp_path, {"L": 6})
        out = tmp_path / "out"

        def run(*batch):
            assert main(["run", "--config", str(path), "--out", str(out),
                         *batch]) == 0
            return sorted(str(p.relative_to(out)) for p in out.rglob("*")
                          if p.is_file())

        run("--realizations", "3")
        foreign = ["notes.txt", os.path.join("seed_2", "notes.txt")]
        for name in foreign:
            (out / name).write_text("kept")
        batch = sorted(["aggregate.json", *foreign] + [
            os.path.join(f"seed_{seed}", name) for seed in (0, 1)
            for name in ARTIFACTS])
        assert run("--realizations", "2") == batch
        assert run() == sorted([*foreign, *ARTIFACTS])
        assert run("--realizations", "2") == batch
        assert all((out / name).read_text() == "kept" for name in foreign)

    def test_aggregate_path_taken_fails_under_report(self, config_file,
                                                     tmp_path, capsys):
        out = tmp_path / "batch"
        (out / "aggregate.json").mkdir(parents=True)
        assert main(["run", "--config", str(config_file),
                     "--realizations", "2", "--out", str(out)]) == 1
        assert "error: [report]" in capsys.readouterr().err
        assert list(out.glob("seed_*")) == []

    def test_spectrum_prints_diagnostics(self, config_file, capsys):
        assert main(["spectrum", "--config", str(config_file)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dim"] == 20
        assert 0.0 < data["r_mean"] < 1.0

    def test_oracle_reports_analytic_comparison(self, config_file, capsys):
        code = main(["oracle", "--config", str(with_samples(config_file, 200))])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        entry = data["protocols"]["cat"]["H_R"]
        assert set(entry) == {"theory_mean", "theory_sigma",
                              "theory_second_moment", "mc"}
        assert entry["mc"]["n_samples"] == 200

    def test_oracle_prints_the_run_entries(self, config_file, tmp_path,
                                           capsys):
        # the run's protocol entries without the dynamics
        path = with_samples(config_file, 64)
        assert main(["oracle", "--config", str(path)]) == 0
        oracle = json.loads(capsys.readouterr().out)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())["protocols"]
        assert oracle == {"protocols": {
            protocol: {name: {key: value for key, value in entry.items()
                              if not key.startswith("numeric_")}
                       for name, entry in block.items()}
            for protocol, block in report.items()}}
        assert "mc" in report["cat"]["Q"]

    def test_oracle_without_samples_fails_under_config(self, config_file,
                                                        capsys, monkeypatch):
        built = []
        monkeypatch.setattr("ergoquench.cli.prepare_quench",
                            lambda *args: built.append(args))
        path = with_samples(config_file, 0)
        assert main(["oracle", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert "[config] oracle needs mc_samples" in captured.err
        assert captured.out == "" and built == []

    def test_spectrum_prints_the_report_spectral_block(self, config_file,
                                                       tmp_path, capsys):
        assert main(["spectrum", "--config", str(config_file)]) == 0
        spectrum = json.loads(capsys.readouterr().out)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert spectrum == report["spectral"]

    def test_missing_config_is_tagged_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert "[config]" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ('{"L": 7}', "L must be even"),
        ('"abc"', "a config must be a JSON object, got str"),
        ("5", "a config must be a JSON object, got int"),
        ("[]", "a config must be a JSON object, got list"),
        ('{"time_window": [1, 2]}',
         "time_window must be [start, end, count], got [1, 2]"),
        # uniform(-h, h) would overflow its width 2 h
        ('{"L": 8, "h": 1e308}', "h (disorder bound) must be >= 0 and at "
         "most float64 max / 2, got 1e+308"),
        # 7 bonds of 5e307 on the diagonal
        ('{"L": 8, "J": 5e307}', "J = 5e+307 and h = 1.0 give Hamiltonian "
         "entries up to 1.95 times float64 max at L = 8"),
    ], ids=["odd_length", "string", "number", "list", "two_value_window",
            "overflowing_disorder_width", "overflowing_diagonal"])
    def test_invalid_config_is_tagged_error(self, text, message, tmp_path,
                                            capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["run", "--config", str(path)]) == 1
        assert f"[config] {message}" in capsys.readouterr().err

    def test_oracle_at_full_size(self, tmp_path, capsys):
        # L = 12, d = 924 in singleton sectors: both moments of every
        # (protocol, observable) within 6 standard errors of the analytic ones
        path = tmp_path / "l12.json"
        path.write_text(json.dumps({"L": 12, "mc_samples": 1000}))
        code = main(["oracle", "--config", str(path)])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        entries = [e for block in data["protocols"].values()
                   for e in block.values()]
        assert len(entries) == 4
        for entry in entries:
            mc = entry["mc"]
            assert mc["n_samples"] == 1000
            for moment, theory in (("mean", "theory_mean"),
                                   ("second_moment", "theory_second_moment")):
                assert mc[moment + "_se"] > 0.0
                assert abs(mc[moment] - entry[theory]) \
                    <= 6.0 * mc[moment + "_se"]

    def test_oracle_is_one_pass_per_state(self, config_file, capsys, drawn):
        assert main(["oracle", "--config",
                     str(with_samples(config_file, 30))]) == 0
        assert sorted(drawn) == sorted(list(range(30)) * 2)

        data = json.loads(capsys.readouterr().out)
        config = ExperimentConfig.from_file(config_file)
        q = prepare_quench(config)
        for protocol in ("cat", "mixed"):
            rho0 = prepare_protocol_state(q.phi1, q.phi2, protocol)
            for name, obs in q.observables.items():
                mc = data["protocols"][protocol][name]["mc"]
                for order, moment in ((1, "mean"), (2, "second_moment")):
                    est, = estimate_moments(rho0, q.partition, [obs] * order,
                                            order, 30,
                                            seed=config.disorder_seed)
                    assert (mc[moment], mc[moment + "_se"]) == (
                        pytest.approx(est.value, rel=1e-13),
                        pytest.approx(est.std_error, rel=1e-13))

    @pytest.mark.parametrize("window", [[1e17, 1.0000001e17, 100],
                                        [1e9, 1.0000001e9, 200]])
    def test_far_window_fails_under_evolve(self, window, tmp_path, capsys):
        # at t = 1e17 the phases E t lose their rounding error (the cat H_R
        # mean read -1.06e4 against a theory of -0.600); the far window of
        # the edge configs, t = 1e9, stays within 2^43 and runs
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"L": 8, "time_window": window}))
        code = main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if window[0] < 1e10:
            assert code == 0 and err == ""
            return
        assert code == 1
        assert ("[evolve] max|E| 1.377e+01 times max|t| 1.000e+17 exceeds "
                "2^43") in err

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
        dict(time_window=[0, 49.5, 99]),
        dict(time_window=[49.5, 0, 100]),
        dict(time_window=[0, math.nan, 100]),
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
        {"L": True}, {"total_sz": 10**400}, {"mc_samples": 10**400},
        {"J": 10**400}, {"h": 10**400}, {"disorder_seed": 10**400},
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

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_empty_batch_fails_under_config(self, count, tmp_path, capsys):
        path = write_config(tmp_path, {"L": 4})
        assert main(["run", "--config", str(path), "--realizations", count,
                     "--out", str(tmp_path / "out")]) == 1
        assert "[config] --realizations must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_batch_beyond_any_seed_fails_before_a_run(self, tmp_path, capsys,
                                                      monkeypatch):
        # only the last seed is checked, and no list of seeds is built
        built = []
        monkeypatch.setattr("ergoquench.experiment.prepare_quench",
                            lambda *args: built.append(args))
        path = write_config(tmp_path, {"L": 4, "disorder_seed": 0})
        assert main(["run", "--config", str(path), "--realizations",
                     str(2**64 + 1), "--out", str(tmp_path / "out")]) == 1
        assert "[config] disorder_seed " in capsys.readouterr().err
        assert built == [] and not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("samples", [MAX_COUNT + 1, 10**20])
    def test_oracle_samples_beyond_any_array_fail_before_the_quench(
            self, samples, tmp_path, capsys, monkeypatch):
        # the config's bound of mc_samples, checked before anything is
        # diagonalized
        built = []
        monkeypatch.setattr("ergoquench.cli.prepare_quench",
                            lambda *args: built.append(args))
        path = tmp_path / "count.json"
        path.write_text(json.dumps({"L": 4, "mc_samples": samples}))
        assert main(["oracle", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"[config] mc_samples must be 0 or 2 to {MAX_COUNT}" in err
        assert built == []


SMALL_SECTORS = [{"L": 2}, {"L": 4, "total_sz": 4}]  # 2 levels, 1 level


def write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(raw, time_window=[100.0, 600.0, 200])))
    return path


def cli_args(command, path, tmp_path):
    """`command` on the config at `path`; oracle runs on a copy of it with
    the sample count it needs."""
    if command == "oracle":
        return [command, "--config", str(with_samples(path, 50))]
    extra = {"run": ["--out", str(tmp_path / "out")], "spectrum": []}[command]
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
        ("degeneracy_tol", "NaN"),  # an old key: unknown, whatever its value
    ])
    def test_non_finite_parameter_is_a_config_error(self, command, field, text,
                                                    tmp_path, capsys):
        path = tmp_path / "config.json"  # json reads NaN and Infinity literally
        path.write_text(f'{{"L": 4, "{field}": {text}, '
                        '"time_window": [100.0, 600.0, 200]}')
        assert main(cli_args(command, path, tmp_path)) == 1
        err = capsys.readouterr().err
        assert "[config]" in err and re.search(rf"\b{field}\b", err)

    @pytest.mark.parametrize("command", ["run", "spectrum", "oracle"])
    @pytest.mark.parametrize("raw,tag", [
        ({"L": 4, "total_sz": 1}, "[build]"),              # parity mismatch
        # its diagonal would overflow: named before any build
        ({"L": 8, "J": 5e307}, "[config] J = 5e+307 and h = 1.0"),
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
        real_eigh = spectral._eigh

        def overflowing_eigh(m):
            energies, vectors = real_eigh(m)
            energies[0] = -np.inf
            return energies, vectors

        monkeypatch.setattr(spectral, "_eigh", overflowing_eigh)
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
        # run makes --out before any work, and writes nothing into it
        assert list((tmp_path / "out").glob("*")) == []

    @pytest.mark.parametrize("command", ["run", "spectrum", "oracle"])
    def test_overflowing_aliasing_ratio_is_a_diagonalize_error(self, command,
                                                               tmp_path,
                                                               capsys):
        # a spectral width of about 6e3 on a time step of about 1e306: the
        # width is finite, its product with the step is not
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"L": 4, "J": 1e3,
                                    "time_window": [0.0, 1e308, 100]}))
        assert main(cli_args(command, path, tmp_path)) == 1
        captured = capsys.readouterr()
        assert "[diagonalize]" in captured.err and "overflows" in captured.err
        assert captured.out == ""

    # a finite spectrum of width 9.5e160 whose second moments overflow
    OVERFLOWING_MOMENTS = {"L": 4, "J": 1e160}

    def test_overflowing_moment_fails_run_before_any_series(self, monkeypatch,
                                                            tmp_path, capsys):
        evolved = []
        monkeypatch.setattr("ergoquench.experiment.evolve_expectation",
                            lambda *args: evolved.append(args))
        path = write_config(tmp_path, self.OVERFLOWING_MOMENTS)
        assert main(cli_args("run", path, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "[evolve]" in err and "not finite" in err
        assert evolved == [] and list((tmp_path / "out").glob("*")) == []

    @pytest.mark.parametrize("order", [1, 2])
    def test_overflowing_moment_fails_oracle(self, order, monkeypatch,
                                             tmp_path, capsys):
        # order 2: the squares of values about 1e160 overflow.  Order 1: no
        # finite spectrum gives values whose mean overflows, so a stand-in
        # sampler returns the largest float, whose sum overflows
        raw = self.OVERFLOWING_MOMENTS
        if order == 1:
            raw = {"L": 4}
            monkeypatch.setattr(
                "ergoquench.experiment.sample_traces",
                lambda rho, partition, observables, n_samples, seed: [
                    np.full(n_samples, np.finfo(np.float64).max)
                    for _ in observables])
        path = write_config(tmp_path, dict(raw, mc_samples=8))
        assert main(["oracle", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert "[oracle]" in captured.err and "not finite" in captured.err
        if order == 1:  # the mean's own check, before any square is taken
            assert "estimate inf" in captured.err
        assert captured.out == ""

    def test_spectrum_of_overflowing_moments_is_finite_json(self, tmp_path,
                                                            capsys):
        # the spectrum itself is finite, so spectrum succeeds with strict JSON
        path = write_config(tmp_path, self.OVERFLOWING_MOMENTS)
        assert main(cli_args("spectrum", path, tmp_path)) == 0

        def reject(name):
            raise ValueError(f"non-finite {name} in the output")

        out = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert out["e_max"] - out["e_min"] == pytest.approx(9.46e160,
                                                          rel=1e-3)

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
