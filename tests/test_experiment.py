"""End-to-end pipeline: configs, product-state search, runs, artifacts, CLI."""

import dataclasses
import json
import os

import numpy as np
import pytest

from ergoquench.cli import main
from ergoquench.dynamics import read_series_csv
from ergoquench.ergodic_ensemble import PSD_ATOL, DensityMatrix
from ergoquench.errors import PipelineError, StateValidationError
from ergoquench.experiment import (ExperimentConfig, diagonalize_split_halves,
                                   find_product_eigenstates,
                                   prepare_protocol_state, prepare_quench,
                                   run_experiment, write_artifacts)
from ergoquench.spectral import diagonalize
from ergoquench.spin_chain import build_basis, build_hamiltonian, draw_disorder

from conftest import random_pure

FAST_WINDOW = (100.0, 600.0, 2000)


def fast_config(**overrides):
    base = dict(L=6, h=1.0, disorder_seed=1, time_window=FAST_WINDOW)
    base.update(overrides)
    return ExperimentConfig(**base)


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
        dict(degeneracy_tol=-1.0),
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

    def test_single_protocol_selection(self):
        assert fast_config(protocol="cat").protocols == ("cat",)


class TestSplitHalves:
    def test_two_site_energies_by_hand(self):
        # each half is one site, so the split energies are just the fields
        disorder = draw_disorder(2, 1.0, seed=5)
        h0, h1 = disorder.h_fields
        splits = diagonalize_split_halves(2, 1.0, disorder, 0)
        assert [hs.n_left_up for hs in splits] == [0, 1]
        assert splits[0].eig_left.energies[0] == pytest.approx(-h0)
        assert splits[0].eig_right.energies[0] == pytest.approx(h1)
        assert splits[1].eig_left.energies[0] == pytest.approx(h0)
        assert splits[1].eig_right.energies[0] == pytest.approx(-h1)

    def test_split_dimensions_cover_the_sector(self):
        disorder = draw_disorder(8, 1.0, seed=0)
        basis = build_basis(8, 0)
        splits = diagonalize_split_halves(8, 1.0, disorder, 0)
        total = sum(hs.basis_left.dim * hs.basis_right.dim for hs in splits)
        assert total == basis.dim


class TestProductEigenstates:
    @staticmethod
    def brute_force(splits, target, bounds):
        goal = bounds[0] if target == "near_min" else bounds[1]
        best = None
        for rank, hs in enumerate(splits):
            for a, ea in enumerate(hs.eig_left.energies):
                for b, eb in enumerate(hs.eig_right.energies):
                    cand = (abs(ea + eb - goal), rank, a, b)
                    if best is None or cand < best:
                        best = cand
        return best

    @pytest.mark.parametrize("seed,target", [
        (0, "near_min"), (0, "near_max"), (3, "near_min"), (7, "near_max"),
    ])
    def test_matches_exhaustive_scan(self, seed, target):
        disorder = draw_disorder(6, 1.0, seed=seed)
        basis = build_basis(6, 0)
        eig = diagonalize(build_hamiltonian(basis, 1.0, disorder))
        bounds = (float(eig.energies[0]), float(eig.energies[-1]))
        splits = diagonalize_split_halves(6, 1.0, disorder, 0)
        found = find_product_eigenstates(splits, basis, target, bounds)
        dev, rank, a, b = self.brute_force(splits, target, bounds)
        assert (found.n_left_up, found.left_index, found.right_index) == \
            (splits[rank].n_left_up, a, b)
        goal = bounds[0] if target == "near_min" else bounds[1]
        assert abs(found.energy - goal) == pytest.approx(dev, abs=1e-12)

    def test_embedded_vector_is_split_eigenstate(self):
        # H_left + H_right on the full sector must have the embedded product
        # as an exact eigenvector with the reported energy
        n, half = 6, 3
        disorder = draw_disorder(n, 1.0, seed=2)
        basis = build_basis(n, 0)
        eig = diagonalize(build_hamiltonian(basis, 1.0, disorder))
        bounds = (float(eig.energies[0]), float(eig.energies[-1]))
        splits = diagonalize_split_halves(n, 1.0, disorder, 0)
        prod = find_product_eigenstates(splits, basis, "near_min", bounds)
        h_left = build_hamiltonian(basis, 1.0, disorder,
                                   bond_range=(0, half - 2),
                                   field_sites=(0, half - 1))
        h_right = build_hamiltonian(basis, 1.0, disorder,
                                    bond_range=(half, n - 2),
                                    field_sites=(half, n - 1))
        h_split = h_left.entries + h_right.entries
        residual = h_split @ prod.vector - prod.energy * prod.vector
        assert np.max(np.abs(residual)) < 1e-10
        assert abs(np.linalg.norm(prod.vector) - 1.0) < 1e-12

    def test_unknown_target_rejected(self):
        disorder = draw_disorder(4, 1.0, seed=0)
        splits = diagonalize_split_halves(4, 1.0, disorder, 0)
        basis = build_basis(4, 0)
        with pytest.raises(ValueError):
            find_product_eigenstates(splits, basis, "nearest", (0.0, 1.0))


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
        disorder = draw_disorder(n, 1.0, seed=0)
        eig = diagonalize(build_hamiltonian(basis, 1.0, disorder))
        bounds = (float(eig.energies[0]), float(eig.energies[-1]))
        splits = diagonalize_split_halves(n, 1.0, disorder, 0)
        p1 = find_product_eigenstates(splits, basis, "near_min", bounds)
        p2 = find_product_eigenstates(splits, basis, "near_max", bounds)
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
                  "Q": q.observables["Q"].entries}
        for protocol in ("cat", "mixed"):
            arrays[protocol] = prepare_protocol_state(q.phi1, q.phi2,
                                                      protocol).entries
        assert {k: a.dtype for k, a in arrays.items()} == \
            dict.fromkeys(arrays, np.float64)


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

    def test_q_theory_mean_is_tiny_for_small_overlap(self):
        res = run_experiment(fast_config())
        overlap = res.report.states["overlap_sum"]
        for protocol in ("cat", "mixed"):
            q = res.report.protocols[protocol]["Q"]
            assert abs(q["theory_mean"]) <= 2.0 * overlap + 1e-12


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

    def test_bad_oracle_arguments(self, config_file, capsys):
        assert main(["oracle", "--config", str(config_file),
                     "--order", "0", "--samples", "100"]) == 1
        assert "[config]" in capsys.readouterr().err


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
        assert main(cli_args(command, write_config(tmp_path, raw), tmp_path)) == 0
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

    @pytest.mark.filterwarnings("ignore:.*exactly degenerate:UserWarning")
    @pytest.mark.parametrize("command", ["run", "spectrum", "oracle"])
    @pytest.mark.parametrize("raw,tag", [
        ({"L": 4, "total_sz": 1}, "[build]"),              # parity mismatch
        ({"L": 4, "J": 0.0, "h": 0.0}, "[diagonalize]"),   # no gap ratio at all
    ])
    def test_prefix_failure_has_the_same_stage_tag(self, command, raw, tag,
                                                   tmp_path, capsys):
        assert main(cli_args(command, write_config(tmp_path, raw), tmp_path)) == 1
        err = capsys.readouterr().err
        assert tag in err and "[unexpected]" not in err
