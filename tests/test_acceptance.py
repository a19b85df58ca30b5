"""Acceptance suite: one test per shipping criterion, each printing a
single PASS/FAIL line (run with -s to see them on success).

Every expected value is either produced by an independent oracle in this
file (Monte-Carlo sampling, dense reference, combinatorial formulas) or is
a published statistical constant (gap-ratio limits).  Timing budgets are
asserted where the criterion carries one.
"""

import math
import time

import numpy as np
import pytest

from ergoquench.dynamics import evolve_expectation
from ergoquench.ergodic_ensemble import (DensityMatrix, ensemble_mean,
                                         second_moment_expectation)
from ergoquench.experiment import ExperimentConfig, run_experiment, write_artifacts
from ergoquench.haar_oracle import estimate_moments, estimate_state_mean
from ergoquench.spectral import (SectorPartition, diagonalize,
                                 level_spacing_ratio)
from ergoquench.spin_chain import build_basis, build_hamiltonian, draw_disorder

from conftest import random_density, random_hermitian, random_pure
from dense_reference import (contract_with_pair, dense_second_moment_reference,
                             sample_block_unitary)


def verdict(number, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} {label}: {status}")
    assert not failures, f"criterion {number} ({label}): " + "; ".join(failures)


def test_criterion_1_ensemble_mean_vs_sampling():
    # element-wise agreement with Monte-Carlo averaging of U rho U^dag at
    # 1e5 samples, within 4 standard errors, across four partition shapes
    started = time.perf_counter()
    shapes = [
        ("singletons", SectorPartition.singletons(6)),
        ("2+3", SectorPartition(5, np.array([0, 2]))),
        ("1+1+2", SectorPartition(4, np.array([0, 1, 2]))),
        ("whole", SectorPartition.whole(6)),
    ]
    rng = np.random.default_rng(100)
    failures = []
    for name, part in shapes:
        rho = random_density(rng, part.dim)
        mean = ensemble_mean(rho, part).entries
        mc, se_re, se_im = estimate_state_mean(rho, part,
                                               n_samples=100_000, seed=101)
        bad_re = np.abs(mc.real - mean.real) > 4.0 * se_re + 1e-12
        bad_im = np.abs(mc.imag - mean.imag) > 4.0 * se_im + 1e-12
        if bad_re.any() or bad_im.any():
            failures.append(f"{name}: {int(bad_re.sum() + bad_im.sum())} "
                            "elements beyond 4 SE")
    wall = time.perf_counter() - started
    if wall >= 30.0:
        failures.append(f"took {wall:.1f}s, budget 30s")
    verdict(1, "first moment vs sampling", failures)


def test_criterion_2_second_moment_vs_sampling_and_dense():
    # the contraction must match Monte-Carlo product averages within 4 SE
    # and the literal dense assembly to 1e-10 relative
    started = time.perf_counter()
    cases = [
        ("2+3", SectorPartition(5, np.array([0, 2]))),
        ("1+1+2", SectorPartition(4, np.array([0, 1, 2]))),
        ("whole", SectorPartition.whole(6)),
        ("singletons", SectorPartition.singletons(6)),
    ]
    rng = np.random.default_rng(200)
    failures = []
    for name, part in cases:
        rho = random_density(rng, part.dim)
        a = random_hermitian(rng, part.dim)
        b = random_hermitian(rng, part.dim)
        pred = second_moment_expectation(rho, part, a, b).second_moment
        ref = contract_with_pair(dense_second_moment_reference(rho, part), a, b)
        rel = abs(pred - ref) / max(abs(ref), 1e-300)
        if rel > 1e-10:
            failures.append(f"{name}: dense mismatch rel={rel:.2e}")
        est = estimate_moments(rho, part, [a, b], order=2,
                               n_samples=200_000, seed=201)[0]
        z = abs(est.value - pred) / est.std_error
        if z > 4.0:
            failures.append(f"{name}: sampling z={z:.2f}")
    wall = time.perf_counter() - started
    if wall >= 120.0:
        failures.append(f"took {wall:.1f}s, budget 120s")
    verdict(2, "second moment vs sampling and dense reference", failures)


def test_criterion_3_fourth_moment_combinatorics():
    # tr(sigma P)^4 for a pure state under a single d=3 sector: the Haar
    # moment of |U_00|^8 is 4! (d-1)! / (d-1+4)! = 1/15
    expected = (math.factorial(4) * math.factorial(2)) / math.factorial(6)
    part = SectorPartition.whole(3)
    rho = DensityMatrix.from_state_vector(random_pure(np.random.default_rng(300), 3))
    proj = np.diag([1.0, 0.0, 0.0]).astype(complex)
    est = estimate_moments(rho, part, [proj] * 4, order=4,
                           n_samples=1_000_000, seed=301)[0]
    failures = []
    if abs(est.value - expected) > 3.0 * est.std_error:
        failures.append(f"|{est.value:.6f} - {expected:.6f}| > 3 SE "
                        f"({est.std_error:.2e})")
    verdict(3, "fourth moment matches 1/15", failures)


def test_criterion_4_long_time_average_matches_diagonal_ensemble():
    # L=8 quench: the time-averaged right-half energy must sit on the
    # ensemble prediction within max(3 CIs, 1 percent)
    res = run_experiment(ExperimentConfig(L=8, disorder_seed=0))
    failures = []
    for protocol in ("cat", "mixed"):
        entry = res.report.protocols[protocol]["H_R"]
        dev = abs(entry["numeric_mean"] - entry["theory_mean"])
        tol = max(3.0 * entry["numeric_mean_ci"], 0.01 * abs(entry["theory_mean"]))
        if dev > tol:
            failures.append(f"{protocol}: dev={dev:.2e} tol={tol:.2e}")
    verdict(4, "time average matches ensemble mean at L=8", failures)


def test_criterion_5_protocol_separation_across_seeds():
    # five disorder realizations at L=10: the superposition shows swap
    # fluctuations matching the quartic formula within 10 percent and at
    # least ten times the mixture's, while both protocols agree on the
    # right-half energy fluctuation within combined confidence intervals
    failures = []
    for seed in range(5):
        res = run_experiment(ExperimentConfig(L=10, disorder_seed=seed))
        rep = res.report
        if not rep.closed_form["applicable"]:
            failures.append(f"seed {seed}: closed form inapplicable")
            continue
        cat_q = rep.protocols["cat"]["Q"]
        mixed_q = rep.protocols["mixed"]["Q"]
        theory = rep.closed_form["sigma_q"]
        if cat_q["numeric_sigma"] < 10.0 * mixed_q["numeric_sigma"]:
            failures.append(f"seed {seed}: sigma_Q ratio "
                            f"{cat_q['numeric_sigma'] / mixed_q['numeric_sigma']:.1f}")
        if abs(cat_q["numeric_sigma"] - theory) > 0.10 * theory:
            failures.append(f"seed {seed}: sigma_Q off theory by "
                            f"{abs(cat_q['numeric_sigma'] - theory) / theory:.1%}")
        cat_h = rep.protocols["cat"]["H_R"]
        mixed_h = rep.protocols["mixed"]["H_R"]
        gap = abs(cat_h["numeric_sigma"] - mixed_h["numeric_sigma"])
        combined = 3.0 * np.hypot(cat_h["numeric_sigma_ci"],
                                  mixed_h["numeric_sigma_ci"])
        if gap > combined:
            failures.append(f"seed {seed}: sigma_HR gap {gap:.2e} > {combined:.2e}")
    verdict(5, "cat/mixed separation over 5 seeds at L=10", failures)


def test_criterion_6_gap_ratio_statistics():
    # disorder-averaged adjacent-gap ratio at L=12: ergodic value near
    # 0.53 at h=1, Poisson value near 0.39 at h=6
    started = time.perf_counter()
    basis = build_basis(12, 0)
    failures = []
    for h, center, tol in ((1.0, 0.53, 0.02), (6.0, 0.39, 0.03)):
        ratios = []
        for seed in range(20):
            fields = draw_disorder(12, h, seed=seed)
            eig = diagonalize(build_hamiltonian(basis, 1.0, fields))
            ratios.append(level_spacing_ratio(eig.energies))
        mean = float(np.mean(ratios))
        if abs(mean - center) > tol:
            failures.append(f"h={h}: mean r={mean:.4f} outside {center}+-{tol}")
    wall = time.perf_counter() - started
    if wall >= 1800.0:
        failures.append(f"took {wall:.0f}s, budget 1800s")
    verdict(6, "gap-ratio statistics across the transition", failures)


def test_criterion_7_invariants_over_random_instances():
    # a sweep of random instances exercising every module's core contracts
    rng = np.random.default_rng(700)
    failures = []
    count = 0

    for k in range(40):  # chain + spectral invariants
        n = int(rng.integers(2, 7))
        sz_options = [n - 2 * j for j in range(n + 1)]
        sz = int(rng.choice(sz_options))
        coupling = float(rng.uniform(0.2, 2.0))
        basis = build_basis(n, sz)
        ham = build_hamiltonian(basis, coupling, draw_disorder(n, 1.5, seed=k))
        herm_dev = float(np.max(np.abs(ham.entries - ham.entries.conj().T)))
        eig = diagonalize(ham)
        rebuilt = eig.vectors @ np.diag(eig.energies) @ eig.vectors.conj().T
        scale = max(1.0, float(np.max(np.abs(ham.entries))))
        ok = (herm_dev == 0.0
              and bool(np.all(np.diff(eig.energies) >= 0.0))
              and float(np.max(np.abs(rebuilt - ham.entries))) < 1e-10 * scale)
        if not ok:
            failures.append(f"chain instance {k}")
        count += 1

    for k in range(40):  # ensemble invariants
        dim = int(rng.integers(2, 9))
        cuts = np.sort(rng.choice(np.arange(1, dim),
                                  size=int(rng.integers(0, dim)), replace=False))
        part = SectorPartition(dim, np.concatenate(([0], cuts)).astype(np.int64))
        rho = random_density(rng, dim)
        a = random_hermitian(rng, dim)
        mean = ensemble_mean(rho, part)
        pred = second_moment_expectation(rho, part, a, a)
        again = ensemble_mean(mean, part)
        ok = (int(part.sizes.sum()) == dim
              and abs(np.trace(mean.entries) - 1.0) < 1e-12
              and np.max(np.abs(again.entries - mean.entries)) < 1e-13
              and pred.connected >= -1e-11
              and pred.second_moment == pred.mean_a * pred.mean_b + pred.connected)
        if not ok:
            failures.append(f"ensemble instance {k} (dim={dim})")
        count += 1

    for k in range(40):  # sampling + dynamics invariants
        dim = int(rng.integers(2, 8))
        part = SectorPartition.whole(dim)
        u = sample_block_unitary(part, seed=k)
        rho = random_density(rng, dim)
        obs = random_hermitian(rng, dim)
        energies = np.sort(rng.normal(size=dim))
        ts = evolve_expectation(rho, obs, energies,
                                np.linspace(0.0, 5.0, 16))
        expected0 = float(np.einsum("ij,ji->", rho.entries, obs.entries).real)
        ok = (u.max_unitarity_defect() < 1e-12
              and np.all(np.isreal(ts.values))
              and abs(ts.values[0] - expected0) < 1e-10)
        if not ok:
            failures.append(f"dynamics instance {k} (dim={dim})")
        count += 1

    if count < 100:
        failures.append(f"only {count} instances")
    print(f"  (criterion 7 swept {count} instances)")
    verdict(7, "module invariants on random instances", failures)


def test_criterion_8_full_size_run_within_budget(tmp_path):
    # the default L=12 pipeline, artifacts included, in under ten minutes
    started = time.perf_counter()
    res = run_experiment(ExperimentConfig())
    written = write_artifacts(res, tmp_path / "full_run")
    wall = time.perf_counter() - started
    failures = []
    if wall >= 600.0:
        failures.append(f"took {wall:.0f}s, budget 600s")
    if len(written) != 7:
        failures.append(f"expected 7 artifacts, wrote {len(written)}")
    if res.report.spectral["dim"] != 924:
        failures.append(f"unexpected sector dimension {res.report.spectral['dim']}")
    verdict(8, "full-size run inside the time budget", failures)
