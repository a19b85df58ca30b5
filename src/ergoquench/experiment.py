"""End-to-end quench experiment on a disordered XXX chain.

The protocol: split the chain in half, pick the two product eigenstates of
H_left + H_right whose energies sit closest to the edges of the full
spectrum, and launch either their even superposition ("cat") or their even
classical mixture ("mixed").  Observables are the right-half energy H_R
and the swap operator Q between the two product states.  The run compares
time-window statistics of the evolved expectation values against the
analytic ensemble predictions, with optional Monte-Carlo cross-checks.
The pipeline comes in steps, so that one spectrum can serve many
questions: `prepare_spectrum` builds and diagonalizes the chain (the CLI's
`spectrum` command stops there), `right_half_energy` rotates H_R into its
eigenbasis once per spectrum, `quench_states` picks the product states
nearest a pair of target energies, and `prediction_block` gives the
ensemble moments of a state over any partition of the spectrum.
`prepare_quench` composes them for one config; the run and the CLI's
`oracle` command start from it.  The eigenvectors V serve only the
rotations: the QuenchPrefix that `quench_states` returns keeps the
energies, the partition and the report's spectral block, not V, so V
goes once the pair is in the eigenbasis, and no stage of a run holds
more than the 2.5 d x d arrays of the solver: 2.6 d^2 at the measured
peak, LAPACK's buffers included (`spectral.PEAK_DXD_ARRAYS`).
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

import numpy as np

from .dynamics import evolve_expectation, time_stats
from .ergodic_ensemble import (_FLOAT_MAX, DensityMatrix,
                               SHARED_SUPPORT_THRESHOLD,
                               cat_q_variance_closed_form,
                               second_moment_expectation)
from .errors import NumericalIntegrityError, PipelineError, StateValidationError
from .haar_oracle import sample_traces, summarize
from .spectral import (EigenSystem, SectorPartition, cluster_sectors,
                       diagonalize, level_spacing_ratio, require_memory)
from .spin_chain import (HermitianOperator, SpinBasis, build_basis,
                         build_hamiltonian, build_projector_observable,
                         draw_disorder, symmetrized)

PROTOCOLS = ("cat", "mixed")
# the files of one run's output directory, as write_artifacts names them
ARTIFACTS = frozenset({"report.json", "spectrum.csv", "overlaps.csv"} | {
    f"series_{protocol}_{name}.csv" for protocol in PROTOCOLS
    for name in ("H_R", "Q")})
# levels closer than this times the spectral width share a sector
DEGENERACY_TOL_RELATIVE = 1e-8
# the most values a float64 array can have and numpy still shape it
MAX_COUNT = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on; JSON keys match field names one to one."""

    L: int = 12
    J: float = 1.0
    h: float = 1.0
    disorder_seed: int = 0
    total_sz: int = 0
    protocol: str = "both"  # "cat", "mixed", or "both"
    time_window: tuple = (3000.0, 13000.0, 20000)
    mc_samples: int = 0

    def __post_init__(self):
        for name in ("L", "total_sz", "disorder_seed", "mc_samples"):
            object.__setattr__(self, name, _integral(name, getattr(self, name)))
        if self.L < 2 or self.L % 2 != 0:
            raise ValueError(f"L must be even and >= 2 for the half split, got {self.L}")
        # the seed also keys the Philox stream of the oracle
        if not (0 <= self.disorder_seed < 1 << 64):
            raise ValueError(f"disorder_seed must be in [0, 2**64), "
                             f"got {self.disorder_seed}")
        if self.protocol not in PROTOCOLS + ("both",):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        window = self.time_window
        if not isinstance(window, (list, tuple)) or len(window) != 3:
            raise ValueError(f"time_window must be [start, end, count], got {window!r}")
        t0, t1, n = window
        t0, t1 = _real("time window start", t0), _real("time window end", t1)
        if not (0.0 < t1 - t0 < math.inf):  # NaN fails too
            raise ValueError(f"time window [{t0}, {t1}] needs a finite, "
                             "positive span")
        n = _integral("the time point count", n)
        # 100 points give each of time_stats' ten sub-windows ten points
        if not 100 <= n <= MAX_COUNT:
            raise ValueError(f"need 100 to {MAX_COUNT} time points, got {n}")
        if not math.isfinite(_real("J", self.J)):
            raise ValueError(f"J must be finite, got {self.J}")
        # draw_disorder's uniform(-h, h) needs a finite width 2 h
        if not (0 <= _real("h", self.h) <= _FLOAT_MAX / 2):
            raise ValueError(f"h (disorder bound) must be >= 0 and at most "
                             f"float64 max / 2, got {self.h}")
        # the largest |entry| of H in units of float64 max, which does not
        # overflow: a diagonal sum of L - 1 bonds and L fields, or a hop
        # 2 J, which is larger only at L = 2
        j, h = abs(self.J) / _FLOAT_MAX, self.h / _FLOAT_MAX
        largest = max((self.L - 1) * j + self.L * h, 2 * j)
        if largest > 1.0:
            raise ValueError(
                f"J = {self.J} and h = {self.h} give Hamiltonian entries up "
                f"to {largest:.3g} times float64 max at L = {self.L}")
        if not (self.mc_samples == 0 or 2 <= self.mc_samples <= MAX_COUNT):
            raise ValueError(f"mc_samples must be 0 or 2 to {MAX_COUNT}, "
                             f"got {self.mc_samples}")
        object.__setattr__(self, "time_window", (t0, t1, n))

    @property
    def protocols(self) -> tuple:
        return PROTOCOLS if self.protocol == "both" else (self.protocol,)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError(f"a config must be a JSON object, got {type(raw).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))


def _real(name: str, value) -> float:
    """value as a float; a bool, a non-number and a number beyond the
    float64 range raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is beyond the float64 range") from None


def _integral(name: str, value) -> int:
    """value as an int; a float is accepted when it is a whole number."""
    if not _real(name, value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ProductEigenstate:
    """Eigenstate of H_left + H_right embedded in the full sector basis."""

    vector: np.ndarray
    energy: float
    n_left_up: int
    left_index: int
    right_index: int


def find_product_eigenstates(
        coupling: float, fields: np.ndarray, basis: SpinBasis,
        targets: tuple[float, float]) -> tuple[ProductEigenstate, ProductEigenstate]:
    """The eigenstates of H_left + H_right, the two standalone half chains,
    whose energies are closest to targets[0] and to targets[1], in that
    order, embedded in `basis`.  The run passes the spectral edges.

    One pass over the splits of the up spins between the halves, in
    ascending left magnetization, diagonalizes both halves of each split
    and scans its table of sums E_l + E_r once for both targets; the scan
    is exhaustive, and only the two winners are embedded.  A split replaces
    a target's best only with a strictly smaller deviation, and argmin
    takes the first minimum in row-major order, so ties break toward the
    smaller left magnetization, then smaller left index, then right index.
    """
    half = len(fields) // 2
    n_up = (basis.n_sites + basis.total_sz) // 2
    best = [None, None]  # per target: (deviation, n_left, flat, sums, halves)
    for n_left in range(max(0, n_up - half), min(half, n_up) + 1):
        halves = []
        for n, part in ((n_left, fields[:half]), (n_up - n_left, fields[half:])):
            sector = build_basis(half, 2 * n - half)
            halves.append((sector, diagonalize(
                build_hamiltonian(sector, coupling, part))))
        (_, eig_l), (_, eig_r) = halves
        sums = eig_l.energies[:, None] + eig_r.energies[None, :]
        for k, goal in enumerate(targets):
            dev = np.abs(sums - goal)
            flat = int(np.argmin(dev))
            if best[k] is None or dev.flat[flat] < best[k][0]:
                best[k] = (dev.flat[flat], n_left, flat, sums, halves)
    found = []
    for _, n_left, flat, sums, halves in best:
        a, b = divmod(flat, sums.shape[1])
        found.append(ProductEigenstate(
            vector=_embed_product(halves, a, b, basis),
            energy=float(sums.flat[flat]),
            n_left_up=n_left, left_index=a, right_index=b))
    return tuple(found)


def _embed_product(halves: list, a: int, b: int, basis: SpinBasis) -> np.ndarray:
    """Left eigenvector a times right eigenvector b of a split's
    (basis, EigenSystem) halves, in the full sector basis."""
    (basis_l, eig_l), (basis_r, eig_r) = halves
    configs = (basis_l.states[:, None]
               | (basis_r.states[None, :] << basis_l.n_sites)).ravel()
    amps = np.outer(eig_l.vectors[:, a], eig_r.vectors[:, b]).ravel()
    idx = np.searchsorted(basis.states, configs)
    if np.any(basis.states[idx] != configs):
        raise PipelineError("build", "product state fell outside the target sector")
    out = np.zeros(basis.dim, dtype=amps.dtype)
    out[idx] = amps
    return out


def prepare_protocol_state(phi1: np.ndarray, phi2: np.ndarray,
                           protocol: str) -> DensityMatrix:
    """Initial state of a protocol: even superposition ("cat") or even
    mixture ("mixed") of two unit vectors.  The mixture checks both
    norms, and the superposition is formed from its two columns."""
    mixed = DensityMatrix.from_mixture([0.5, 0.5], [phi1, phi2])
    if protocol == "mixed":
        return mixed
    if protocol == "cat":
        s = mixed.vectors[:, 0] + mixed.vectors[:, 1]
        norm = np.linalg.norm(s)
        if norm < 1e-8:
            raise StateValidationError(
                "phi1 + phi2 vanishes; the superposition state is degenerate")
        return DensityMatrix.from_state_vector(s / norm)
    raise ValueError(f"unknown protocol {protocol!r}")


@dataclass
class ExperimentReport:
    config: dict
    spectral: dict
    states: dict
    protocols: dict
    closed_form: dict
    timestamp: str = ""
    runtime_seconds: float = 0.0


@dataclass
class ExperimentResult:
    """Report plus the raw artifacts the writers serialize."""

    report: ExperimentReport
    series: dict  # (protocol, observable) -> TimeSeries
    energies: np.ndarray
    overlaps: np.ndarray  # columns: |<i|phi1>|, |<i|phi2>|


@contextmanager
def _stage(name: str):
    """Tag any failure inside the block with the pipeline stage `name`."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc


@dataclass(frozen=True)
class SpectralPrefix:
    """Sector, disorder fields and full-chain spectrum of one realization."""

    basis: SpinBasis
    fields: np.ndarray  # h_j of each site
    eig: EigenSystem
    degeneracy_tol: float
    partition: SectorPartition
    r_mean: float | None  # None for fewer than 3 levels or all levels equal
    nyquist_ratio: float  # the aliasing margin of the config's time grid

    @property
    def bounds(self) -> tuple[float, float]:
        return float(self.eig.energies[0]), float(self.eig.energies[-1])


@dataclass(frozen=True)
class QuenchPrefix:
    """The energies, partition and spectral block of a spectrum, plus one
    pair of product states, their eigenbasis coordinates phi1/phi2 and the
    observables in the eigenbasis: everything the dynamics, the ensemble
    theory and the Monte-Carlo oracle start from.  It does not keep the
    eigenvectors."""

    energies: np.ndarray
    partition: SectorPartition
    spectral: dict  # the report's spectral block (`spectral_block`)
    prod1: ProductEigenstate
    prod2: ProductEigenstate
    phi1: np.ndarray
    phi2: np.ndarray
    observables: dict  # "H_R" -> HermitianOperator, "Q" -> PairOperator


def prepare_spectrum(config: ExperimentConfig) -> SpectralPrefix:
    """Build and diagonalize the full chain and partition its spectrum,
    once its dimension has passed `require_memory`."""
    with _stage("build"):
        basis = build_basis(config.L, config.total_sz)
        require_memory(basis.dim)
        h_fields = draw_disorder(config.L, config.h, config.disorder_seed)
        ham = build_hamiltonian(basis, config.J, h_fields)
    with _stage("diagonalize"):
        eig = diagonalize(ham, overwrite=True)  # H is not used again
        energies = eig.energies
        width = float(energies[-1]) - float(energies[0])  # inf, not a warning
        t0, t1, n_points = config.time_window
        # the largest Bohr frequency times the grid step, over pi: above 1
        # the grid aliases the fastest terms of every series
        nyquist_ratio = width * (t1 - t0) / (n_points - 1) / np.pi
        if not math.isfinite(nyquist_ratio):  # an overflowed width too
            raise NumericalIntegrityError(
                f"spectral width {width:.3e} of [{energies[0]:.3e}, "
                f"{energies[-1]:.3e}] times the time step "
                f"{(t1 - t0) / (n_points - 1):.3e} overflows float64")
        tol = DEGENERACY_TOL_RELATIVE * width
        return SpectralPrefix(basis=basis, fields=h_fields, eig=eig,
                              degeneracy_tol=tol,
                              partition=cluster_sectors(energies, tol),
                              r_mean=level_spacing_ratio(energies),
                              nyquist_ratio=nyquist_ratio)


def spectral_block(spec: SpectralPrefix) -> dict:
    """The spectral block of a report, as `spectrum` prints it."""
    e_min, e_max = spec.bounds
    return {"dim": spec.basis.dim, "e_min": e_min, "e_max": e_max,
            "r_mean": spec.r_mean, "degeneracy_tol": spec.degeneracy_tol,
            "n_sectors": spec.partition.n_sectors,
            "nyquist_ratio": spec.nyquist_ratio}


def right_half_energy(spec: SpectralPrefix,
                      coupling: float) -> HermitianOperator:
    """H_R, the energy of the right half of `spec`'s chain, in its
    eigenbasis: built and rotated over its own buffer, so that besides V
    no step holds more than H_R and a block of its columns.

    The rotation is exactly Hermitian off the diagonal, so the in-place
    `symmetrized` that wraps it changes no bit of a real H_R and only
    makes a complex diagonal real.  It stays until H_R is rotated by a
    symmetric rank-k update, which drops the rotation's products
    altogether, because perfbench times `symmetrized` as a layer and its
    tests expect the run to call it."""
    # the sites of H_R
    right = np.arange(len(spec.fields)) >= len(spec.fields) // 2
    with _stage("build"):
        ham_right = build_hamiltonian(spec.basis, coupling * right[:-1],
                                      spec.fields * right)
    with _stage("diagonalize"):
        rotated = spec.eig.to_eigenbasis(ham_right, overwrite=True)
        del ham_right
        return symmetrized(rotated, overwrite=True)


def quench_states(spec: SpectralPrefix, coupling: float, targets: tuple,
                  h_r: HermitianOperator) -> QuenchPrefix:
    """The product states of `spec`'s chain nearest `targets`, their
    eigenbasis coordinates, and the observables: `h_r`, H_R already in the
    eigenbasis (`right_half_energy`), and the swap Q of the pair.  The
    result keeps `spec`'s energies, partition and spectral block, not its
    eigenvectors."""
    prod1, prod2 = find_product_eigenstates(coupling, spec.fields, spec.basis,
                                            targets)
    phi1 = spec.eig.vector_to_eigenbasis(prod1.vector)
    phi2 = spec.eig.vector_to_eigenbasis(prod2.vector)
    return QuenchPrefix(
        spec.eig.energies, spec.partition, spectral_block(spec), prod1, prod2,
        phi1, phi2, {"H_R": h_r, "Q": build_projector_observable(phi1, phi2)})


def prepare_quench(config: ExperimentConfig) -> QuenchPrefix:
    """The run's pipeline prefix: the spectrum, H_R in its eigenbasis, and
    the product states nearest the spectral edges.  The spectrum, and
    with it V, is freed on return."""
    spec = prepare_spectrum(config)
    h_r = right_half_energy(spec, config.J)
    with _stage("diagonalize"):
        return quench_states(spec, config.J, spec.bounds, h_r)


def prediction_block(rho0: DensityMatrix, partition: SectorPartition,
                     observables: dict, mc_samples: int, seed: int) -> dict:
    """Per named observable: the mean, sigma and second moment of rho0's
    block-Haar ensemble over `partition`, and with mc_samples > 0 an `mc`
    block of the Monte-Carlo mean and second moment, all from one sampling
    pass."""
    block = {name: {} for name in observables}
    if mc_samples > 0:
        traces = sample_traces(rho0, partition, observables.values(),
                               n_samples=mc_samples, seed=seed)
        for name, values in zip(observables, traces):
            est1, est2 = summarize(values), summarize(values * values)
            block[name]["mc"] = {"mean": est1.value, "mean_se": est1.std_error,
                                 "second_moment": est2.value,
                                 "second_moment_se": est2.std_error,
                                 "n_samples": mc_samples}
    for name, obs in observables.items():
        pred = second_moment_expectation(rho0, partition, obs, obs)
        block[name].update(
            theory_mean=pred.mean_a,
            theory_sigma=float(np.sqrt(max(pred.connected, 0.0))),
            theory_second_moment=pred.second_moment)
    return block


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the full pipeline for one disorder realization."""
    t_begin = time.perf_counter()
    q = prepare_quench(config)
    energies = q.energies
    pair = [(p.n_left_up, p.left_index, p.right_index) for p in (q.prod1, q.prod2)]
    same_product_state = pair[0] == pair[1]
    if same_product_state:
        warnings.warn(
            "both spectral edges select the same product state (n_left_up, "
            f"left_index, right_index) = {pair[0]}: cat and mixed are then one "
            "state and Q = 2 phi phi^T", UserWarning, stacklevel=2)

    with _stage("evolve"):
        grid = np.linspace(*config.time_window)
        series: dict = {}
        protocols_out: dict = {}
        for protocol in config.protocols:
            rho0 = prepare_protocol_state(q.phi1, q.phi2, protocol)
            block = prediction_block(rho0, q.partition, q.observables,
                                     config.mc_samples, config.disorder_seed)
            for name, obs in q.observables.items():
                ts = evolve_expectation(rho0, obs, energies, grid)
                stats = time_stats(ts)
                series[(protocol, name)] = ts
                block[name].update(numeric_mean=stats.mean,
                                   numeric_mean_ci=stats.mean_ci,
                                   numeric_sigma=stats.sigma,
                                   numeric_sigma_ci=stats.sigma_ci)
            protocols_out[protocol] = block

    with _stage("report"):
        shared = np.abs(q.phi1 * q.phi2)
        states_info = {
            "e1": q.prod1.energy, "e2": q.prod2.energy,
            "overlap_max": float(shared.max()),
            "overlap_sum": float(shared.sum()),
            "same_product_state": same_product_state,
        }
        closed: dict = {
            "applicable": states_info["overlap_sum"] <= SHARED_SUPPORT_THRESHOLD,
            "threshold": SHARED_SUPPORT_THRESHOLD,
        }
        if closed["applicable"]:
            variance = cat_q_variance_closed_form(q.phi1, q.phi2)
            closed["sigma_q"] = float(np.sqrt(variance))

        report = ExperimentReport(
            config=asdict(config),
            spectral=q.spectral,
            states=states_info,
            protocols=protocols_out,
            closed_form=closed,
            runtime_seconds=round(time.perf_counter() - t_begin, 3),
        )
        overlaps = np.column_stack([np.abs(q.phi1), np.abs(q.phi2)])
        return ExperimentResult(report=report, series=series,
                                energies=energies, overlaps=overlaps)


def json_text(block) -> str:
    """`block` as the text of a JSON file: indented by 2, keys sorted, one
    trailing newline.  allow_nan=False turns any non-finite value into a
    hard error."""
    return json.dumps(block, indent=2, sort_keys=True, allow_nan=False) + "\n"


def disorder_average(values) -> tuple:
    """(mean, sample std, count) of the values that are not None, the
    realizations that define the quantity; the std of one value is 0.0,
    and no value gives (None, None, 0)."""
    defined = [v for v in values if v is not None]
    if not defined:
        return None, None, 0
    std = float(np.std(defined, ddof=1)) if len(defined) > 1 else 0.0
    return float(np.mean(defined)), std, len(defined)


def _csv_rows(row_format: str, *columns) -> str:
    """One `row_format` line per entry of the columns, sequences of Python
    numbers of equal length, formatted by a single % operation."""
    values = tuple(itertools.chain.from_iterable(zip(*columns)))
    return (row_format * len(columns[0])) % values


def remove_artifacts(out_dir, keep=()) -> None:
    """Remove from out_dir, apart from the names in `keep`, every file that
    a run or a batch writes there: the ARTIFACTS of one run, a batch's
    aggregate.json, and the ARTIFACTS in each seed_<k> directory, which
    goes too once it is empty.  No other file or directory is touched."""
    for name in set(os.listdir(out_dir)) - set(keep):
        path = os.path.join(out_dir, name)
        if name in ARTIFACTS | {"aggregate.json"} and os.path.isfile(path):
            os.remove(path)
        elif name[:5] == "seed_" and name[5:].isdigit() and os.path.isdir(path):
            for artifact in ARTIFACTS:
                if os.path.isfile(os.path.join(path, artifact)):
                    os.remove(os.path.join(path, artifact))
            if not os.listdir(path):
                os.rmdir(path)


def write_artifacts(result: ExperimentResult, out_dir) -> list[str]:
    """Write report.json, per-series CSVs, spectrum.csv, and overlaps.csv.

    Numbers are written at 17 significant digits, which read back exactly.
    Every file is formatted first and then written with one write.  On any
    failure every file written so far is removed, so an output directory
    never holds a partial result set.  Once they are written, every other
    run's or batch's output in out_dir goes (`remove_artifacts`): the
    series of the protocols this run left out, an aggregate.json and the
    seed_<k> directories of a batch.
    """
    written: list[str] = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        report = result.report
        report.timestamp = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        files = {"report.json": json_text(asdict(report))}
        for (protocol, name), ts in result.series.items():
            files[f"series_{protocol}_{name}.csv"] = "t,value\n" + _csv_rows(
                "%.17g,%.17g\n", ts.times.tolist(), ts.values.tolist())
        index, energies = range(len(result.energies)), result.energies.tolist()
        files["spectrum.csv"] = "index,energy\n" + _csv_rows(
            "%d,%.17g\n", index, energies)
        a1, a2 = result.overlaps.T
        files["overlaps.csv"] = (
            "index,energy,abs_phi1,abs_phi2,shared_support\n"
            + _csv_rows("%d,%.17g,%.17g,%.17g,%.17g\n", index, energies,
                        a1.tolist(), a2.tolist(), (a1 * a2).tolist()))
        for name, text in files.items():
            path = os.path.join(out_dir, name)
            # registered before it is opened, so that a failure mid-write
            # still gets the partial file removed below
            written.append(path)
            with open(path, "w") as f:
                f.write(text)
        remove_artifacts(out_dir, keep=files)
        return written
    except Exception as exc:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise PipelineError("report", f"failed writing artifacts: {exc}") from exc
