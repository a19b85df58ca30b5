"""One benchmark process: set up one workload, then run its operations.

`run.py` starts this file in a fresh interpreter with the BLAS thread count
fixed in the environment.  The process imports ergoquench from the
checkout's `src/`, generates the workload's inputs from the seed, warms
LAPACK up, and then runs operations one after another (a closed loop with
one caller) until `--seconds` have passed, at least one.  Every operation
is checked by `gates.py`.  With `--trace 1` the loop records spans.  The
last line on stdout is one JSON object with the raw
measurements; `run.py` turns them into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import gates
from tracer import Tracer, summarize

# Layers are the package modules; each is timed at its public functions.
LAYERS = {
    "cli": ["main"],
    "experiment": ["run_experiment", "prepare_protocol_state", "write_artifacts"],
    "spin_chain": ["build_hamiltonian", "symmetrized", "build_projector_observable"],
    "spectral": ["diagonalize", "EigenSystem.to_eigenbasis",
                 "EigenSystem.vector_to_eigenbasis"],
    "ergodic_ensemble": ["ensemble_mean", "second_moment_expectation"],
    "dynamics": ["evolve_expectation", "time_stats"],
    "haar_oracle": ["estimate_moments", "estimate_state_mean"],
}
ROOT_SPAN = "bench.operation"
# disorder seeds 0..REALIZATIONS-1 have reference numbers in references.json
REALIZATIONS = 8


def _nbytes(matrix) -> int:
    """Bytes of a d x d operand, at the dtype the package handed over."""
    return getattr(matrix, "entries", matrix).nbytes


def _evolve_counts(args, result):
    d, n = len(args["energies"]), len(args["times"])
    return {"pair_steps": d * (d - 1) // 2 * n,
            "dxd_bytes": _nbytes(args["observable"])}


def _sampler_counts(args, result):
    sizes = [int(s) for s in args["partition"].sizes]
    n = int(args["n_samples"])
    return {"samples": n, "ginibre_entries": n * sum(s * s for s in sizes),
            "dxd_bytes": _nbytes(args["rho"])}


def _diagonalize_counts(args, result):
    return {"dxd_bytes": _nbytes(args["op"])}


def _artifact_counts(args, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


COUNTERS = {
    "dynamics.evolve_expectation": _evolve_counts,
    "haar_oracle.estimate_moments": _sampler_counts,
    "haar_oracle.estimate_state_mean": _sampler_counts,
    "spectral.diagonalize": _diagonalize_counts,
    "experiment.write_artifacts": _artifact_counts,
}


class Quench:
    """One realization of the quench experiment, run the way users run it:
    `ergoquench run --config <file> --out <dir>`, artifacts included.

    Every operation of a run uses disorder seed (seed mod REALIZATIONS),
    so each does the same work and has reference values to be checked
    against.  Realizations differ in work, because evolve_expectation
    prunes a realization-dependent number of terms, so run_s differs
    between seeds by up to about 15 %.
    """

    def __init__(self, name: str, length: int, n_points: int):
        self.name = name
        self.length = length
        # default window start and default spacing dt = 0.5
        self.time_window = (3000.0, 3000.0 + 0.5 * (n_points - 1), n_points)

    def config(self, disorder_seed: int) -> dict:
        return {"L": self.length, "h": 1.0, "disorder_seed": disorder_seed,
                "protocol": "both", "time_window": list(self.time_window),
                "mc_samples": 0}

    def setup(self, eq, seed: int, work_dir: str):
        self.disorder_seed = seed % REALIZATIONS
        self.reference = load_references()[self.name][str(self.disorder_seed)]
        self.work_dir = work_dir
        self.config_path = os.path.join(work_dir, "config.json")
        with open(self.config_path, "w") as f:
            json.dump(self.config(self.disorder_seed), f)
        self.cli = eq.cli

    def operate(self, index: int):
        out_dir = os.path.join(self.work_dir, f"op{index}")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = self.cli.main(["run", "--config", self.config_path, "--out", out_dir])
        return code, out_dir, err.getvalue()

    def check(self, outcome) -> dict:
        """Problems of each operation in the outcome, by operation."""
        code, out_dir, err = outcome
        tag = f"{self.name} seed {self.disorder_seed}"
        try:
            if code != 0:
                return {tag: [f"ergoquench run exited {code}: {err.strip()}"]}
            with open(os.path.join(out_dir, "report.json")) as f:
                report = json.load(f)
            return {tag: gates.check_report(report, self.reference)
                    + gates.check_artifacts(out_dir, report, self.time_window)}
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return {tag: [f"artifacts unreadable: {type(exc).__name__}: {exc}"]}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


class Oracle:
    """Monte-Carlo moment estimates on generated states and observables.

    Each pass calls estimate_state_mean and estimate_moments (orders 1 and
    2) once per partition shape; every call is one gated operation.  d = 3
    as one sector is bound by per-sample overhead, d = 16 by QR and GEMM,
    whole and split 1+3+4+8.
    """

    SHAPES = {"d3": (3,), "d16": (16,), "d16_split": (1, 3, 4, 8)}
    SAMPLES = {"d3": 4096, "d16": 2048, "d16_split": 2048}

    def setup(self, eq, seed: int, work_dir: str):
        import numpy as np
        self.np = np
        self.oracle = eq.haar_oracle
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.cases = {}
        for label, sizes in self.SHAPES.items():
            d = sum(sizes)
            partition = eq.SectorPartition(
                dim=d, starts=np.cumsum((0,) + sizes[:-1]))
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = g @ g.conj().T
            rho = eq.DensityMatrix(0.5 * (rho + rho.conj().T) / np.trace(rho).real)
            a, b = (_random_hermitian(rng, d) for _ in range(2))
            prediction = eq.second_moment_expectation(rho, partition, a, b)
            self.cases[label] = {
                "rho": rho, "a": a, "b": b, "partition": partition,
                "mean_state": eq.ensemble_mean(rho, partition).entries,
                "mean_a": prediction.mean_a,
                "second_moment": prediction.second_moment,
            }

    def operate(self, index: int):
        """One pass; an exception is kept as that call's outcome."""
        sampler_seed = int(self.np.random.SeedSequence(
            [self.seed, index]).generate_state(1)[0])
        results, elapsed = {}, {}
        for label, case in self.cases.items():
            n = self.SAMPLES[label]
            rho, partition = case["rho"], case["partition"]
            start = time.perf_counter()
            for key in ("state_mean", "order1", "order2"):
                try:
                    if key == "state_mean":
                        got = self.oracle.estimate_state_mean(
                            rho, partition, n_samples=n, seed=sampler_seed)
                    else:
                        order = 1 if key == "order1" else 2
                        got = self.oracle.estimate_moments(
                            rho, partition, [case["a"], case["b"]][:order],
                            order=order, n_samples=n, seed=sampler_seed)[0]
                except Exception as exc:  # a failed operation, not a crashed run
                    got = exc
                results[label, key] = got
            elapsed[label] = time.perf_counter() - start
        return results, elapsed

    def check(self, outcome) -> dict:
        results, _ = outcome
        problems = {}
        for (label, key), got in results.items():
            case = self.cases[label]
            tag = f"{label} {key}"
            if isinstance(got, Exception):
                problems[tag] = [f"{tag} raised {type(got).__name__}: {got}"]
            elif key == "state_mean":
                problems[tag] = gates.check_state_mean(tag, *got, case["mean_state"])
            else:
                exact = case["mean_a"] if key == "order1" else case["second_moment"]
                problems[tag] = gates.check_estimate(tag, got.value, got.std_error,
                                                     exact)
        return problems

    def rates(self, outcomes) -> dict:
        """Median samples per second of each shape over the passes."""
        return {f"samples_per_s_{label}": statistics.median(
                    3 * self.SAMPLES[label] / elapsed[label] for _, elapsed in outcomes)
                for label in self.SHAPES}


def _random_hermitian(rng, d: int):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (x + x.conj().T) / (2.0 * d ** 0.5)


WORKLOADS = {
    "quench-L12": lambda: Quench("quench-L12", 12, 2000),
    "prefix-L14": lambda: Quench("prefix-L14", 14, 100),
    "oracle-haar": Oracle,
}
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")


def load_references() -> dict:
    with open(REFERENCES) as f:
        return json.load(f)


def import_package(root: str):
    """Import ergoquench from `<root>/src` and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import ergoquench
    import ergoquench.cli
    where = os.path.realpath(ergoquench.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"ergoquench was imported from {where}, not from {src}")
    return ergoquench


def warm_up(np):
    """One small LAPACK call, so its one-time cost lands in set-up."""
    x = np.random.default_rng(0).standard_normal((64, 64))
    np.linalg.eigh(x + x.T)


class SpeedProbe:
    """Wall time of a fixed kernel that does not use ergoquench.

    On a shared host the speed of a core drifts by up to 2x over minutes.
    Scaling a run's wall times by REFERENCE_S over the median probe time of
    the run gives times at the speed the probe shows on a quiet reference
    host (2-vCPU x86-64 VM, numpy 2.4).  The kernel mixes a pure-Python
    loop with a streaming complex multiply over 8 MB, single-threaded, and
    reports the median of PASSES passes.
    """

    REFERENCE_S = 0.017
    SIZE = 1 << 19
    PASSES = 5
    STEP = complex(0.6, 0.8)  # unit modulus: the sweep neither grows nor decays

    def __init__(self, np):
        self.z = np.ones(self.SIZE, dtype=np.complex128)
        self()  # first touch of the array and the loop are not the machine's speed

    def __call__(self) -> float:
        times = []
        for _ in range(self.PASSES):
            start = time.perf_counter()
            total = 0
            for i in range(200_000):
                total += i
            self.z.fill(1.0)
            for _ in range(10):
                self.z *= self.STEP
                total += self.z.real.sum()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    @classmethod
    def normalize(cls, wall_s: float, probe_s: float) -> float:
        return wall_s * cls.REFERENCE_S / probe_s


class SpeedClock:
    """Times operations in wall seconds, probe time left out, and collects
    probe readings spread over the run: at the start and end of every
    operation and at a call into the package whenever INTERVAL_S have
    passed since the last reading.  The readings inside an operation matter
    where one operation is long: prefix-L14 runs a single one of about a
    minute, while the host's speed changes within seconds.  Over 20 runs of
    it, the spread of run_s was 12 % with them and 17 % without.
    """

    INTERVAL_S = 2.0

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.readings: list[float] = []
        self.running = False

    def _read(self):
        self.readings.append(self.probe())
        self.mark = time.perf_counter()

    def start(self):
        self.wall = 0.0
        self._read()
        self.running = True

    def tick(self):
        if self.running and time.perf_counter() - self.mark >= self.INTERVAL_S:
            self.wall += time.perf_counter() - self.mark
            self._read()

    def stop(self) -> float:
        self.wall += time.perf_counter() - self.mark
        self._read()
        self.running = False
        return self.wall


def measure(workload, seconds: float, clock: SpeedClock, tracer: Tracer,
            traced: bool) -> dict:
    """Run operations until `seconds` have passed (at least one).

    Untraced operations are probed along the way (clock.tick at every
    package call); traced ones only at their ends, so no probe lands inside
    a span.  Set-up's own probe readings are left out.
    """
    op_s, outcomes, problems = [], [], []
    attempted = failed = 0
    clock.readings = []
    tracer.boundary = None if traced else clock.tick
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        clock.start()
        tracer.run = index if traced else None
        with tracer.span(ROOT_SPAN):
            outcome = workload.operate(index)
        tracer.run = None
        op_s.append(clock.stop())
        if index == 0:
            # through set-up and one operation: later operations only add
            # allocator growth, which would tie the peak to the run length
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked = workload.check(outcome)
        attempted += len(checked)
        failed += sum(1 for found in checked.values() if found)
        problems += [p for found in checked.values() for p in found]
        outcomes.append(outcome)
        index += 1
    tracer.boundary = None
    out = {"op_s": op_s, "probe_s": clock.readings, "attempted": attempted,
           "failed": failed, "problems": problems[:20], "peak_rss_mb": peak_rss_mb}
    if hasattr(workload, "rates"):
        out["rates"] = workload.rates(outcomes)
    return out


def traced_layers(tracer: Tracer, n_ops: int) -> dict:
    spans = tracer.spans
    return {
        "layers": summarize(spans, n_ops),
        # the difference of a traced and an untraced run would be swamped by
        # the host's drift, so the wrappers' own cost is timed instead
        "trace_overhead_s": tracer.call_overhead_s() * len(spans) / n_ops,
        "dxd_array_bytes": max((s["counts"].get("dxd_bytes", 0) for s in spans),
                               default=0),
        "absent": tracer.absent,
    }


def provenance(eq, np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "ergoquench": getattr(eq, "__version__", None),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    eq = import_package(args.root)
    import numpy as np
    os.makedirs(args.work_dir, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    workload.setup(eq, args.seed, args.work_dir)
    warm_up(np)
    result = {"setup_s": time.perf_counter() - start}
    if not args.setup_only:
        clock = SpeedClock(SpeedProbe(np))
        tracer = Tracer()
        tracer.install("ergoquench", LAYERS, COUNTERS)
        try:
            if args.trace:
                traced = measure(workload, args.seconds, clock, tracer, True)
                traced.update(traced_layers(tracer, len(traced["op_s"])))
                traced["spans_file"] = os.path.join(args.work_dir, "spans.json")
                tracer.write(traced["spans_file"])
                result["traced"] = traced
            else:
                result["untraced"] = measure(workload, args.seconds, clock, tracer, False)
        finally:
            tracer.uninstall()
        result["provenance"] = provenance(eq, np)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
