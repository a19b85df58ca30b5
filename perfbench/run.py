"""ergoquench benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ergoquench is imported from its `src/`.
Workloads (all take their inputs from --seed):

  quench-L12   one realization of the default experiment at L = 12
               (d = 924) on a 2000-point grid with dt = 0.5, run through
               `ergoquench run`, artifacts included; the phase-sum dynamics
               dominate
  prefix-L14   one realization at L = 14 (d = 3432) on the shortest grid
               the config accepts (100 points); the dense d x d stages
               dominate and the working set is large
  oracle-haar  Monte-Carlo estimates (state mean, orders 1 and 2) on
               generated states at d = 3 and d = 16 (whole and split
               1+3+4+8); no chain and no dynamics

Each run starts one measuring process and, with --trace 0, SETUP_REPEATS
set-up-only processes, every one a fresh interpreter with BLAS_THREADS
BLAS threads.  The measuring process repeats the workload's operation
until --seconds have passed (at least once) and gates every operation's
output.  A quench operation is one realization, always with disorder seed
(seed mod worker.REALIZATIONS), one of those references.json holds.

--trace 0 prints the end-to-end metrics:
  run_s        median time of one operation (one realization, or one
               oracle pass)
  setup_s      median time of a set-up-only process: interpreter start,
               imports, input generation, one small LAPACK call
  peak_rss_mb  peak resident set of the measuring process through set-up
               and its first operation (the speed probe holds 8 MB of it)
Both are wall times scaled to a quiet reference host, because a shared
host's speed drifts by up to 2x over minutes.  run_s is scaled by the
median time of worker.SpeedProbe, a fixed kernel timed at the start and
end of every operation and about every 2 s inside it; setup_s by the
median start-up time of a bare interpreter importing numpy, run just
before each set-up process.
Raw wall times are kept in the provenance line.
--trace 1 records spans instead and prints per-layer metrics:
`<module>.<function>.{calls,self_s}` per operation (wall time), counts
computed from argument sizes (units ending in -computed), Haar sample
rates per partition shape, `untraced_remainder_s` (operation time outside
every layer span), `trace_overhead_s` (the wrappers' own cost per
operation: a no-op's traced minus bare call time, times the spans per
operation; the difference of a traced and an untraced run would drown in
the host's drift) and `failed_frac` (failed over attempted operations).
The sample rates exist on oracle-haar only and failed_frac is 0 when all
is well, so neither can be an end-to-end metric, which every workload
reports and which never reads 0.  Spans are written to
`.perfbench_out/spans-<workload>-seed<N>.json`.

Before the result, one line gives provenance: versions of the package,
numpy and BLAS, nproc, the BLAS thread count, the git revision and the
seed.  The last line is the result object
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # no __pycache__ in the benchmark's directory
import worker  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 6
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
RUN_BUDGET_S = 175  # every process of one run ends within this
# Process start-up drifts with the host's file and memory load, which the
# CPU speed probe does not see; set-up is scaled by a bare interpreter that
# imports numpy, started just before it, instead.
BASELINE_CMD = [sys.executable, "-c", "import numpy"]
BASELINE_REFERENCE_S = 0.21  # its time on the quiet reference host

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for module, qualnames in worker.LAYERS.items():
        for qualname in qualnames:
            units[f"{module}.{qualname}.calls"] = "count"
            units[f"{module}.{qualname}.self_s"] = "s"
    units.update({
        "dynamics.evolve_expectation.pair_steps": "count-computed",
        "haar_oracle.estimate_moments.samples": "count",
        "haar_oracle.estimate_state_mean.samples": "count",
        "haar_oracle.ginibre_entries": "count-computed",
        "experiment.write_artifacts.bytes": "B",
        "dxd_array_bytes": "B-computed",
    })
    units.update({f"samples_per_s_{label}": "1/s" for label in worker.Oracle.SHAPES})
    units.update({"untraced_remainder_s": "s", "trace_overhead_s": "s",
                  "failed_frac": "fraction"})
    return units


PER_LAYER = per_layer_units()


def git_revision() -> str | None:
    """HEAD of the checkout, or None when the checkout is no git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != 2 or not os.path.samefile(lines[0], ROOT):
        return None  # no repository, or one that merely contains the checkout
    return lines[1]


def launch(args, work_dir: str, env: dict, setup_only: bool, deadline: float) -> dict:
    """Run one worker process and return its result object."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
           "--root", ROOT, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def layer_metrics(traced: dict) -> dict:
    layers = traced["layers"]
    values = {}
    for module, qualnames in worker.LAYERS.items():
        for qualname in qualnames:
            entry = layers.get(f"{module}.{qualname}", {})
            values[f"{module}.{qualname}.calls"] = entry.get("calls", 0)
            values[f"{module}.{qualname}.self_s"] = entry.get("self_s", 0.0)

    def count(span: str, key: str):
        return layers.get(span, {}).get(key, 0)

    values["dynamics.evolve_expectation.pair_steps"] = count(
        "dynamics.evolve_expectation", "pair_steps")
    for fn in ("estimate_moments", "estimate_state_mean"):
        values[f"haar_oracle.{fn}.samples"] = count(f"haar_oracle.{fn}", "samples")
    values["haar_oracle.ginibre_entries"] = sum(
        count(f"haar_oracle.{fn}", "ginibre_entries")
        for fn in ("estimate_moments", "estimate_state_mean"))
    values["experiment.write_artifacts.bytes"] = count(
        "experiment.write_artifacts", "bytes")
    values["dxd_array_bytes"] = traced["dxd_array_bytes"]
    rates = traced.get("rates", {})
    for label in worker.Oracle.SHAPES:
        values[f"samples_per_s_{label}"] = rates.get(f"samples_per_s_{label}", 0.0)
    values["untraced_remainder_s"] = count(worker.ROOT_SPAN, "self_s")
    values["trace_overhead_s"] = traced["trace_overhead_s"]
    values["failed_frac"] = traced["failed"] / traced["attempted"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "ergoquench", "__init__.py")):
        print(f"error: no ergoquench sources under {ROOT}/src", file=sys.stderr)
        return 2

    threads = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONDONTWRITEBYTECODE="1")
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        setup_wall_s, baseline_s = [], []
        if args.trace:  # setup_s is end-to-end only: a traced run does not time it
            result = launch(args, os.path.join(run_dir, "measure"), env, False, deadline)
        for k in range(0 if args.trace else SETUP_REPEATS):
            if k == SETUP_REPEATS // 2:
                # set-up is timed before and after the measuring process, so
                # its median spans the run, not one moment of the machine's load
                result = launch(args, os.path.join(run_dir, "measure"), env, False,
                                deadline)
            start = time.perf_counter()
            # pipes make the wait select-based; a bare wait with a timeout
            # polls the child in steps of up to 50 ms
            subprocess.run(BASELINE_CMD, env=env, check=True, capture_output=True,
                           timeout=max(1.0, deadline - time.monotonic()))
            baseline_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            launch(args, os.path.join(run_dir, f"setup{k}"), env, True, deadline)
            setup_wall_s.append(time.perf_counter() - start)
        spans_file = result.get("traced", {}).get("spans_file")
        if spans_file:
            kept = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
            os.replace(spans_file, kept)
            result["traced"]["spans_file"] = kept
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    loop = result["traced" if args.trace else "untraced"]
    if args.trace:
        values, units = layer_metrics(loop), PER_LAYER
    else:
        values = {"run_s": worker.SpeedProbe.normalize(
                      statistics.median(loop["op_s"]), statistics.median(loop["probe_s"])),
                  "setup_s": (statistics.median(setup_wall_s) * BASELINE_REFERENCE_S
                              / statistics.median(baseline_s)),
                  "peak_rss_mb": loop["peak_rss_mb"]}
        units = END_TO_END

    info = dict(result["provenance"], nproc=os.cpu_count(),
                cpus_usable=len(os.sched_getaffinity(0)), blas_threads=BLAS_THREADS,
                git_revision=git_revision(), workload=args.workload, seed=args.seed,
                op_wall_s=loop["op_s"], probe_s=loop["probe_s"],
                probe_reference_s=worker.SpeedProbe.REFERENCE_S,
                setup_wall_s=setup_wall_s, baseline_s=baseline_s,
                setup_in_process_s=result["setup_s"])
    print(json.dumps({"provenance": info}))
    if args.trace:
        top = sorted(loop["layers"].items(), key=lambda kv: -kv[1]["self_s"])
        print(json.dumps({"trace": {
            "spans_file": os.path.relpath(loop["spans_file"], ROOT),
            "absent": loop["absent"],
            "top_self_s": [[name, entry["self_s"]] for name, entry in top[:8]]}}))
    for problem in loop["problems"]:
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": loop["failed"] == 0, "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
