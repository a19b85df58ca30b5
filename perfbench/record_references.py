"""Record the reference numbers the quench workloads are gated against.

    python3 perfbench/record_references.py

For each quench workload and each disorder seed 0..worker.REALIZATIONS-1
this runs the pipeline once and stores the gated report numbers (see
gates.py) in perfbench/references.json.  Run it only at a commit whose
results are trusted: the benchmark then holds every later commit to these
numbers.
"""

from __future__ import annotations

import json
import os

import gates
import worker

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    eq = worker.import_package(ROOT)
    refs = {}
    for name, make in worker.WORKLOADS.items():
        workload = make()
        if not isinstance(workload, worker.Quench):
            continue
        table = {}
        for seed in range(worker.REALIZATIONS):
            config = eq.ExperimentConfig.from_dict(workload.config(seed))
            report = eq.run_experiment(config).report.as_dict()
            table[str(seed)] = gates.report_numbers(report)
            print(f"{name} seed {seed}: {report['runtime_seconds']:.1f} s", flush=True)
        refs[name] = table
    with open(worker.REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
