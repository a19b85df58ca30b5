"""The benchmark's recorded numbers, checked by the tier-1 suite: a run of
the quench-L12 workload's config at disorder seed 0 must pass the
benchmark's own gates (perfbench/gates.py) against the values recorded in
perfbench/references.json.  Both files are only read."""

import importlib.util
import json
from pathlib import Path

from ergoquench.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_gates():
    spec = importlib.util.spec_from_file_location("perfbench_gates",
                                                  PERFBENCH / "gates.py")
    gates = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gates)
    return gates


def test_quench_l12_passes_the_benchmark_gates(tmp_path):
    # L = 12, h = 1, 2000 points from t = 3000 at dt = 0.5, both protocols
    window = [3000.0, 3000.0 + 0.5 * 1999, 2000]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"L": 12, "h": 1.0, "disorder_seed": 0,
                                  "protocol": "both", "time_window": window,
                                  "mc_samples": 0}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    references = json.loads((PERFBENCH / "references.json").read_text())
    gates = load_gates()
    assert gates.check_report(report, references["quench-L12"]["0"]) == []
    assert gates.check_artifacts(str(out), report, window) == []
