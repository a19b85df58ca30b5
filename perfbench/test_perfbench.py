"""Tests of the benchmark's own parts: gates, tracer and metric list.

    python3 -m pytest perfbench
"""

import json
import math
import os

import numpy as np
import pytest

import gates
import run
import worker
from tracer import Tracer, self_times, summarize

eq = worker.import_package(run.ROOT)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A real L = 6 run through the CLI, with its report numbers."""
    quench = worker.Quench("small", 6, 100)
    out = str(tmp_path_factory.mktemp("small"))
    config = os.path.join(out, "config.json")
    with open(config, "w") as f:
        json.dump(quench.config(3), f)
    assert eq.cli.main(["run", "--config", config, "--out", out]) == 0
    with open(os.path.join(out, "report.json")) as f:
        report = json.load(f)
    return quench, out, report


def test_report_gate_passes_its_own_numbers_and_fails_a_perturbed_one(small_run):
    _, _, report = small_run
    reference = gates.report_numbers(report)
    assert gates.check_report(report, reference) == []
    bad = json.loads(json.dumps(report))
    bad["protocols"]["cat"]["H_R"]["numeric_mean"] *= 1 + 1e-5
    problems = gates.check_report(bad, reference)
    assert len(problems) == 1 and "cat.H_R.numeric_mean" in problems[0]
    del bad["protocols"]["mixed"]
    problems = gates.check_report(bad, reference)
    assert any("lacks mixed.Q.theory_sigma" in p for p in problems)


def test_report_gate_ignores_rounding_of_vanishing_quantities(small_run):
    _, _, report = small_run
    reference = gates.report_numbers(report)
    noisy = json.loads(json.dumps(report))
    noisy["protocols"]["mixed"]["Q"]["theory_sigma"] += 1e-9
    assert gates.check_report(noisy, reference) == []


def test_artifact_gate_reads_back_and_fails_on_a_perturbed_series(small_run):
    quench, out, report = small_run
    assert gates.check_artifacts(out, report, quench.time_window) == []
    path = os.path.join(out, "series_cat_Q.csv")
    with open(path) as f:
        lines = f.read().splitlines()
    t, v = lines[50].split(",")
    lines[50] = f"{t},{float(v) + 1e-3!r}"
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    problems = gates.check_artifacts(out, report, quench.time_window)
    assert problems and all("series_cat_Q.csv" in p for p in problems)


def test_quench_operation_failure_is_reported(tmp_path):
    quench = worker.Quench("small", 6, 100)
    quench.disorder_seed, quench.reference = 0, {}
    out = tmp_path / "op0"
    problems = quench.check((1, str(out), "error: [config] broken"))
    assert problems == {"small seed 0": ["ergoquench run exited 1: error: [config] broken"]}
    out.mkdir()
    problems = quench.check((0, str(out), ""))
    assert "artifacts unreadable: FileNotFoundError" in problems["small seed 0"][0]
    assert not out.exists()


@pytest.fixture(scope="module")
def oracle():
    workload = worker.Oracle()
    workload.SAMPLES = {label: 256 for label in workload.SHAPES}
    workload.setup(eq, 7, None)
    return workload


def test_oracle_gate_passes_real_estimates(oracle):
    problems = oracle.check(oracle.operate(0))
    assert len(problems) == 9
    assert all(found == [] for found in problems.values())


def test_oracle_gate_fails_perturbed_estimates(oracle):
    results, elapsed = oracle.operate(1)
    # move one matrix entry and one moment to 7 standard errors off
    mean, se_re, se_im = results["d16_split", "state_mean"]
    shifted = mean.copy()
    exact = oracle.cases["d16_split"]["mean_state"][2, 5]
    shifted[2, 5] = exact.real + 7 * se_re[2, 5] + 1j * mean[2, 5].imag
    results["d16_split", "state_mean"] = (shifted, se_re, se_im)
    est = results["d3", "order2"]
    results["d3", "order2"] = type(est)(
        value=oracle.cases["d3"]["second_moment"] + 7 * est.std_error,
        std_error=est.std_error, n_samples=est.n_samples)
    results["d16", "order1"] = ValueError("boom")
    problems = oracle.check((results, elapsed))
    failed = sorted(tag for tag, found in problems.items() if found)
    assert failed == ["d16 order1", "d16_split state_mean", "d3 order2"]
    assert gates.check_estimate("nan", math.nan, 1.0, 0.0)


def test_tracer_spans_self_times_and_absent_names(tmp_path):
    tracer = Tracer()
    targets = dict(worker.LAYERS, dynamics=["evolve_expectation", "no_such_function"],
                   no_such_module=["f"])
    counters = dict(worker.COUNTERS, **{
        "spin_chain.symmetrized": lambda arguments, result: {"n": arguments["gone"]}})
    original = eq.experiment.evolve_expectation
    tracer.install("ergoquench", targets, counters)
    try:
        assert eq.experiment.evolve_expectation is not original
        tracer.run = 0
        with tracer.span(worker.ROOT_SPAN):
            config = eq.ExperimentConfig(L=6, time_window=(0.0, 10.0, 100))
            eq.run_experiment(config)
        tracer.run = None
        eq.run_experiment(config)  # not recorded
    finally:
        tracer.uninstall()
    assert eq.experiment.evolve_expectation is original
    assert eq.dynamics.evolve_expectation is original
    assert sorted(tracer.absent) == ["dynamics.no_such_function", "no_such_module.f",
                                     "spin_chain.symmetrized:counts"]

    spans = tracer.spans
    names = [s["name"] for s in spans]
    assert names[0] == worker.ROOT_SPAN and names[1] == "experiment.run_experiment"
    evolve = [s for s in spans if s["name"] == "dynamics.evolve_expectation"]
    assert len(evolve) == 4
    assert all(spans[s["parent"]]["name"] == "experiment.run_experiment" for s in evolve)
    assert evolve[0]["counts"]["pair_steps"] == 20 * 19 // 2 * 100
    own = self_times(spans)
    assert min(own) >= 0
    assert math.isclose(sum(own), spans[0]["end"] - spans[0]["start"])
    layers = summarize(spans, n_runs=1)
    assert layers["spectral.EigenSystem.to_eigenbasis"]["calls"] == 1
    # full chain and its right half, then both halves of 4 magnetization splits
    assert layers["spin_chain.build_hamiltonian"]["calls"] == 2 + 2 * 4
    assert 0 < tracer.call_overhead_s() < 1e-3
    assert tracer.spans is spans and tracer.run is None
    tracer.write(str(tmp_path / "spans.json"))
    with open(tmp_path / "spans.json") as f:
        assert len(json.load(f)["spans"]) == len(spans)


def test_self_time_subtracts_direct_children_only():
    spans = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": None, "counts": {}},
        {"name": "b", "start": 1.0, "end": 5.0, "parent": 0, "counts": {"n": 2}},
        {"name": "c", "start": 2.0, "end": 3.0, "parent": 1, "counts": {}},
        {"name": "b", "start": 6.0, "end": 7.0, "parent": 0, "counts": {"n": 3}},
    ]
    assert self_times(spans) == [5.0, 3.0, 1.0, 1.0]
    assert summarize(spans, n_runs=2)["b"] == {"calls": 1.0, "self_s": 2.0, "n": 2.5}


def test_speed_clock_leaves_probe_time_out(monkeypatch):
    now = [0.0]

    def probe():  # each reading takes 0.5 s
        now[0] += 0.5
        return now[0]

    monkeypatch.setattr(worker.time, "perf_counter", lambda: now[0])
    clock = worker.SpeedClock(probe)
    clock.start()
    now[0] += 1.0
    clock.tick()  # too soon for a reading
    now[0] += 2.0
    clock.tick()
    now[0] += 1.5
    assert clock.stop() == 4.5
    assert clock.readings == [0.5, 4.0, 6.0]


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(worker.WORKLOADS)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_every_quench_seed_has_references():
    refs = worker.load_references()
    for name in ("quench-L12", "prefix-L14"):
        assert sorted(map(int, refs[name])) == list(range(worker.REALIZATIONS))
        for numbers in refs[name].values():
            assert len(numbers) == 3 + 2 * 2 * 4
            assert all(np.isfinite(v) for v in numbers.values())
