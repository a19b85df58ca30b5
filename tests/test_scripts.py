"""Smoke tests for the command-line scripts under scripts/: each runs in a
subprocess on a small chain, as a user would run it."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

from ergoquench.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, returncode=0, stream="stdout"):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == returncode, proc.stderr
    return getattr(proc, stream)


def test_level_statistics_sweep_writes_one_row_per_h():
    out = run_script("level_statistics_sweep.py", "--length", "6",
                     "--realizations", "2", "--h-values", "1.0")
    header, *rows = out.splitlines()
    assert header == "h,r_mean,r_sem,n_realizations"
    assert len(rows) == 1
    h, r_mean, r_sem, count = rows[0].split(",")
    assert (h, count) == ("1.0", "2")
    assert 0.0 < float(r_mean) < 1.0 and float(r_sem) >= 0.0


def test_level_statistics_sweep_leaves_out_spectra_without_a_gap_ratio():
    # at J = h = 0 every level is 0, so no realization has a gap ratio
    out = run_script("level_statistics_sweep.py", "--length", "6",
                     "--realizations", "3", "--coupling", "0",
                     "--h-values", "0", "1.0")
    assert out.splitlines()[1] == "0.0,,,0"
    h, r_mean, r_sem, count = out.splitlines()[2].split(",")
    assert (h, count) == ("1.0", "3")
    assert 0.0 < float(r_mean) < 1.0 and float(r_sem) >= 0.0


def test_level_statistics_sweep_averages_like_the_batch(tmp_path):
    # the same three seeds at L = 6, h = 1: the sweep's row is the batch's
    # aggregate, its standard error the batch's std over sqrt(3)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"L": 6, "time_window": [100, 600, 200]}))
    out = tmp_path / "batch"
    assert main(["run", "--config", str(config), "--realizations", "3",
                 "--out", str(out)]) == 0
    aggregate = json.loads((out / "aggregate.json").read_text())
    row = run_script("level_statistics_sweep.py", "--length", "6",
                     "--realizations", "3", "--h-values", "1.0").splitlines()[1]
    assert row == (f"1.0,{aggregate['r_mean_average']:.6f},"
                   f"{aggregate['r_mean_std'] / math.sqrt(3):.6f},3")


def test_level_statistics_sweep_rejects_an_odd_length():
    err = run_script("level_statistics_sweep.py", "--length", "7",
                     returncode=1, stream="stderr")
    assert "L must be even and >= 2 for the half split, got 7" in err


def test_count_code_lines_counts_code_only(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        '"""Module docstring\n\nover three lines."""\n'
        "\n"
        "# a comment\n"
        "def f(x):\n"
        '    """Function docstring."""\n'
        "    return (x +  # trailing comment\n"
        "            1)\n"
        "\n"
        'TEXT = """not a docstring\n'
        'on two lines"""\n')
    (package / "empty.py").write_text("")
    out = run_script("count_code_lines.py", str(package))
    assert out.splitlines() == ["empty.py 0", "mod.py 5", "total 5"]


def test_count_code_lines_covers_every_module():
    *rows, total = run_script("count_code_lines.py").splitlines()
    counts = {name: int(n) for name, n in (row.split() for row in rows)}
    assert sorted(counts) == sorted(
        p.name for p in (ROOT / "src" / "ergoquench").glob("*.py"))
    assert total == f"total {sum(counts.values())}"


def test_compare_artifacts_passes_two_runs_and_names_a_changed_byte(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"L": 6, "time_window": [100.0, 600.0, 2000]}))
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    # the run-dependent fields are left out of the comparison
    report = json.loads((runs[1] / "report.json").read_text())
    report.update(timestamp="then", runtime_seconds=99.0)
    (runs[1] / "report.json").write_text(json.dumps(report))
    out = run_script("compare_artifacts.py", *map(str, runs))
    assert out == "identical: 7 files\n"

    changed = tmp_path / "changed"
    shutil.copytree(runs[0], changed)
    path = changed / "series_cat_Q.csv"
    text = bytearray(path.read_bytes())
    # a digit of the last value that its float keeps (the 17th may not)
    text[-5] = ord("0") if text[-5] != ord("0") else ord("1")
    path.write_bytes(bytes(text))
    out = run_script("compare_artifacts.py", str(runs[0]), str(changed),
                     returncode=1)
    first, *columns = out.splitlines()
    assert first.startswith("series_cat_Q.csv: line 2001: ")
    # then the largest difference of each numeric column: only the last
    # value moved
    was, now = (float(series.read_text().splitlines()[-1].split(",")[1])
                for series in (runs[0] / "series_cat_Q.csv", path))
    assert was != now
    moved = abs(was - now)
    assert columns == [
        "series_cat_Q.csv: column t: largest difference 0.000e+00, "
        "relative 0.000e+00",
        f"series_cat_Q.csv: column value: largest difference {moved:.3e}, "
        f"relative {moved / max(abs(was), abs(now)):.3e}"]


def test_compare_artifacts_column_differences_of_a_csv(tmp_path):
    runs = [tmp_path / "a", tmp_path / "b"]
    files = ("t,value,label\n0,1.0,x\n1,-2.0,y\n2,nan,z\n3,4.0,w\n",
             "t,value,label\n0,1.5,x\n1,-2.0,q\n2,nan,z\n3,-4.0,w\n")
    for out, text in zip(runs, files):
        out.mkdir()
        (out / "series.csv").write_text(text)
    out = run_script("compare_artifacts.py", *map(str, runs), returncode=1)
    # the label column is not numeric; nan written alike is no difference
    assert out.splitlines()[1:] == [
        "series.csv: column t: largest difference 0.000e+00, relative 0.000e+00",
        "series.csv: column value: largest difference 8.000e+00, "
        "relative 2.000e+00"]
    # a changed row count leaves only the first differing line
    (runs[1] / "series.csv").write_text(files[0] + "4,5.0,v\n")
    out = run_script("compare_artifacts.py", *map(str, runs), returncode=1)
    assert out.splitlines() == ["series.csv: 5 lines against 6"]


def test_compare_artifacts_names_every_differing_key(tmp_path):
    report = {"closed_form": {"overlap_sum": 0.5, "weight": 1.0},
              "protocols": {"cat": {"numeric_mean": -1.25}},
              "timestamp": "now"}
    changed = json.loads(json.dumps(report))
    changed["closed_form"]["overlap_sum"] = 0.25
    changed["protocols"]["cat"]["numeric_mean"] = -1.5
    changed["timestamp"] = "later"
    runs = [tmp_path / "a", tmp_path / "b"]
    for out, content in zip(runs, (report, changed)):
        out.mkdir()
        (out / "report.json").write_text(json.dumps(content))
    out = run_script("compare_artifacts.py", *map(str, runs), returncode=1)
    assert out.splitlines() == [
        "report.json: /closed_form/overlap_sum: 0.5 against 0.25",
        "report.json: /protocols/cat/numeric_mean: -1.25 against -1.5"]
