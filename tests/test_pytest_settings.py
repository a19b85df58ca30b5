"""The repository's pytest settings, exercised on a throwaway test file in a
subprocess so that nothing is written into the repository."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALWAYS_FAILS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_always_fails(x):
    assert False
'''


def test_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    # the settings turn DeprecationWarning into an error; one raised inside
    # hypothesis's own report hook must not end the run in an INTERNALERROR
    (tmp_path / "test_always_fails.py").write_text(ALWAYS_FAILS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_always_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
