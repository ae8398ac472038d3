"""The pytest configuration in pyproject.toml, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TWO_FAILURES = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails_under_hypothesis(n):
    assert n < 10


def test_plain_failure():
    assert 1 == 2
'''


def test_hypothesis_failure_keeps_the_session(tmp_path):
    # Hypothesis imports libcst to write a failing example's patch, and
    # libcst's DeprecationWarning, an error under filterwarnings, ended the
    # session in INTERNALERROR before the later failure was reported.
    # Without libcst installed no patch is written and this passes as is.
    (tmp_path / "test_two.py").write_text(TWO_FAILURES)
    argv = ["-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py"]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *argv], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "FAILED test_two.py::test_fails_under_hypothesis" in proc.stdout
    assert "FAILED test_two.py::test_plain_failure" in proc.stdout
    assert "2 failed" in proc.stdout
