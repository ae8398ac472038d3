"""The configuration in pyproject.toml: the pytest settings, run on a
throwaway test file, and the console script with the package it finds;
and the CI workflow's token permissions."""

import importlib
import itertools
import re
import subprocess
import sys
from pathlib import Path

from iwaheights import cli

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


def toml_section(name: str) -> dict:
    """The `key = "value"` and `key = ["value"]` lines of one table of
    pyproject.toml (tomllib is not in Python 3.10)."""
    text = (ROOT / "pyproject.toml").read_text()
    body = text.split(f"\n[{name}]\n", 1)[1].split("\n[", 1)[0]
    return {m[1]: m[2] for m in re.finditer(r'^([\w.-]+)\s*=\s*\[?"([^"]*)"\]?\s*$', body, re.M)}


def test_console_script_resolves_to_cli_main():
    # `pip install .` puts an `iwaheights` command on PATH that calls this
    # entry point; the tests call cli.main in-process, so a wrong target
    # would pass everything else
    module, _, attr = toml_section("project.scripts")["iwaheights"].partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main
    where = toml_section("tool.setuptools.packages.find")["where"]
    assert (ROOT / where / module.split(".")[0] / "__init__.py").is_file()


def test_workflow_token_reads_only():
    # a workflow with no top-level `permissions:` key gets the repository's
    # default token; CI installs no YAML parser, so the lines are read as text
    lines = (ROOT / ".github" / "workflows" / "tier1.yml").read_text().splitlines()
    assert "permissions:" in lines  # unindented: a job-level key would not match
    start = lines.index("permissions:") + 1
    block = [line.strip() for line in itertools.takewhile(lambda line: line[:1].isspace(), lines[start:])]
    assert block == ["contents: read"]
