"""The benchmark's pairing reports stay byte-identical.

`perfbench/reference.json` holds the sha256 of the report of every
operation the benchmark can run.  This test builds the oracle_sweep
schedule, runs its `oracle` and `heights` operations on the block-pairing
instance files (the derived-height and Gram-matrix paths) and compares
each report's digest with the recorded one.  It only reads `perfbench/`.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


def test_pairing_reports_match_reference(tmp_path, monkeypatch):
    workloads = load_workloads(monkeypatch)
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    ops = [
        op
        for op in workloads.WORKLOADS["oracle_sweep"](0, tmp_path).every_item()
        if op.key.startswith(("oracle:pairing-", "heights:pairing-"))
    ]
    assert len(ops) == 48
    mismatched = []
    for op in ops:
        ok, text = op.run()
        if not ok or hashlib.sha256(text.encode()).hexdigest() != reference[op.key]:
            mismatched.append(op.key)
    assert mismatched == []
