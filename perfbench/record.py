#!/usr/bin/env python3
"""Record reference.json: the report digest of every input any seed can pick.

    python3 perfbench/record.py

Run it only in a change that is meant to alter reports; the benchmark
counts every operation whose report differs from its recorded digest as
failed.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

if __name__ == "__main__":
    refs = workloads.pool_digests(HERE.parent / ".perfbench_out" / "instances")
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(refs)} digests")
