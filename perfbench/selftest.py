#!/usr/bin/env python3
"""Self-test of the benchmark: ``python3 perfbench/selftest.py [--seed N]``.

Runs every workload briefly, untraced and traced, and checks that

  * every input any seed can pick passes and matches its digest in
    reference.json, and so does every operation of the runs (failed == 0);
  * the metrics printed are exactly those BENCHMARK.json names, with its units;
  * every end-to-end metric is positive;
  * every layer metric is non-zero on the workload meant to exercise it;
  * lfun does no work on oracle_sweep.

Exits 1 and lists what failed, or prints "selftest ok".
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# layer metric -> workloads on which it must be non-zero
EXERCISED = {
    "kernels.self_s": ["lfun_desk", "oracle_sweep"],
    "kernels.cyclic_mul.calls": ["lfun_desk", "oracle_sweep"],
    "kernels.cyclic_mul.mults": ["lfun_desk", "oracle_sweep"],
    "kernels.poly_mul_trunc.calls": ["lfun_desk"],
    "kernels.poly_mul_trunc.mults": ["lfun_desk"],
    "iwalg.self_s": ["lfun_desk", "oracle_sweep"],
    "iwalg.group_ring_mul.calls": ["lfun_desk", "oracle_sweep"],
    "iwalg.series_mul.calls": ["lfun_desk"],
    "iwalg.weierstrass_divide.calls": ["lfun_desk"],
    "linalg.self_s": ["lfun_desk", "oracle_sweep"],
    "linalg.howell.calls": ["lfun_desk", "oracle_sweep"],
    "linalg.howell.entries": ["lfun_desk", "oracle_sweep"],
    "linalg.solve_combination.calls": ["lfun_desk", "oracle_sweep"],
    "poles.self_s": ["lfun_desk", "oracle_sweep"],
    "poles.pole_elem.constructions": ["lfun_desk", "oracle_sweep"],
    "poles.level_drop_ratio": ["lfun_desk", "oracle_sweep"],
    "poles.phi.calls": ["lfun_desk", "oracle_sweep"],
    "lambdamod.self_s": ["lfun_desk", "oracle_sweep"],
    "lambdamod.j_torsion.calls": ["lfun_desk"],
    "lambdamod.j_torsion.distinct_ratio": ["lfun_desk"],
    "lambdamod.action_matrix.calls": ["oracle_sweep"],
    "lambdamod.elements.enumerated": ["oracle_sweep"],
    "lambdamod.elements.cap_ratio": ["oracle_sweep"],
    "heights.self_s": ["lfun_desk", "oracle_sweep"],
    "heights.derived_value.calls": ["lfun_desk", "oracle_sweep"],
    "heights.pairing_value.calls": ["lfun_desk", "oracle_sweep"],
    "lfun.self_s": ["lfun_desk"],
    "lfun.order_of_vanishing.calls": ["lfun_desk"],
    "lfun.order_of_vanishing.distinct_ratio": ["lfun_desk"],
    "lfun.der.calls": ["lfun_desk"],
    "lfun.validate.self_s": ["lfun_desk"],
    "cli.self_s": ["lfun_desk", "oracle_sweep"],
    "cli.import_s": ["lfun_desk", "oracle_sweep"],
    "instancefile.self_s": ["oracle_sweep"],
    "reports.self_s": ["lfun_desk", "oracle_sweep"],
    "trace.overhead_s": ["lfun_desk", "oracle_sweep"],
    "trace.overhead_ratio": ["lfun_desk", "oracle_sweep"],
}
ZERO_ON_ORACLE = [
    "lfun.self_s",
    "lfun.order_of_vanishing.calls",
    "lfun.der.calls",
    "lfun.validate.self_s",
]


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    errors = []

    def check(cond, msg):
        if not cond:
            errors.append(msg)

    check(set(EXERCISED) == {m["name"] for m in spec["per_layer"]}, "EXERCISED does not cover per_layer")
    refs = json.loads((HERE / "reference.json").read_text())
    check(workloads.pool_digests(ROOT / ".perfbench_out" / "instances") == refs, "pool digests differ from reference.json")
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        units = {m["name"]: m["unit"] for m in listed}
        for w in names:
            res = run(w, args.seed, trace)
            where = f"{w} trace={trace}"
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0, f"{where}: failed operations")
            got = {n: (m["value"], m["unit"]) for n, m in res["metrics"].items()}
            check(set(got) == set(units), f"{where}: metrics differ from BENCHMARK.json")
            for name, unit in units.items():
                value, got_unit = got.get(name, (None, None))
                check(got_unit == unit, f"{where}: {name} has unit {got_unit}, expected {unit}")
                if trace == 0:
                    check(value is not None and value > 0, f"{where}: {name} = {value}")
                elif w in EXERCISED.get(name, ()):
                    check(value, f"{where}: {name} is zero on the workload meant to exercise it")
                if trace and w == "oracle_sweep" and name in ZERO_ON_ORACLE:
                    check(value == 0, f"{where}: {name} = {value}, expected 0 (no lfun work)")
    if errors:
        print("\n".join(errors))
        return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
