#!/usr/bin/env python3
"""Layered end-to-end benchmark of iwaheights.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads (see workloads.py for the inputs and BENCHMARK.json for why each
was chosen), each run serially in one process; every operation is one
``iwaheights.cli.main`` call with ``--format json``:

  lfun_desk     ``lfun-check --seed s --ord o`` over the desk sweep
  oracle_sweep  ``invariants``, ``oracle`` and ``heights`` on generated
                instance files

A run repeats whole passes over the workload's inputs until ``--seconds``
have passed.  Every operation must exit with code 0 and its report must
match, byte for byte, the digest recorded in reference.json; anything else
(an exception, another exit code, a different digest) counts as a failed
operation.

``--trace 0`` reports the end-to-end metrics: setup_s (median of
SETUP_REPEATS set-ups, each a fresh import of iwaheights.cli plus building
the input schedule and writing its instance files), ops_per_s,
op_s_p50 (mean of the latencies from the 45th to the 55th percentile),
op_s_tail (mean latency of the operations at or above a fixed percentile,
workloads.TAIL_PERCENTILE) and peak_rss_mb.
``--trace 1`` runs one untraced pass, installs the span wrappers of
tracing.py, runs traced passes and reports per-layer metrics per pass plus
the tracing overhead.  The last line of stdout is the JSON result; the
lines before it name every metric with its unit, failed_ratio, the tail
percentile used, and the environment (git SHA, source digest, Python,
kernel backend, nproc, seed).  Results from different kernel backends
must not be compared.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 21

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Counts operations and failures against the reference digests."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.attempted = 0
        self.failed = 0

    def run(self, key: str, call) -> float:
        """Run one operation; returns its latency in seconds."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            ok, text = call()
        except Exception:
            latency = perf_counter() - t0
            self.fail(key, traceback.format_exc(limit=3))
            return latency
        latency = perf_counter() - t0
        if not ok:
            self.fail(key, "exit code is not 0")
        elif self.refs.get(key) != sha256(text):
            self.fail(key, "report digest differs from reference.json")
        return latency

    def fail(self, key: str, why: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            sys.stderr.write(f"perfbench: FAILED {key}: {why}\n")


def tail(latencies: list, q: int) -> tuple:
    """(mean, count) of the latencies at or above the nearest-rank
    percentile q: every slow operation moves the mean, where the
    percentile itself moves only with the ones next to it."""
    xs = sorted(latencies)
    beyond = xs[max(0, -(-q * len(xs) // 100) - 1):]
    return statistics.fmean(beyond), len(beyond)


def middle(latencies: list) -> float:
    """Mean of the latencies from the 45th to the 55th percentile: a median
    smoothed over a tenth of the samples.  Every pass runs a fixed mix of
    inputs whose costs form clusters, and the plain median falls on the
    edge of one, where the single samples next to it would set its value."""
    xs = sorted(latencies)
    n = len(xs)
    return statistics.fmean(xs[45 * n // 100 : -(-55 * n // 100)])


def timed_passes(schedule, first: int, seconds: float, run_one) -> tuple:
    """Whole passes, from pass ``first`` on, until ``seconds`` have passed;
    returns (latencies, passes, wall)."""
    latencies = []
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        for item in schedule.pass_items(first + passes):
            latencies.append(run_one(item))
        passes += 1
    return latencies, passes, perf_counter() - start


def end_to_end(name: str, setup: list, latencies: list, wall: float) -> tuple:
    q = workloads.TAIL_PERCENTILE[name]
    value, count = tail(latencies, q)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(latencies) / wall, "1/s"),
        "op_s_p50": (middle(latencies), "s"),
        "op_s_tail": (value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"op_s_tail_percentile": q, "op_s_tail_samples": count, "samples": len(latencies)}
    return metrics, notes


def purge_package() -> None:
    for name in [m for m in sys.modules if m == "iwaheights" or m.startswith("iwaheights.")]:
        del sys.modules[name]


def measure(name: str, seed: int, seconds: float, trace: bool, checker: Checker) -> tuple:
    setup, imports = [], []
    for _ in range(SETUP_REPEATS):
        purge_package()
        t0 = perf_counter()
        importlib.import_module("iwaheights.cli")
        t1 = perf_counter()
        schedule = workloads.WORKLOADS[name](seed, OUT_DIR / "instances")
        setup.append(perf_counter() - t0)
        imports.append(t1 - t0)

    if not trace:
        latencies, _, wall = timed_passes(schedule, 0, seconds, lambda op: checker.run(op.key, op.run))
        return end_to_end(name, setup, latencies, wall)

    _, _, untraced = timed_passes(schedule, 0, 0, lambda op: checker.run(op.key, op.run))

    tracer = tracing.Tracer()
    tracing.install(tracer)
    index = itertools.count()

    def traced(op):
        return checker.run(op.key, lambda: tracer.run_op(next(index), op.key, op.run))

    _, passes, wall = timed_passes(schedule, 1, seconds - untraced, traced)
    tracer.write_spans(OUT_DIR / f"spans-{name}", {"workload": name, "seed": seed})
    metrics = tracing.layer_metrics(tracer.summary(), passes)
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    traced_pass = wall / passes
    metrics["trace.overhead_s"] = (traced_pass - untraced, "s/pass")
    metrics["trace.overhead_ratio"] = ((traced_pass - untraced) / untraced, "ratio")
    notes = {"traced_passes": passes, "spans": len(tracer.span_start), "spans_dropped": tracer.dropped}
    return metrics, notes


# -- reporting --------------------------------------------------------------


def environment(workload: str, seed: int) -> dict:
    src = ROOT / "src" / "iwaheights"
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except OSError:
        git_sha = None
    kernels = importlib.import_module("iwaheights.kernels")
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "kernel_backend": kernels.BACKEND,
        "nproc": os.cpu_count(),
    }


def run_workload(args) -> dict:
    refs = json.loads((HERE / "reference.json").read_text())
    checker = Checker(refs)
    metrics, notes = measure(args.workload, args.seed, args.seconds, args.trace, checker)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={int(args.trace)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(f"  {'failed_ratio':42s} {checker.failed / max(1, checker.attempted):14.6g} ratio ({checker.failed}/{checker.attempted})")
    print("notes " + json.dumps(notes, sort_keys=True))
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    return {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in turn, each in its own process (so peak RSS is its own)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(int(args.trace)),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)
    if not (ROOT / "src" / "iwaheights" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {ROOT / 'src' / 'iwaheights'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
