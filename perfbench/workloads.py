"""The benchmark's workloads: inputs generated from a seed, one CLI
invocation per operation.

Every operation is ``iwaheights.cli.main(argv)`` run in-process with
``--format json`` and its standard output captured, so the timings and the
report digests belong to the program's own subcommands (argument parsing,
instance-file loading, the subcommand body and report rendering).
Instance files are written at set-up under ``.perfbench_out/instances``.

Every input is drawn from a finite pool, so the report digest of every
possible operation is recorded once (reference.json) and any seed's run is
checked byte for byte.  The package only ever sees the generated inputs.

A workload is a list of input classes, each a pool plus the number of its
members that every pass takes.  The seed fixes the order in which each pool
is walked, so every pass has the same mix of classes, and a run of several
passes covers each pool (nearly) whole.  Runs with different seeds then
measure the same population in a different order with different members
per pass, which keeps their figures comparable.

Operations look ``cli.main`` up as a module attribute at call time, so the
wrappers the traced run installs see the top-level calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

R_MAX = 4


@dataclass
class Op:
    key: str  # names the input; reference.json maps it to the report digest
    argv: list  # arguments of ``iwaheights cli``

    def run(self) -> tuple:
        """(exit code is 0, standard output) of ``cli.main(argv)``."""
        from iwaheights import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv)
        return code == 0, out.getvalue()


class Schedule:
    """Passes over input pools in a seeded order.

    ``classes`` lists (pool, picks); each pool entry is a list of items run
    together.  Pass j takes entries j*picks ... j*picks + picks - 1 (cyclic)
    of each pool's seeded permutation.
    """

    def __init__(self, classes: list, seed: int):
        rng = random.Random(seed)
        self.classes = [(rng.sample(pool, len(pool)), picks) for pool, picks in classes]

    def pass_items(self, j: int) -> list:
        out = []
        for pool, picks in self.classes:
            for i in range(picks):
                out.extend(pool[(j * picks + i) % len(pool)])
        return out

    def every_item(self) -> list:
        return [item for pool, _ in self.classes for entry in pool for item in entry]


# ---------------------------------------------------------------------------
# lfun_desk: ``lfun-check --seed s --ord o --p p --k k`` (build_synthetic,
# order_of_vanishing, main_theorem_check with r_max=4)

# (p, k, target_ord, picks per pass): the desk sweep's mix, 28 checks per
# pass -- (3,1) five builder seeds at each ord 0-3, and (3,2) and (5,1) two
# seeds at each ord 1-2.  The seed draws the builder seeds of every pass
# from LFUN_POOL per class.
LFUN_DESK = (
    [(3, 1, o, 5) for o in range(4)]
    + [(3, 2, o, 2) for o in (1, 2)]
    + [(5, 1, o, 2) for o in (1, 2)]
)
LFUN_POOL = 10

# There is no lfun level-2 or level-3 rung.  On the 2-CPU machine the
# benchmark was tuned on, ten-run medians of a level-2 check moved by up to
# 26% between sets of runs of the same code (more than any allowed bound),
# so level-2 arithmetic is measured through oracle_sweep's level-2 modules.
# A level-3 instance cannot be built yet: build_synthetic(0,
# global_levels=(3,)) raises PrecisionError ("projection to level 3 needs
# precision >= 27, have 15") because the builder sizes the ring cap from
# the local block only.


def _lfun_op(p, k, seed, ord_) -> Op:
    argv = ["lfun-check", "--seed", seed, "--ord", ord_, "--p", p, "--k", k, "--max-r", R_MAX]
    return Op(f"lfun:p{p}k{k}:seed{seed}:ord{ord_}", [*map(str, argv), "--format", "json"])


def _lfun_schedule(seed: int, out_dir: Path) -> Schedule:
    # out_dir is unused: lfun-check takes its instance from flags
    return Schedule(
        [([[_lfun_op(p, k, s, o)] for s in range(LFUN_POOL)], picks) for p, k, o, picks in LFUN_DESK],
        seed,
    )


# ---------------------------------------------------------------------------
# oracle_sweep: the instance-file subcommands (invariants, oracle, heights)
# on generated instances
#
# Module orders stay at 3^6 / 5^4 and pairing modules at or below 3^10.
# FiniteLevelModule.act rebuilds the dim x dim action matrix on every call,
# so the enumeration oracles cost (module order) x dim^2: on the 3^10-element
# level-2 shape module with blocks T^5, T^5 the torsion/norms oracle makes
# 354,298 action_matrix calls and takes ~25 s on a 2-vCPU Xeon, half a run
# for one operation.  lambdamod.action_matrix.calls is the counter a fix
# should move.

POOL = 8  # members per oracle template
F3_UNITS = (1, 2)
Z9_UNITS = (1, 2, 4, 5, 7, 8)


def _ring(p, k, level):
    return {"p": p, "k": k, "cap": 16 if level < 2 else 30, "level": level}


def _mono(i, c=1):
    return [0] * i + [c]


def _shape_l2(i):
    """Shape module, F_3, level 2: T^a and T^(6-a) blocks plus a coprime
    block (one relation per generator), order 3^6."""
    a = 1 + i % 5
    f = [F3_UNITS[i % 2], i % 3]
    rels = [[_mono(a), [0], [0]], [[0], _mono(6 - a), [0]], [[0], [0], f]]
    return {"version": 1, "ring": _ring(3, 1, 2), "module": {"generators": 3, "relations": rels}}


def _shape_z9(i):
    """Shape module, Z/9, level 1: T^a and T^(3-a) blocks plus a coprime
    block, order 3^6."""
    a = 1 + i % 2
    f = [Z9_UNITS[i % 6], i % 9]
    rels = [[_mono(a), [0], [0]], [[0], _mono(3 - a), [0]], [[0], [0], f]]
    return {"version": 1, "ring": _ring(3, 2, 1), "module": {"generators": 3, "relations": rels}}


def _mixed(p, level, total, units):
    """Mixed relations [T^a, c T^b], [0, T^d] with a + d = total, b < d:
    the first relation ties both generators; order p^total."""

    def make(i):
        a = 1 + i % (total - 1)
        d = total - a
        b = 1 + (i // 2) % max(1, d - 1)
        c = units[i % len(units)]
        rels = [[_mono(a), _mono(b, c)], [[0], _mono(d)]]
        return {"version": 1, "ring": _ring(p, 1, level), "module": {"generators": 2, "relations": rels}}

    return make


def _pairing(p, k, level, layout):
    """Block pairing; ``layout`` lists (level, swapped) per block.  Members
    2j and 2j+1 share their units and list the blocks in opposite orders
    (the order changes the cost of validation by ~30%)."""
    units = F3_UNITS if k == 1 else Z9_UNITS

    def make(i):
        rng = random.Random(f"{p}/{k}/{layout}/{i // 2}")
        blocks = [
            {"level": lv, "unit": rng.choice(units), "swapped": sw, "dead": False}
            for lv, sw in layout
        ]
        if i % 2:
            blocks.reverse()
        return {"version": 1, "ring": _ring(p, k, level), "pairing": {"kind": "block", "blocks": blocks}}

    return make


ORACLE_TEMPLATES = {
    "shape-f3-level2": _shape_l2,
    "shape-z9-level1": _shape_z9,
    "mixed-f3-level2": _mixed(3, 2, 6, F3_UNITS),
    "mixed-f5-level1": _mixed(5, 1, 4, (1, 2, 3, 4)),
    "pairing-f3-level2": _pairing(3, 1, 2, [(2, False), (0, False)]),
    "pairing-z9-level1": _pairing(3, 2, 1, [(0, True), (1, False)]),
    "pairing-f3-swapped": _pairing(3, 1, 1, [(1, True), (1, False)]),
}


def _oracle_ops(template: str, index: int, out_dir: Path) -> list:
    """Write the instance file; one op per subcommand that accepts it:
    ``invariants`` and ``oracle`` for modules, ``oracle`` and ``heights``
    for pairings."""
    path = out_dir / f"{template}-{index}.json"
    path.write_text(json.dumps(ORACLE_TEMPLATES[template](index), sort_keys=True))
    commands = ("oracle", "heights") if template.startswith("pairing") else ("invariants", "oracle")
    return [
        Op(f"{command}:{template}:{index}", [command, "--input", str(path), "--max-r", str(R_MAX), "--format", "json"])
        for command in commands
    ]


def _oracle_schedule(seed: int, out_dir: Path) -> Schedule:
    """One member of every template per pass: 14 ops, ~7 s on a 2-vCPU
    Xeon, so that a run's last pass adds little to the mix it measures."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return Schedule([([_oracle_ops(t, i, out_dir) for i in range(POOL)], 1) for t in ORACLE_TEMPLATES], seed)


# ---------------------------------------------------------------------------

# workload name -> schedule for (seed, directory for instance files)
WORKLOADS = {
    "lfun_desk": _lfun_schedule,
    "oracle_sweep": _oracle_schedule,
}

# Percentile for op_s_tail, the mean latency of the operations at or above
# it: the highest of 99/95/90/75 that leaves ~10 or more samples at or
# above it at the run length in BENCHMARK.json (lfun_desk ~13 passes of 28 ops,
# oracle_sweep ~7 passes of 14 ops).  Fixed per workload, so that runs with
# a pass more or less report the same percentile; the number of samples
# averaged is printed with the result.
TAIL_PERCENTILE = {"lfun_desk": 95, "oracle_sweep": 90}


def pool_digests(out_dir: Path) -> dict:
    """Report digest of every input any seed can pick (every pool member).

    Raises if an operation exits with another code than 0.
    """
    out = {}
    for make in WORKLOADS.values():
        for op in make(0, out_dir).every_item():
            ok, text = op.run()
            if not ok:
                raise RuntimeError(f"{op.key}: exit code is not 0")
            out[op.key] = hashlib.sha256(text.encode()).hexdigest()
    return out
