import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from iwaheights.iwalg import IwasawaPoly, RingSpec


@pytest.fixture
def spec31():
    """p = 3, k = 1, generous cap."""
    return RingSpec(3, 1, 12)


@pytest.fixture
def spec32():
    """p = 3, k = 2, generous cap."""
    return RingSpec(3, 2, 12)


def random_poly(rng: random.Random, spec: RingSpec, precision=None) -> IwasawaPoly:
    if precision is None:
        precision = spec.cap
    return IwasawaPoly(
        spec, [rng.randrange(spec.modulus) for _ in range(precision + 1)], precision
    )


def monomial_table(inst, nrows):
    """Table rows (i, j) = the functional of T^j in coordinate i under the
    instance's duality: a faithful explicit table of that duality."""
    spec, D = inst.spec, inst.D_loc
    table = []
    for i in range(D.ngens):
        rows = []
        for j in range(nrows):
            x = [IwasawaPoly.zero(spec)] * D.ngens
            x[i] = IwasawaPoly(spec, [0] * j + [1])
            rows.append(inst.duality.functional(x))
        table.append(rows)
    return table


def run_cli(*argv, timeout=None, max_memory=None):
    """Run the CLI in a fresh interpreter from the repository root, with
    src/ on its path so that no installed copy is needed.  A run longer
    than `timeout` seconds raises `subprocess.TimeoutExpired`.  With
    `max_memory` (bytes) the child's address space is limited to it, so a
    run that tries to allocate more fails with a `MemoryError`."""
    root = Path(__file__).resolve().parent.parent
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (max_memory, max_memory))

    proc = subprocess.run(
        [sys.executable, "-m", "iwaheights.cli", *argv],
        capture_output=True,
        text=True,
        cwd=root,
        env=env,
        timeout=timeout,
        preexec_fn=limit if max_memory is not None else None,
    )
    return proc.returncode, proc.stdout, proc.stderr
