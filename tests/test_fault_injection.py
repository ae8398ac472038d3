"""Fault injection for the verdicts that no valid instance file can fail.

Every shipped file passes the `heights` kernel chain and sign law and the
`oracle` comparisons, so a verdict hard-wired to pass would go unseen by
the corpus.  Each case here replaces one fast path with one specific
wrong variant and runs a subcommand in-process on a shipped file: it must
exit 1 and fail exactly the named checks.
"""

import re
from pathlib import Path

import pytest

from iwaheights.cli import main
from iwaheights.heights import DerivedHeightPairing
from iwaheights.lambdamod import FiniteLevelModule
from iwaheights.poles import JGradedValue

CORPUS = Path(__file__).resolve().parent.parent / "instances"


def whole_stage_kernel(monkeypatch):
    # h^(r) reported degenerate on the whole stage M^(r)
    monkeypatch.setattr(DerivedHeightPairing, "left_kernel_elements", lambda self: set(self._stage_elements))


def negated_below_diagonal(monkeypatch):
    # h^(r)(x, y) negated whenever x > y: symmetric pairings lose their sign law
    value = DerivedHeightPairing.value

    def wrong(self, x, y):
        v = value(self, x, y)
        return JGradedValue(v.spec, v.degree, -v.coeff) if tuple(x) > tuple(y) else v

    monkeypatch.setattr(DerivedHeightPairing, "value", wrong)


def torsion_of_square(monkeypatch):
    # the f-torsion replaced by the f^2-torsion, a larger submodule
    torsion = FiniteLevelModule.torsion
    monkeypatch.setattr(FiniteLevelModule, "torsion", lambda self, f: torsion(self, f * f))


# (id, fault, subcommand, shipped file, the checks that must fail)
FAULTS = [
    (
        "kernel-heights",
        whole_stage_kernel,
        "heights",
        "two_block_mixed_f3.json",
        ["kernel chain r=1", "kernel chain r=3"],
    ),
    (
        "kernel-oracle",
        whole_stage_kernel,
        "oracle",
        "two_block_mixed_f3.json",
        ["h^(1) kernels vs filtration", "h^(3) kernels vs filtration"],
    ),
    ("sign-heights", negated_below_diagonal, "heights", "swapped_pair_f3.json", ["sign law r=3"]),
    (
        "torsion-oracle",
        torsion_of_square,
        "oracle",
        "single_block_f3.json",
        ["torsion vs enumeration", "h^(1) kernels vs filtration", "h^(2) kernels vs filtration"],
    ),
]


@pytest.mark.parametrize("fault, cmd, name, failed", [f[1:] for f in FAULTS], ids=[f[0] for f in FAULTS])
def test_fault_fails_named_checks(monkeypatch, capsys, fault, cmd, name, failed):
    fault(monkeypatch)
    assert main([cmd, "--input", str(CORPUS / name)]) == 1
    out = capsys.readouterr().out
    assert re.findall(r"^\[FAIL\] (.+?) \|", out, re.M) == failed
    assert "FAILURES PRESENT" in out
