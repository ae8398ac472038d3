"""Fault injection for the verdicts that no valid instance file can fail.

Every shipped file passes the `heights` kernel chain, sign law, generator
independence and global kernel, the `oracle` comparisons and the lfun
`(b)` and `(c) membership` lines, so a verdict hard-wired to pass would
go unseen by the corpus.  Each case here replaces one fast path with one
specific wrong variant and runs a subcommand in-process on a shipped
file: it must exit 1 and fail exactly the named checks.
"""

import re
from pathlib import Path

import pytest

from iwaheights import lfun
from iwaheights.cli import main
from iwaheights.heights import DerivedHeightPairing, HeightPairing
from iwaheights.lambdamod import FiniteLevelModule
from iwaheights.poles import JGradedValue, phi

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


def gram_without_scale(monkeypatch):
    # u^(-1) * phi_u([e_a, e_b]) without the u^(-1): the Gram matrix at u = 2
    # is twice the one at u = 1
    def gram(self):
        m = self.spec.modulus
        return [[phi(self.u, v) % m for v in row] for row in self.pairing.table]

    monkeypatch.setattr(HeightPairing, "gram", property(gram))


def full_universal_norms(monkeypatch):
    # the universal norms reported as the whole module instead of {0}
    monkeypatch.setattr(FiniteLevelModule, "universal_norms", lambda self: self.full_submodule())


def stage_one_up(monkeypatch):
    # filtration_stage(r) answering with the smaller stage r + 1
    stage = FiniteLevelModule.filtration_stage
    monkeypatch.setattr(FiniteLevelModule, "filtration_stage", lambda self, r: stage(self, r + 1))


def der_ignores_degree(monkeypatch):
    # every special value read off L_z itself, as if r were 0
    der = lfun.der
    monkeypatch.setattr(lfun, "der", lambda inst, r: der(inst, 0))


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
    ("gram-heights", gram_without_scale, "heights", "swapped_pair_f3.json", ["generator independence"]),
    ("norms-heights", full_universal_norms, "heights", "swapped_pair_f3.json", ["global kernel"]),
    (
        "norms-oracle",
        full_universal_norms,
        "oracle",
        "single_block_f3.json",
        ["universal norms vs enumeration", "global kernel vs universal norms"],
    ),
    ("stage-lfun", stage_one_up, "lfun-check", "lfun_seed0_ord1.json", ["(c) membership r=1"]),
    ("der-lfun", der_ignores_degree, "lfun-check", "lfun_seed0_ord2.json", ["(b) r=2"]),
]


@pytest.mark.parametrize("fault, cmd, name, failed", [f[1:] for f in FAULTS], ids=[f[0] for f in FAULTS])
def test_fault_fails_named_checks(monkeypatch, capsys, fault, cmd, name, failed):
    fault(monkeypatch)
    assert main([cmd, "--input", str(CORPUS / name)]) == 1
    out = capsys.readouterr().out
    assert re.findall(r"^\[FAIL\] (.+?) \|", out, re.M) == failed
    assert "FAILURES PRESENT" in out
