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
from iwaheights.errors import IwaheightsError
from iwaheights.heights import BlockPairing, BlockSpec, DerivedHeightPairing, HeightPairing
from iwaheights.iwalg import RingSpec
from iwaheights.lambdamod import FiniteLevelModule, _ideal_rows
from iwaheights.poles import phi
from tests.conftest import full_submodule

CORPUS = Path(__file__).resolve().parent.parent / "instances"


def whole_stage_kernel(monkeypatch):
    # h^(r) reported degenerate on the whole stage M^(r)
    monkeypatch.setattr(DerivedHeightPairing, "left_kernel_elements", lambda self: set(self.stage.elements()))


def negated_below_diagonal(monkeypatch):
    # h^(r)(x, y) negated whenever x > y: symmetric pairings lose their sign law
    value = DerivedHeightPairing.value

    def wrong(self, x, y):
        v = value(self, x, y)
        return (-v) % self.spec.modulus if tuple(x) > tuple(y) else v

    monkeypatch.setattr(DerivedHeightPairing, "value", wrong)


def torsion_of_double_degree(monkeypatch):
    # M[J^r] replaced by the larger M[J^(2r)]; at k = 1 the split stages
    # no longer read j_torsion, so only k > 1 and mixed stages see it
    j_torsion = FiniteLevelModule.j_torsion
    monkeypatch.setattr(FiniteLevelModule, "j_torsion", lambda self, r: j_torsion(self, 2 * r))


def images_of_square(monkeypatch):
    # the enumerated images x * v replaced by x^2 * v: the brute-force
    # T-torsion becomes the larger T^2-torsion
    images = FiniteLevelModule.images
    monkeypatch.setattr(FiniteLevelModule, "images", lambda self, x: images(self, x * x))


def gram_without_scale(monkeypatch):
    # u^(-1) * phi_u([e_a, e_b]) without the u^(-1): the Gram matrix at u = 2
    # is twice the one at u = 1
    def gram(self):
        m = self.spec.modulus
        return [[phi(self.u, v) % m for v in row] for row in self.pairing.table]

    monkeypatch.setattr(HeightPairing, "gram", property(gram))


def full_universal_norms(monkeypatch):
    # the universal norms reported as the whole module instead of {0}
    monkeypatch.setattr(FiniteLevelModule, "universal_norms", full_submodule)


def stage_one_up(monkeypatch):
    # filtration_stage(r) answering with the smaller stage r + 1
    stage = FiniteLevelModule.filtration_stage
    monkeypatch.setattr(FiniteLevelModule, "filtration_stage", lambda self, r: stage(self, r + 1))


def zero_k1_stage(monkeypatch):
    # every k = 1 stage exponent set to v_i: each split k = 1 stage is {0}
    stage = FiniteLevelModule.filtration_stage

    def wrong(self, r):
        if self._summands is None or self.spec.k > 1:
            return stage(self, r)
        return self._direct_sum(_ideal_rows(self.spec.p, self.level, v) for v in self._summand_valuations)

    monkeypatch.setattr(FiniteLevelModule, "filtration_stage", wrong)


def indivisible_stage_row(monkeypatch):
    # filtration_stage(r), r >= 2, enlarged by gamma^0 of the first summand
    # with v_i >= r: every other row there lies in J, so the Howell row of
    # gamma^0 has block total 1, and gamma - 1 does not divide it
    stage = FiniteLevelModule.filtration_stage

    def wrong(self, r):
        good = stage(self, r)
        if r < 2:
            return good
        i = next(i for i, v in enumerate(self._summand_valuations) if v >= r)
        return self.submodule([self._place(i, [1] + [0] * (self.block - 1))] + good.hrows)

    monkeypatch.setattr(FiniteLevelModule, "filtration_stage", wrong)


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
    ("torsion-oracle", torsion_of_double_degree, "oracle", "single_block_f3.json", ["torsion vs enumeration"]),
    (
        "torsion-oracle-k2",
        torsion_of_double_degree,
        "oracle",
        "single_block_mod9.json",
        ["torsion vs enumeration"] + [f"h^({r}) kernels vs filtration" for r in range(1, 5)],
    ),
    ("images-oracle", images_of_square, "oracle", "single_block_f3.json", ["torsion vs enumeration"]),
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
    ("zero-stage-lfun", zero_k1_stage, "lfun-check", "lfun_seed0_ord1.json", ["(c) membership r=1"]),
    ("der-lfun", der_ignores_degree, "lfun-check", "lfun_seed0_ord2.json", ["(b) r=2"]),
]


@pytest.mark.parametrize("fault, cmd, name, failed", [f[1:] for f in FAULTS], ids=[f[0] for f in FAULTS])
def test_fault_fails_named_checks(monkeypatch, capsys, fault, cmd, name, failed):
    fault(monkeypatch)
    assert main([cmd, "--input", str(CORPUS / name)]) == 1
    out = capsys.readouterr().out
    assert re.findall(r"^\[FAIL\] (.+?) \|", out, re.M) == failed
    assert "FAILURES PRESENT" in out


def test_indivisible_stage_row_is_refused(monkeypatch, capsys):
    # the split k = 1 preimages check each division by gamma - 1: a stage
    # row with a nonzero block total has no preimage, at construction and
    # in lfun-check (exit 2)
    indivisible_stage_row(monkeypatch)
    h = HeightPairing(BlockPairing(RingSpec(3, 1, 16), [BlockSpec(1)]))
    with pytest.raises(IwaheightsError, match="no torsion preimage found"):
        DerivedHeightPairing(h, 2)
    assert main(["lfun-check", "--input", str(CORPUS / "lfun_seed0_ord2.json")]) == 2
    assert "no torsion preimage found" in capsys.readouterr().err
