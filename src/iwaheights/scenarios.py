"""Invariant arithmetic for the sign-twisted (anticyclotomic) scenario.

Outputs here are predictions under the stated conjecture for that
scenario, never theorem-verified facts: the module shape is pinned down by
the eigencomponent dimensions s+ and s- of the degree-1 filtration layer
under the twisting involution, whose self-orthogonality forces a
degeneracy floor of |s+ - s-| on the first derived pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

from iwaheights.lambdamod import ElementaryShape

POLARIZED = "polarized"


@dataclass(frozen=True)
class ScenarioInput:
    s_plus: int
    s_minus: int

    def __post_init__(self):
        if self.s_plus < 0 or self.s_minus < 0:
            raise ValueError("eigencomponent dimensions must be nonnegative")


@dataclass(frozen=True)
class AnticyclotomicPrediction:
    shape: ElementaryShape
    consistency_ok: bool
    s_total: int


def anticyclotomic_prediction(inp: ScenarioInput) -> AnticyclotomicPrediction:
    """Predicted shape: e_inf = 1, e_1 = 2*min(s+, s-), e_2 = |s+ - s-| - 1.

    Undefined when s+ = s- (the e_2 formula would go negative); the
    consistency identity s+ + s- = 1 + e_1 + e_2 is checked and reported.
    """
    gap = abs(inp.s_plus - inp.s_minus)
    if gap < 1:
        raise ValueError(
            "prediction undefined for s+ = s- (second multiplicity would be negative)"
        )
    e1 = 2 * min(inp.s_plus, inp.s_minus)
    e2 = gap - 1
    blocks = tuple(b for b in ((1, e1), (2, e2)) if b[1])
    shape = ElementaryShape(1, blocks)
    consistent = inp.s_plus + inp.s_minus == 1 + e1 + e2
    return AnticyclotomicPrediction(shape, consistent, inp.s_plus + inp.s_minus)


@dataclass(frozen=True)
class ParityReport:
    flagged: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.flagged


def parity_check(e_seq, pairing_type: str) -> ParityReport:
    """Flag every even degree carrying an odd multiplicity.

    Only meaningful in the polarized (sign-coherent) setting, where the
    even-degree derived pairings are alternating.
    """
    if pairing_type != POLARIZED:
        raise ValueError("parity constraint applies to the polarized setting only")
    flagged = tuple(
        r for r, e in enumerate(e_seq, start=1) if r % 2 == 0 and e % 2 == 1
    )
    return ParityReport(flagged)


def degeneracy_floor(inp: ScenarioInput) -> int:
    """Lower bound |s+ - s-| for the kernel dimension of the first derived
    pairing, from self-orthogonality of the twist eigencomponents."""
    return abs(inp.s_plus - inp.s_minus)
