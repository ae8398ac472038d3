"""The module of poles P = K/Lambda, with denominators gamma^(p^n) - 1.

A pole class lambda/(gamma^(p^n)-1) mod Lambda is determined by the class
of lambda at level n, so elements are stored as (level, numerator class),
normalised so the level is minimal and the zero class sits at level 0.

eta re-expresses a class relative to the generator gamma0^u and returns the
numerator's finite-level class; phi extracts the identity-group-element
coefficient afterwards.  Both satisfy the scaling laws eta_{gamma^u} =
u*eta_gamma and phi_{gamma^u} = u*phi_gamma, which the tests check through
the full re-expression pipeline.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from iwaheights.errors import PrecisionError
from iwaheights.iwalg import (
    GroupRingElem,
    RingSpec,
    generator_ratio,
    project_to_level,
    required_projection_precision,
    transfer_coeffs,
)


def norm_class(spec: RingSpec, n: int, level: int) -> GroupRingElem:
    """Class of the norm element (gamma^(p^n)-1)/(gamma-1) at a finite level."""
    size = spec.p**level
    if n <= level:
        cs = [0] * size
        for j in range(spec.p**n):
            cs[j] = 1
        return GroupRingElem(spec, level, cs)
    scalar = spec.p ** (n - level) % spec.modulus
    return GroupRingElem(spec, level, [scalar] * size)


class PoleElem:
    """Class of numerator/(gamma^(p^level)-1) in P, at minimal level."""

    __slots__ = ("spec", "level", "numerator")

    def __init__(self, spec: RingSpec, level: int, numerator: GroupRingElem, _normalise=True):
        if numerator.spec != spec or numerator.level != level:
            raise ValueError("numerator must live at the stated level")
        if _normalise:
            level, numerator = _minimal_form(spec, level, numerator)
        self.spec = spec
        self.level = level
        self.numerator = numerator

    @classmethod
    def zero(cls, spec: RingSpec) -> "PoleElem":
        return cls(spec, 0, GroupRingElem.zero(spec, 0), _normalise=False)

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def __neg__(self) -> "PoleElem":
        return PoleElem(self.spec, self.level, -self.numerator, _normalise=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PoleElem):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.level == other.level
            and self.numerator == other.numerator
        )

    def __hash__(self):
        return hash((self.spec, self.level, self.numerator))

    def __repr__(self):
        return f"<pole {self.numerator!r} / omega_{self.level}>"


def _minimal_form(spec: RingSpec, level: int, num: GroupRingElem) -> tuple[int, GroupRingElem]:
    """The class num/(gamma^(p^level)-1) at the least level expressing it.

    The class drops to level m iff num is a multiple of nu = sum_j
    gamma^(j*p^m), and those multiples are exactly the p^m-periodic
    coefficient vectors; the level-m numerator is the first period.
    """
    if num.is_zero():
        return 0, GroupRingElem.zero(spec, 0)
    cs = num.coeffs
    for m_level in range(level):
        period = spec.p**m_level
        if cs[period:] == cs[:-period]:
            return m_level, GroupRingElem(spec, m_level, cs[:period])
    return level, num


def pole_sum(spec: RingSpec, parts: Sequence[tuple[int, Sequence[int]]]) -> PoleElem:
    """The class of sum_i c_i/(gamma^(p^(n_i))-1) for parts (n_i, coefficients of c_i).

    Each numerator is raised to the top level by `transfer_coeffs`: c/omega_n
    is (c * nu)/omega_N with nu = omega_N/omega_n.  The numerators are added
    mod p^k and the sum is normalised once.  The coefficients (lists or tuples) need not
    be reduced.
    """
    n = max((level for level, _ in parts), default=0)
    size = spec.p**n
    total = [0] * size
    for level, cs in parts:
        if len(cs) != spec.p**level:
            raise ValueError("numerator must live at the stated level")
        total = [a + b for a, b in zip(total, transfer_coeffs(cs, size))]
    return PoleElem(spec, n, GroupRingElem(spec, n, total))


def pole_involution(x: PoleElem) -> PoleElem:
    """The involution on P: numerator goes to minus its involution.

    Under eta this is minus the natural involution of the finite-level
    group ring, so phi(pole_involution(x)) = -phi(x).
    """
    return PoleElem(x.spec, x.level, -x.numerator.involution())


@lru_cache(maxsize=None)
def _ratio_class(spec: RingSpec, n: int, u: int) -> GroupRingElem:
    """The level-n class of `generator_ratio(spec, n, u)`, built once per
    (spec, n, u) and shared: every Gram entry of a height at u reuses it."""
    return project_to_level(generator_ratio(spec, n, u), n)


def eta(u: int, x: PoleElem) -> GroupRingElem:
    """Polar isomorphism at the generator gamma0^u, on a level-n class.

    Re-expresses x with denominator (gamma0^u)^(p^n) - 1 via the exact
    generator ratio, then reads off the numerator's finite-level class.
    The ratio's class is cached per (spec, n, u) (`_ratio_class`); the cap
    check runs on every call.
    """
    spec = x.spec
    n = x.level
    if u == 1:
        return x.numerator
    deg = (u - 1) * spec.p**n
    if spec.cap < max(deg, required_projection_precision(spec, n)):
        raise PrecisionError(
            f"cap {spec.cap} too small to re-express at generator exponent {u}"
        )
    return _ratio_class(spec, n, u) * x.numerator


def phi(u: int, x: PoleElem) -> int:
    """Evaluation functional: identity-group-element coefficient after eta."""
    return eta(u, x).identity_coefficient
