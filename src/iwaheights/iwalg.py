"""Exact arithmetic in O = Z/p^k and in the completed group ring O[[T]].

The topological generator gamma of the procyclic group corresponds to 1+T,
so the augmentation ideal J is (T) and the finite-level group ring at level
n is O[T]/((1+T)^(p^n) - 1).  Elements of the big ring are truncated power
series with an explicit T-adic precision; finite-level elements are exact.

All values are immutable; every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from iwaheights import kernels
from iwaheights.errors import (
    IndeterminateError,
    NotDistinguishedError,
    PrecisionError,
)

Infinity = math.inf


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class RingSpec:
    """Coefficient ring O = Z/p^k and a T-adic precision bound.

    Results of big-ring operations are known modulo T^(cap+1); coefficient
    values are always stored reduced into [0, p^k).
    """

    p: int
    k: int
    cap: int

    def __post_init__(self):
        if self.p < 3 or not _is_prime(self.p):
            raise ValueError("p must be an odd prime >= 3")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.cap < 1:
            raise ValueError("cap must be >= 1")

    @property
    def modulus(self) -> int:
        return self.p**self.k

    def is_unit(self, x: int) -> bool:
        return x % self.p != 0

    def unit_inverse(self, x: int) -> int:
        if not self.is_unit(x):
            raise ZeroDivisionError(f"{x} is not a unit mod {self.p}^{self.k}")
        return pow(x, -1, self.modulus)


class IwasawaPoly:
    """Truncated power series over O, known modulo T^(precision+1)."""

    __slots__ = ("spec", "coeffs", "precision")

    def __init__(self, spec: RingSpec, coeffs: Iterable[int], precision: Optional[int] = None):
        if precision is None:
            precision = spec.cap
        if precision < 0:
            raise PrecisionError("precision exhausted (below 0)")
        precision = min(precision, spec.cap)
        m = spec.modulus
        cs = [c % m for c in coeffs][: precision + 1]
        cs.extend([0] * (precision + 1 - len(cs)))
        self.spec = spec
        self.coeffs = tuple(cs)
        self.precision = precision

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, spec: RingSpec, precision: Optional[int] = None) -> "IwasawaPoly":
        return cls(spec, (), precision)

    @classmethod
    def T(cls, spec: RingSpec) -> "IwasawaPoly":
        return cls(spec, (0, 1))

    # -- basics --------------------------------------------------------
    def _check(self, other: "IwasawaPoly") -> None:
        if self.spec != other.spec:
            raise ValueError("mixed ring specs")

    def is_zero(self) -> bool:
        """Zero up to the stored precision."""
        return not any(self.coeffs)

    def __mul__(self, other: "IwasawaPoly") -> "IwasawaPoly":
        self._check(other)
        prec = min(self.precision, other.precision)
        cs = kernels.poly_mul_trunc(list(self.coeffs), list(other.coeffs), self.spec.modulus, prec)
        return IwasawaPoly(self.spec, cs, prec)

    def __pow__(self, e: int) -> "IwasawaPoly":
        if e < 0:
            raise ValueError("negative powers are not defined here")
        out = IwasawaPoly(self.spec, (1,), self.precision)
        for _ in range(e):
            out = out * self
        return out

    def times_T_power(self, j: int) -> "IwasawaPoly":
        """Multiply by T^j; the shift does not lose precision."""
        return IwasawaPoly(self.spec, (0,) * j + self.coeffs, min(self.precision + j, self.spec.cap))

    def __eq__(self, other: object) -> bool:
        """Strict equality: the same ring, precision and coefficients.  Two
        series known to different precisions are never equal; compare them
        at the smaller precision."""
        if not isinstance(other, IwasawaPoly):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.precision == other.precision
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.spec, self.precision, self.coeffs))

    def __repr__(self) -> str:
        terms = [f"{c}*T^{i}" for i, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O(T^{self.precision + 1})>"


def j_valuation(lam: IwasawaPoly) -> Union[int, float]:
    """Least index with a nonzero coefficient; inf if none is known.

    The infinite answer means "zero at this precision": the valuation is at
    least precision+1, and no more can be said without more precision.
    """
    for i, c in enumerate(lam.coeffs):
        if c:
            return i
    return Infinity


def weierstrass_degree(f: IwasawaPoly) -> int:
    """Least index carrying a unit coefficient.

    Raises NotDistinguishedError when every known coefficient lies in (p);
    if the precision is below the cap the failure is reported as
    indeterminate rather than as a definite answer.
    """
    for i, c in enumerate(f.coeffs):
        if f.spec.is_unit(c):
            return i
    if f.precision < f.spec.cap:
        raise IndeterminateError(
            f"no unit coefficient up to T^{f.precision}; indeterminate at this precision"
        )
    raise NotDistinguishedError("element has no unit coefficient up to the cap")


def _invert_unit_series(coeffs: Sequence[int], m: int, prec: int, spec: RingSpec) -> list[int]:
    c0 = coeffs[0]
    inv0 = spec.unit_inverse(c0)
    out = [inv0] + [0] * prec
    for n in range(1, prec + 1):
        acc = 0
        for j in range(1, min(n, len(coeffs) - 1) + 1):
            acc += coeffs[j] * out[n - j]
        out[n] = (-inv0 * acc) % m
    return out


def weierstrass_divide(g: IwasawaPoly, f: IwasawaPoly) -> tuple[IwasawaPoly, IwasawaPoly]:
    """Division with remainder by a distinguished element.

    Returns (q, r) with g = q*f + r and deg r < mu, where mu is the least
    index at which f carries a unit coefficient.  Both outputs carry
    precision min(g.precision, f.precision) - mu; the rule is conservative
    and never overstates what is known.
    """
    g._check(f)
    spec = g.spec
    m = spec.modulus
    mu = weierstrass_degree(f)
    w = min(g.precision, f.precision)
    if w < mu:
        raise PrecisionError(
            f"weierstrass division needs precision >= {mu}, have {w}"
        )
    out_prec = w - mu
    low = list(f.coeffs[:mu])
    high = list(f.coeffs[mu : w + 1])
    hinv = _invert_unit_series(high, m, out_prec, spec)
    tau_g = list(g.coeffs[mu : w + 1])

    def _refine(q: list[int]) -> list[int]:
        if not any(low):
            return q
        ql = kernels.poly_mul_trunc(q, low, m, w)
        tau_ql = ql[mu : w + 1]
        rhs = [
            (a - (tau_ql[i] if i < len(tau_ql) else 0)) % m
            for i, a in enumerate(tau_g)
        ]
        return kernels.poly_mul_trunc(hinv, rhs, m, out_prec)

    q = kernels.poly_mul_trunc(hinv, tau_g, m, out_prec)
    for _ in range(spec.k - 1):
        q = _refine(q)
    qf = kernels.poly_mul_trunc(q, list(f.coeffs), m, out_prec)
    diff = [
        (g.coeffs[i] - (qf[i] if i < len(qf) else 0)) % m for i in range(out_prec + 1)
    ]
    if any(diff[mu:]):
        raise ArithmeticError("weierstrass division failed to converge")
    r = IwasawaPoly(spec, diff[:mu], out_prec)
    return IwasawaPoly(spec, q, out_prec), r


def times_T_coeffs(cs: Sequence[int], m: int) -> list[int]:
    """(gamma - 1) times a group-ring coefficient list, mod m: the
    coefficient of gamma^g becomes cs[g - 1] - cs[g], around the cycle."""
    return [(cs[g - 1] - cs[g]) % m for g in range(len(cs))]


def _T_to_gamma(poly: Sequence[int], size: int, m: int) -> list[int]:
    """sum_j poly[j] * T^j in the basis of the group of order `size`, by
    Horner's rule in T = gamma - 1.  Each step works in the finite-level
    ring, so a `poly` of any length comes out reduced mod gamma^size - 1."""
    top = max((j + 1 for j, c in enumerate(poly) if c % m), default=0)
    out = [0] * size
    for c in reversed(poly[:top]):
        out = times_T_coeffs(out, m)
        out[0] = (out[0] + c) % m
    return out


def fold_coeffs(cs: Sequence[int], size: int) -> list[int]:
    """The fold to the group of order `size` (dividing len(cs)): the
    coefficient of gamma^j sums the entries at j, j + size, j + 2*size, ...
    The sums are not reduced."""
    return [sum(cs[j::size]) for j in range(size)]


def transfer_coeffs(cs: Sequence[int], size: int) -> Sequence[int]:
    """The transfer to the group of order `size` (a multiple of len(cs)):
    times nu, each group element to the sum of its lifts, i.e. the list (or
    tuple) repeated up to `size`."""
    return cs * (size // len(cs))


def iota_coeffs(c: Sequence[int]) -> list[int]:
    """The involution gamma -> gamma^(-1): the coefficient of gamma^j is
    the old coefficient of gamma^(-j)."""
    return [c[-j] for j in range(len(c))]


class GroupRingElem:
    """Exact element of the level-n group ring, in the group-element basis."""

    __slots__ = ("spec", "level", "coeffs")

    def __init__(self, spec: RingSpec, level: int, coeffs: Iterable[int]):
        if level < 0:
            raise ValueError("level must be >= 0")
        size = spec.p**level
        m = spec.modulus
        cs = [c % m for c in coeffs]
        if len(cs) > size:
            raise ValueError(f"expected at most {size} coefficients, got {len(cs)}")
        cs.extend([0] * (size - len(cs)))
        self.spec = spec
        self.level = level
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, spec: RingSpec, level: int) -> "GroupRingElem":
        return cls(spec, level, ())

    @classmethod
    def one(cls, spec: RingSpec, level: int) -> "GroupRingElem":
        return cls(spec, level, (1,))

    @classmethod
    def gamma(cls, spec: RingSpec, level: int, e: int = 1) -> "GroupRingElem":
        size = spec.p**level
        cs = [0] * size
        cs[e % size] = 1
        return cls(spec, level, cs)

    @classmethod
    def from_poly_coeffs(cls, spec: RingSpec, level: int, poly: Sequence[int]) -> "GroupRingElem":
        """Convert T-basis coefficients (degree < p^level) to the group basis."""
        size = spec.p**level
        if len(poly) > size:
            raise ValueError("polynomial degree too large for this level")
        return cls(spec, level, _T_to_gamma(poly, size, spec.modulus))

    def to_poly_coeffs(self) -> list[int]:
        """T-basis coefficients (length p^level) of this element, by
        Horner's rule in gamma = 1 + T: out <- (1 + T) * out + c adds each
        coefficient to the one above it and c to the lowest, and the list
        grows by one."""
        m = self.spec.modulus
        top = max((i + 1 for i, c in enumerate(self.coeffs) if c), default=0)
        out: list[int] = []
        for c in reversed(self.coeffs[:top]):
            out = [(a + b) % m for a, b in zip(out + [0], [c] + out)]
        return out + [0] * (len(self.coeffs) - top)

    def _check(self, other: "GroupRingElem") -> None:
        if self.spec != other.spec or self.level != other.level:
            raise ValueError("mixed specs or levels")

    def __add__(self, other: "GroupRingElem") -> "GroupRingElem":
        self._check(other)
        m = self.spec.modulus
        return GroupRingElem(
            self.spec, self.level, [(a + b) % m for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "GroupRingElem") -> "GroupRingElem":
        return self + (-other)

    def __neg__(self) -> "GroupRingElem":
        m = self.spec.modulus
        return GroupRingElem(self.spec, self.level, [(-a) % m for a in self.coeffs])

    def __mul__(self, other: "GroupRingElem") -> "GroupRingElem":
        self._check(other)
        cs = kernels.cyclic_mul(list(self.coeffs), list(other.coeffs), self.spec.modulus)
        return GroupRingElem(self.spec, self.level, cs)

    def __pow__(self, e: int) -> "GroupRingElem":
        if e < 0:
            raise ValueError("negative powers are not defined here")
        out = GroupRingElem.one(self.spec, self.level)
        for _ in range(e):
            out = out * self
        return out

    def involution(self) -> "GroupRingElem":
        return GroupRingElem(self.spec, self.level, iota_coeffs(self.coeffs))

    @property
    def identity_coefficient(self) -> int:
        return self.coeffs[0]

    def at_level(self, n: int) -> "GroupRingElem":
        """This element at level n: folded down from above, or its
        coefficient vector zero-padded from below."""
        if n == self.level:
            return self
        if n < self.level:
            return GroupRingElem(self.spec, n, fold_coeffs(self.coeffs, self.spec.p**n))
        return GroupRingElem(self.spec, n, self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupRingElem):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.level == other.level
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.spec, self.level, self.coeffs))

    def __repr__(self) -> str:
        terms = [f"{c}*g^{i}" for i, c in enumerate(self.coeffs) if c]
        return "<" + (" + ".join(terms) if terms else "0") + f" @level {self.level}>"


def required_projection_precision(spec: RingSpec, n: int) -> int:
    """T-adic precision needed so the class mod (1+T)^(p^n)-1 is exact.

    The unknown tail T^(w+1)*(...) reduces into p^floor((w+1)/p^n) times the
    finite-level ring, so k*p^n - 1 digits pin the class for k > 1; for
    k = 1 the stated bound p^n suffices.
    """
    q = spec.p**n
    return q if spec.k == 1 else spec.k * q - 1


def check_projection_precision(lam: IwasawaPoly, n: int) -> None:
    """Raise PrecisionError when lam is known to less than the precision
    `required_projection_precision` asks of a projection to level n."""
    need = required_projection_precision(lam.spec, n)
    if lam.precision < need:
        raise PrecisionError(
            f"projection to level {n} needs precision >= {need}, have {lam.precision}"
        )


def project_to_level(lam: IwasawaPoly, n: int) -> GroupRingElem:
    """Exact class of lam in the level-n group ring (a ring homomorphism):
    the known coefficients summed in the level-n ring by `_T_to_gamma`."""
    check_projection_precision(lam, n)
    spec = lam.spec
    return GroupRingElem(spec, n, _T_to_gamma(lam.coeffs, spec.p**n, spec.modulus))
