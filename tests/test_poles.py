"""Pole classes: canonicalisation, involution, and the scaling laws."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwaheights import linalg
from iwaheights.iwalg import GroupRingElem, IwasawaPoly, RingSpec, omega_poly_coeffs, project_to_level, transfer_coeffs
from iwaheights.poles import (
    PoleElem,
    eta,
    norm_class,
    phi,
    pole_involution,
    pole_sum,
)
from tests.conftest import norm_element, poly_add, random_poly, scale_elem


def pole_reduce(lam, n):
    """The class of lam/(gamma^(p^n)-1) in P, canonically normalised."""
    return PoleElem(lam.spec, n, project_to_level(lam, n))


def raise_level(x, n):
    """x's numerator over omega_n for n >= x.level: times nu =
    omega_n/omega_(x.level), which is the transfer to level n."""
    return GroupRingElem(x.spec, n, transfer_coeffs(x.numerator.coeffs, x.spec.p**n))


def all_level_classes(spec, level):
    size = spec.p**level
    for cs in itertools.product(range(spec.modulus), repeat=size):
        yield GroupRingElem(spec, level, cs)


class TestPoleReduce:
    def test_T_cubed_over_omega1_is_zero(self, spec31):
        assert pole_reduce(IwasawaPoly(spec31, [0, 0, 0, 1]), 1).is_zero()

    def test_T_fourth_over_omega1_is_zero(self, spec31):
        assert pole_reduce(IwasawaPoly(spec31, [0, 0, 0, 0, 1]), 1).is_zero()

    def test_one_over_omega1_nonzero(self, spec31):
        x = pole_reduce(IwasawaPoly(spec31, [1]), 1)
        assert not x.is_zero()

    def test_constant_reduces_to_level_zero(self, spec31):
        # 1/omega_1 = (g_1/omega_1-free form) ... a class killed by gamma-1
        # iff the numerator is divisible by the norm element
        x = pole_reduce(norm_element(spec31, 1), 1)
        assert x.level == 0
        assert x.numerator == GroupRingElem.one(spec31, 0)

    def test_adding_omega_multiple_is_invisible(self, spec31, spec32):
        rng = random.Random(21)
        for spec in (spec31, spec32):
            om = IwasawaPoly(spec, omega_poly_coeffs(spec, 1))
            for _ in range(50):
                lam = random_poly(rng, spec)
                mu = random_poly(rng, spec)
                assert pole_reduce(poly_add(lam, mu * om), 1) == pole_reduce(lam, 1)

    def test_levels_are_minimal_exhaustively(self, spec31):
        # at p=3, k=1, level 1: the classes reducible to level 0 are exactly
        # the norm-element multiples
        for num in all_level_classes(spec31, 1):
            x = PoleElem(spec31, 1, num)
            reducible = x.level < 1 or num.is_zero()
            g1 = norm_class(spec31, 1, 1)
            is_multiple = any(
                (g1 * other) == num for other in all_level_classes(spec31, 1)
            )
            assert reducible == is_multiple

    def test_cross_level_compatibility(self):
        # lam/omega_1 and (lam * omega_2/omega_1)/omega_2 are the same class;
        # omega_2/omega_1 has degree 6 < 9, so its level-2 class is the polynomial
        rng = random.Random(33)
        for k in (1, 2):
            spec = RingSpec(3, k, 24)
            nu = IwasawaPoly(spec, nu_class(spec, 2, 1).to_poly_coeffs())
            for _ in range(40):
                lam = random_poly(rng, spec)
                assert pole_reduce(lam, 1) == pole_reduce(lam * nu, 2)
                assert phi(1, pole_reduce(lam, 1)) == phi(1, pole_reduce(lam * nu, 2))

    def test_killed_by_omega_of_own_level(self, spec31, spec32):
        # re-express at one level higher (where the class of omega_n is a
        # nonzero group-ring element) and check the action lands on zero
        rng = random.Random(5)
        for spec in (spec31, spec32):
            for _ in range(30):
                lam = random_poly(rng, spec)
                x = pole_reduce(lam, 1)
                n = x.level
                up_num = raise_level(x, n + 1)
                raised = PoleElem(spec, n + 1, up_num)
                assert raised == x
                omega_cls = GroupRingElem.gamma(spec, n + 1, spec.p**n) - GroupRingElem.one(
                    spec, n + 1
                )
                assert not omega_cls.is_zero()
                assert (up_num * omega_cls).is_zero()


def nu_class(spec, n, m_level):
    """Class at level n of ((1+T)^(p^n)-1)/((1+T)^(p^m)-1), by its definition."""
    size = spec.p**n
    cs = [0] * size
    for j in range(spec.p ** (n - m_level)):
        cs[j * spec.p**m_level] = 1
    return GroupRingElem(spec, n, cs)


def howell_minimal_form(spec, level, num):
    """Oracle for pole normalisation: solve num = x * nu over Z/p^k at each level."""
    if num.is_zero():
        return 0, GroupRingElem.zero(spec, 0)
    size = spec.p**level
    for m_level in range(level):
        nu = nu_class(spec, level, m_level)
        rows = [list((nu * GroupRingElem.gamma(spec, level, j)).coeffs) for j in range(size)]
        (sol,) = linalg.solve_combination(rows, [list(num.coeffs)], spec.p, spec.k)
        if sol is not None:
            return m_level, GroupRingElem(spec, level, sol).at_level(m_level)
    return level, num


@st.composite
def numerators(draw):
    """(spec, level, numerator) with the numerator p^m-periodic for a drawn
    m <= level (m = level is an arbitrary vector), times p for some k > 1."""
    p, k = draw(st.sampled_from([(3, 1), (3, 2), (5, 1)]))
    spec = RingSpec(p, k, 12)
    level = draw(st.integers(0, 2))
    m_level = draw(st.integers(0, level))
    period = draw(
        st.lists(st.integers(0, spec.modulus - 1), min_size=p**m_level, max_size=p**m_level)
    )
    scale = draw(st.sampled_from([1, p])) if k > 1 else 1
    cs = [scale * c for c in period] * p ** (level - m_level)
    return spec, level, GroupRingElem(spec, level, cs)


class TestClosedFormNormalisation:
    @given(numerators())
    @settings(max_examples=300, deadline=None)
    def test_minimal_form_matches_howell_solve(self, case):
        spec, level, num = case
        x = PoleElem(spec, level, num)
        assert (x.level, x.numerator) == howell_minimal_form(spec, level, num)

    @given(numerators(), st.integers(0, 2))
    @settings(max_examples=300, deadline=None)
    def test_raise_level_matches_nu_product(self, case, extra):
        spec, level, num = case
        x = PoleElem(spec, level, num)
        n = x.level + extra
        lift = GroupRingElem(spec, n, x.numerator.coeffs)
        assert raise_level(x, n) == lift * nu_class(spec, n, x.level)
        assert PoleElem(spec, n, raise_level(x, n)) == x

    @given(st.sampled_from([(3, 1), (3, 2), (5, 1)]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_pole_sum_matches_nu_products(self, pk, data):
        # each raw numerator times nu at the top level, summed and normalised
        p, k = pk
        spec = RingSpec(p, k, 12)
        m = spec.modulus
        part = st.integers(0, 2).flatmap(
            lambda n: st.tuples(
                st.just(n), st.lists(st.integers(-m, 2 * m), min_size=p**n, max_size=p**n)
            )
        )
        parts = data.draw(st.lists(part, max_size=4), label="parts")
        n = max((level for level, _ in parts), default=0)
        total = GroupRingElem.zero(spec, n)
        for level, cs in parts:
            total = total + GroupRingElem(spec, n, cs) * nu_class(spec, n, level)
        assert pole_sum(spec, parts) == PoleElem(spec, n, total)


class TestPoleInvolution:
    def test_displayed_identity_numerator_one(self, spec31):
        x = PoleElem(spec31, 1, GroupRingElem.one(spec31, 1))
        y = pole_involution(x)
        assert y.numerator == -GroupRingElem.one(spec31, 1)

    def test_zero_fixed(self, spec31):
        assert pole_involution(PoleElem.zero(spec31)).is_zero()

    def test_involutive_exhaustive_level1(self, spec31):
        for num in all_level_classes(spec31, 1):
            x = PoleElem(spec31, 1, num)
            assert pole_involution(pole_involution(x)) == x


class TestScalingLaws:
    def test_eta_u1_is_numerator(self, spec31):
        x = PoleElem(spec31, 1, GroupRingElem(spec31, 1, (1, 2, 0)))
        assert eta(1, x) == x.numerator

    def test_eta_scaling_law_u2(self):
        spec = RingSpec(3, 1, 12)
        x = PoleElem(spec, 1, GroupRingElem.one(spec, 1))
        assert eta(2, x) == scale_elem(eta(1, x), 2)

    def test_eta_zero_class(self, spec31):
        assert eta(2, PoleElem.zero(spec31)).is_zero()

    def test_eta_phi_scaling_exhaustive(self):
        # all units u, v mod p^k, all level <= 1 classes, k <= 2
        for k in (1, 2):
            spec = RingSpec(3, k, 30)
            units = [u for u in range(1, spec.modulus) if spec.is_unit(u)]
            for num in all_level_classes(spec, 1):
                x = PoleElem(spec, 1, num)
                if x.level > x_level_cap(spec):
                    continue
                base_eta = eta(1, x)
                base_phi = phi(1, x)
                for u in units:
                    assert eta(u, x) == scale_elem(base_eta, u)
                    assert phi(u, x) == (u * base_phi) % spec.modulus
                for u in units:
                    for v in units:
                        uv = (u * v) % spec.modulus
                        assert eta(uv, x) == scale_elem(base_eta, uv)

    def test_eta_scaling_level2(self):
        rng = random.Random(3)
        for k in (1, 2):
            spec = RingSpec(3, k, 72)
            units = [u for u in range(1, spec.modulus) if spec.is_unit(u)]
            for _ in range(20):
                num = GroupRingElem(
                    spec, 2, [rng.randrange(spec.modulus) for _ in range(9)]
                )
                x = PoleElem(spec, 2, num)
                base_eta, base_phi = eta(1, x), phi(1, x)
                for u in units:
                    assert eta(u, x) == scale_elem(base_eta, u)
                    assert phi(u, x) == (u * base_phi) % spec.modulus

    def test_phi_examples(self, spec31):
        one = PoleElem(spec31, 1, GroupRingElem.one(spec31, 1))
        assert phi(1, one) == 1
        gm1 = PoleElem(spec31, 1, GroupRingElem(spec31, 1, (-1, 1, 0)))
        assert phi(1, gm1) == (-1) % 3
        assert phi(1, PoleElem.zero(spec31)) == 0

    def test_phi_anti_commutes_with_involution(self):
        spec = RingSpec(3, 1, 12)
        for num in all_level_classes(spec, 1):
            x = PoleElem(spec, 1, num)
            assert phi(1, pole_involution(x)) == (-phi(1, x)) % 3


def x_level_cap(spec):
    return 2
