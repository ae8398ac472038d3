"""Ring arithmetic: distinguished elements, division, involution, levels.

The division oracle is plain verification: multiply back and compare, plus
a degree bound on the remainder.  All expected values below were computed
by long division or binomial expansion by hand before being frozen.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iwaheights.errors import (
    IndeterminateError,
    NotDistinguishedError,
    PrecisionError,
)
from iwaheights.iwalg import (
    GroupRingElem,
    IwasawaPoly,
    RingSpec,
    generator_ratio,
    j_valuation,
    omega_poly_coeffs,
    project_to_level,
    weierstrass_degree,
    weierstrass_divide,
)
from tests.conftest import gamma_power, involution, norm_element, poly_add, random_poly, truncate


class TestDistinguished:
    """An element is distinguished iff `weierstrass_degree` finds a unit
    coefficient."""

    def test_all_coefficients_in_p(self, spec32):
        with pytest.raises(NotDistinguishedError):
            weierstrass_degree(IwasawaPoly(spec32, [3, 3]))

    def test_unit_coefficient(self, spec32):
        assert weierstrass_degree(IwasawaPoly(spec32, [3, 1])) == 1

    def test_zero_at_full_cap_is_false(self, spec31):
        with pytest.raises(NotDistinguishedError):
            weierstrass_degree(IwasawaPoly.zero(spec31))

    def test_zero_below_cap_is_indeterminate(self, spec31):
        f = IwasawaPoly(spec31, [0, 0], precision=1)
        with pytest.raises(IndeterminateError):
            weierstrass_degree(f)


class TestWeierstrassDivide:
    def test_exact_factorisation(self, spec31):
        T = IwasawaPoly.T(spec31)
        f = IwasawaPoly(spec31, [1, 0, 1])
        q, r = weierstrass_divide(T * f, f)
        assert q == T
        assert r.is_zero()

    def test_norm_element_cube(self, spec31):
        # (1+T)^3 - 1 = T^3 mod 3, divided by the level-1 norm element T^2
        g = IwasawaPoly(spec31, [0, 0, 0, 1])
        f = norm_element(spec31, 1)
        assert f == IwasawaPoly(spec31, [0, 0, 1])
        q, r = weierstrass_divide(g, f)
        assert q == truncate(IwasawaPoly.T(spec31), q.precision)
        assert r.is_zero()

    def test_mod9_division(self, spec32):
        g = IwasawaPoly(spec32, [0, 0, 0, 1])
        f = IwasawaPoly(spec32, [3, 3, 1])
        q, r = weierstrass_divide(g, f)
        # frozen from hand long division: q = T + 6, r = 6T
        assert q == IwasawaPoly(spec32, [6, 1], precision=q.precision)
        assert r == IwasawaPoly(spec32, [0, 6], precision=r.precision)
        # oracle: multiply back
        prod = poly_add(q * f, r)
        assert prod == truncate(g, prod.precision)
        assert all(c == 0 for c in r.coeffs[2:])

    def test_round_trip_random(self, spec31, spec32):
        rng = random.Random(7)
        for spec in (spec31, spec32):
            for _ in range(200):
                f = random_poly(rng, spec)
                try:
                    mu = weierstrass_degree(f)
                except (NotDistinguishedError, IndeterminateError):
                    continue
                g = random_poly(rng, spec)
                q, r = weierstrass_divide(g, f)
                back = poly_add(q * f, r)
                assert back == truncate(g, back.precision)
                assert all(c == 0 for c in r.coeffs[mu:])

    def test_uniqueness_by_perturbation(self, spec32):
        rng = random.Random(11)
        f = IwasawaPoly(spec32, [3, 6, 2, 1])  # mu = 2
        g = random_poly(rng, spec32)
        q, r = weierstrass_divide(g, f)
        # any other remainder with deg < mu leaves a non-divisible difference
        for da in range(9):
            for db in range(9):
                if da == 0 and db == 0:
                    continue
                r2 = poly_add(r, IwasawaPoly(spec32, [da, db], precision=r.precision))
                q2, rem = weierstrass_divide(poly_add(g, r2, -1), f)
                assert not rem.is_zero()

    def test_not_distinguished_rejected(self, spec32):
        with pytest.raises(NotDistinguishedError):
            weierstrass_divide(IwasawaPoly(spec32, [1]), IwasawaPoly(spec32, [3, 6]))

    def test_insufficient_precision_names_requirement(self, spec31):
        f = IwasawaPoly(spec31, [0, 0, 0, 0, 1])  # mu = 4
        g = IwasawaPoly(spec31, [1, 1], precision=2)
        with pytest.raises(PrecisionError, match="4"):
            weierstrass_divide(g, f)

    def test_precision_rule(self, spec31):
        f = IwasawaPoly(spec31, [0, 0, 1])
        g = random_poly(random.Random(0), spec31)
        q, r = weierstrass_divide(g, f)
        assert q.precision == spec31.cap - 2
        assert r.precision == spec31.cap - 2


class TestInvolution:
    def test_iota_T_low_cap(self):
        spec = RingSpec(3, 1, 2)
        assert involution(IwasawaPoly.T(spec)) == IwasawaPoly(spec, [0, 2, 1])

    def test_constants_fixed(self, spec32):
        assert involution(IwasawaPoly(spec32, [1])) == IwasawaPoly(spec32, [1])

    def test_group_ring_inverse(self, spec31):
        g = GroupRingElem.gamma(spec31, 1)
        assert g.involution() == GroupRingElem.gamma(spec31, 1, 2)

    def test_involutive_random(self, spec31, spec32):
        rng = random.Random(3)
        for spec in (spec31, spec32):
            for _ in range(120):
                x = random_poly(rng, spec)
                assert involution(involution(x)) == x

    def test_ring_homomorphism(self, spec32):
        rng = random.Random(5)
        for _ in range(40):
            a, b = random_poly(rng, spec32), random_poly(rng, spec32)
            assert involution(a * b) == involution(a) * involution(b)
            assert involution(poly_add(a, b)) == poly_add(involution(a), involution(b))


class TestNormAndRatios:
    def test_norm_level1_mod3(self, spec31):
        assert norm_element(spec31, 1) == IwasawaPoly(spec31, [0, 0, 1])

    def test_norm_level1_mod9(self, spec32):
        assert norm_element(spec32, 1) == IwasawaPoly(spec32, [3, 3, 1])

    def test_norm_augmentation(self):
        spec = RingSpec(3, 2, 26)
        for n in (1, 2):
            assert norm_element(spec, n).coeffs[0] == 3**n % 9

    def test_norm_cap_guard(self):
        with pytest.raises(PrecisionError):
            norm_element(RingSpec(3, 1, 4), 2)

    def test_ratio_cap_guard(self):
        with pytest.raises(PrecisionError):
            generator_ratio(RingSpec(3, 1, 4), 1, 4)  # degree 9 > cap 4

    def test_ratio_non_unit_rejected(self, spec31):
        with pytest.raises(ValueError):
            generator_ratio(spec31, 1, 3)

    def test_ratio_u1_is_one(self, spec31):
        assert generator_ratio(spec31, 1, 1) == IwasawaPoly(spec31, [1])

    def test_ratio_u2_level1(self, spec31):
        # (gamma^6 - 1)/(gamma^3 - 1) = gamma^3 + 1 reduces to 2
        r = generator_ratio(spec31, 1, 2)
        assert r == poly_add(gamma_power(spec31, 3), IwasawaPoly(spec31, [1]))
        assert project_to_level(r, 1) == GroupRingElem(spec31, 1, (2,))

    def test_ratio_u4_mod9(self):
        spec = RingSpec(3, 2, 18)
        r = generator_ratio(spec, 1, 4)
        # oracle: subtract the constant and divide by omega_1 exactly
        diff = poly_add(r, IwasawaPoly(spec, [4]), -1)
        q, rem = weierstrass_divide(diff, IwasawaPoly(spec, omega_poly_coeffs(spec, 1)))
        assert rem.is_zero()
        assert project_to_level(r, 1) == GroupRingElem(spec, 1, (4,))

    def test_ratio_all_units(self, spec31, spec32):
        for spec in (spec31, spec32):
            big = RingSpec(spec.p, spec.k, 72)
            for u in range(1, spec.modulus):
                if not spec.is_unit(u):
                    continue
                for n in (1, 2):
                    r = generator_ratio(big, n, u)
                    assert project_to_level(r, n) == GroupRingElem(big, n, (u,))


class TestJValuation:
    def test_simple(self, spec31):
        assert j_valuation(IwasawaPoly(spec31, [0, 0, 1, 2])) == 2

    def test_p_multiple_nonzero(self, spec32):
        assert j_valuation(IwasawaPoly(spec32, [0, 3])) == 1

    def test_zero_is_infinite(self, spec31):
        assert j_valuation(IwasawaPoly.zero(spec31)) == math.inf

    def test_superadditive(self, spec31, spec32):
        rng = random.Random(9)
        for spec in (spec31, spec32):
            for _ in range(100):
                a, b = random_poly(rng, spec), random_poly(rng, spec)
                va, vb, vab = j_valuation(a), j_valuation(b), j_valuation(a * b)
                if va + vb <= (a * b).precision:
                    assert vab >= va + vb
                    if spec.k == 1:
                        assert vab == va + vb


class TestProjectToLevel:
    def test_T_cubed_dies_mod3(self, spec31):
        assert project_to_level(IwasawaPoly(spec31, [0, 0, 0, 1]), 1).is_zero()

    def test_gamma_power_relation(self, spec31):
        for n in (1, 2):
            spec = RingSpec(3, 1, 3**n + 1)
            g = gamma_power(spec, 3**n)
            assert project_to_level(g, n) == GroupRingElem.one(spec, n)

    def test_T_cubed_mod9(self, spec32):
        got = project_to_level(IwasawaPoly(spec32, [0, 0, 0, 1]), 1)
        assert got.to_poly_coeffs() == [0, 6, 6]  # -(3T^2 + 3T) mod 9

    def test_ring_homomorphism(self, spec31, spec32):
        rng = random.Random(13)
        for spec in (spec31, spec32):
            for _ in range(60):
                a, b = random_poly(rng, spec), random_poly(rng, spec)
                pa, pb = project_to_level(a, 1), project_to_level(b, 1)
                assert project_to_level(poly_add(a, b), 1) == pa + pb
                assert project_to_level(a * b, 1) == pa * pb

    def test_kernel_is_omega_ideal_brute(self):
        # p=3, k=1, n=1: over polynomials of degree <= 5, the kernel of the
        # projection is exactly the multiples of (1+T)^3 - 1 = T^3
        spec = RingSpec(3, 1, 5)
        killed = set()
        for code in range(3**6):
            cs = [(code // 3**i) % 3 for i in range(6)]
            if project_to_level(IwasawaPoly(spec, cs), 1).is_zero():
                killed.add(tuple(cs))
        multiples = set()
        for code in range(3**3):
            q = [(code // 3**i) % 3 for i in range(3)]
            cs = [0, 0, 0] + q
            multiples.add(tuple(cs))
        assert killed == multiples

    def test_precision_guard(self, spec32):
        lam = IwasawaPoly(spec32, [1], precision=3)
        with pytest.raises(PrecisionError):
            project_to_level(lam, 1)

    def test_insufficient_for_k2_even_if_k1_ok(self):
        # k = 2 needs 2*p^n - 1 coefficients, not just p^n
        spec = RingSpec(3, 2, 12)
        lam = IwasawaPoly(spec, [1, 2, 1, 1], precision=3)
        with pytest.raises(PrecisionError):
            project_to_level(lam, 1)


class TestEventualDivisibility:
    @pytest.mark.parametrize("fc", [[0, 0, 1], [0, 1, 1]])
    def test_norm_elements_eventually_divisible(self, fc):
        # remainder of g_n upon division by f vanishes for n >> 0
        spec = RingSpec(3, 1, 30)
        f = IwasawaPoly(spec, fc)
        seen_zero = False
        for n in (1, 2, 3):
            if 3**n - 1 > spec.cap:
                break
            g = norm_element(spec, n)
            _, r = weierstrass_divide(g, f)
            if r.is_zero():
                seen_zero = True
            elif seen_zero:
                pytest.fail("divisibility was lost after being attained")
        assert seen_zero


@given(
    cs=st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=13),
    ds=st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=13),
)
@settings(max_examples=120, deadline=None)
def test_mul_commutative_associative_hypothesis(cs, ds):
    spec = RingSpec(3, 2, 12)
    a, b = IwasawaPoly(spec, cs), IwasawaPoly(spec, ds)
    assert a * b == b * a
    assert (a * b) * a == a * (b * a)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_involution_is_involutive_hypothesis(data):
    spec = RingSpec(3, 2, 10)
    cs = data.draw(st.lists(st.integers(0, 8), min_size=1, max_size=11))
    x = IwasawaPoly(spec, cs)
    assert involution(involution(x)) == x


class TestHashContract:
    """__eq__ is strict (ring, precision and coefficients), so it is
    transitive, and equal elements hash alike."""

    @given(
        st.sampled_from([(3, 1), (3, 2), (5, 1)]),
        st.lists(st.tuples(st.lists(st.integers(0, 2), max_size=6), st.integers(0, 4)), min_size=3, max_size=3),
    )
    # three series that agree to O(T^2): prefix equality made the first
    # equal to the second and the second to the third, but not the first
    # to the third
    @example((3, 1), [([1, 0, 0, 0], 5), ([1, 0, 0], 1), ([1, 0, 2], 5)])
    @settings(max_examples=300, deadline=None)
    def test_eq_transitive_and_hash_consistent(self, pk, drawn):
        # coefficients in 0-2 and short lists make equal pairs common
        spec = RingSpec(*pk, 8)
        a, b, c = (IwasawaPoly(spec, cs, prec) for cs, prec in drawn)
        for x, y in ((a, b), (b, c), (a, c)):
            if x == y:
                assert hash(x) == hash(y)
                assert len({x, y}) == 1
        if a == b and b == c:
            assert a == c
