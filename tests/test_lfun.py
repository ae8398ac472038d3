"""The L-function model: orders, derivatives, special values, and the
three-part consistency theorem on builder instances."""

import dataclasses
import functools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwaheights.cli import _instance_from_file
from iwaheights.errors import (
    InstanceInvalidError,
    NotDivisibleError,
    PrecisionError,
)
from iwaheights.heights import BlockSpec, block_module
from iwaheights.instancefile import parse_instance, render_generated
from iwaheights.iwalg import IwasawaPoly, RingSpec, project_to_level, weierstrass_divide
from iwaheights.lambdamod import DEFAULT_ENUM_CAP, FiniteLevelModule
from iwaheights.lfun import (
    CanonicalDuality,
    LambdaFunctional,
    LfunInstance,
    TableDuality,
    _block_stage_nonzero,
    build_synthetic,
    der,
    localize,
    main_theorem_check,
    order_of_vanishing,
)
from iwaheights.poles import PoleElem, phi
from tests.conftest import (
    gamma_power,
    linear_annihilator_order,
    monomial_table,
    poly_add,
    random_poly,
    truncate,
)

ROOT = Path(__file__).resolve().parent.parent


def pole_pair(duality, x, d):
    """The canonical duality evaluated through the pole class of each
    product: sum_i phi(1, xbar_i * iota(fold(d_i)) / omega_(n_i))."""
    spec = duality.module.spec
    total = 0
    for i, n in enumerate(duality.levels):
        xi = project_to_level(x[i], n)
        di = duality.module.component(d, i).at_level(n)
        total += phi(1, PoleElem(spec, n, xi * di.involution()))
    return total % spec.modulus


def table_pair(table, x, d, m):
    """A table duality evaluated monomial by monomial."""
    total = 0
    for i, xi in enumerate(x):
        rows = table[i]
        for j, c in enumerate(xi.coeffs):
            if c and j < len(rows):
                total += c * sum(a * b for a, b in zip(rows[j], d))
            elif c and j >= len(rows):
                raise PrecisionError("duality table too short for this class")
    return total % m


def builder_params(name):
    """build_synthetic arguments of a builder-form instance file."""
    doc = json.loads((ROOT / "instances" / name).read_text())
    lf = doc["lfun"]
    return doc["ring"]["p"], doc["ring"]["k"], tuple(lf["global_levels"]), lf["target_ord"], lf["seed"]


# (p, k, global levels, order, seed), including the level-3, mixed
# level-0/level-3 and p = 5 level-2 instance files
DUALITY_CASES = [
    (3, 1, (0, 1), 1, 0),
    (3, 1, (1,), 2, 1),
    (3, 2, (1,), 1, 2),
    (5, 1, (1,), 1, 3),
    builder_params("lfun_level3_ord1.json"),
    builder_params("lfun_p5_level2.json"),
    builder_params("lfun_level3_mixed_ord1.json"),
]


@functools.lru_cache(maxsize=None)
def cached_instance(case):
    p, k, levels, ordv, seed = case
    return build_synthetic(seed, p=p, k=k, global_levels=levels, target_ord=ordv)


class TestOrderOfVanishing:
    def test_designed_orders(self):
        for ordv in (0, 1, 2, 3):
            inst = build_synthetic(1, target_ord=ordv)
            assert order_of_vanishing(inst) == ordv

    def test_unit_cofactor_example(self):
        # L_z = T^2 * (1 + T) in a rank-1-style coordinate has order 2
        inst = build_synthetic(2, target_ord=2)
        v = min(
            i
            for x in inst.L_z
            for i, c in enumerate(x.coeffs)
            if c
        )
        assert v == 2

    def test_zero_class_is_infinite(self):
        inst = build_synthetic(3, target_ord=0)
        zeroed = LfunInstance(
            spec=inst.spec,
            L_z=tuple(IwasawaPoly.zero(inst.spec) for _ in inst.L_z),
            D_loc=inst.D_loc,
            duality=inst.duality,
            height=inst.height,
            z0=inst.z0,
            strict=inst.strict,
            meta={},
        )
        assert order_of_vanishing(zeroed) is math.inf

    def test_broken_duality_disagreement_detected(self):
        # a duality that kills everything makes the annihilator
        # characterisation infinite while the valuation stays finite
        inst = build_synthetic(4, target_ord=1)
        D = inst.D_loc
        dead = TableDuality(
            [[[0] * D.dim for _ in range(inst.spec.cap + 1)] for _ in range(D.ngens)],
            D,
        )
        broken = LfunInstance(
            spec=inst.spec,
            L_z=inst.L_z,
            D_loc=D,
            duality=dead,
            height=inst.height,
            z0=inst.z0,
            strict=inst.strict,
            meta={},
        )
        # errors are never cached: every call raises
        for _ in range(2):
            with pytest.raises(InstanceInvalidError, match="disagree"):
                order_of_vanishing(broken)

    @given(
        st.integers(0, 9),
        st.sampled_from(
            [((3, 1), (0,)), ((3, 1), (0, 1)), ((3, 1), (1, 2)), ((3, 2), (1,)), ((5, 1), (1,))]
        ),
        st.integers(0, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_cached_order_matches_fresh_computation(self, seed, case, ordv):
        (p, k), levels = case
        inst = build_synthetic(seed, p=p, k=k, global_levels=levels, target_ord=ordv)
        first = order_of_vanishing(inst)
        assert first == ordv
        assert order_of_vanishing(inst) == first
        assert LfunInstance.vanishing_order.func(inst) == first

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            build_synthetic(0, target_ord=-1)


def der_at(inst, r, u):
    """L_z divided by (gamma^u - 1)^r = ((1+T)^u - 1)^r: the derivative
    with respect to the generator gamma^u."""
    f = poly_add(gamma_power(inst.spec, u), IwasawaPoly(inst.spec, [1]), -1) ** r
    out = []
    for x in inst.L_z:
        q, rem = weierstrass_divide(x, f)
        assert rem.is_zero()
        out.append(q)
    return out


class TestDer:
    def test_r0_is_identity(self):
        inst = build_synthetic(5, target_ord=2)
        assert der(inst, 0) == inst.L_z

    def test_exact_division(self):
        inst = build_synthetic(6, target_ord=2)
        q = der(inst, 2)
        for qi, xi in zip(q, inst.L_z):
            back = qi.times_T_power(0) * IwasawaPoly(
                inst.spec, [0, 0, 1]
            )  # multiply by T^2
            assert back == truncate(xi, back.precision)

    def test_over_division_rejected(self):
        inst = build_synthetic(7, target_ord=1)
        with pytest.raises(NotDivisibleError):
            der(inst, 2)

    def test_quotient_times_T_power_is_L_z(self):
        for ordv in (1, 2, 3):
            inst = build_synthetic(8, target_ord=ordv)
            for r in range(1, ordv + 1):
                T_r = IwasawaPoly.T(inst.spec) ** r
                for q, x in zip(der(inst, r), inst.L_z):
                    assert q.precision == x.precision - r
                    assert truncate(q * T_r, q.precision) == truncate(x, q.precision)


class TestLambdaSpecial:
    def test_below_order_vanishes(self):
        for ordv in (1, 2, 3):
            inst = build_synthetic(9, target_ord=ordv)
            for r in range(ordv):
                assert LambdaFunctional(inst, r).is_identically_zero()

    def test_at_order_nonzero(self):
        for ordv in (0, 1, 2, 3):
            inst = build_synthetic(10, target_ord=ordv)
            assert not LambdaFunctional(inst, ordv).is_identically_zero()

    def test_zero_argument(self):
        inst = build_synthetic(11, target_ord=1)
        lam = LambdaFunctional(inst, 1)
        assert lam([0] * inst.D_loc.dim) == 0

    def test_domain_guard(self):
        inst = build_synthetic(12, target_ord=1)
        lam = LambdaFunctional(inst, 1)
        # a non-torsion element must be rejected
        non_torsion = None
        tor = inst.D_loc.j_torsion(1)
        for b in range(inst.D_loc.dim):
            e = [int(c == b) for c in range(inst.D_loc.dim)]
            if not tor.contains(e):
                non_torsion = e
                break
        assert non_torsion is not None
        with pytest.raises(InstanceInvalidError):
            lam(non_torsion)

    def test_generator_independence(self):
        # the derivative with respect to gamma^u, scaled by u^r, is the one
        # with respect to gamma, for every unit u
        for ordv in (1, 2):
            for k in (1, 2):
                inst = build_synthetic(13, k=k, target_ord=ordv)
                spec = inst.spec
                m = spec.modulus
                gens = inst.D_loc.j_torsion(1).gens()
                base = LambdaFunctional(inst, ordv)
                for u in filter(spec.is_unit, range(1, m)):
                    f_u = inst.duality.functional(der_at(inst, ordv, u))
                    for g in gens:
                        lhs = pow(u, ordv, m) * sum(a * b for a, b in zip(f_u, g)) % m
                        assert lhs == base(list(g))


class TestMainTheorem:
    @pytest.mark.parametrize("ordv", [0, 1, 2, 3])
    def test_many_seeds(self, ordv):
        for seed in range(20):
            inst = build_synthetic(seed, target_ord=ordv)
            checks = main_theorem_check(inst, 4)
            assert all(c.ok for c in checks), [
                c.name for c in checks if not c.ok
            ]

    @pytest.mark.parametrize("ordv", [0, 1, 2])
    def test_k2_seeds(self, ordv):
        for seed in range(6):
            inst = build_synthetic(seed, k=2, target_ord=ordv)
            checks = main_theorem_check(inst, 3)
            assert all(c.ok for c in checks)

    def test_ord0_negative_direction(self):
        # z0 outside the strict submodule, nonzero lambda^(0): (a) passes
        # in the iff-false direction
        inst = build_synthetic(14, target_ord=0)
        assert inst.strict == "zero" and any(inst.global_module.canon(inst.z0))
        assert not LambdaFunctional(inst, 0).is_identically_zero()
        checks = main_theorem_check(inst, 2)
        rec = next(c for c in checks if c.name.startswith("(a)"))
        assert rec.ok and not rec.witness["lambda0_zero"]

    def test_local_divisibility_implies_global(self):
        # ord >= r forces z0 into the stage-r filtration
        for ordv in (1, 2, 3):
            inst = build_synthetic(15, target_ord=ordv)
            M = inst.global_module
            for r in range(1, ordv + 1):
                assert M.filtration_stage(r).contains(inst.z0)

    def test_tampered_duality_rejected_before_verdict(self):
        inst = build_synthetic(16, target_ord=1)
        D = inst.D_loc
        # build an explicit (wrong) duality table: constant functionals
        table = [
            [[1] * D.dim for _ in range(inst.spec.cap + 1)] for _ in range(D.ngens)
        ]
        broken = LfunInstance(
            spec=inst.spec,
            L_z=inst.L_z,
            D_loc=D,
            duality=TableDuality(table, D),
            height=inst.height,
            z0=inst.z0,
            strict=inst.strict,
            meta={},
        )
        with pytest.raises(InstanceInvalidError):
            main_theorem_check(broken, 2)

    def test_faithful_table_duality_accepted(self):
        # a table that reproduces the canonical duality passes validation
        inst = build_synthetic(17, target_ord=1)
        D = inst.D_loc
        spec = inst.spec
        table = monomial_table(inst, spec.cap + 1)
        clone = LfunInstance(
            spec=spec,
            L_z=inst.L_z,
            D_loc=D,
            duality=TableDuality(table, D),
            height=inst.height,
            z0=inst.z0,
            strict=inst.strict,
            meta={},
        )
        checks = main_theorem_check(clone, 3)
        assert all(c.ok for c in checks)


class TestBuilder:
    def test_determinism(self):
        a = render_generated(build_synthetic(42, target_ord=2))
        b = render_generated(build_synthetic(42, target_ord=2))
        assert a == b

    def test_seeds_differ(self):
        a = render_generated(build_synthetic(1, target_ord=1))
        b = render_generated(build_synthetic(2, target_ord=1))
        assert a != b

    def test_all_orders_validate(self):
        for ordv in (0, 1, 2, 3):
            inst = build_synthetic(0, target_ord=ordv)
            inst.validate()
            assert order_of_vanishing(inst) == ordv

    @pytest.mark.parametrize("p, k", [(p, k) for p in (3, 5) for k in (1, 2, 3)])
    def test_block_stage_matches_trial_module(self, p, k):
        # the builder's level search reads the stage T^(r-1) * Lambda_n[T^r]
        # of one block off (gamma - 1)^(r-1); the oracle builds the block
        # and its filtration stage
        for n in range(3):
            spec = RingSpec(p, k, k * p**n + p**n + 10)
            block = block_module(spec, [BlockSpec(n)])
            for r in range(1, k * p**n + 2):
                assert _block_stage_nonzero(spec, n, r) == (block.filtration_stage(r).order() > 1), (n, r)


class TestClosedFormDuality:
    @given(st.sampled_from(DUALITY_CASES), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_pair_matches_pole_oracle(self, case, seed):
        inst = cached_instance(case)
        spec, D = inst.spec, inst.D_loc
        rng = random.Random(seed)
        x = [random_poly(rng, spec) for _ in range(D.ngens)]
        d = [rng.randrange(spec.modulus) for _ in range(D.dim)]
        assert isinstance(inst.duality, CanonicalDuality)

        def pair(v):
            return sum(a * b for a, b in zip(inst.duality.functional(v), d)) % spec.modulus

        assert pair(x) == pole_pair(inst.duality, x, d)
        # on the instance's own L_z as well
        assert pair(inst.L_z) == pole_pair(inst.duality, inst.L_z, d)

    @given(st.sampled_from(DUALITY_CASES), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_adjunction_in_vector_form(self, case, seed):
        # f_(T x)[b] = f_x . (iota(T) e_b) for every ambient basis vector e_b
        inst = cached_instance(case)
        spec, D = inst.spec, inst.D_loc
        m = spec.modulus
        rng = random.Random(seed)
        x = [random_poly(rng, spec) for _ in range(D.ngens)]
        f_x = inst.duality.functional(x)
        f_tx = inst.duality.functional([xi.times_T_power(1) for xi in x])
        t_iota = D.T_class().involution()
        for b in range(D.dim):
            e = [int(c == b) for c in range(D.dim)]
            shifted = D.act(t_iota, e)
            assert f_tx[b] % m == sum(a * s for a, s in zip(f_x, shifted)) % m

    @given(st.sampled_from(DUALITY_CASES), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_table_functional_matches_monomial_sum(self, case, seed):
        inst = cached_instance(case)
        spec, D = inst.spec, inst.D_loc
        m = spec.modulus
        rng = random.Random(seed)
        table = [
            [[rng.randrange(m) for _ in range(D.dim)] for _ in range(spec.cap + 1)]
            for _ in range(D.ngens)
        ]
        dual = TableDuality(table, D)
        x = [random_poly(rng, spec) for _ in range(D.ngens)]
        d = [rng.randrange(m) for _ in range(D.dim)]
        f = dual.functional(x)
        assert len(f) == D.dim
        assert sum(a * b for a, b in zip(f, d)) % m == table_pair(table, x, d, m)
        # a table shorter than the highest nonzero coefficient of x refuses
        top = max(j for xi in x for j, c in enumerate(xi.coeffs) if c)
        short = [coord[: rng.randrange(top + 1)] for coord in table]
        with pytest.raises(PrecisionError, match="too short"):
            table_pair(short, x, d, m)
        with pytest.raises(PrecisionError, match="too short"):
            TableDuality(short, D).functional(x)

    def test_monomial_table_reproduces_canonical(self):
        inst = cached_instance(DUALITY_CASES[0])
        table = monomial_table(inst, inst.spec.cap + 1)
        dual = TableDuality(table, inst.D_loc)
        rng = random.Random(5)
        for _ in range(20):
            x = [random_poly(rng, inst.spec) for _ in range(inst.D_loc.ngens)]
            assert dual.functional(x) == inst.duality.functional(x)

    @given(st.sampled_from(DUALITY_CASES), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_symmetric_on_lifted_classes(self, case, seed):
        # <lift(v), d> = <lift(d), v>, which the builder's solve relies on
        inst = cached_instance(case)
        spec, D = inst.spec, inst.D_loc
        m = spec.modulus
        rng = random.Random(seed)
        v = [rng.randrange(m) for _ in range(D.dim)]
        d = [rng.randrange(m) for _ in range(D.dim)]

        def pair(a, b):
            lifted = [IwasawaPoly(spec, D.component(a, i).to_poly_coeffs()) for i in range(D.ngens)]
            return sum(x * y for x, y in zip(inst.duality.functional(lifted), b)) % m

        assert pair(v, d) == pair(d, v)


def times_T_raw(D, v):
    """(gamma - 1) * v on each block, unreduced by the relations."""
    m = D.spec.modulus
    return [sum(a * b for a, b in zip(row, v)) % m for row in D.action_matrix(D.T_class())]


class TestValidateRejects:
    """One negative control per rejection branch of `LfunInstance.validate`,
    each a change to the instance of `test_faithful_table_duality_accepted`
    that the earlier branches pass, so the message is its own."""

    def with_table(self, inst, table):
        return dataclasses.replace(inst, duality=TableDuality(table, inst.D_loc), meta={})

    def test_adjunction_failure_at_one_monomial(self):
        inst = build_synthetic(17, target_ord=1)
        table = monomial_table(inst, inst.spec.cap + 1)
        # perturb the functional of T^2 in coordinate 1: the first failing
        # case is <T * T^1, e_0> against <T^1, iota(T) e_0>
        table[1][2][0] += 1
        with pytest.raises(InstanceInvalidError, match=r"adjunction fails at coordinate 1, T\^1$"):
            self.with_table(inst, table).validate()

    def test_relation_not_killed(self):
        inst = build_synthetic(17, target_ord=1)
        D = inst.D_loc
        m = inst.spec.modulus
        assert D.rel_rows
        table = monomial_table(inst, inst.spec.cap + 1)
        # add T^j v to the functional of T^j in coordinate 0, for every row,
        # with v not killing the first relation row: the rows stay
        # T-equivariant, so the relation check is the only one that fails
        rel = D.rel_rows[0]
        pivot = next(c for c, a in enumerate(rel) if a)
        v = [int(c == pivot) for c in range(D.dim)]
        for j in range(len(table[0])):
            table[0][j] = [(a + b) % m for a, b in zip(table[0][j], v)]
            v = times_T_raw(D, v)
        with pytest.raises(InstanceInvalidError, match="does not kill the relations"):
            self.with_table(inst, table).validate()

    @pytest.mark.parametrize("row", [4, 5, 6, 8, None], ids=["4", "5", "6", "8", "last"])
    def test_adjunction_failure_past_T_cubed(self, row):
        # every row of a table is checked, not only T^0..T^3
        inst = build_synthetic(17, target_ord=1)
        table = monomial_table(inst, inst.spec.cap + 1)
        row = len(table[0]) - 1 if row is None else row
        table[0][row][0] += 1
        with pytest.raises(InstanceInvalidError, match=rf"adjunction fails at coordinate 0, T\^{row - 1}$"):
            self.with_table(inst, table).validate()

    def test_canonical_functional_not_T_equivariant(self, monkeypatch):
        # the canonical duality is checked through its own functional: one
        # that adds the T^2 coefficient of coordinate 0 to entry 0 breaks
        # <T x, d> = <x, iota(T) d> at T^1
        inst = build_synthetic(17, target_ord=1)
        functional = CanonicalDuality.functional

        def broken(self, x):
            f = functional(self, x)
            f[0] = (f[0] + x[0].coeffs[2]) % self.module.spec.modulus
            return f

        monkeypatch.setattr(CanonicalDuality, "functional", broken)
        with pytest.raises(InstanceInvalidError, match=r"adjunction fails at coordinate 0, T\^1$"):
            inst.validate()

    def test_empty_coordinate_is_too_short(self):
        # a coordinate with no rows has nothing to check; the class L_z,
        # nonzero there, is refused as a resource cap
        inst = build_synthetic(17, target_ord=1)
        table = monomial_table(inst, inst.spec.cap + 1)
        table[0] = []
        broken = self.with_table(inst, table)
        broken.validate()
        with pytest.raises(PrecisionError, match="too short"):
            main_theorem_check(broken, 1)


# builder instances of every desk class: (p, k, order, seed)
DESK_CASES = [(3, 1, o, o) for o in range(4)] + [
    (p, k, o, 10 + o) for p, k in ((3, 2), (5, 1)) for o in (1, 2)
]
LFUN_FILES = [
    "lfun_seed0_ord1.json",
    "lfun_seed0_ord2.json",
    "lfun_level3_ord1.json",
    "lfun_p5_level2.json",
    "lfun_level3_mixed_ord1.json",
]


@functools.lru_cache(maxsize=None)
def desk_or_file_instance(case):
    if isinstance(case, str):
        text = (ROOT / "instances" / case).read_text()
        return _instance_from_file(parse_instance(text), DEFAULT_ENUM_CAP)
    p, k, ordv, seed = case
    return build_synthetic(seed, p=p, k=k, target_ord=ordv)


class TestLocalizationIsInclusion:
    """The localization puts the global module on the dual module's first
    blocks: it is Lambda-linear and kills the global relations."""

    @pytest.mark.parametrize("case", DESK_CASES + LFUN_FILES, ids=str)
    def test_commutes_with_gamma_and_kills_relations(self, case):
        inst = desk_or_file_instance(case)
        M, D = inst.global_module, inst.D_loc
        assert M.level == D.level and M.dim < D.dim
        gM, gD = M.gamma_class(), D.gamma_class()
        for a in range(M.dim):
            e = [int(c == a) for c in range(M.dim)]
            loc = localize(D, e)
            # injective on the basis: zero in D only where zero in M
            assert any(loc) == any(M.canon(e))
            assert localize(D, M.act(gM, e)) == D.act(gD, loc)
        for rel in M.rel_rows:
            assert not any(localize(D, rel))


class TestAnnihilatorGallop:
    """The annihilator side of the order of vanishing gallops over r and
    bisects; the walk r = 1, 2, ... (`linear_annihilator_order`) is its
    oracle, on builder instances, on the shipped lfun files, and with L_z
    replaced by T^e times a random class, zero among them."""

    @pytest.mark.parametrize("case", DESK_CASES + LFUN_FILES, ids=str)
    def test_matches_linear_walk(self, case):
        inst = desk_or_file_instance(case)
        assert inst._annihilator_order() == linear_annihilator_order(inst) == order_of_vanishing(inst)

    @given(st.sampled_from(DESK_CASES + LFUN_FILES), st.integers(0, 2**32), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_linear_walk_for_any_class(self, case, seed, data):
        inst = desk_or_file_instance(case)
        bound = inst.spec.k * inst.spec.p**inst.D_loc.level + 1
        e = data.draw(st.integers(0, min(bound + 1, inst.spec.cap)), label="e")
        rng = random.Random(seed)
        zero = data.draw(st.booleans(), label="zero class")
        L_z = tuple(
            IwasawaPoly.zero(inst.spec) if zero else random_poly(rng, inst.spec).times_T_power(e) for _ in inst.L_z
        )
        other = dataclasses.replace(inst, L_z=L_z)
        assert other._annihilator_order() == linear_annihilator_order(other)

    def test_each_degree_asked_once(self, monkeypatch):
        # order 20: r = 1, 2, 4, ..., 16, then 28 (the bound), then bisected,
        # against 21 degrees on the walk
        inst = build_synthetic(0, target_ord=20)
        asked = []
        j_torsion = FiniteLevelModule.j_torsion
        monkeypatch.setattr(FiniteLevelModule, "j_torsion", lambda self, r: asked.append(r) or j_torsion(self, r))
        assert inst._annihilator_order() == 20
        assert len(asked) == len(set(asked)) < 12
