"""The L-function model: orders, derivatives, special values, and the
three-part consistency theorem on builder instances."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwaheights.errors import (
    InstanceInvalidError,
    NotDivisibleError,
)
from iwaheights.iwalg import IwasawaPoly
from iwaheights.lfun import (
    LfunInstance,
    TableDuality,
    build_synthetic,
    der,
    instance_fingerprint,
    lambda_special,
    main_theorem_check,
    order_of_vanishing,
)


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
            loc_matrix=inst.loc_matrix,
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
            loc_matrix=inst.loc_matrix,
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
            assert back == xi.truncate(back.precision)

    def test_over_division_rejected(self):
        inst = build_synthetic(7, target_ord=1)
        with pytest.raises(NotDivisibleError):
            der(inst, 2)

    def test_division_with_u2(self):
        # dividing by (gamma^2 - 1)^r also works and rescales consistently
        inst = build_synthetic(8, target_ord=2)
        q1 = der(inst, 2, u=1)
        q2 = der(inst, 2, u=2)
        assert all(isinstance(x, IwasawaPoly) for x in q1 + q2)


class TestLambdaSpecial:
    def test_below_order_vanishes(self):
        for ordv in (1, 2, 3):
            inst = build_synthetic(9, target_ord=ordv)
            for r in range(ordv):
                assert lambda_special(inst, r).is_identically_zero()

    def test_at_order_nonzero(self):
        for ordv in (0, 1, 2, 3):
            inst = build_synthetic(10, target_ord=ordv)
            assert not lambda_special(inst, ordv).is_identically_zero()

    def test_zero_argument(self):
        inst = build_synthetic(11, target_ord=1)
        lam = lambda_special(inst, 1)
        assert lam([0] * inst.D_loc.dim).is_zero()

    def test_domain_guard(self):
        inst = build_synthetic(12, target_ord=1)
        lam = lambda_special(inst, 1)
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
        for ordv in (1, 2):
            for k in (1, 2):
                inst = build_synthetic(13, k=k, target_ord=ordv)
                units = [u for u in range(1, inst.spec.modulus) if inst.spec.is_unit(u)]
                gens = inst.D_loc.j_torsion(1).gens()
                base = lambda_special(inst, ordv, u=1)
                for u in units[:4]:
                    lam_u = lambda_special(inst, ordv, u=u)
                    for g in gens:
                        assert lam_u(list(g)).coeff == base(list(g)).coeff


class TestMainTheorem:
    @pytest.mark.parametrize("ordv", [0, 1, 2, 3])
    def test_many_seeds(self, ordv):
        for seed in range(20):
            inst = build_synthetic(seed, target_ord=ordv)
            checks = main_theorem_check(inst, 4)
            assert all(c["ok"] for c in checks), [
                c["name"] for c in checks if not c["ok"]
            ]

    @pytest.mark.parametrize("ordv", [0, 1, 2])
    def test_k2_seeds(self, ordv):
        for seed in range(6):
            inst = build_synthetic(seed, k=2, target_ord=ordv)
            checks = main_theorem_check(inst, 3)
            assert all(c["ok"] for c in checks)

    def test_ord0_negative_direction(self):
        # z0 outside the strict submodule, nonzero lambda^(0): (a) passes
        # in the iff-false direction
        inst = build_synthetic(14, target_ord=0)
        assert not inst.strict.contains(inst.z0)
        assert not lambda_special(inst, 0).is_identically_zero()
        checks = main_theorem_check(inst, 2)
        rec = next(c for c in checks if c["name"].startswith("(a)"))
        assert rec["ok"] and not rec["witness"]["lambda0_zero"]

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
            loc_matrix=inst.loc_matrix,
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
        table = []
        for i in range(D.ngens):
            rows = []
            for j in range(spec.cap + 1):
                x = [IwasawaPoly.zero(spec)] * D.ngens
                x[i] = IwasawaPoly(spec, [0] * j + [1]) if j <= spec.cap else None
                rows.append(
                    [
                        inst.duality.pair(
                            x, [int(c == b) for c in range(D.dim)]
                        )
                        for b in range(D.dim)
                    ]
                )
            table.append(rows)
        clone = LfunInstance(
            spec=spec,
            L_z=inst.L_z,
            D_loc=D,
            duality=TableDuality(table, D),
            height=inst.height,
            loc_matrix=inst.loc_matrix,
            z0=inst.z0,
            strict=inst.strict,
            meta={},
        )
        checks = main_theorem_check(clone, 3)
        assert all(c["ok"] for c in checks)


class TestBuilder:
    def test_determinism(self):
        a = instance_fingerprint(build_synthetic(42, target_ord=2))
        b = instance_fingerprint(build_synthetic(42, target_ord=2))
        assert a == b

    def test_seeds_differ(self):
        a = instance_fingerprint(build_synthetic(1, target_ord=1))
        b = instance_fingerprint(build_synthetic(2, target_ord=1))
        assert a != b

    def test_all_orders_validate(self):
        for ordv in (0, 1, 2, 3):
            inst = build_synthetic(0, target_ord=ordv)
            inst.validate()
            assert order_of_vanishing(inst) == ordv
