"""Height pairings and the derived tower: the core desk-scale witnesses.

The concrete single-block instance over F_3 (the module F_3[T]/(T^3) with
pairing x*iota(y)/(gamma^3-1)) is checked coefficient by coefficient:
h^(1) vanishes on span{T^2}^2, h^(3)(T^2, T^2) is the unit (gamma-1)^3,
and the kernel chain is span{T^2}, span{T^2}, span{T^2}, 0.
"""

import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iwaheights import linalg, poles
from iwaheights.cli import _build_pairing
from iwaheights.errors import IwaheightsError, PrecisionError
from iwaheights.heights import (
    BlockPairing,
    BlockSpec,
    DerivedHeightPairing,
    HeightPairing,
    TablePairing,
    _monomial_poles,
    block_module,
    validate_pole_pairing,
)
from iwaheights.instancefile import parse_instance
from iwaheights.iwalg import GroupRingElem, IwasawaPoly, RingSpec, transfer_coeffs
from iwaheights.lambdamod import DEFAULT_ENUM_CAP, FiniteLevelModule, log_p
from iwaheights.poles import PoleElem, phi, pole_involution
from tests.conftest import (
    _basis,
    act_group,
    derived_well_defined,
    from_components,
    height_coeff,
    intersect,
    matvec,
    per_pair_left_kernel,
    per_pair_right_kernel,
    restricted_kernel_check,
    scale_elem,
    twist_equivariance_check,
    whole_module_torsion,
)


def single_block(spec, level=1, unit=1):
    return BlockPairing(spec, [BlockSpec(level, unit)])


def elem_from_poly(M, poly, gen=0):
    comps = [GroupRingElem.zero(M.spec, M.level)] * M.ngens
    comps[gen] = GroupRingElem.from_poly_coeffs(M.spec, M.level, poly)
    return from_components(M, comps)


def iota_matrix(M, sign=1):
    """Blockwise coefficient involution of a block module, times a sign."""
    m = M.spec.modulus
    n = M.block
    mat = [[0] * M.dim for _ in range(M.dim)]
    for i in range(M.ngens):
        for a in range(n):
            mat[i * n + a][i * n + ((-a) % n)] = sign % m
    return mat


class TestBlockPairing:
    def test_unit_numerator_nonzero(self, spec31):
        bp = single_block(spec31)
        one = elem_from_poly(bp.module, [1])
        assert not bp.value(one, one).is_zero()

    def test_omega_divisible_product_is_zero(self, spec31):
        bp = single_block(spec31)
        M = bp.module
        # x = T^2, y = T^2: x * iota(y) has T-valuation >= 4 > 3
        t2 = elem_from_poly(M, [0, 0, 1])
        assert bp.value(t2, t2).is_zero()

    def test_semilinearity_random(self, spec31):
        bp = single_block(spec31)
        M = bp.module
        rng = random.Random(3)
        tcl = M.T_class()
        for _ in range(40):
            x = M.canon([rng.randrange(3) for _ in range(M.dim)])
            y = M.canon([rng.randrange(3) for _ in range(M.dim)])
            v = bp.value(x, y)
            assert bp.value(M.act(tcl, x), y) == act_group(v, tcl)
            assert bp.value(x, M.act(tcl.involution(), y)) == act_group(v, tcl)

    def test_validation_passes(self, spec31, spec32):
        for spec in (spec31, spec32):
            single_block(spec).validate()
            BlockPairing(spec, [BlockSpec(1, 1, swapped=True)]).validate()
            BlockPairing(spec, [BlockSpec(0), BlockSpec(1)]).validate()
            # the pairings other tests build their heights on without a check
            BlockPairing(spec, [BlockSpec(0)]).validate()
            BlockPairing(spec, [BlockSpec(0, 1), BlockSpec(0, -1)]).validate()

    def test_non_semilinear_table_rejected(self, spec31):
        # a single pole value on (e_0, e_0): [T e_0, e_0] = -[e_0, e_0]
        # differs from T * [e_0, e_0]
        M = single_block(spec31).module
        zero = PoleElem.zero(spec31)
        table = [[zero] * M.dim for _ in range(M.dim)]
        table[0][0] = PoleElem(spec31, 1, GroupRingElem.one(spec31, 1))
        with pytest.raises(IwaheightsError, match="not semilinear"):
            TablePairing(M, table).validate()

    def test_table_not_killing_a_relation_rejected(self, spec31):
        # the level-1 block's table is gamma-equivariant, but on the module
        # of a level-0 block at level 1 it does not kill (gamma - 1) e_0
        M = block_module(spec31, [BlockSpec(0)], level=1)
        with pytest.raises(IwaheightsError, match="does not vanish on relation 0"):
            TablePairing(M, single_block(spec31).table).validate()

    def test_declared_symmetry(self, spec31):
        assert single_block(spec31).declared_symmetry() == "iota_antisymmetric"
        assert (
            BlockPairing(spec31, [BlockSpec(1, 1, swapped=True)]).declared_symmetry()
            == "iota_symmetric"
        )
        assert (
            BlockPairing(spec31, [BlockSpec(1, dead=True)]).declared_symmetry()
            == "zero"
        )

    def test_dead_block_contributes_nothing(self, spec31):
        bp = BlockPairing(spec31, [BlockSpec(1, dead=True)])
        M = bp.module
        for x in M.elements():
            for y in (elem_from_poly(M, [1]),):
                assert bp.value(x, y).is_zero()


class TestHeightPairing:
    def test_generator_independence(self, spec31, spec32):
        for spec in (spec31, spec32):
            for blocks in (
                [BlockSpec(1)],
                [BlockSpec(1, 1, swapped=True)],
                [BlockSpec(0), BlockSpec(1)],
            ):
                bp = BlockPairing(spec, blocks)
                h1 = HeightPairing(bp, u=1)
                h2 = HeightPairing(bp, u=2)
                M = bp.module
                rng = random.Random(5)
                for _ in range(30):
                    x = M.canon([rng.randrange(spec.modulus) for _ in range(M.dim)])
                    y = M.canon([rng.randrange(spec.modulus) for _ in range(M.dim)])
                    assert height_coeff(h1, x, y) == height_coeff(h2, x, y)

    def test_linearity_left_zero(self, spec31):
        h = HeightPairing(single_block(spec31))
        M = h.module
        assert height_coeff(h, M.zero(), elem_from_poly(M, [1])) == 0

    def test_symmetry_conversion(self, spec31):
        # iota-antisymmetric input gives a symmetric height,
        # iota-symmetric input gives an alternating height
        anti = HeightPairing(single_block(spec31))
        M = anti.module
        rng = random.Random(7)
        for _ in range(30):
            x = M.canon([rng.randrange(3) for _ in range(M.dim)])
            y = M.canon([rng.randrange(3) for _ in range(M.dim)])
            assert height_coeff(anti, x, y) == height_coeff(anti, y, x)
        sym = HeightPairing(BlockPairing(spec31, [BlockSpec(1, 1, swapped=True)]))
        N = sym.module
        for _ in range(30):
            x = N.canon([rng.randrange(3) for _ in range(N.dim)])
            y = N.canon([rng.randrange(3) for _ in range(N.dim)])
            assert height_coeff(sym, x, y) == (-height_coeff(sym, y, x)) % 3
            assert height_coeff(sym, x, x) == 0

    def test_global_kernel_is_universal_norms(self, spec31, spec32):
        for spec in (spec31, spec32):
            for blocks in (
                [BlockSpec(1)],
                [BlockSpec(0), BlockSpec(1)],
                [BlockSpec(1, 2, swapped=True)],
            ):
                h = HeightPairing(BlockPairing(spec, blocks))
                M = h.module
                assert h.left_kernel().order() == M.universal_norms().order() == 1
                assert h.right_kernel().order() == 1

    def test_level_zero_block_pairs_honestly(self, spec31):
        # Lambda_0 = O with h(x, y) = x*y*(gamma-1): nondegenerate
        h = HeightPairing(BlockPairing(spec31, [BlockSpec(0)]))
        M = h.module
        one = elem_from_poly(M, [1])
        assert height_coeff(h, one, one) == 1
        assert h.left_kernel().order() == 1


class TestDerivedTower:
    def test_concrete_witness_block_f3(self, spec31):
        h = HeightPairing(single_block(spec31))
        M = h.module
        t2 = elem_from_poly(M, [0, 0, 1])
        # h^(1) vanishes identically on span{T^2} x span{T^2}
        d1 = DerivedHeightPairing(h, 1)
        assert d1.stage.order() == 3 and d1.stage.contains(t2)
        assert d1.value(t2, t2) == 0
        # h^(3)(T^2, T^2) = 1 * (gamma-1)^3, a unit multiple
        d3 = DerivedHeightPairing(h, 3)
        assert d3.value(t2, t2) == 1
        # oracle: the preimage w = 1 satisfies T^2 w = T^2, and
        # phi(1, [1, T^2]) is the identity coefficient of the class of T^2
        one = elem_from_poly(M, [1])
        assert height_coeff(h, one, t2) == 1

    def test_r1_is_restriction(self, spec31, spec32):
        for spec in (spec31, spec32):
            h = HeightPairing(single_block(spec))
            M = h.module
            d1 = DerivedHeightPairing(h, 1)
            for x in d1.stage.elements():
                for y in d1.stage.elements():
                    assert d1.value(x, y) == height_coeff(h, x, y)

    def test_well_defined_across_preimages(self, spec31):
        # every preimage w with T^2 w = x gives the same h^(3) value
        h = HeightPairing(single_block(spec31))
        M = h.module
        t2 = elem_from_poly(M, [0, 0, 1])
        d3 = DerivedHeightPairing(h, 3)
        target = d3.value(t2, t2)
        tcl = M.T_class()
        t2cl = GroupRingElem.one(spec31, 1)
        shift = M.action_matrix(tcl * tcl)
        for w in M.elements():
            img = M.canon(matvec(shift, list(w), 3))
            if img == t2:
                assert height_coeff(h, w, t2) == target

    def test_kernel_chain_single_block(self, spec31):
        # frozen: stages span{T^2}, span{T^2}, span{T^2}, 0 and kernels match
        h = HeightPairing(single_block(spec31))
        M = h.module
        expected_orders = {1: 3, 2: 3, 3: 3, 4: 1}
        for r in (1, 2, 3, 4):
            assert M.filtration_stage(r).order() == expected_orders[r]
        for r in (1, 2, 3):
            d = DerivedHeightPairing(h, r)
            kernel = d.left_kernel_elements()
            stage_next = {tuple(v) for v in M.filtration_stage(r + 1).elements()}
            assert kernel == stage_next
            assert d.right_kernel_elements() == stage_next

    def test_kernel_chain_all_block_instances(self, spec31, spec32):
        cases = [
            (spec31, [BlockSpec(1)]),
            (spec31, [BlockSpec(0), BlockSpec(1)]),
            (spec31, [BlockSpec(1, 1, swapped=True)]),
            (spec32, [BlockSpec(1)]),
        ]
        for spec, blocks in cases:
            h = HeightPairing(BlockPairing(spec, blocks))
            M = h.module
            for r in range(1, 5):
                d = DerivedHeightPairing(h, r)
                assert derived_well_defined(d)
                nxt = {tuple(v) for v in M.filtration_stage(r + 1).elements()}
                assert d.left_kernel_elements() == nxt
                assert d.right_kernel_elements() == nxt

    def test_sign_tower(self, spec31, spec32):
        # iota-antisymmetric: h^(r)(x,y) = (-1)^(r+1) h^(r)(y,x)
        # iota-symmetric:     h^(r)(x,y) = (-1)^r     h^(r)(y,x)
        for spec in (spec31, spec32):
            for blocks, parity in (
                ([BlockSpec(1)], 1),
                ([BlockSpec(1, 1, swapped=True)], 0),
            ):
                h = HeightPairing(BlockPairing(spec, blocks))
                for r in range(1, 5):
                    d = DerivedHeightPairing(h, r)
                    sign = (-1) ** (r + parity)
                    for x in d.stage.elements():
                        for y in d.stage.elements():
                            lhs = d.value(x, y)
                            rhs = (sign * d.value(y, x)) % spec.modulus
                            assert lhs == rhs

    def test_intersection_of_stages_is_norms_cap_torsion(self, spec31, spec32):
        for spec in (spec31, spec32):
            for blocks in ([BlockSpec(1)], [BlockSpec(0), BlockSpec(1)]):
                M = BlockPairing(spec, blocks).module
                inter = M.filtration_stage(1)
                r = 2
                while True:
                    stage = M.filtration_stage(r)
                    inter = intersect(inter, stage)
                    if stage.order() == 1:
                        break
                    r += 1
                norms_cap = intersect(M.universal_norms(), M.j_torsion(1))
                assert inter == norms_cap

    def test_generator_independence_of_tower(self, spec31):
        bp = single_block(spec31)
        h1 = HeightPairing(bp, u=1)
        h2 = HeightPairing(bp, u=2)
        for r in (1, 2, 3):
            d1, d2 = DerivedHeightPairing(h1, r), DerivedHeightPairing(h2, r)
            for x in d1.stage.elements():
                for y in d1.stage.elements():
                    assert d1.value(x, y) == d2.value(x, y)

    def test_stage_membership_enforced(self, spec31):
        h = HeightPairing(single_block(spec31))
        M = h.module
        one = elem_from_poly(M, [1])
        d2 = DerivedHeightPairing(h, 2)
        with pytest.raises(IwaheightsError):
            d2.value(one, one)

    def test_parity_of_even_stage_quotients(self, spec31):
        # on iota-antisymmetric instances with M = N and k = 1, the
        # nondegenerate quotient in even degree is even dimensional
        for blocks in ([BlockSpec(1)], [BlockSpec(0), BlockSpec(1)], [BlockSpec(2)]):
            M = BlockPairing(spec31, blocks).module
            for r in (2, 4):
                e = log_p(M.filtration_stage(r).order() // M.filtration_stage(r + 1).order(), 3)
                assert e is not None and e % 2 == 0


def uncached_derived_value(d, x, y):
    """h^(r)(x, y) by a fresh torsion preimage solve on every call: the
    torsion, the shifted rows and the solve are all rebuilt from M, and h
    is evaluated as phi_u of the pole value, without the Gram matrix."""
    h, r = d.h, d.r
    M = h.module
    spec = h.spec
    m = spec.modulus
    t = M.T_class()
    tr = GroupRingElem.one(spec, M.level)
    for _ in range(r):
        tr = tr * t
    gens = whole_module_torsion(M, tr).hrows
    tu = GroupRingElem.gamma(spec, M.level, h.u) - GroupRingElem.one(spec, M.level)
    shift = GroupRingElem.one(spec, M.level)
    for _ in range(r - 1):
        shift = shift * tu
    mat = M.action_matrix(shift)
    rows = [matvec(mat, list(g), m) for g in gens]
    (sol,) = linalg.solve_combination(rows + [list(rel) for rel in M.rel_rows], [list(x)], spec.p, spec.k)
    assert sol is not None
    w = [0] * M.dim
    for c, g in zip(sol, gens):
        w = [(a + c * b) % m for a, b in zip(w, g)]
    return pow(h.u, r - 1, m) * pow(h.u, -1, m) * phi(h.u, h.pairing.value(w, y)) % m


def phi_fails_on_basis(pairing, u):
    """Whether phi_u raises `PrecisionError` on some basis value of the
    pairing, which is when h has no Gram matrix at generator exponent u."""
    try:
        for row in pairing.table:
            for v in row:
                phi(u, v)
    except PrecisionError:
        return True
    return False


@st.composite
def block_pairings(draw, dead=st.just(False)):
    """Block pairings with one or two blocks: (p,k) in {(3,1),(3,2),(5,1)},
    ambient level 0-2, ambient dimension at most 27, each block constant
    any unit of Z/p^k; `dead` draws each block's dead flag."""
    p, k = draw(st.sampled_from([(3, 1), (3, 2), (5, 1)]))
    spec = RingSpec(p, k, 16)
    level = draw(st.integers(0, 2))
    block = st.builds(
        BlockSpec,
        level=st.integers(0, level),
        unit=st.sampled_from([c for c in range(1, p**k) if c % p]),
        swapped=st.booleans(),
        dead=dead,
    )
    blocks = draw(st.lists(block, min_size=1, max_size=2))
    assume(sum(b.ncomponents for b in blocks) * p**level <= 27)
    return BlockPairing(spec, blocks, level=level)


def raise_and_add(a, b):
    """a + b by raising both numerators to the larger level (times nu, a
    transfer) and normalising the sum."""
    n = max(a.level, b.level)
    a_up, b_up = (GroupRingElem(a.spec, n, transfer_coeffs(v.numerator.coeffs, a.spec.p**n)) for v in (a, b))
    return PoleElem(a.spec, n, a_up + b_up)


def blockwise_value(bp, x, y):
    """[x, y] as a sum of one normalised PoleElem per block, built from
    GroupRingElem folds, involutions and products."""
    spec, M = bp.spec, bp.module
    total = PoleElem.zero(spec)
    idx = 0
    for b in bp.blocks:
        if b.dead:
            idx += b.ncomponents
            continue
        xs = [M.component(x, idx + i).at_level(b.level) for i in range(b.ncomponents)]
        ys = [M.component(y, idx + i).at_level(b.level) for i in range(b.ncomponents)]
        if b.swapped:
            num = xs[0] * ys[1].involution() - xs[1] * ys[0].involution()
        else:
            num = xs[0] * ys[0].involution()
        total = raise_and_add(total, PoleElem(spec, b.level, scale_elem(num, b.unit)))
        idx += b.ncomponents
    return total


def entrywise_value(tp, x, y):
    """sum x_a * y_b * table[a][b], one scaled PoleElem per nonzero entry."""
    total = PoleElem.zero(tp.spec)
    for a, xa in enumerate(x):
        for b, yb in enumerate(y):
            if xa and yb:
                v = tp.table[a][b]
                total = raise_and_add(total, PoleElem(tp.spec, v.level, scale_elem(v.numerator, xa * yb)))
    return total


def raw_vectors(dim, m):
    """Vectors of residues mod m, not reduced against any relations."""
    return st.lists(st.integers(0, m - 1), min_size=dim, max_size=dim)


class TestPoleValuesInCoefficientSpace:
    """BlockPairing.value and TablePairing.value sum integer numerators and
    normalise once; they must agree with the sum of normalised poles."""

    @given(block_pairings(dead=st.booleans()), st.data())
    @settings(max_examples=120, deadline=None)
    def test_block_value_matches_blockwise_sum(self, pairing, data):
        M = pairing.module
        vecs = raw_vectors(M.dim, pairing.spec.modulus)
        for _ in range(4):
            x = data.draw(vecs, label="x")
            y = data.draw(vecs, label="y")
            assert pairing.value(x, y) == blockwise_value(pairing, x, y)

    @given(st.sampled_from([(3, 1, 2), (3, 2, 2), (5, 1, 1)]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_table_value_matches_entrywise_sum(self, pk, data):
        # entries at every level up to the ambient one, ambient rank <= 9
        p, k, top = pk
        spec = RingSpec(p, k, 16)
        level = data.draw(st.integers(0, top), label="level")
        ngens = data.draw(st.integers(1, 9 // p**level), label="ngens")
        M = FiniteLevelModule(spec, level, ngens)
        m = spec.modulus

        def pole():
            n = data.draw(st.integers(0, level), label="entry level")
            cs = data.draw(raw_vectors(p**n, m), label="numerator")
            return PoleElem(spec, n, GroupRingElem(spec, n, cs))

        table = [[pole() for _ in range(M.dim)] for _ in range(M.dim)]
        tp = TablePairing(M, table)
        for _ in range(3):
            x = data.draw(raw_vectors(M.dim, m), label="x")
            y = data.draw(raw_vectors(M.dim, m), label="y")
            assert tp.value(x, y) == entrywise_value(tp, x, y)


def assert_closed_form_table(pairing):
    basis = _basis(pairing.module.dim)
    table = pairing.table
    assert table == [[pairing.value(x, y) for y in basis] for x in basis]
    for row, x in zip(table, basis):
        for v, y in zip(row, basis):
            assert v == blockwise_value(pairing, x, y)


class TestClosedFormTable:
    """BlockPairing.table is built from c * gamma^((i-j) mod p^n) / omega_n
    on each live block; it must equal `value` and the blockwise sum on
    every basis pair."""

    @given(block_pairings(dead=st.booleans()))
    @settings(max_examples=120, deadline=None)
    def test_table_is_value_on_basis_pairs(self, pairing):
        assert_closed_form_table(pairing)

    @pytest.mark.parametrize(
        "p, k, level, blocks",
        [
            (3, 1, 2, [BlockSpec(1, 2, swapped=True), BlockSpec(0, 1)]),
            (3, 2, 2, [BlockSpec(1, 7, swapped=True), BlockSpec(1, 5, dead=True)]),
            (3, 2, 2, [BlockSpec(0, 4), BlockSpec(1, 8, swapped=True)]),
            (5, 1, 1, [BlockSpec(0, 3, swapped=True)]),
        ],
    )
    def test_level_above_every_block(self, p, k, level, blocks):
        assert_closed_form_table(BlockPairing(RingSpec(p, k, 16), blocks, level=level))


class TestMemoisedDerivedValue:
    """DerivedHeightPairing keeps one torsion preimage per Howell row of
    the stage; `value` must agree with a fresh solve whatever the call
    order."""

    @given(block_pairings(), st.integers(1, 3), st.sampled_from([1, 2]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_uncached_solve_in_any_order(self, pairing, r, u, data):
        h = HeightPairing(pairing, u=u)
        d = DerivedHeightPairing(h, r)
        assume(d.stage.order() <= 81)
        fails = phi_fails_on_basis(pairing, u)
        pairs = [(x, y) for x in d.stage.elements() for y in d.stage.gens()]
        for x, y in data.draw(st.permutations(pairs), label="call order"):
            if fails:
                with pytest.raises(PrecisionError):
                    d.value(x, y)
                continue
            v = d.value(x, y)
            assert 0 <= v < pairing.spec.modulus
            assert v == uncached_derived_value(d, x, y)

    def test_membership_checked_after_memoisation(self, spec31):
        h = HeightPairing(single_block(spec31))
        M = h.module
        t2 = elem_from_poly(M, [0, 0, 1])
        one = elem_from_poly(M, [1])
        d2 = DerivedHeightPairing(h, 2)
        d2.value(t2, t2)
        with pytest.raises(IwaheightsError, match="right argument"):
            d2.value(t2, one)
        with pytest.raises(IwaheightsError, match="left argument"):
            d2.value(one, t2)


class TestSplitK1Preimages:
    """On a split k = 1 module (every block module over F_p) the stage
    preimages are prefix sums: no solve and no action.  The values must
    still be those of a fresh solve (`uncached_derived_value`)."""

    @given(block_pairings().filter(lambda bp: bp.spec.k == 1), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matrix_matches_uncached_solve(self, pairing, r, data):
        d = DerivedHeightPairing(HeightPairing(pairing), r)
        els = d.stage.elements()
        assume(len(els) <= 243)
        xs = data.draw(st.lists(st.sampled_from(els), min_size=1, max_size=3), label="xs")
        ys = d.stage.gens() or [d.h.module.zero()]
        assert d.matrix(xs, ys) == [[uncached_derived_value(d, x, y) for y in ys] for x in xs]

    @given(block_pairings().filter(lambda bp: bp.spec.k == 1), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_construction_takes_no_solve_and_no_action(self, pairing, r):
        h = HeightPairing(pairing)
        refuse = mock.Mock(side_effect=AssertionError("solve or act called"))
        with (
            mock.patch.object(linalg, "solve_combination", refuse),
            mock.patch.object(FiniteLevelModule, "act", refuse),
        ):
            DerivedHeightPairing(h, r)
        assert refuse.call_count == 0


class TestGramMatrix:
    """h(x, y) is x^T G y (`height_coeff`) with G from the basis table, which
    must be phi_u of the pole value; when phi_u needs more precision than
    the ring cap holds on a basis value, G and every evaluation of h raise
    its `PrecisionError`."""

    @given(block_pairings(), st.sampled_from([1, 2]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_coeff_is_phi_of_value(self, pairing, u, data):
        h = HeightPairing(pairing, u=u)
        M = h.module
        m = h.spec.modulus
        draw_vec = st.lists(st.integers(0, m - 1), min_size=M.dim, max_size=M.dim)
        fails = phi_fails_on_basis(pairing, u)
        for _ in range(3):
            x = M.canon(data.draw(draw_vec, label="x"))
            y = M.canon(data.draw(draw_vec, label="y"))
            if fails:
                with pytest.raises(PrecisionError):
                    height_coeff(h, x, y)
            else:
                assert height_coeff(h, x, y) == pow(u, -1, m) * phi(u, pairing.value(x, y)) % m

    @pytest.mark.parametrize(
        "blocks",
        [[BlockSpec(2)], [BlockSpec(2, 2, swapped=True)], [BlockSpec(0), BlockSpec(2)]],
    )
    def test_precision_boundary_raises(self, blocks):
        # at u = 2 the level-2 basis values need more than cap 16, so
        # there is no Gram matrix and h raises phi_u's error
        pairing = BlockPairing(RingSpec(3, 2, 16), blocks, level=2)
        h = HeightPairing(pairing, u=2)
        d = DerivedHeightPairing(h, 1)
        gens = d.stage.gens()
        msg = "^cap 16 too small to re-express at generator exponent 2$"
        with pytest.raises(PrecisionError, match=msg):
            h.gram
        with pytest.raises(PrecisionError, match=msg):
            height_coeff(h, gens[0], gens[0])
        with pytest.raises(PrecisionError, match=msg):
            d.matrix(gens, gens)

    def test_ratio_class_built_once_per_level(self, spec31, monkeypatch):
        # eta re-expresses every basis value at u = 2 through the level-n
        # class of the generator ratio, which is built once per (n, u)
        ratio = poles.generator_ratio
        calls = []

        def spy(spec, n, u):
            calls.append((n, u))
            return ratio(spec, n, u)

        monkeypatch.setattr(poles, "generator_ratio", spy)
        poles._ratio_class.cache_clear()
        pairing = BlockPairing(spec31, [BlockSpec(0), BlockSpec(1)])
        gram = HeightPairing(pairing, u=2).gram
        levels = {v.level for row in pairing.table for v in row}
        assert levels == {0, 1}
        assert sorted(calls) == [(0, 2), (1, 2)]
        assert gram == HeightPairing(pairing, u=1).gram


class TestDerivedMatrix:
    """DerivedHeightPairing.matrix contracts each left preimage with the
    Gram matrix; each entry must be the per-pair value, whichever side is
    longer, and both kernel enumerations (one `matrix` call each) must
    match the per-pair loops.  Where the Gram matrix raises
    (`TestGramMatrix`), so does `matrix`."""

    @given(block_pairings(), st.integers(1, 3), st.sampled_from([1, 2]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_entries_match_uncached_solve(self, pairing, r, u, data):
        d = DerivedHeightPairing(HeightPairing(pairing, u=u), r)
        els = d.stage.elements()
        assume(len(els) <= 243)
        short = data.draw(st.lists(st.sampled_from(els), min_size=1, max_size=2), label="short")
        long = data.draw(
            st.lists(st.sampled_from(els), min_size=len(short) + 1, max_size=len(short) + 2),
            label="long",
        )
        fails = phi_fails_on_basis(pairing, u)
        for xs, ys in ((short, long), (long, short)):
            if fails:
                with pytest.raises(PrecisionError):
                    d.matrix(xs, ys)
            else:
                rows = d.matrix(xs, ys)
                assert rows == [[uncached_derived_value(d, x, y) for y in ys] for x in xs]

    def test_membership_errors_match_value(self, spec31):
        h = HeightPairing(single_block(spec31))
        M = h.module
        t2 = elem_from_poly(M, [0, 0, 1])
        one = elem_from_poly(M, [1])
        d2 = DerivedHeightPairing(h, 2)
        # xs no longer than ys, and xs longer
        for xs, ys in (([one], [t2, t2]), ([t2, one], [t2])):
            with pytest.raises(IwaheightsError, match="left argument is not in the stage-2"):
                d2.matrix(xs, ys)
        for xs, ys in (([t2], [t2, one]), ([t2, t2], [one])):
            with pytest.raises(IwaheightsError, match="right argument is not in the stage-2"):
                d2.matrix(xs, ys)

    @given(block_pairings(dead=st.booleans()), st.integers(1, 3), st.sampled_from([1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_kernels_match_per_pair_loops(self, pairing, r, u):
        d = DerivedHeightPairing(HeightPairing(pairing, u=u), r)
        assume(d.stage.order() <= 243)
        if phi_fails_on_basis(pairing, u):
            with pytest.raises(PrecisionError):
                d.left_kernel_elements()
            with pytest.raises(PrecisionError):
                d.right_kernel_elements()
        else:
            assert d.left_kernel_elements() == per_pair_left_kernel(d)
            assert d.right_kernel_elements() == per_pair_right_kernel(d)

    def test_stage_without_generators(self, spec31):
        # the kernel chain of one level-1 block ends at stage 4
        d = DerivedHeightPairing(HeightPairing(single_block(spec31)), 5)
        assert d.stage.gens() == []
        els = {tuple(v) for v in d.stage.elements()}
        assert d.right_kernel_elements() == els == d.left_kernel_elements()

    def test_zeros_keeps_canonical_forms(self):
        # Lambda_1/(3) over Z/9: the Howell row (1, 2, 0) of span{T} has
        # count 3, and its multiple 2 * (1, 2, 0) = (2, 4, 0) is not the
        # canonical form (2, 1, 0); the end-to-end kernel enumerations never
        # keep such a multiple, so `_zeros` is called on it directly
        spec = RingSpec(3, 2, 16)
        M = FiniteLevelModule(spec, 1, 1, [[[3]]])
        row = [1, 2, 0]
        assert M.submodule([list(M.T_class().coeffs)]).spanning_rows() == ([row], [3])
        poles = _monomial_poles(spec, 1, 3)
        table = [[poles[(i - j) % 3] for j in range(3)] for i in range(3)]
        tp = TablePairing(M, table, symmetry="iota_antisymmetric")
        tp.validate()
        d = DerivedHeightPairing(HeightPairing(tp), 1)
        assert d._zeros([row], [3], [[0]], 1) == {(0, 0, 0), (1, 2, 0), (2, 1, 0)}


class TestRestrictedKernels:
    def test_single_block_T_T(self, spec31):
        h = HeightPairing(single_block(spec31))
        rep = restricted_kernel_check(h, IwasawaPoly.T(spec31), IwasawaPoly.T(spec31))
        assert rep["left_match"] and rep["right_match"]
        # left kernel is all of M[T] = span{T^2} (h^(1) vanishes there)
        assert len(rep["left_kernel"]) == 3

    def test_unit_torsion_trivial(self, spec31):
        h = HeightPairing(single_block(spec31))
        rep = restricted_kernel_check(h, IwasawaPoly(spec31, [1]), IwasawaPoly.T(spec31))
        assert rep["left_kernel"] == [tuple(h.module.zero())]
        assert rep["left_match"] and rep["right_match"]

    def test_omega_torsion_full(self, spec31):
        h = HeightPairing(single_block(spec31))
        om = IwasawaPoly(spec31, [0, 0, 0, 1])
        rep = restricted_kernel_check(h, om, om)
        assert rep["left_match"] and rep["right_match"]

    def test_random_mod9(self, spec32):
        h = HeightPairing(single_block(spec32))
        rep = restricted_kernel_check(h, IwasawaPoly.T(spec32), IwasawaPoly.T(spec32))
        assert rep["left_match"] and rep["right_match"]


class TestTwistEquivariance:
    def test_identity_trivial(self, spec31):
        h = HeightPairing(single_block(spec31))
        M = h.module
        ident = [[int(i == j) for j in range(M.dim)] for i in range(M.dim)]
        assert twist_equivariance_check(h, ident, ident, 1) is True

    def test_anticyclotomic_toy_single_block(self, spec31):
        # sigma pair (iota, -iota) realises the omega = -1 twist
        h = HeightPairing(single_block(spec31))
        M = h.module
        assert (
            twist_equivariance_check(h, iota_matrix(M, 1), iota_matrix(M, -1), -1)
            is True
        )

    def test_level_zero_swap_toy(self, spec31):
        # two level-0 blocks with constants (1, -1) and tau = swap
        bp = BlockPairing(spec31, [BlockSpec(0, 1), BlockSpec(0, -1)])
        h = HeightPairing(bp)
        swap = [[0, 1], [1, 0]]
        assert twist_equivariance_check(h, swap, swap, -1) is True

    def test_plain_iota_pair_fails_minus_one(self, spec31):
        # (iota, iota) conjugates correctly but has the wrong sign
        h = HeightPairing(single_block(spec31))
        M = h.module
        assert (
            twist_equivariance_check(h, iota_matrix(M, 1), iota_matrix(M, 1), -1)
            is False
        )

    def test_dead_blocks_are_the_first_kernel(self, spec31):
        # level-0 toys: a nondegenerate pair that the twist tau swaps, plus
        # dp dead blocks that tau fixes and dm that it negates, so tau is
        # equivariant with sign -1; at level 0 only the dead (zero-pairing)
        # directions are degenerate, and ker h^(1) has dimension exactly
        # dp + dm
        for dp, dm in [(0, 0), (1, 0), (2, 0), (1, 1)]:
            blocks = [BlockSpec(0, 1), BlockSpec(0, -1)] + [BlockSpec(0, dead=True) for _ in range(dp + dm)]
            h = HeightPairing(BlockPairing(spec31, blocks))
            dim = h.module.dim
            tau = [[0] * dim for _ in range(dim)]
            tau[0][1] = tau[1][0] = 1
            for t in range(2, dim):
                tau[t][t] = 1 if t < 2 + dp else -1 % 3
            assert twist_equivariance_check(h, tau, tau, -1) is True
            kernel = DerivedHeightPairing(h, 1).left_kernel_elements()
            assert log_p(len(kernel), 3) == dp + dm, (dp, dm)

    def test_non_automorphism_rejected(self, spec31):
        h = HeightPairing(single_block(spec31))
        M = h.module
        bad = [[0] * M.dim for _ in range(M.dim)]
        with pytest.raises(IwaheightsError):
            twist_equivariance_check(h, bad, bad, 1)

    def test_non_conjugating_rejected(self, spec31):
        h = HeightPairing(single_block(spec31))
        M = h.module
        ident = [[int(i == j) for j in range(M.dim)] for i in range(M.dim)]
        with pytest.raises(IwaheightsError):
            twist_equivariance_check(h, ident, ident, -1)


class TestTablePairing:
    def test_table_reproduces_block(self, spec31):
        bp = single_block(spec31)
        M = bp.module
        table = [
            [
                bp.value(
                    [int(c == a) for c in range(M.dim)],
                    [int(c == b) for c in range(M.dim)],
                )
                for b in range(M.dim)
            ]
            for a in range(M.dim)
        ]
        tp = TablePairing(M, table, symmetry="iota_antisymmetric")
        tp.validate()
        rng = random.Random(11)
        for _ in range(20):
            x = M.canon([rng.randrange(3) for _ in range(M.dim)])
            y = M.canon([rng.randrange(3) for _ in range(M.dim)])
            assert tp.value(x, y) == bp.value(x, y)

    def test_tampered_table_fails_validation(self, spec31):
        bp = single_block(spec31)
        M = bp.module
        table = [
            [
                bp.value(
                    [int(c == a) for c in range(M.dim)],
                    [int(c == b) for c in range(M.dim)],
                )
                for b in range(M.dim)
            ]
            for a in range(M.dim)
        ]
        table[0][0] = raise_and_add(table[0][0], PoleElem(spec31, 1, GroupRingElem.one(spec31, 1)))
        tp = TablePairing(M, table, symmetry="iota_antisymmetric")
        with pytest.raises(IwaheightsError):
            tp.validate()

    @pytest.mark.parametrize(
        "cut",
        [lambda t: [row[:-1] for row in t], lambda t: t[:-1]],
        ids=["short-rows", "missing-row"],
    )
    def test_wrong_shape_rejected(self, spec31, cut):
        bp = single_block(spec31)
        with pytest.raises(ValueError, match="wrong shape"):
            TablePairing(bp.module, cut(bp.table))


def shift_validate(pairing) -> None:
    """The value-based check that `validate_pole_pairing` replaced: the
    pairing kills every Howell relation row on both sides, [T e_a, e_b] =
    T [e_a, e_b] = [e_a, iota(T) e_b] with `value` on the shifted vectors
    (`act` reduces them against the relations), and the declared symmetry
    holds on every pair."""
    M = pairing.module
    table = pairing.table
    basis = [tuple(int(c == a) for c in range(M.dim)) for a in range(M.dim)]
    for rel in M.rel_rows:
        for e in basis:
            if not (pairing.value(rel, e).is_zero() and pairing.value(e, rel).is_zero()):
                raise IwaheightsError("pairing does not vanish on relations")
    t = M.T_class()
    shifted = [M.act(t.involution(), y) for y in basis]
    for a, x in enumerate(basis):
        tx = M.act(t, x)
        for b, y in enumerate(basis):
            mid = act_group(table[a][b], t)
            if pairing.value(tx, y) != mid or pairing.value(x, shifted[b]) != mid:
                raise IwaheightsError("pairing is not semilinear")
    sym = pairing.declared_symmetry()
    if sym in ("iota_symmetric", "iota_antisymmetric", "zero"):
        for a in range(M.dim):
            for b in range(M.dim):
                w = pole_involution(table[b][a])
                want = PoleElem.zero(M.spec) if sym == "zero" else w if sym == "iota_symmetric" else -w
                if table[a][b] != want:
                    raise IwaheightsError(f"declared symmetry {sym} fails")


def verdict(check, pairing):
    """None when the check accepts the pairing, else its error message."""
    try:
        check(pairing)
    except IwaheightsError as e:
        return str(e)
    return None


class TestEquivarianceValidation:
    """`validate_pole_pairing` reads semilinearity off the table as
    gamma-equivariance and checks the presentation rows of the relations;
    it must accept and reject exactly what `shift_validate` does."""

    @pytest.mark.parametrize("side", ["row", "column"])
    def test_one_sided_equivariance_rejected(self, spec31, side):
        # gamma times row 0 keeps [e_a, gamma^(-1) e_b] = gamma [e_a, e_b]
        # and breaks [gamma e_a, e_b] = gamma [e_a, e_b]; gamma times
        # column 0 does the converse.  No symmetry is declared, so only
        # the semilinearity check can reject.
        bp = single_block(spec31)
        g = bp.module.gamma_class()
        table = [list(row) for row in bp.table]
        if side == "row":
            table[0] = [act_group(v, g) for v in table[0]]
        else:
            for row in table:
                row[0] = act_group(row[0], g)
        tp = TablePairing(bp.module, table)
        assert verdict(validate_pole_pairing, tp) == "pairing is not semilinear"
        assert verdict(shift_validate, tp) == "pairing is not semilinear"

    @given(block_pairings(dead=st.booleans()), st.sampled_from(["none", "entry", "column", "relation"]), st.data())
    @settings(max_examples=120, deadline=None)
    def test_same_verdict_as_shift_check(self, pairing, mutation, data):
        spec, M = pairing.spec, pairing.module
        if mutation == "none":
            assert verdict(validate_pole_pairing, pairing) is None
            assert verdict(shift_validate, pairing) is None
            return
        table = [list(row) for row in pairing.table]
        symmetry = pairing.declared_symmetry()
        if mutation == "entry":
            # add a nonzero pole at a level up to the ambient one
            a = data.draw(st.integers(0, M.dim - 1), label="a")
            b = data.draw(st.integers(0, M.dim - 1), label="b")
            n = data.draw(st.integers(0, M.level), label="level")
            cs = data.draw(raw_vectors(spec.p**n, spec.modulus).filter(any), label="numerator")
            table[a][b] = raise_and_add(table[a][b], PoleElem(spec, n, GroupRingElem(spec, n, cs)))
        elif mutation == "column":
            # gamma times one column keeps [gamma e_a, e_b] = gamma [e_a, e_b]
            # and breaks the right-hand identity where gamma moves an entry
            b = data.draw(st.integers(0, M.dim - 1), label="b")
            for row in table:
                row[b] = act_group(row[b], M.gamma_class())
        else:
            # the table of the same blocks, all raised to the ambient level
            # and live: gamma-equivariant, but nonzero on every relation
            assume(M.rel_gens)
            free = BlockPairing(spec, [BlockSpec(M.level, b.unit, b.swapped) for b in pairing.blocks])
            table = free.table
            symmetry = free.declared_symmetry()
        tp = TablePairing(M, table, symmetry=symmetry)
        got = verdict(validate_pole_pairing, tp)
        assert (got is None) == (verdict(shift_validate, tp) is None)
        if mutation == "entry" and M.level > 0:
            assert got == "pairing is not semilinear"
        if mutation == "relation":
            assert got is not None and got.startswith("pairing does not vanish on relation")

    def test_relation_check_reads_generator_rows(self, monkeypatch):
        # given gamma-equivariance, each relation row is checked against the
        # first basis vector of each generator only, on both sides
        text = (Path(__file__).resolve().parent.parent / "instances" / "two_block_mixed_f3.json").read_text()
        pairing = _build_pairing(parse_instance(text), DEFAULT_ENUM_CAP)
        M = pairing.module
        value = BlockPairing.value
        calls = []

        def spy(self, x, y):
            calls.append((tuple(x), tuple(y)))
            return value(self, x, y)

        monkeypatch.setattr(BlockPairing, "value", spy)
        pairing.validate()
        assert M.rel_gens and M.ngens < M.dim
        assert len(calls) == 2 * len(M.rel_gens) * M.ngens
