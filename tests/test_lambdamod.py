"""Finite-level modules: torsion, filtrations, norms, shapes, ranks.

The enumeration oracle is exhaustive iteration over module elements; the
fast paths are Howell-based.  Both are compared on every desk-scale case.
"""

import json
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iwaheights import linalg
from iwaheights.errors import EnumerationCapError
from iwaheights.heights import BlockPairing, BlockSpec, HeightPairing, block_module
from iwaheights.instancefile import parse_instance
from iwaheights.iwalg import GroupRingElem, RingSpec
from iwaheights.lambdamod import (
    MAX_RANK,
    ElementaryShape,
    FiniteLevelModule,
    _ideal_rows,
    infer_invariants,
    log_p,
    odd_even_multiplicities,
    shape_dims,
    t_valuation,
)
from iwaheights.lfun import build_synthetic
from iwaheights.poles import norm_class
from tests.conftest import (
    closure_elements,
    from_components,
    full_submodule,
    matvec,
    module_from_shape,
    norm_image_intersection,
    whole_module_torsion,
)
from tests.test_perfbench_reports import load_workloads


def lambda_block(spec, level, nblocks=1, enum_cap=3**10):
    """The free rank-nblocks module over the level group ring."""
    return FiniteLevelModule(spec, level, nblocks, [], enum_cap=enum_cap)


def brute_torsion(M, f_class):
    return {v for v in M.elements() if not any(M.act(f_class, v))}


def units(spec):
    """Every unit 1 <= u < p^k."""
    return [u for u in range(1, spec.modulus) if spec.is_unit(u)]


def checked_stages(M, r_max):
    """The stages M^(1), ..., M^(r_max), after checking that each does not
    depend on the generator (the image under (gamma^u - 1)^(r-1) is the
    same for every unit u) and that they decrease."""
    stages = [M.filtration_stage(r) for r in range(1, r_max + 1)]
    for r, stage in enumerate(stages, 1):
        for u in units(M.spec):
            assert stage == matrix_filtration_stage(M, r, u), f"stage {r} depends on the generator"
    for big, small in zip(stages, stages[1:]):
        assert all(big.contains(v) for v in small.hrows), "stages fail to decrease"
    return stages


def delta_orders(M, r_max):
    """|M[J^r] / M[J^(r-1)]| for r = 1..r_max."""
    orders = [1] + [M.j_torsion(r).order() for r in range(1, r_max + 1)]
    return [b // a for a, b in zip(orders, orders[1:])]


class TestModuleBasics:
    def test_sizes(self, spec31, spec32):
        assert lambda_block(spec31, 1).size == 27
        assert lambda_block(spec32, 1).size == 729
        assert lambda_block(spec31, 1, 2).size == 729

    def test_rank_cap(self):
        # rank 3^5 = 243 is admitted; one more generator or level is
        # refused before any relation row is built
        spec = RingSpec(3, 1, 300)
        assert MAX_RANK == 256
        assert FiniteLevelModule(spec, 5, 1).dim == 243
        for level, ngens in ((5, 2), (6, 1)):
            with pytest.raises(EnumerationCapError, match="above the cap 256"):
                FiniteLevelModule(spec, level, ngens, [[[0, 1]] * ngens])

    def test_quotient_size(self, spec31):
        # Lambda_1 / (T) over F_3 is O
        M = FiniteLevelModule(spec31, 1, 1, [[[0, 1]]])
        assert M.size == 3

    def test_elements_are_canonical_and_distinct(self, spec31):
        M = FiniteLevelModule(spec31, 1, 1, [[[0, 1]]])
        els = M.elements()
        assert len(els) == M.size
        assert all(M.canon(v) == v for v in els)

    def test_action_respects_relations(self, spec32):
        # gamma acts trivially on Lambda_1/(T)
        M = FiniteLevelModule(spec32, 1, 1, [[[0, 1]]])
        for v in M.elements():
            assert M.act(M.gamma_class(), v) == v

    def test_cap_guard(self, spec31):
        M = lambda_block(spec31, 1, enum_cap=10)
        with pytest.raises(EnumerationCapError):
            M.elements()


class TestTorsion:
    def test_T_torsion_of_level1_block(self, spec31):
        # Lambda_1 over F_3 is F_3[T]/(T^3); the T-torsion is spanned by T^2
        M = lambda_block(spec31, 1)
        tor = M.j_torsion(1)
        t2 = from_components(M, [GroupRingElem.from_poly_coeffs(spec31, 1, [0, 0, 1])])
        assert tor.order() == 3
        assert tor.contains(t2)

    def test_unit_torsion_trivial(self, spec31):
        M = lambda_block(spec31, 1)
        assert M.j_torsion(0).order() == 1

    def test_omega_torsion_everything(self, spec31):
        M = lambda_block(spec31, 1)
        # omega_1 = (1 + T)^3 - 1 = T^3 mod 3
        assert M.j_torsion(3).order() == M.size

    def test_torsion_against_enumeration(self, spec31, spec32):
        rng = random.Random(3)
        for spec in (spec31, spec32):
            M = lambda_block(spec, 1)
            for r in range(6):
                fast = M.j_torsion(r)
                assert {tuple(v) for v in fast.elements()} == brute_torsion(M, M.T_class() ** r)
            # the oracle of j_torsion, at elements that are not powers of T
            for _ in range(6):
                f = GroupRingElem(spec, 1, [rng.randrange(spec.modulus) for _ in range(3)])
                assert {tuple(v) for v in whole_module_torsion(M, f).elements()} == brute_torsion(M, f)


class TestJFiltration:
    def test_level1_block_mod3(self, spec31):
        # frozen expectations for F_3[T]/(T^3):
        #   M^(1) = M^(2) = M^(3) = span{T^2}, M^(4) = 0
        #   delta orders (3, 3, 3, 1)
        M = lambda_block(spec31, 1)
        stages = checked_stages(M, 4)
        t2 = from_components(M, [GroupRingElem.from_poly_coeffs(spec31, 1, [0, 0, 1])])
        for r in (1, 2, 3):
            assert stages[r - 1].order() == 3
            assert stages[r - 1].contains(t2)
        assert stages[3].order() == 1
        assert delta_orders(M, 4) == [3, 3, 3, 1]

    def test_trivial_module_filtration(self, spec31):
        M = FiniteLevelModule(spec31, 1, 1, [[[0, 1]]])  # Lambda/J = O
        stages = checked_stages(M, 2)
        assert stages[0].order() == 3
        assert stages[1].order() == 1

    def test_zero_module(self, spec31):
        M = FiniteLevelModule(spec31, 1, 1, [[[1]]])
        assert all(stage.order() == 1 for stage in checked_stages(M, 3))

    def test_stage_against_enumeration(self, spec31):
        M = lambda_block(spec31, 1)
        els = M.elements()
        tcl = M.T_class()
        for r in (1, 2, 3, 4):
            # oracle: M[J^r] by enumeration, then (gamma-1)^(r-1) images
            tor = set(els)
            x = GroupRingElem.one(spec31, 1)
            for _ in range(r):
                x = x * tcl
            tor = {v for v in els if not any(M.act(x, v))}
            y = GroupRingElem.one(spec31, 1)
            for _ in range(r - 1):
                y = y * tcl
            imgs = {M.act(y, v) for v in tor}
            stage = checked_stages(M, r)[-1]
            assert {tuple(v) for v in stage.elements()} == imgs

    def test_stages_start_at_one(self, spec31, spec32):
        # the k = 1 closed form reads no power of gamma - 1 that would refuse r < 1
        for spec in (spec31, spec32):
            with pytest.raises(ValueError, match="starts at r = 1"):
                lambda_block(spec, 1).filtration_stage(0)

    def test_generator_independence_enforced(self, spec31, spec32):
        for spec in (spec31, spec32):
            M = lambda_block(spec, 1)
            checked_stages(M, 3)

    def test_delta_orders_multiply(self, spec32):
        M = lambda_block(spec32, 1)
        checked_stages(M, 6)
        prod = 1
        for d in delta_orders(M, 6):
            prod *= d
        assert prod == M.j_torsion(6).order()


@st.composite
def norm_modules(draw, ks=(1, 2, 3)):
    """A module at p in {3, 5}, k in `ks`, level 0-2 and one or two
    generators (ambient O-rank at most 50, under MAX_RANK), with split
    relations (at most one per generator, supported on it) or mixed ones
    (up to two random rows over all generators)."""
    p = draw(st.sampled_from([3, 5]))
    spec = RingSpec(p, draw(st.sampled_from(ks)), 12)
    level = draw(st.integers(0, 2))
    ngens = draw(st.integers(1, 2))
    n = p**level
    elem = st.lists(st.integers(0, spec.modulus - 1), min_size=n, max_size=n)
    zero = [0] * n
    if draw(st.booleans(), label="split"):
        rels = [draw(st.one_of(st.none(), elem), label=f"relation {i}") for i in range(ngens)]
        relations = [[r if j == i else zero for j in range(ngens)] for i, r in enumerate(rels) if r is not None]
    else:
        relations = draw(st.lists(st.lists(elem, min_size=ngens, max_size=ngens), max_size=2))
    return FiniteLevelModule(spec, level, ngens, relations)


class TestImages:
    """`images` builds x * v for every element from the images of the basis
    vectors; the oracle is one `act` per element."""

    @given(norm_modules(ks=(1, 2)), st.data())
    @settings(max_examples=100, deadline=None)
    def test_images_match_act_per_element(self, M, data):
        assume(M.size <= 3**7)
        spec = M.spec
        kind = data.draw(st.sampled_from(["T", "norm", "random"]), label="x")
        if kind == "T":
            x = M.T_class()
        elif kind == "norm":
            x = norm_class(spec, data.draw(st.integers(0, M.level + spec.k + 1), label="n"), M.level)
        else:
            x_level = data.draw(st.integers(0, 2), label="x_level")
            coeffs = st.lists(st.integers(0, spec.modulus - 1), min_size=spec.p**x_level, max_size=spec.p**x_level)
            x = GroupRingElem(spec, x_level, data.draw(coeffs, label="coeffs"))
        assert list(M.images(x)) == [M.act(x, v) for v in M.elements()]

    def test_combinations_are_canonicalised(self, spec32):
        # Lambda_1/(3T) over Z/9 has relation pivots 3: a sum of canonical
        # images can leave [0, 3) in a pivot column and must be reduced again
        M = FiniteLevelModule(spec32, 1, 1, [[[0, 3, 0]]])
        assert M.col_sizes == [3, 3, 9]
        for x in (M.T_class(), M.gamma_class()):
            assert list(M.images(x)) == [M.act(x, v) for v in M.elements()]

    def test_cap_guard(self, spec31):
        M = lambda_block(spec31, 1, enum_cap=10)
        with pytest.raises(EnumerationCapError, match="module has 27 elements, above the cap 10"):
            M.images(M.T_class())


class TestUniversalNorms:
    def test_level1_block_is_zero(self, spec31):
        M = lambda_block(spec31, 1)
        assert M.universal_norms().order() == 1

    def test_trivial_module_zero(self, spec31, spec32):
        for spec in (spec31, spec32):
            M = FiniteLevelModule(spec, 1, 1, [[[0, 1]]])
            assert M.universal_norms().order() == 1

    def test_zero_module(self, spec31):
        M = FiniteLevelModule(spec31, 1, 1, [[[1]]])
        assert M.universal_norms().order() == 1

    def test_against_distinguished_divisor_oracle(self, spec31):
        # k = 1: cross-check against the intersection of f*M over nonzero f
        # of degree <= 4 (f distinguished iff f != 0 when k = 1)
        M = lambda_block(spec31, 1)
        els = set(M.elements())
        inter = els
        for code in range(1, 3**5):
            cs = [(code // 3**i) % 3 for i in range(5)]
            f = GroupRingElem.from_poly_coeffs(
                spec31, 1, [c % 3 for c in _reduce_poly_mod_omega(cs)]
            )
            img = {M.act(f, v) for v in els}
            inter = inter & img
        fast = {tuple(v) for v in M.universal_norms().elements()}
        assert fast == inter

    def test_k2_iterates_past_level(self, spec32):
        # Lambda/J over Z/9: g_1 M = 3M, g_2 M = 0; the oracle's
        # intersection must keep iterating past n = 1 to reach 0
        M = FiniteLevelModule(spec32, 1, 1, [[[0, 1]]])
        assert norm_image_intersection(M).order() == 1

    @given(norm_modules())
    @settings(max_examples=120, deadline=None)
    def test_closed_form_matches_norm_images(self, M):
        assert norm_image_intersection(M) == M.universal_norms() == M.zero_submodule()


def _reduce_poly_mod_omega(cs):
    # oracle helper: T^3 = omega_1 = 0 over F_3 at level 1, so truncate
    out = list(cs[:3])
    return out + [0] * (3 - len(out))


class TestShapes:
    def test_shape_dims_example(self):
        shape = ElementaryShape(1, ((1, 1), (2, 2)))
        assert shape_dims(shape, 5) == [4, 3, 1, 1, 1]

    def test_free_part_persists(self):
        assert shape_dims(ElementaryShape(2), 4) == [2, 2, 2, 2]

    def test_empty(self):
        assert shape_dims(ElementaryShape(0), 3) == [0, 0, 0]

    def test_coprime_part_ignored(self):
        shape = ElementaryShape(1, ((1, 1),), ((1, 1),))
        assert shape_dims(shape, 2) == [2, 1]

    def test_infer_example(self):
        prof = infer_invariants([4, 3, 1, 1])
        assert prof.e == (1, 2, 0)
        assert prof.e_infinity == 1

    def test_infer_constant(self):
        prof = infer_invariants([2, 2, 2])
        assert prof.e == (0, 0)
        assert prof.e_infinity == 2

    def test_infer_simple(self):
        prof = infer_invariants([1, 0, 0])
        assert prof.e == (1, 0)
        assert prof.e_infinity == 0

    def test_infer_rejects_increase(self):
        with pytest.raises(ValueError):
            infer_invariants([1, 2])

    def test_infer_rejects_unstabilised(self):
        with pytest.raises(ValueError):
            infer_invariants([3, 2, 1])

    def test_round_trip_all_small_shapes(self):
        # multiplicities <= 3, block sizes <= 4
        for e_inf in range(4):
            for e1 in range(4):
                for e2 in range(4):
                    for e3 in range(4):
                        for e4 in range(4):
                            blocks = tuple(
                                (i, e)
                                for i, e in ((1, e1), (2, e2), (3, e3), (4, e4))
                                if e
                            )
                            shape = ElementaryShape(e_inf, blocks)
                            dims = shape_dims(shape, 6)
                            prof = infer_invariants(dims)
                            assert prof.e == (e1, e2, e3, e4, 0)
                            assert prof.e_infinity == e_inf

    def test_presented_shape_reproduces_pattern(self, spec31):
        # (Lambda/J) + (Lambda/J^2)^2 at level 1 over F_3: delta orders
        # should show dims (3, 2) in degrees 1 and 2
        shape = ElementaryShape(0, ((1, 1), (2, 2)))
        M = module_from_shape(spec31, 1, shape)
        checked_stages(M, 3)
        assert delta_orders(M, 3) == [27, 9, 1]

    def test_presented_free_block_degenerates(self, spec31):
        # a free block at level 1 looks like Lambda/J^3 = F_3[T]/T^3
        shape = ElementaryShape(1)
        M = module_from_shape(spec31, 1, shape)
        checked_stages(M, 4)
        assert delta_orders(M, 4) == [3, 3, 3, 1]

    def test_large_j_block_degenerates_like_free(self, spec31):
        # Lambda/J^5 at level 1 truncates identically to a free block
        big = module_from_shape(spec31, 1, ElementaryShape(0, ((5, 1),)))
        free = module_from_shape(spec31, 1, ElementaryShape(1))
        checked_stages(big, 4)
        checked_stages(free, 4)
        assert delta_orders(big, 4) == delta_orders(free, 4)


class TestOddEvenMultiplicities:
    def test_pass_case(self):
        assert odd_even_multiplicities([0, 2]) == ()

    def test_flag_case(self):
        assert odd_even_multiplicities([1, 1]) == (2,)

    def test_empty(self):
        assert odd_even_multiplicities([]) == ()


@pytest.mark.parametrize(
    "n, p, e",
    [(1, 3, 0), (3, 3, 1), (3**7, 3, 7), (5**4, 5, 4), (18, 3, None), (2, 3, None), (0, 3, None)],
)
def test_log_p_is_exact(n, p, e):
    assert log_p(n, p) == e


@st.composite
def modules(draw):
    """A small finite-level module: (p,k) in {(3,1),(3,2),(5,1)}, level
    0-2, one or two generators, and at most one random relation row."""
    p, k = draw(st.sampled_from([(3, 1), (3, 2), (5, 1)]))
    spec = RingSpec(p, k, 12)
    level = draw(st.integers(0, 2))
    ngens = 1 if p**level > 9 else draw(st.integers(1, 2))
    coeff = st.integers(0, spec.modulus - 1)
    relations = draw(
        st.lists(
            st.lists(st.lists(coeff, min_size=p**level, max_size=p**level), min_size=ngens, max_size=ngens),
            max_size=1,
        )
    )
    return FiniteLevelModule(spec, level, ngens, relations)


def matrix_filtration_stage(M, r, u):
    """M^(r) by the action matrix: (gamma^u - 1)^(r-1) built by repeated
    products, applied to each generator of M[J^r] with matvec."""
    one = GroupRingElem.one(M.spec, M.level)
    tu = GroupRingElem.gamma(M.spec, M.level, u) - one
    x = one
    for _ in range(r - 1):
        x = x * tu
    A = M.action_matrix(x)
    return M.submodule(matvec(A, list(g), M.spec.modulus) for g in M.j_torsion(r).hrows)


@st.composite
def group_ring_elems(draw):
    """An element of the level 0-2 group ring over Z/p^k, (p,k) as in
    modules()."""
    p, k = draw(st.sampled_from([(3, 1), (3, 2), (5, 1)]))
    spec = RingSpec(p, k, 12)
    level = draw(st.integers(0, 2))
    coeffs = draw(st.lists(st.integers(0, spec.modulus - 1), min_size=p**level, max_size=p**level))
    return GroupRingElem(spec, level, coeffs)


class TestFastPathsAgainstOracles:
    """act() convolves each generator's block with x; the oracle is the
    explicit action matrix.  j_torsion(r) is cached per r; the oracle is
    the whole-module solve `whole_module_torsion`.  filtration_stage is
    compared with the power of (gamma^u - 1), for any unit u, built by
    repeated products and applied by its action matrix."""

    @given(modules(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_act_matches_action_matrix(self, M, data):
        spec = M.spec
        x_level = data.draw(st.integers(0, 2), label="x_level")
        x = GroupRingElem(
            spec,
            x_level,
            data.draw(st.lists(st.integers(0, spec.modulus - 1), min_size=spec.p**x_level, max_size=spec.p**x_level)),
        )
        v = data.draw(st.lists(st.integers(0, spec.modulus - 1), min_size=M.dim, max_size=M.dim))
        want = M.canon(matvec(M.action_matrix(x), v, spec.modulus))
        assert M.act(x, v) == want

    @given(modules(), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_j_torsion_matches_torsion(self, M, r):
        t = M.T_class()
        x = GroupRingElem.one(M.spec, M.level)
        for _ in range(r):
            x = x * t
        first = M.j_torsion(r)
        assert first == whole_module_torsion(M, x)
        assert M.j_torsion(r) is first

    @given(modules(), st.integers(1, 3), st.data())
    @settings(max_examples=80, deadline=None)
    def test_filtration_stage_matches_matrix_image(self, M, r, data):
        u = data.draw(st.sampled_from(units(M.spec)), label="u")
        assert M.filtration_stage(r).hrows == matrix_filtration_stage(M, r, u).hrows

    @given(modules(), st.lists(st.integers(1, 3), min_size=1, max_size=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_filtration_stage_cached_per_r(self, M, rs, data):
        # stages of other r built in between must not disturb the cache
        for r in rs:
            u = data.draw(st.sampled_from(units(M.spec)), label="u")
            stage = M.filtration_stage(r)
            assert stage.hrows == matrix_filtration_stage(M, r, u).hrows
            assert M.filtration_stage(r) is stage

    @given(group_ring_elems(), st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    def test_group_ring_power_is_repeated_product(self, x, e):
        want = GroupRingElem.one(x.spec, x.level)
        for _ in range(e):
            want = want * x
        assert x**e == want
        assert x**0 == GroupRingElem.one(x.spec, x.level)
        with pytest.raises(ValueError):
            x ** -1


@st.composite
def direct_sums(draw):
    """A direct sum of two to four summands Lambda_N/(f_i): a block module
    (f_i = omega_(n_i), two per swapped block, none at the ambient level)
    or a shape module (T^i blocks, free blocks, one coprime block), at
    (p,k) in {(3,1),(3,2),(5,1)}, level 0-2 and ambient O-rank <= 36."""
    p, k = draw(st.sampled_from([(3, 1), (3, 2), (5, 1)]))
    spec = RingSpec(p, k, 16)
    level = draw(st.integers(0, 2 if p == 3 else 1))
    if draw(st.booleans(), label="block module"):
        block = st.builds(BlockSpec, level=st.integers(0, level), swapped=st.booleans())
        blocks = draw(st.lists(block, min_size=1, max_size=3))
        M = block_module(spec, blocks, level=level)
    else:
        j_blocks = draw(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 2)), max_size=2))
        unit = st.integers(1, spec.modulus - 1).filter(lambda c: c % p)
        tail = st.lists(st.integers(0, spec.modulus - 1), max_size=min(1, level))
        coprime = draw(st.lists(st.builds(lambda c, t: (c, *t), unit, tail), max_size=1))
        e_inf = draw(st.integers(0, 2))
        M = module_from_shape(spec, level, ElementaryShape(e_inf, tuple(j_blocks), tuple(coprime)))
    assume(2 <= M.ngens and M.dim <= 36)
    return M


def spy_preimage_span(monkeypatch):
    """The widths (ncols) `linalg.preimage_span` is called with, in call
    order."""
    widths = []
    general = linalg.preimage_span

    def spy(mat, span_rows, ncols, p, k):
        widths.append(ncols)
        return general(mat, span_rows, ncols, p, k)

    monkeypatch.setattr(linalg, "preimage_span", spy)
    return widths


@st.composite
def split_k1_modules(draw):
    """A k = 1 module with at most one relation per generator, each
    supported on its own generator: p in {3, 5, 7}, level 0-2, one to
    three generators (ambient O-rank <= 50), each relation omega_n
    (n <= level, and omega_level is 0), a random element, or none."""
    p = draw(st.sampled_from([3, 5, 7]))
    spec = RingSpec(p, 1, 16)
    level = draw(st.integers(0, 2))
    n = p**level
    ngens = draw(st.integers(1, max(1, min(3, 50 // n))))
    zero = GroupRingElem.zero(spec, level)
    relations = []
    for i in range(ngens):
        kind = draw(st.sampled_from(["omega_n", "random", "none"]), label="relation")
        if kind == "none":
            continue
        if kind == "omega_n":
            rel = GroupRingElem.gamma(spec, level, p ** draw(st.integers(0, level))) - GroupRingElem.one(spec, level)
        else:
            rel = GroupRingElem(spec, level, draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
        relations.append([rel if j == i else zero for j in range(ngens)])
    return FiniteLevelModule(spec, level, ngens, relations)


@st.composite
def mixed_modules(draw):
    """A module with mixed relations: two generators and one or two random
    relation rows, the first with a nonzero entry on each generator, at
    (p,k) in {(3,1),(3,2),(5,1)} and level 0-2 (ambient O-rank <= 18)."""
    p, k = draw(st.sampled_from([(3, 1), (3, 2), (5, 1)]))
    spec = RingSpec(p, k, 16)
    level = draw(st.integers(0, 2 if p == 3 else 1))
    elem = st.lists(st.integers(0, spec.modulus - 1), min_size=p**level, max_size=p**level)
    mixed = draw(st.lists(elem.filter(any), min_size=2, max_size=2), label="mixed relation")
    relations = draw(st.lists(st.lists(elem, min_size=2, max_size=2), max_size=1))
    M = FiniteLevelModule(spec, level, 2, [mixed] + relations)
    assert M._summands is None
    return M


class TestStagePreimages:
    """stage_preimages(r) pulls each Howell row of the stage back through
    (gamma - 1)^(r-1) inside M[J^r]: by prefix sums on a split k = 1
    module, by one batched solve at k > 1 and with mixed relations.  A row
    and its preimage are checked against the definition, by `act` and by
    membership in `j_torsion(r)`."""

    @given(st.one_of(split_k1_modules(), direct_sums(), mixed_modules()), st.data())
    @settings(max_examples=150, deadline=None)
    def test_preimage_is_torsion_and_maps_to_its_row(self, M, data):
        # r up to p^N + 1 passes every summand's exponent v_i, so relation
        # rows (v_i < r) and free summands both appear
        r = data.draw(st.integers(1, M.block + 1), label="r")
        shift = M.T_class() ** (r - 1)
        rows, tor = M.filtration_stage(r).hrows, M.j_torsion(r)
        preimages = M.stage_preimages(r)
        assert len(preimages) == len(rows)
        for s, w in zip(rows, preimages):
            assert all(0 <= a < M.spec.modulus for a in w)
            assert M.act(shift, w) == M.canon(s)
            assert tor.contains(w)

    def test_relation_rows_pull_back_to_zero(self, spec31):
        # level-0 and level-1 blocks and a free block at level 2: at r = 4
        # the first two summands (v = 1 and 3) give relation rows only
        M = block_module(spec31, [BlockSpec(0), BlockSpec(1), BlockSpec(2)])
        assert M._summand_valuations == [1, 3, 9]
        rows, preimages = M.filtration_stage(4).hrows, M.stage_preimages(4)
        n = M.block
        for s, w in zip(rows, preimages):
            if linalg._pivot_col(s) < 2 * n:
                assert not any(w)
            else:
                assert any(w) and not any(w[: 2 * n])
        assert any(linalg._pivot_col(s) < 2 * n for s in rows)


class TestTorsionPerSummand:
    """j_torsion(r) on a direct sum solves each distinct summand once on its
    own block at k > 1 and takes the closed form at k = 1; the oracle is
    `whole_module_torsion`, the preimage_span path on the whole module,
    which mixed relations keep."""

    @given(st.one_of(direct_sums(), mixed_modules()), st.data())
    @settings(max_examples=150, deadline=None)
    def test_j_torsion_matches_whole_module_solve(self, M, data):
        # direct_sums() are split at k = 1 and at k > 1
        r = data.draw(st.integers(0, M.block + 1), label="r")
        assert M.j_torsion(r).hrows == whole_module_torsion(M, M.T_class() ** r).hrows

    @pytest.mark.parametrize(
        "relations",
        [
            # the mixed-f3-level2 shape: [T^a, c T^b], [0, T^d]
            [[[0, 1], [0, 0, 2]], [[0], [0, 0, 0, 0, 1]]],
            # two relations on one generator
            [[[0, 0, 1], [0]], [[1, 1], [0]]],
        ],
        ids=["mixed", "two-on-one"],
    )
    def test_other_relations_take_the_preimage_path(self, spec31, relations, monkeypatch):
        M = FiniteLevelModule(spec31, 2, 2, relations)
        assert M._summands is None
        widths = spy_preimage_span(monkeypatch)
        M.j_torsion(2)
        assert widths == [M.dim]

    def test_direct_sum_solves_each_distinct_summand_once(self, spec32, monkeypatch):
        # blocks at levels 0, 1, 1, 2 at level 2 over Z/9 (k = 1 takes the
        # closed form): summands omega_0, omega_1 and the free one
        M = block_module(spec32, [BlockSpec(0), BlockSpec(1), BlockSpec(1), BlockSpec(2)])
        widths = spy_preimage_span(monkeypatch)
        M.j_torsion(3)
        assert widths == [M.block] * 3


class TestTorsionClosedFormK1:
    """At k = 1 Lambda_N = F_p[T]/(T^(p^N)), so on a split module
    j_torsion(r) and filtration_stage(r) are read off r and the
    T-valuation of each relation, with no power of T, no action and no
    kernel solve; the oracles are `whole_module_torsion` and the
    act-and-Howell image of the torsion, which k > 1 and mixed relations
    keep."""

    @given(split_k1_modules(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_closed_form_matches_preimage_path(self, M, data):
        assert M._summands is not None
        r = data.draw(st.integers(0, M.block + 1), label="r")
        assert M.j_torsion(r).hrows == whole_module_torsion(M, M.T_class() ** r).hrows

    @given(split_k1_modules(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_closed_form_stage_matches_act_image(self, M, data):
        r = data.draw(st.integers(1, M.block + 2), label="r")
        x = M.T_class() ** (r - 1)
        oracle = M.submodule(M.act(x, g) for g in M.j_torsion(r).hrows)
        assert M.filtration_stage(r).hrows == oracle.hrows

    @given(split_k1_modules())
    @settings(max_examples=60, deadline=None)
    def test_tower_takes_no_action_and_no_solve(self, M):
        def refuse(name):
            return mock.Mock(side_effect=AssertionError(f"{name} called"))

        with (
            mock.patch.multiple(FiniteLevelModule, act=refuse("act"), action_matrix=refuse("action_matrix")),
            mock.patch.object(linalg, "preimage_span", refuse("preimage_span")),
            mock.patch.object(GroupRingElem, "__pow__", refuse("__pow__")),
        ):
            for r in range(1, M.block + 3):
                M.j_torsion(r)
                M.filtration_stage(r)

    @pytest.mark.parametrize("name", ["shape-f3-level2", "shape-z9-level1", "mixed-f3-level2", "mixed-f5-level1"])
    def test_benchmark_modules_take_their_path(self, name, monkeypatch):
        templates = load_workloads(monkeypatch).ORACLE_TEMPLATES
        for i in range(8):
            inst = parse_instance(json.dumps(templates[name](i)))
            M = FiniteLevelModule(inst.ring, inst.level, inst.module["generators"], inst.module["relations"])
            widths = spy_preimage_span(monkeypatch)
            M.j_torsion(2)
            if name.startswith("mixed-"):
                assert widths == [M.dim]
            elif inst.ring.k == 1:
                assert widths == []
            else:
                assert widths == [M.block] * len(set(M._summands))

    def test_one_generator_at_k2_takes_the_solver(self, spec32, monkeypatch):
        one = GroupRingElem.one(spec32, 1)
        M = FiniteLevelModule(spec32, 1, 1, [[GroupRingElem.gamma(spec32, 1) - one]])
        assert M._summands is not None
        widths = spy_preimage_span(monkeypatch)
        M.j_torsion(1)
        assert widths == [M.block]

    @pytest.mark.parametrize("p", [3, 5])
    def test_ideal_rows_match_independent_howell(self, p):
        # T^a Lambda_level is the O-span of gamma^j T^a over every j, wrapped
        # shifts included, in the free module of rank 1
        spec = RingSpec(p, 1, 12)
        for level in range(3):
            M = FiniteLevelModule(spec, level, 1)
            for a in range(M.block + 1):
                t_a = M.T_class() ** a
                shifts = [(GroupRingElem.gamma(spec, level, j) * t_a).coeffs for j in range(M.block)]
                assert _ideal_rows(p, level, a) == M.submodule(shifts).hrows

    def test_ideal_rows_shared_across_modules(self):
        # the builder's global module and its dual are at one level, so the
        # second asks for rows the first has built
        _ideal_rows.cache_clear()
        build_synthetic(0)
        assert _ideal_rows.cache_info().hits > 0

    def test_t_valuation(self, spec31):
        T = GroupRingElem.gamma(spec31, 2) - GroupRingElem.one(spec31, 2)
        assert [t_valuation(T**r) for r in range(11)] == list(range(9)) + [9, 9]
        assert t_valuation(GroupRingElem.gamma(spec31, 2, 3) - GroupRingElem.one(spec31, 2)) == 3


@st.composite
def coset_cases(draw, kind, k):
    """(M, S) at p = 3, the given k and level 0-2, with |M| <= 3^6.  M has
    split relations (one random relation or none per generator), mixed ones
    (one or two random rows over all generators), or is a block pairing's
    module; S comes from a drawn constructor, the kernels of h only on a
    pairing's module."""
    spec = RingSpec(3, k, 12)
    level = draw(st.integers(0, 2), label="level")
    n = 3**level
    elem = st.lists(st.integers(0, spec.modulus - 1), min_size=n, max_size=n)
    h = None
    if kind == "block":
        block = st.builds(BlockSpec, level=st.integers(0, min(level, 1)), swapped=st.booleans())
        h = HeightPairing(BlockPairing(spec, draw(st.lists(block, min_size=1, max_size=2)), level=level))
        M = h.module
    else:
        ngens = draw(st.integers(1, 2), label="ngens")
        zero = [0] * n
        if kind == "split":
            rels = [draw(st.one_of(st.none(), elem), label=f"relation {i}") for i in range(ngens)]
            relations = [[r if j == i else zero for j in range(ngens)] for i, r in enumerate(rels) if r is not None]
        else:
            relations = draw(st.lists(st.lists(elem, min_size=ngens, max_size=ngens), min_size=1, max_size=2))
        M = FiniteLevelModule(spec, level, ngens, relations)
    assume(M.size <= 3**6)
    vec = st.lists(st.integers(0, spec.modulus - 1), min_size=M.dim, max_size=M.dim)
    constructors = {
        "submodule": lambda: M.submodule(draw(st.lists(vec, max_size=3), label="vectors")),
        "zero": M.zero_submodule,
        "full": lambda: full_submodule(M),
        "torsion": lambda: M.j_torsion(draw(st.integers(0, n + 1), label="r")),
        "stage": lambda: M.filtration_stage(draw(st.integers(1, 4), label="r")),
    }
    if h is not None:
        constructors.update({"left kernel": h.left_kernel, "right kernel": h.right_kernel})
    return M, constructors[draw(st.sampled_from(sorted(constructors)), label="constructor")]()


class TestCosetEnumeration:
    """`Submodule.elements` lists the combinations of its Howell rows that
    the module's `col_sizes` allow, and `order()` multiplies their counts;
    the oracle is the closure search `closure_elements`.  Split modules at
    k = 1 and k = 2 and mixed ones take the closed form, the per-block
    solve and the whole-module solve of `j_torsion`."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("kind", ["split", "mixed", "block"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_elements_match_closure(self, kind, k, data):
        M, S = data.draw(coset_cases(kind, k))
        els = S.elements()
        assert els == closure_elements(S)
        assert S.order() == len(els)
        assert M.size == len(M.elements())
