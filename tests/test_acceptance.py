"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every tolerance is zero (all values live in Z/p^k); each criterion prints
its own pass/fail line so a -s run reads as a checklist.  Desk scale is
p = 3, k <= 2, level <= 2, module order <= 3^10.
"""

import itertools
import json
import math
import random
from pathlib import Path

import pytest

from iwaheights.errors import IndeterminateError, NotDistinguishedError
from iwaheights.heights import BlockPairing, BlockSpec, DerivedHeightPairing, HeightPairing
from iwaheights.iwalg import (
    GroupRingElem,
    IwasawaPoly,
    RingSpec,
    weierstrass_degree,
    weierstrass_divide,
)
from iwaheights.lambdamod import ElementaryShape, infer_invariants, odd_even_multiplicities, shape_dims
from iwaheights.lfun import build_synthetic, main_theorem_check
from iwaheights.poles import PoleElem, eta, phi
from tests.conftest import (
    from_components,
    height_coeff,
    intersect,
    involution,
    matvec,
    norm_element,
    poly_add,
    random_poly,
    run_cli,
    scale_elem,
    scale_vec,
    truncate,
)

ROOT = Path(__file__).resolve().parent.parent
CORPUS = sorted((ROOT / "instances").glob("*.json"))

BLOCK_INSTANCES = [
    ("f3 single", RingSpec(3, 1, 16), [BlockSpec(1)]),
    ("f3 pair", RingSpec(3, 1, 16), [BlockSpec(1), BlockSpec(1, 2)]),
    ("f3 mixed", RingSpec(3, 1, 16), [BlockSpec(0), BlockSpec(1)]),
    ("f3 swapped", RingSpec(3, 1, 16), [BlockSpec(1, 1, swapped=True)]),
    ("f3 level2", RingSpec(3, 1, 20), [BlockSpec(2)]),
    ("mod9 single", RingSpec(3, 2, 20), [BlockSpec(1)]),
    ("mod9 mixed", RingSpec(3, 2, 20), [BlockSpec(0), BlockSpec(1)]),
]


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion}] {tag} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_ring_laws(spec31, spec32):
    rng = random.Random(101)
    total = 0
    for spec in (spec31, spec32):
        # exact involution on random elements
        for _ in range(150):
            x = random_poly(rng, spec)
            assert involution(involution(x)) == x
        # division round-trips
        count = 0
        while count < 1000:
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
            count += 1
        total += count
    # eventual divisibility of the norm elements
    big = RingSpec(3, 1, 30)
    for fc in ([0, 0, 1], [0, 1, 1]):
        f = IwasawaPoly(big, fc)
        rems = []
        for n in (1, 2, 3):
            g = norm_element(big, n)
            _, r = weierstrass_divide(g, f)
            rems.append(r.is_zero())
        assert rems[-1] and rems[-2]
    report("1 ring laws", True, f"{total} division round-trips, divisibility attained")


def test_criterion_2_polar_scaling():
    checked = 0
    for k in (1, 2):
        spec = RingSpec(3, k, 30)
        units = [u for u in range(1, spec.modulus) if spec.is_unit(u)]
        size = spec.modulus**3
        for code in range(size):
            cs = [(code // spec.modulus**i) % spec.modulus for i in range(3)]
            x = PoleElem(spec, 1, GroupRingElem(spec, 1, cs))
            e1, p1 = eta(1, x), phi(1, x)
            for u in units:
                assert eta(u, x) == scale_elem(e1, u)
                assert phi(u, x) == (u * p1) % spec.modulus
                checked += 1
    report("2 polar scaling", True, f"{checked} scaling identities, exhaustive level 1")


def test_criterion_4_height_well_definedness():
    for name, spec, blocks in BLOCK_INSTANCES:
        bp = BlockPairing(spec, blocks)
        h1 = HeightPairing(bp, u=1)
        h2 = HeightPairing(bp, u=2)
        M = bp.module
        for a in range(M.dim):
            x = [int(c == a) for c in range(M.dim)]
            for b in range(M.dim):
                y = [int(c == b) for c in range(M.dim)]
                assert height_coeff(h1, x, y) == height_coeff(h2, x, y), name
    report("4 height well-definedness", True, f"{len(BLOCK_INSTANCES)} instances")


def test_criterion_5_derived_tower():
    for name, spec, blocks in BLOCK_INSTANCES:
        h = HeightPairing(BlockPairing(spec, blocks))
        M = h.module
        sym = h.pairing.declared_symmetry()
        parity = 1 if sym in ("iota_antisymmetric", "zero") else 0
        for r in range(1, 5):
            d = DerivedHeightPairing(h, r)
            nxt = {tuple(v) for v in M.filtration_stage(r + 1).elements()}
            assert d.left_kernel_elements() == nxt, (name, r)
            assert d.right_kernel_elements() == nxt, (name, r)
            for x in d.stage.gens():
                for y in d.stage.gens():
                    lhs = d.value(x, y)
                    rhs = ((-1) ** (r + parity) * d.value(y, x)) % spec.modulus
                    assert lhs == rhs, (name, r)
        inter = M.filtration_stage(1)
        r = 2
        while True:
            st = M.filtration_stage(r)
            inter = intersect(inter, st)
            if st.order() == 1:
                break
            r += 1
        assert inter == intersect(M.universal_norms(), M.j_torsion(1)), name
    report("5 derived tower", True, f"{len(BLOCK_INSTANCES)} instances, r <= 4")


def test_criterion_6_concrete_witness(spec31):
    h = HeightPairing(BlockPairing(spec31, [BlockSpec(1)]))
    M = h.module
    t2 = from_components(M, [GroupRingElem.from_poly_coeffs(spec31, 1, [0, 0, 1])])
    # enumeration oracle first: recompute h^(1) and h^(3) from raw pairings
    els = M.elements()
    tcl = M.T_class()
    span_t2 = {tuple(scale_vec(M, c, t2)) for c in range(3)}
    stage1 = {tuple(v) for v in M.filtration_stage(1).elements()}
    assert stage1 == span_t2
    d1 = DerivedHeightPairing(h, 1)
    assert all(
        d1.value(list(x), list(y)) == 0 for x in span_t2 for y in span_t2
    )
    # oracle for h^(3): T^2 * w = T^2 has w = 1 + (T-span) as solutions
    shift = M.action_matrix(tcl * tcl)
    preimages = [w for w in els if tuple(matvec(shift, list(w), 3)) == t2]
    oracle_vals = {height_coeff(h, w, t2) for w in preimages}
    assert oracle_vals == {1}
    d3 = DerivedHeightPairing(h, 3)
    v = d3.value(t2, t2)
    assert v == 1 and spec31.is_unit(v)
    dims = []
    for r in (1, 2, 3, 4):
        order = M.filtration_stage(r).order()
        dims.append(0 if order == 1 else round(math.log(order, 3)))
    assert dims == [1, 1, 1, 0]
    report("6 concrete witness", True, "h^(1)=0, h^(3)=(gamma-1)^3, chain (1,1,1,0)")


@pytest.mark.parametrize("ordv", [0, 1, 2, 3])
def test_criterion_7_main_theorem(ordv):
    failures = []
    for seed in range(20):
        inst = build_synthetic(seed, target_ord=ordv)
        checks = main_theorem_check(inst, 4)
        for c in checks:
            if not c.ok:
                failures.append((seed, c.name))
    report(f"7 main theorem ord={ordv}", not failures, f"20 seeds, failures: {failures}")


@pytest.mark.parametrize(
    "p, levels, ordv",
    [(3, (3,), 1), (3, (3,), 3), (5, (2,), 1), (5, (2,), 2)],
)
def test_criterion_7_level_ladder(p, levels, ordv):
    # global blocks above the local level: the ring cap follows the
    # ambient level (instances/lfun_level3_ord1.json, lfun_p5_level2.json)
    failures = []
    for seed in range(3):
        inst = build_synthetic(seed, p=p, global_levels=levels, target_ord=ordv)
        for c in main_theorem_check(inst, 4):
            if not c.ok:
                failures.append((seed, c.name))
    report(f"7 level ladder p={p} levels={levels} ord={ordv}", not failures, f"3 seeds, failures: {failures}")


def test_criterion_8_invariant_calculus():
    count = 0
    for e_inf in range(4):
        for mults in itertools.product(range(4), repeat=4):
            blocks = tuple((i + 1, e) for i, e in enumerate(mults) if e)
            shape = ElementaryShape(e_inf, blocks)
            prof = infer_invariants(shape_dims(shape, 6))
            assert prof.e == mults + (0,)
            assert prof.e_infinity == e_inf
            count += 1
    for seq in itertools.product(range(4), repeat=4):
        flags = odd_even_multiplicities(seq)
        want = tuple(r for r in (2, 4) if seq[r - 1] % 2 == 1)
        assert flags == want
    report("8 invariant calculus", True, f"{count} shapes round-tripped")


def test_criterion_9_cli_determinism():
    runs = 0
    for path in CORPUS:
        doc = json.loads(path.read_text())
        cmds = []
        if "pairing" in doc:
            cmds.append("heights")
        if "shape" in doc or "module" in doc:
            cmds.append("invariants")
        if "lfun" in doc:
            cmds.append("lfun-check")
        for cmd in cmds:
            for fmt in ("text", "json"):
                a = run_cli(cmd, "--input", str(path), "--format", fmt)
                b = run_cli(cmd, "--input", str(path), "--format", fmt)
                assert a == b, (path.name, cmd, fmt)
                runs += 1
        if {"module", "pairing", "lfun"} & doc.keys():
            code, out, err = run_cli("oracle", "--input", str(path))
            assert code == 0 and "FAIL" not in out, (path.name, err)
    report("9 cli determinism", True, f"{runs} byte-compared runs, oracle clean")
