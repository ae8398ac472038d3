"""The cohomological L-function model and the order/derivative machinery.

An instance couples a local side (a free module over the truncated ring
with a class L_z, in duality with a finite-level module D) to a global side
(a height pairing with a distinguished J-torsion element z0); the global
module is D's first blocks, and the localization c -> c_p is their
inclusion.  The three consistency statements checked are:

  (a) the degree-0 special value vanishes iff z0 lies in the designated
      strict submodule;
  (b) the degree-r special value vanishes on the J-torsion of the dual
      module iff r is below the order of vanishing;
  (c) for 0 < r <= ord, z0 lies in the stage-r filtration and
      h^(r)(z0, c) equals the degree-r special value at the localization
      of c, for every c in the stage-r filtration of the right module.

The two sides of (c) are computed along disjoint code paths: the left
through the derived-height tower, the right through exact Weierstrass
division and the duality functional.

The synthetic builder solves for the class vector of L_z so that (c) is
forced on the chosen z0, places the order witness on a local-only block
(the localization of the global module is never surjective, which is what
lets (b) and (c) coexist), and is deterministic per seed.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from iwaheights import linalg
from iwaheights.errors import (
    EnumerationCapError,
    InstanceInvalidError,
    NotDivisibleError,
    PrecisionError,
)
from iwaheights.heights import (
    BlockPairing,
    BlockSpec,
    DerivedHeightPairing,
    HeightPairing,
    block_module,
)
from iwaheights.iwalg import (
    GroupRingElem,
    IwasawaPoly,
    RingSpec,
    j_valuation,
    project_to_level,
    transfer_coeffs,
    weierstrass_divide,
)
from iwaheights.lambdamod import (
    DEFAULT_ENUM_CAP,
    MAX_CAP,
    MAX_RANK,
    FiniteLevelModule,
    check_modulus,
    check_rank,
)
from iwaheights.reports import CheckRecord

Vec = Sequence[int]

# highest level of the builder's local-only block (`build_synthetic`)
MAX_LOCAL_LEVEL = 4


def _dot(f: Vec, d: Vec, m: int) -> int:
    return sum(a * b for a, b in zip(f, d)) % m


def _times_T(f: Vec, block: int, m: int) -> list[int]:
    """(gamma - 1) * f on each block: entry g becomes f[g - 1] - f[g]."""
    return [(f[c - 1 if c % block else c + block - 1] - f[c]) % m for c in range(len(f))]


class CanonicalDuality:
    """Componentwise duality: <x, d> = phi(1, x_i * iota(d_i) / omega_(n_i)).

    The Z_s coordinate i pairs with the i-th component of the dual module
    through the pole class of the product; the value only depends on x_i
    modulo omega_(n_i), which is what makes the pairing factor through the
    finite level.

    Closed form: phi_1 of a level-n pole is the identity coefficient of its
    numerator (the minimal form keeps it), and the identity coefficient of
    a * iota(b) is sum_g a[g] * b[g].  So

        <x, d> = sum_i sum_c xbar_i[c mod p^(n_i)] * d_i[c]  mod p^k,

    with xbar_i = project_to_level(x_i, n_i) and c running over the p^N
    group elements of the dual module's level N: the block of coordinate i
    is the transfer of xbar_i to level N.  `functional(x)` is that
    coefficient vector over the dual module's ambient basis, so a fixed x
    is projected once and each pairing is a dot product.  It is symmetric on
    lifted classes: <lift(v), d> = sum_i fold(v_i) . fold(d_i) at level n_i.
    """

    def __init__(self, levels: Sequence[int], module: FiniteLevelModule):
        if len(levels) != module.ngens:
            raise ValueError("one level per dual-module component")
        self.levels = tuple(levels)
        self.module = module

    def functional(self, x: Sequence[IwasawaPoly]) -> list[int]:
        """The vector f with <x, d> = f . d mod p^k for every d."""
        out: list[int] = []
        for i, n in enumerate(self.levels):
            out.extend(transfer_coeffs(project_to_level(x[i], n).coeffs, self.module.block))
        return out

    def monomial_rows(self, i: int) -> list[list[int]]:
        """The functionals of T^0..T^3 in coordinate i."""
        spec = self.module.spec
        x = [IwasawaPoly.zero(spec)] * self.module.ngens
        return [self.functional(x[:i] + [IwasawaPoly(spec, [0] * j + [1])] + x[i + 1 :]) for j in range(4)]


class TableDuality:
    """Duality given by an explicit table: row (i, j) is the functional of
    the monomial T^j in coordinate i on the dual module's ambient basis;
    one coordinate per dual-module component, rows of the ambient rank;
    `validate` checks every row, `functional` refuses a class past them."""

    def __init__(self, table: Sequence[Sequence[Sequence[int]]], module: FiniteLevelModule):
        self.table = [[list(row) for row in coord] for coord in table]
        self.module = module
        if len(self.table) != module.ngens or any(
            len(row) != module.dim for coord in self.table for row in coord
        ):
            raise InstanceInvalidError(
                f"duality table needs {module.ngens} coordinates of rows of width {module.dim}"
            )

    def functional(self, x: Sequence[IwasawaPoly]) -> list[int]:
        """sum over (i, j) of x_i[j] * table[i][j]: the vector f with
        <x, d> = f . d mod p^k for every d."""
        m = self.module.spec.modulus
        f = [0] * self.module.dim
        for i, xi in enumerate(x):
            rows = self.table[i]
            for j, c in enumerate(xi.coeffs):
                if not c:
                    continue
                if j >= len(rows):
                    raise PrecisionError("duality table too short for this class")
                for t, a in enumerate(rows[j]):
                    f[t] += c * a
        return [a % m for a in f]

    def monomial_rows(self, i: int) -> list[list[int]]:
        return self.table[i]


def localize(D: FiniteLevelModule, c: Vec) -> tuple[int, ...]:
    """The localization c -> c_p of a global-module vector into the dual
    module D: c on D's first blocks, which carry the global module's
    relations, so it is Lambda-linear (`act` works per block)."""
    return D.canon(list(c) + [0] * (D.dim - len(c)))


@dataclass
class LfunInstance:
    """A local/global pair ready for the consistency checks."""

    spec: RingSpec
    L_z: tuple[IwasawaPoly, ...]
    D_loc: FiniteLevelModule
    duality: Union[CanonicalDuality, TableDuality]
    height: HeightPairing
    z0: tuple[int, ...]
    strict: str  # the strict submodule: "all" (M) or "zero" ({0})
    meta: dict

    @property
    def global_module(self) -> FiniteLevelModule:
        return self.height.module

    @functools.cached_property
    def vanishing_order(self) -> Union[int, float]:
        """The order of vanishing, computed on first use and kept.

        A disagreement between the two characterizations raises and caches
        nothing, so a broken instance raises on every call.
        """
        ord1: Union[int, float] = min(j_valuation(x) for x in self.L_z)
        ord2 = self._annihilator_order()
        if ord1 != ord2:
            raise InstanceInvalidError(
                f"order characterizations disagree: valuation {ord1}, annihilator {ord2}"
            )
        return ord1

    def _annihilator_order(self) -> Union[int, float]:
        """max{r : L_z kills D[J^r]} under the duality, or inf when L_z
        kills all of D or every r up to k * p^level + 1.

        The stopping rule at r, "L_z does not kill D[J^r], or D[J^r] = D",
        is monotone in r, since D[J^r] grows with r.  So r doubles from 1
        until the rule holds, then the last step is bisected: about
        2 log2(ord) torsion modules where a walk over r = 1, 2, ... takes
        ord + 1.  Each r is asked once (`stop` keeps its answers)."""
        D = self.D_loc
        m = self.spec.modulus
        f = self.duality.functional(self.L_z)
        bound = self.spec.k * self.spec.p**D.level + 1
        answers: dict[int, Union[int, float, None]] = {}

        def stop(r: int) -> Union[int, float, None]:
            # r - 1 when L_z does not kill D[J^r], inf when D[J^r] = D, else None
            if r not in answers:
                tor = D.j_torsion(r)
                if any(_dot(f, g, m) for g in tor.gens()):
                    answers[r] = r - 1
                elif tor.order() == D.size:
                    answers[r] = math.inf
                else:
                    answers[r] = None
            return answers[r]

        lo, hi = 0, 1  # the rule fails at lo (or lo = 0) and is asked at hi
        while stop(hi) is None:
            if hi == bound:
                return math.inf
            lo, hi = hi, min(2 * hi, bound)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if stop(mid) is None:
                lo = mid
            else:
                hi = mid
        return answers[hi]

    def validate(self) -> None:
        """The duality's rows (`monomial_rows`) must kill the relations and
        satisfy <T x, d> = <x, iota(T) d> for all d, i.e. f_(T x) = T f_x on
        each block (sum_g a[g] (b c)[g] = sum_g (iota(b) a)[g] c[g]): row
        j + 1 is T times row j.  The relation span is Lambda-stable, so row
        0 killing it suffices."""
        spec = self.spec
        m = spec.modulus
        M = self.global_module
        D = self.D_loc
        if len(self.L_z) != D.ngens:
            raise InstanceInvalidError("one L_z coordinate per dual component")
        for x in self.L_z:
            if x.precision != spec.cap:
                raise InstanceInvalidError("L_z coordinates must carry full precision")
        for i in range(D.ngens):
            rows = self.duality.monomial_rows(i)
            if rows and any(_dot(rows[0], rel, m) for rel in D.rel_rows):
                raise InstanceInvalidError("duality does not kill the relations")
            for j in range(len(rows) - 1):
                if _times_T(rows[j], D.block, m) != [a % m for a in rows[j + 1]]:
                    raise InstanceInvalidError(f"duality adjunction fails at coordinate {i}, T^{j}")
        # z0 must be J-torsion on the global side
        if not M.j_torsion(1).contains(self.z0):
            raise InstanceInvalidError("z0 is not J-torsion")
        # height pairing axioms
        self.height.pairing.validate()


def order_of_vanishing(inst: LfunInstance) -> Union[int, float]:
    """Largest power of J dividing L_z; the two characterizations (T-adic
    valuation in the free module, annihilation of J-power torsion under the
    duality) are both computed and must agree.  Computed once per instance
    (see `LfunInstance.vanishing_order`)."""
    return inst.vanishing_order


def der(inst: LfunInstance, r: int) -> tuple[IwasawaPoly, ...]:
    """Exact preimage of L_z under multiplication by T^r = (gamma - 1)^r.

    Dividing by (gamma^u - 1)^r instead gives this quotient times a unit
    congruent to u^(-r) mod J, so u^r times the special value at gamma^u
    is the one at gamma (the tests check it).  An r above the precision
    of L_z is a resource cap."""
    if r == 0:
        return inst.L_z
    spec = inst.spec
    ordv = order_of_vanishing(inst)
    if r > ordv:
        raise NotDivisibleError(f"L_z has order {ordv}, cannot divide by J^{r}")
    prec = min(x.precision for x in inst.L_z)
    if r > prec:
        raise PrecisionError(f"cannot divide by T^{r}: L_z is known to precision {prec}")
    f = IwasawaPoly.T(spec) ** r
    out = []
    for x in inst.L_z:
        q, rem = weierstrass_divide(x, f)
        if not rem.is_zero():
            raise NotDivisibleError("coordinate not divisible (broken instance)")
        out.append(q)
    return tuple(out)


class LambdaFunctional:
    """The degree-r special value on the J-torsion of the dual module,
    written at the generator gamma (`der`): lambda^(r)(c) lies in
    J^r/J^(r+1), and a call returns its coefficient on (gamma - 1)^r, a
    residue in [0, p^k)."""

    def __init__(self, inst: LfunInstance, r: int):
        self.inst = inst
        self._functional = inst.duality.functional(der(inst, r))
        self._torsion = inst.D_loc.j_torsion(1)

    def __call__(self, c: Vec) -> int:
        if not self._torsion.contains(c):
            raise InstanceInvalidError(
                "special values are defined on the J-torsion of the dual module only"
            )
        return _dot(self._functional, c, self.inst.spec.modulus)

    def is_identically_zero(self) -> bool:
        return not any(_dot(self._functional, g, self.inst.spec.modulus) for g in self._torsion.gens())


def main_theorem_check(inst: LfunInstance, r_max: int) -> list[CheckRecord]:
    """Run the (a)/(b)/(c) consistency checks; validation comes first.

    Returns one report record per check with a verdict and a witness.  The
    two sides of (c) share nothing past the instance data: the left side
    goes through the pole pairing and the filtration tower, the right side
    through coordinate division and the duality table.
    """
    inst.validate()
    ordv = order_of_vanishing(inst)
    ord_str = "inf(>=cap)" if ordv is math.inf else str(ordv)
    checks = [CheckRecord("ord-dual-agreement", "ord(L) = max{r : L(D[J^r]) = 0}", True, {"ord": ord_str})]
    M = inst.global_module
    r_top = r_max if ordv is math.inf else min(int(ordv), r_max)
    lams = [LambdaFunctional(inst, r) for r in range(r_top + 1)]
    zeros = [lam.is_identically_zero() for lam in lams]
    zero0 = zeros[0]
    member = inst.strict == "all" or not any(M.canon(inst.z0))
    checks.append(
        CheckRecord(
            "(a) strict membership",
            "lambda^(0) = 0 iff z0 in strict submodule",
            zero0 == member,
            {"lambda0_zero": zero0, "z0_strict": member},
        )
    )
    for r, is_zero in enumerate(zeros):
        checks.append(
            CheckRecord(
                f"(b) r={r}",
                "lambda^(r) = 0 iff r < ord(L)",
                is_zero == (r < ordv),
                {"zero": is_zero, "r": r, "ord": ord_str},
            )
        )
    for r in range(1, r_top + 1):
        member = M.filtration_stage(r).contains(inst.z0)
        checks.append(CheckRecord(f"(c) membership r={r}", "ord >= r forces z0 in Y^(r)", member, {"r": r}))
        if not member:
            continue
        d_r = DerivedHeightPairing(inst.height, r)
        gens = d_r.stage.gens()
        (heights,) = d_r.matrix([inst.z0], gens)
        witness = []
        for c, height in zip(gens, heights):
            rhs = lams[r](localize(inst.D_loc, c))
            witness.append({"c": list(c), "height": height, "special_value": rhs})
        ok = all(w["height"] == w["special_value"] for w in witness)
        checks.append(CheckRecord(f"(c) identity r={r}", "h^(r)(z0, c) = lambda^(r)(c_p)", ok, witness))
    return checks


def _block_stage_nonzero(spec: RingSpec, level: int, r: int) -> bool:
    """Whether the stage T^(r-1) * Lambda_n[T^r] of the block Lambda_n (n =
    `level`) is nonzero.  Lambda_n is a local Frobenius ring, so the stage
    is zero iff Lambda_n[T^r] lies in Lambda_n[T^(r-1)], iff (T^(r-1))
    lies in (T^r), iff T^(r-1) = 0 (T is not a unit)."""
    t = GroupRingElem.gamma(spec, level) - GroupRingElem.one(spec, level)
    return not (t ** (r - 1)).is_zero()


def _assemble(
    spec: RingSpec, level: int, global_blocks: Sequence[BlockSpec], local_levels: Sequence[int], enum_cap: int
) -> tuple[HeightPairing, FiniteLevelModule, CanonicalDuality]:
    """The instance layout of the builder and of instance files: the u = 1
    height of the global block pairing, the dual module D (the global
    blocks, then one block per local level, all at the ambient `level`)
    and the canonical duality on the block levels."""
    pairing = BlockPairing(spec, global_blocks, enum_cap=enum_cap, level=level)
    d_blocks = list(global_blocks) + [BlockSpec(n) for n in local_levels]
    D = block_module(spec, d_blocks, enum_cap, level=level)
    return HeightPairing(pairing, u=1), D, CanonicalDuality([b.level for b in d_blocks], D)


def build_synthetic(
    seed: int,
    p: int = 3,
    k: int = 1,
    global_levels: Optional[Sequence[int]] = None,
    target_ord: int = 1,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> LfunInstance:
    """Deterministically construct a valid instance with the target order.

    The dual module carries one extra local-only block (of a level chosen
    so the order witness survives) after the global blocks (`_assemble`).
    The class vector of L_z solves the linear system matching the derived
    height of z0, so part (c) holds by construction but is re-verified
    through the independent paths.
    """
    if target_ord < 0:
        raise ValueError("target order must be nonnegative")
    # reject a bad or oversized p or k up front, with the reason, before the
    # level search
    check_modulus(p, k)
    RingSpec(p, k, 1)
    if global_levels is None:
        global_levels = {0: (1,), 1: (0, 1), 2: (1,), 3: (1,)}.get(target_ord, (1,))
    # a global block above the rank cap is refused before p^level is
    # multiplied out below
    check_rank(p, max(global_levels, default=0), 1)
    rng = random.Random(repr((seed, p, k, tuple(global_levels), target_ord)))

    def ring_cap(n: int) -> int:
        # room to project to level n (k*p^n) and for L_z = T^ord * class
        return k * p**n + p**n + target_ord + 8

    # local-only block: large enough that T^ord * D[T^(ord+1)] is nonzero.
    # Levels above MAX_LOCAL_LEVEL are not searched: building and checking a
    # level-5 block ran for over a minute, so an order that needs one is
    # refused as a resource cap.
    for n_loc in range(1, MAX_LOCAL_LEVEL + 1):
        if k * p**n_loc <= target_ord + 1:
            continue
        level = max(max(global_levels, default=0), n_loc)
        rank = (len(global_levels) + 1) * p**level
        if rank > MAX_RANK:
            raise EnumerationCapError(
                f"dual module of O-rank {rank} at level {level}, above the cap {MAX_RANK}"
            )
        if ring_cap(level) > MAX_CAP:
            raise EnumerationCapError(
                f"ring cap {ring_cap(level)} at level {level}, above the cap {MAX_CAP}"
            )
        if _block_stage_nonzero(RingSpec(p, k, ring_cap(n_loc)), n_loc, target_ord + 1):
            break
    else:
        raise EnumerationCapError(
            f"order {target_ord} needs a local block above level {MAX_LOCAL_LEVEL}, "
            "the bound of the builder's level search"
        )

    # the duality projects to every block level, so the cap follows the
    # ambient level (equal to n_loc for the default global levels)
    spec = RingSpec(p, k, ring_cap(level))
    gblocks = [BlockSpec(n, unit=rng.choice([1, 2])) for n in global_levels]
    height, D, duality = _assemble(spec, level, gblocks, [n_loc], enum_cap)
    M = height.module
    m = spec.modulus

    def lift(v: Vec) -> list[IwasawaPoly]:
        """The free-module vector whose coordinates are the T-expansions
        of the components of the class vector v."""
        return [IwasawaPoly(spec, D.component(v, i).to_poly_coeffs()) for i in range(D.ngens)]

    # choose z0
    if target_ord == 0:
        tor = M.j_torsion(1)
        candidates = sorted(v for v in tor.elements() if any(v))
        z0 = candidates[rng.randrange(len(candidates))]
    else:
        stage = M.filtration_stage(target_ord)
        nxt = M.filtration_stage(target_ord + 1)
        pool = sorted(v for v in stage.elements() if not nxt.contains(v))
        if not pool:
            pool = sorted(v for v in stage.elements() if any(v)) or sorted(
                stage.elements()
            )
        z0 = pool[rng.randrange(len(pool))]

    # solve for the class vector of L_z / T^ord
    vbar = [0] * D.dim
    if target_ord >= 1:
        d_r = DerivedHeightPairing(height, target_ord)
        cgens = d_r.stage.gens()
        if cgens:
            targets = [d_r.value(z0, c) for c in cgens]
            # <lift(e_b), c_p> = <lift(c_p), e_b> (`CanonicalDuality`)
            cols = [duality.functional(lift(localize(D, c))) for c in cgens]
            rows = [list(row) for row in zip(*cols)]
            sol = linalg.solve_combination(rows, [targets], spec.p, spec.k)[0]
            if sol is None:
                raise InstanceInvalidError("no class vector matches the heights")
            vbar = list(sol)
    # overwrite the local coordinates with a unit constant (they are
    # invisible to the localization, so the solved constraints survive)
    local_start = M.dim
    for t in range(local_start, D.dim):
        vbar[t] = 0
    u_v = rng.choice([u for u in range(1, m) if spec.is_unit(u)])
    vbar[local_start] = u_v
    vbar = list(D.canon(vbar))

    L_z = [x.times_T_power(target_ord) for x in lift(vbar)]

    inst = LfunInstance(
        spec=spec,
        L_z=tuple(L_z),
        D_loc=D,
        duality=duality,
        height=height,
        z0=tuple(z0),
        strict="zero" if target_ord == 0 else "all",
        meta={
            "seed": seed,
            "p": p,
            "k": k,
            "global_levels": list(global_levels),
            "local_level": n_loc,
            "target_ord": target_ord,
            "block_units": [b.unit for b in gblocks],
            "local_unit": u_v,
        },
    )
    got = order_of_vanishing(inst)
    if got != target_ord:
        raise InstanceInvalidError(
            f"builder produced order {got}, wanted {target_ord}"
        )
    return inst


def instance_from_data(
    spec: RingSpec,
    level: int,
    global_blocks: Sequence[BlockSpec],
    local_levels: Sequence[int],
    l_z_coeffs: Sequence[Sequence[int]],
    z0: Sequence[int],
    strict: str,
    duality_table: Optional[Sequence] = None,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> LfunInstance:
    """Rebuild an instance from explicit file data.

    The layout is the builder's (`_assemble`).  The duality is canonical
    unless an explicit table is supplied.  All consistency conditions are
    re-checked by validate()/the checkers, so a tampered file fails loudly
    rather than producing a verdict.
    """
    level = max([level] + [b.level for b in global_blocks] + list(local_levels))
    height, D, duality = _assemble(spec, level, global_blocks, local_levels, enum_cap)
    M = height.module
    if duality_table is not None:
        duality = TableDuality(duality_table, D)
    if len(l_z_coeffs) != D.ngens:
        raise InstanceInvalidError(
            f"need {D.ngens} class coordinates, got {len(l_z_coeffs)}"
        )
    L_z = tuple(IwasawaPoly(spec, cs) for cs in l_z_coeffs)
    if len(z0) != M.dim:
        raise InstanceInvalidError(f"z0 needs {M.dim} coordinates, got {len(z0)}")
    if strict not in ("all", "zero"):
        raise InstanceInvalidError("strict marker must be 'all' or 'zero'")
    return LfunInstance(
        spec=spec,
        L_z=L_z,
        D_loc=D,
        duality=duality,
        height=height,
        z0=tuple(x % spec.modulus for x in z0),
        strict=strict,
        meta={"source": "file", "local_levels": list(local_levels)},
    )
