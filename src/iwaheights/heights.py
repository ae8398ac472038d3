"""Semilinear pairings into the module of poles and the derived heights.

Input pairings are data (block rules or explicit tables), not derived from
cochains; validation checks the axioms mechanically before anything
theorem-shaped is computed.  The height pairing composes a pole-valued
pairing with the evaluation functional phi and lands in J/J^2; the derived
tower h^(r) pairs the filtration stage M^(r) with itself, with values in
J^r/J^(r+1), which is free of rank 1 over O on (gamma - 1)^r: a value of
h^(r) is its coefficient on (gamma - 1)^r, a residue in [0, p^k).

Generator bookkeeping: with the generator gamma0^u the pre-height scales
by u^(-1) (two polar re-expressions contribute u^(-2), the evaluation
functional contributes u), and the basis element gamma0^u - 1 is congruent
to u*(gamma0 - 1) mod J^2; the two effects cancel, which is what makes the
J/J^2-valued height independent of u.  h is evaluated only through its
Gram matrix on the ambient basis (`HeightPairing.gram`); at u != 1 a basis
value can need more precision than the ring cap holds, and the
`PrecisionError` of phi_u then propagates.  The exponent u is a parameter
of `HeightPairing` only, where the `heights` report compares the Gram
matrices at u = 1 and u = 2; the derived tower is written at gamma, and
the tests check it against an oracle that shifts by (gamma^u - 1)^(r-1)
and scales by u^(r-1) for u = 1 and u = 2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from iwaheights import kernels, linalg
from iwaheights.errors import IwaheightsError
from iwaheights.iwalg import (
    GroupRingElem,
    RingSpec,
    fold_coeffs,
    iota_coeffs,
)
from iwaheights.lambdamod import DEFAULT_ENUM_CAP, FiniteLevelModule, Submodule, _combine, check_rank, combinations
from iwaheights.poles import PoleElem, phi, pole_involution, pole_sum

Vec = Sequence[int]

IOTA_SYMMETRIC = "iota_symmetric"
IOTA_ANTISYMMETRIC = "iota_antisymmetric"
NO_SYMMETRY = "none"
ZERO_PAIRING = "zero"


@dataclass(frozen=True)
class BlockSpec:
    """One block of a block pairing.

    `swapped` makes the block a two-component block paired across the two
    copies with a sign, which flips the symmetry type; `dead` keeps the
    module block but makes its pairing contribution identically zero (a
    negative control).
    """

    level: int
    unit: int = 1
    swapped: bool = False
    dead: bool = False

    @property
    def ncomponents(self) -> int:
        return 2 if self.swapped else 1


def block_module(
    spec: RingSpec,
    blocks: Sequence[BlockSpec],
    enum_cap: int = DEFAULT_ENUM_CAP,
    level: Optional[int] = None,
) -> FiniteLevelModule:
    """The direct sum of group-ring quotients underlying a block pairing.

    `level` may raise the ambient level above the largest block level,
    which keeps differently-shaped modules coordinate-compatible.
    """
    if level is None:
        level = max((b.level for b in blocks), default=0)
    if level < max((b.level for b in blocks), default=0):
        raise ValueError("ambient level below a block level")
    ngens = sum(b.ncomponents for b in blocks)
    check_rank(spec.p, level, ngens)
    relations = []
    zero = GroupRingElem.zero(spec, level)
    idx = 0
    for b in blocks:
        for _ in range(b.ncomponents):
            if b.level < level:
                row = [zero] * ngens
                omega = GroupRingElem.gamma(spec, level, spec.p**b.level) - GroupRingElem.one(
                    spec, level
                )
                row[idx] = omega
                relations.append(row)
            idx += 1
    return FiniteLevelModule(spec, level, ngens, relations, enum_cap)


class BlockPairing:
    """[x, y] = sum over blocks of c * x * iota(y) / (gamma^(p^n) - 1).

    A swapped block pairs its two components as c*(x1*iota(y2) -
    x2*iota(y1)), which is iota-symmetric; plain blocks are
    iota-antisymmetric.  Dead blocks contribute zero.

    `table` holds the values on the ambient basis pairs, built once on
    first use in closed form; like `TablePairing.table` it determines the
    pairing.
    """

    def __init__(
        self,
        spec: RingSpec,
        blocks: Sequence[BlockSpec],
        enum_cap: int = DEFAULT_ENUM_CAP,
        level: Optional[int] = None,
    ):
        for b in blocks:
            if not spec.is_unit(b.unit):
                raise ValueError(f"block constant {b.unit} is not a unit")
            if b.level < 0:
                raise ValueError("block level must be >= 0")
        self.spec = spec
        self.blocks = tuple(blocks)
        self.module = block_module(spec, blocks, enum_cap, level=level)

    def declared_symmetry(self) -> str:
        kinds = {b.swapped for b in self.blocks if not b.dead}
        if not kinds:
            return ZERO_PAIRING
        if kinds == {False}:
            return IOTA_ANTISYMMETRIC
        if kinds == {True}:
            return IOTA_SYMMETRIC
        return NO_SYMMETRY

    def value(self, x: Vec, y: Vec) -> PoleElem:
        """Each block's numerator is computed on coefficient lists (each
        component folded to the block level by `fold_coeffs`, `iota_coeffs`,
        a cyclic product) and the blocks are summed into one pole by
        `pole_sum`."""
        m = self.spec.modulus
        width = self.module.block
        parts = []
        idx = 0
        for b in self.blocks:
            if b.dead:
                idx += b.ncomponents
                continue
            s = self.spec.p**b.level
            starts = [(idx + i) * width for i in range(b.ncomponents)]
            xs = [fold_coeffs(x[start : start + width], s) for start in starts]
            ys = [fold_coeffs(y[start : start + width], s) for start in starts]
            if b.swapped:
                a = kernels.cyclic_mul(xs[0], iota_coeffs(ys[1]), m)
                c = kernels.cyclic_mul(xs[1], iota_coeffs(ys[0]), m)
                num = [b.unit * (u - v) for u, v in zip(a, c)]
            else:
                num = [b.unit * u for u in kernels.cyclic_mul(xs[0], iota_coeffs(ys[0]), m)]
            parts.append((b.level, num))
            idx += b.ncomponents
        return pole_sum(self.spec, parts)

    @functools.cached_property
    def table(self) -> list[list[PoleElem]]:
        """[e_a, e_b] for every pair of ambient basis vectors, in closed form.

        Position i of a generator's block is gamma^i times the generator,
        so for positions i and j in a live block of level n, [e_a, e_b] =
        c * gamma^((i - j) mod p^n) / (gamma^(p^n) - 1), where c is the
        unit, or +-unit across the two components of a swapped block;
        every other entry is zero.  The p^n poles of each block and sign
        are built once and shared between the entries.
        """
        width = self.module.block
        zero = PoleElem.zero(self.spec)
        table = [[zero] * self.module.dim for _ in range(self.module.dim)]
        idx = 0
        for b in self.blocks:
            if not b.dead:
                s = self.spec.p**b.level
                if b.swapped:
                    pairs = [
                        (idx, idx + 1, _monomial_poles(self.spec, b.level, b.unit)),
                        (idx + 1, idx, _monomial_poles(self.spec, b.level, -b.unit)),
                    ]
                else:
                    pairs = [(idx, idx, _monomial_poles(self.spec, b.level, b.unit))]
                for g, g2, poles in pairs:
                    for i in range(width):
                        row = table[g * width + i]
                        for j in range(width):
                            row[g2 * width + j] = poles[(i - j) % s]
            idx += b.ncomponents
        return table

    def validate(self) -> None:
        validate_pole_pairing(self)


def _monomial_poles(spec: RingSpec, level: int, c: int) -> list[PoleElem]:
    """c * gamma^d / (gamma^(p^level) - 1) for d = 0, ..., p^level - 1."""
    s = spec.p**level
    return [pole_sum(spec, [(level, [c * (t == d) for t in range(s)])]) for d in range(s)]


class TablePairing:
    """A pole-valued pairing given by its table on the ambient O-basis."""

    def __init__(
        self,
        module: FiniteLevelModule,
        table: Sequence[Sequence[PoleElem]],
        symmetry: str = NO_SYMMETRY,
    ):
        self.spec = module.spec
        self.module = module
        self.table = [list(row) for row in table]
        self._symmetry = symmetry
        if len(self.table) != module.dim or any(len(r) != module.dim for r in self.table):
            raise ValueError("table has the wrong shape")

    def declared_symmetry(self) -> str:
        return self._symmetry

    def value(self, x: Vec, y: Vec) -> PoleElem:
        """sum x_a * y_b * table[a][b], normalised once by `pole_sum`."""
        parts = []
        for a, xa in enumerate(x):
            if xa == 0:
                continue
            row = self.table[a]
            for b, yb in enumerate(y):
                if yb == 0:
                    continue
                v = row[b]
                c = xa * yb
                parts.append((v.level, [c * t for t in v.numerator.coeffs]))
        return pole_sum(self.spec, parts)

    def validate(self) -> None:
        validate_pole_pairing(self)


def _gamma_times(v: PoleElem) -> PoleElem:
    """gamma * v: the numerator rotated one place at v's level.  A rotation
    of a vector that is not periodic is not periodic, so it stays minimal."""
    cs = v.numerator.coeffs
    return PoleElem(v.spec, v.level, GroupRingElem(v.spec, v.level, cs[-1:] + cs[:-1]), _normalise=False)


def validate_pole_pairing(pairing) -> None:
    """Check semilinearity, the relations and the declared symmetry.

    The pairing is O-bilinear (as `HeightPairing.gram` assumes) and gamma
    rotates each basis vector inside its generator's block, so
    semilinearity is gamma-equivariance of `pairing.table`: [gamma e_a,
    e_b] = gamma [e_a, e_b] = [e_a, gamma^(-1) e_b].  Given that, the
    relation span is killed once each presentation row (`rel_gens`) is,
    and a row is killed once it pairs to zero, on both sides, with the
    first basis vector e_g of each generator: [rel, gamma^j e_g] =
    gamma^(-j) [rel, e_g] and [gamma^j e_g, rel] = gamma^j [e_g, rel].
    That is 2 * len(rel_gens) * ngens `value` calls.  The symmetry holds
    once it holds on each generator's first row.
    """
    M = pairing.module
    table = pairing.table
    n = M.block
    starts = range(0, M.dim, n)
    up = [s + (j + 1) % n for s in starts for j in range(n)]
    down = [s + (j - 1) % n for s in starts for j in range(n)]
    for a, row in enumerate(table):
        for b, v in enumerate(row):
            g = _gamma_times(v)
            if table[up[a]][b] != g or row[down[b]] != g:
                raise IwaheightsError("pairing is not semilinear")
    firsts = [[int(c == s) for c in range(M.dim)] for s in starts]
    for i, rel in enumerate(M.rel_gens):
        for e in firsts:
            if not (pairing.value(rel, e).is_zero() and pairing.value(e, rel).is_zero()):
                raise IwaheightsError(f"pairing does not vanish on relation {i}")
    sym = pairing.declared_symmetry()
    if sym in (IOTA_SYMMETRIC, IOTA_ANTISYMMETRIC, ZERO_PAIRING):
        for a in starts:
            for b in range(M.dim):
                w = pole_involution(table[b][a])
                want = PoleElem.zero(M.spec) if sym == ZERO_PAIRING else w if sym == IOTA_SYMMETRIC else -w
                if table[a][b] != want:
                    raise IwaheightsError(f"declared symmetry {sym} fails")


class HeightPairing:
    """The J/J^2-valued height attached to a pole-valued pairing.

    The coefficient is u^(-1) * phi_u([x, y]) for the generator exponent
    u; the value does not depend on u.  Every command uses u = 1, and the
    `heights` report builds a second height at u = 2 to compare the Gram
    matrices.  The pairing is not validated here: callers run
    `pairing.validate()` on input pairings.
    """

    def __init__(self, pairing, u: int = 1):
        spec = pairing.spec
        if not spec.is_unit(u):
            raise ValueError("generator exponent must be a unit")
        self.pairing = pairing
        self.module = pairing.module
        self.spec = spec
        self.u = u
        self._u_inv = spec.unit_inverse(u % spec.modulus)

    @functools.cached_property
    def gram(self) -> list[list[int]]:
        """G[a][b] = u^(-1) * phi_u([e_a, e_b]) mod p^k on the ambient bases,
        from `pairing.table`.  phi_u is O-linear, so G determines h.  The
        matrix is shared, so callers must not mutate it.

        For u != 1 a level-n basis value can need more precision than the
        ring cap holds; the `PrecisionError` phi_u raises then propagates.
        u = 1 never raises.
        """
        m = self.spec.modulus
        return [[self._u_inv * phi(self.u, v) % m for v in row] for row in self.pairing.table]

    def left_kernel(self) -> Submodule:
        """{x : h(x, .) = 0}, by elimination against the Gram matrix."""
        return self._kernel(zip(*self.gram))

    def right_kernel(self) -> Submodule:
        """{y : h(., y) = 0}."""
        return self._kernel(self.gram)

    def _kernel(self, rows) -> Submodule:
        M = self.module
        return M.submodule(linalg.preimage_span(list(rows), [], M.dim, self.spec.p, self.spec.k))


class DerivedHeightPairing:
    """h^(r) on the filtration stage M^(r), valued in J^r/J^(r+1) and given
    by its coefficient on (gamma - 1)^r.

    h^(1) is the restriction of h to the J-torsion; for r > 1 the left
    argument is pulled back through (gamma - 1)^(r-1) inside M[J^r].
    The preimage problem is factored once, here: the module gives a
    torsion preimage w_i of every Howell row s_i of the stage
    (`FiniteLevelModule.stage_preimages`).  On a split k = 1 module (every
    block module over F_p) w_i is 0 on a relation row and r - 1 prefix
    sums (divisions by gamma - 1) on its summand otherwise, with no solve;
    at k > 1 and with mixed relations it comes from one batched
    `linalg.solve_combination` against the shifted torsion rows.  A left
    argument x = sum q_i s_i (the quotients of its reduction against the
    stage, `linalg.coordinates`) then has the preimage sum q_i w_i, and
    h^(r)(x, y) is one evaluation of h.  That preimage may differ from
    any other by an element of ker((gamma-1)^(r-1)) in M[J^r], which h
    kills against the stage (checked in the tests).  Only the Gram matrix
    of h is read, and it is the same at every generator exponent of h.
    """

    def __init__(self, h: HeightPairing, r: int):
        if r < 1:
            raise ValueError("derived heights start at r = 1")
        self.h = h
        self.r = r
        self.spec = h.spec
        self.stage = h.module.filtration_stage(r)
        self._stage_preimages = h.module.stage_preimages(r)

    def value(self, x: Vec, y: Vec) -> int:
        """The coefficient of h^(r)(x, y) on (gamma - 1)^r, in [0, p^k):
        the one entry of `matrix([x], [y])`."""
        (row,) = self.matrix([x], [y])
        return row[0]

    def matrix(self, xs: Sequence[Vec], ys: Sequence[Vec]) -> list[list[int]]:
        """The coefficients of h^(r)(x, y) in [0, p^k), one row per x in xs.

        Each argument is checked for membership in the stage once.  Each
        left preimage w is solved and contracted with the Gram matrix G of
        h once, to w^T G, and the row of x is that vector dotted with each
        y.
        """
        G = self.h.gram
        m = self.spec.modulus
        ws = [_combine(self._preimage(x), G, len(G)) for x in xs]
        self._check_right(ys)
        return [[sum(a * b for a, b in zip(w, y)) % m for y in ys] for w in ws]

    def _preimage(self, x: Vec) -> list[int]:
        """A torsion preimage of x: sum q_i w_i over the stage's Howell rows,
        unreduced."""
        q = linalg.coordinates(x, self.stage.hrows, self.spec.p, self.spec.k)
        if q is None:
            raise IwaheightsError(f"left argument is not in the stage-{self.r} filtration")
        return _combine(q, self._stage_preimages, self.h.module.dim)

    def _check_right(self, ys: Sequence[Vec]) -> None:
        for y in ys:
            if not self.stage.contains(y):
                raise IwaheightsError(f"right argument is not in the stage-{self.r} filtration")

    def left_kernel_elements(self) -> set:
        """{x in the stage : h^(r)(x, g) = 0 for every stage generator g}.

        h^(r) is O-linear in x, so one `matrix` call gives the values of the
        stage's spanning rows (`Submodule.spanning_rows`) against the
        generators, and `_zeros` enumerates the stage from those rows."""
        rows, counts = self.stage.spanning_rows()
        gens = self.stage.gens()
        return self._zeros(rows, counts, self.matrix(rows, gens), len(gens))

    def right_kernel_elements(self) -> set:
        """{y in the stage : h^(r)(g, y) = 0 for every stage generator g},
        from the column of values of each spanning row, as in
        `left_kernel_elements`."""
        rows, counts = self.stage.spanning_rows()
        gens = self.stage.gens()
        by_gen = self.matrix(gens, rows)
        values = [[row[i] for row in by_gen] for i in range(len(rows))]
        return self._zeros(rows, counts, values, len(gens))

    def _zeros(self, rows, counts, values, nvalues: int) -> set:
        """The canonical forms of the elements sum a_i rows_i (0 <= a_i <
        counts_i) whose value sum a_i values_i is zero mod p^k: the
        `combinations` of the rows extended by their values, with `canon`
        applied only to the kept ones."""
        M = self.h.module
        n = M.dim
        extended = [list(r) + v for r, v in zip(rows, values)]
        combos = combinations(extended, counts, self.spec.modulus, n + nvalues)
        return {M.canon(v[:n]) for v in combos if not any(v[n:])}

