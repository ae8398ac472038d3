import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

from typing import Iterator, Sequence, Union

import pytest

from iwaheights import linalg
from iwaheights.errors import IwaheightsError, PrecisionError
from iwaheights.heights import HeightPairing
from iwaheights.iwalg import GroupRingElem, IwasawaPoly, RingSpec, project_to_level, required_projection_precision
from iwaheights.lambdamod import DEFAULT_ENUM_CAP, ElementaryShape, FiniteLevelModule, Submodule, Vec, check_rank
from iwaheights.poles import PoleElem, norm_class


def _basis(dim: int) -> list[tuple[int, ...]]:
    """The standard basis vectors of O^dim, as tuples."""
    return [tuple(int(c == a) for c in range(dim)) for a in range(dim)]


@pytest.fixture
def spec31():
    """p = 3, k = 1, generous cap."""
    return RingSpec(3, 1, 12)


@pytest.fixture
def spec32():
    """p = 3, k = 2, generous cap."""
    return RingSpec(3, 2, 12)


def random_poly(rng: random.Random, spec: RingSpec, precision=None) -> IwasawaPoly:
    if precision is None:
        precision = spec.cap
    return IwasawaPoly(
        spec, [rng.randrange(spec.modulus) for _ in range(precision + 1)], precision
    )


def gamma_power(spec: RingSpec, e: int) -> IwasawaPoly:
    """(1+T)^e, the generator gamma^e as a power series."""
    return IwasawaPoly(spec, [1, 1]) ** e


# -- ring, pole and module operations that no command needs ----------------
def truncate(f: IwasawaPoly, precision: int) -> IwasawaPoly:
    """f known only modulo T^(precision+1), or to its own precision if lower."""
    return IwasawaPoly(f.spec, f.coeffs, min(precision, f.precision))


def poly_add(a: IwasawaPoly, b: IwasawaPoly, sign: int = 1) -> IwasawaPoly:
    """a + sign*b, known to the smaller of the two precisions."""
    if a.spec != b.spec:
        raise ValueError("mixed ring specs")
    return IwasawaPoly(a.spec, [x + sign * y for x, y in zip(a.coeffs, b.coeffs)], min(a.precision, b.precision))


def involution(lam: IwasawaPoly) -> IwasawaPoly:
    """The ring automorphism induced by gamma -> gamma^(-1): T -> (1+T)^(-1) - 1,
    the geometric series sum_(i>=1) (-T)^i, substituted by Horner's rule."""
    spec, prec = lam.spec, lam.precision
    s = IwasawaPoly(spec, [0] + [(-1) ** i for i in range(1, prec + 1)], prec)
    out = IwasawaPoly(spec, lam.coeffs[-1:], prec)
    for c in reversed(lam.coeffs[:-1]):
        out = poly_add(out * s, IwasawaPoly(spec, [c], prec))
    return out


def norm_element(spec: RingSpec, n: int) -> IwasawaPoly:
    """((1+T)^(p^n) - 1) / T, exactly, as a polynomial of degree p^n - 1."""
    if n < 1:
        raise ValueError("level must be >= 1")
    return _geometric_sum(spec, 1, spec.p**n)


# -- the basis changes and the generator ratio as binomial tables and series --
# `GroupRingElem.from_poly_coeffs`, `to_poly_coeffs`, `project_to_level` and
# `poles.eta` compute these in closed form (Horner's rule, the constant u);
# the forms they replaced stay here as their oracles.
def _geometric_sum(spec: RingSpec, step: int, count: int) -> IwasawaPoly:
    """sum_(j < count) (1+T)^(j*step), exactly, as a polynomial of degree
    (count-1)*step; refused before anything is built when that is above the cap."""
    deg = (count - 1) * step
    if spec.cap < deg:
        raise PrecisionError(f"cap too small: need cap >= {deg}")
    coeffs = [0] * (deg + 1)
    for j in range(count):
        e = j * step
        for t in range(e + 1):
            coeffs[t] += math.comb(e, t)
    return IwasawaPoly(spec, coeffs)


def generator_ratio(spec: RingSpec, n: int, u: int) -> IwasawaPoly:
    """The exact quotient (gamma^(u*p^n) - 1) / (gamma^(p^n) - 1).

    u must be a unit mod p^k (taken as a positive integer exponent); the
    reduction of the result modulo (1+T)^(p^n) - 1 is the constant u.
    """
    if u < 1 or not spec.is_unit(u):
        raise ValueError(f"u = {u} is not a positive unit exponent mod p^{spec.k}")
    return _geometric_sum(spec, spec.p**n, u)


def omega_poly_coeffs(spec: RingSpec, n: int) -> list[int]:
    """(1+T)^(p^n) - 1 as an exact coefficient list (degree p^n, monic)."""
    q = spec.p**n
    m = spec.modulus
    return [0] + [math.comb(q, i) % m for i in range(1, q + 1)]


def gamma_to_T_matrix(size: int, m: int) -> list[list[int]]:
    """Row i: the coefficients of (1+T)^i in the T basis."""
    return [[math.comb(i, j) % m for j in range(size)] for i in range(size)]


def T_to_gamma_matrix(size: int, m: int) -> list[list[int]]:
    """Row j: the coefficients of T^j = (gamma - 1)^j in the group basis."""
    return [
        [(math.comb(j, i) * (-1) ** (j - i)) % m if i <= j else 0 for i in range(size)]
        for j in range(size)
    ]


def table_from_poly_coeffs(spec: RingSpec, level: int, poly: Sequence[int]) -> GroupRingElem:
    """T-basis coefficients (at most p^level) to the group basis, row by
    row of `T_to_gamma_matrix`."""
    size, m = spec.p**level, spec.modulus
    if len(poly) > size:
        raise ValueError("polynomial degree too large for this level")
    mat = T_to_gamma_matrix(size, m)
    return GroupRingElem(spec, level, [sum(c * mat[j][i] for j, c in enumerate(poly)) for i in range(size)])


def table_to_poly_coeffs(x: GroupRingElem) -> list[int]:
    """The T-basis coefficients of x, row by row of `gamma_to_T_matrix`."""
    size, m = len(x.coeffs), x.spec.modulus
    mat = gamma_to_T_matrix(size, m)
    return [sum(c * mat[i][j] for i, c in enumerate(x.coeffs)) % m for j in range(size)]


def division_project_to_level(lam: IwasawaPoly, n: int) -> GroupRingElem:
    """The class of lam in the level-n group ring: the remainder of plain
    long division by the monic omega_n, then `table_from_poly_coeffs`."""
    spec = lam.spec
    need = required_projection_precision(spec, n)
    if lam.precision < need:
        raise PrecisionError(f"projection to level {n} needs precision >= {need}, have {lam.precision}")
    m, q = spec.modulus, spec.p**n
    omega = omega_poly_coeffs(spec, n)
    rem = list(lam.coeffs)
    for i in range(len(rem) - 1, q - 1, -1):
        c = rem[i]
        if c:
            for j in range(q + 1):
                rem[i - q + j] = (rem[i - q + j] - c * omega[j]) % m
    return table_from_poly_coeffs(spec, n, rem[:q])


def scale_elem(x: GroupRingElem, c: int) -> GroupRingElem:
    return GroupRingElem(x.spec, x.level, [c * a for a in x.coeffs])


def act_group(v: PoleElem, x: GroupRingElem) -> PoleElem:
    """x * v for a group-ring element x of level >= v.level."""
    return PoleElem(v.spec, v.level, v.numerator * x.at_level(v.level))


def from_components(M: FiniteLevelModule, comps: Sequence[GroupRingElem]) -> Vec:
    """The element of M with one group-ring component per generator."""
    if len(comps) != M.ngens:
        raise ValueError("need one component per generator")
    return M.canon([c for x in comps for c in x.coeffs])


def scale_vec(M: FiniteLevelModule, c: int, a: Sequence[int]) -> Vec:
    return M.canon([c * x for x in a])


def closure_elements(S: Submodule) -> list[Vec]:
    """The elements of S as canonical quotient representatives, grown from
    zero by adding generators until nothing new appears: the oracle of
    `Submodule.elements`."""
    M = S.module
    m = M.spec.modulus
    gens = S.gens()
    seen = {M.zero()}
    frontier = [M.zero()]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = M.canon([(a + b) % m for a, b in zip(x, g)])
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return sorted(seen)


def list_combinations(rows: Sequence[Sequence[int]], counts: Sequence[int], m: int, width: int) -> Iterator[list[int]]:
    """Every sum a_i * rows_i mod m with 0 <= a_i < counts_i, in the order
    of `itertools.product(*map(range, counts))`, one list of residues
    per entry: the oracle of the packed `lambdamod.combinations`."""
    multiples = [[[a * y % m for y in row] for a in range(count)] for row, count in zip(rows, counts) if count > 1]
    last = multiples.pop() if multiples else [[0] * width]
    combos = [[0] * width]
    for mults in multiples:
        combos = [[(x + y) % m for x, y in zip(v, w)] for v in combos for w in mults]
    return ([(x + y) % m for x, y in zip(v, w)] for v in combos for w in last)


def whole_module_torsion(M: FiniteLevelModule, f: GroupRingElem) -> Submodule:
    """The f-torsion of M, for any group-ring element f, solved on the
    whole module: the preimage of the relation span under the action matrix
    of f.  At f = (gamma - 1)^r it is the oracle of both split paths of
    `FiniteLevelModule.j_torsion`."""
    gens = linalg.preimage_span(M.action_matrix(f), M.rel_rows, M.dim, M.spec.p, M.spec.k)
    return M.submodule(gens)


def full_submodule(M: FiniteLevelModule) -> Submodule:
    """All of M: the Howell form of the identity rows and the relations."""
    return M.submodule(_basis(M.dim))


def span_intersection(rows_a, rows_b, p: int, k: int) -> list[list[int]]:
    """Howell basis of span(rows_a) & span(rows_b): the images of the
    combinations of rows_a that land in span(rows_b)."""
    if not rows_a:
        return []
    cols = [list(c) for c in zip(*rows_a)]
    combos = linalg.preimage_span(cols, rows_b, len(rows_a), p, k)
    return linalg.howell([matvec(cols, x, p**k) for x in combos], p, k)


def intersect(a: Submodule, b: Submodule) -> Submodule:
    """The intersection of two submodules of the same module."""
    M = a.module
    return M.submodule(span_intersection(a.hrows, b.hrows, M.spec.p, M.spec.k))


def linear_annihilator_order(inst) -> Union[int, float]:
    """max{r : L_z kills D[J^r]} under the instance's duality, by the walk
    r = 1, 2, ..., k * p^level + 1: the first r where L_z does not kill
    D[J^r] gives r - 1, and D[J^r] = D first gives inf.  The oracle of
    the gallop in `LfunInstance._annihilator_order`."""
    D = inst.D_loc
    m = inst.spec.modulus
    f = inst.duality.functional(inst.L_z)
    for r in range(1, inst.spec.k * inst.spec.p**D.level + 2):
        tor = D.j_torsion(r)
        if any(sum(a * b for a, b in zip(f, g)) % m for g in tor.gens()):
            return r - 1
        if tor.order() == D.size:
            return math.inf
    return math.inf


def monomial_table(inst, nrows):
    """Table rows (i, j) = the functional of T^j in coordinate i under the
    instance's duality: a faithful explicit table of that duality."""
    spec, D = inst.spec, inst.D_loc
    table = []
    for i in range(D.ngens):
        rows = []
        for j in range(nrows):
            x = [IwasawaPoly.zero(spec)] * D.ngens
            x[i] = IwasawaPoly(spec, [0] * j + [1])
            rows.append(inst.duality.functional(x))
        table.append(rows)
    return table


def run_cli(*argv, timeout=None, max_memory=None):
    """Run the CLI in a fresh interpreter from the repository root, with
    src/ on its path so that no installed copy is needed.  A run longer
    than `timeout` seconds raises `subprocess.TimeoutExpired`.  With
    `max_memory` (bytes) the child's address space is limited to it, so a
    run that tries to allocate more fails with a `MemoryError`."""
    root = Path(__file__).resolve().parent.parent
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (max_memory, max_memory))

    proc = subprocess.run(
        [sys.executable, "-m", "iwaheights.cli", *argv],
        capture_output=True,
        text=True,
        cwd=root,
        env=env,
        timeout=timeout,
        preexec_fn=limit if max_memory is not None else None,
    )
    return proc.returncode, proc.stdout, proc.stderr


# -- exact matrix helpers, shape modules and brute-force pairing checks -----
def matvec(mat: Sequence[Sequence[int]], v: Sequence[int], m: int) -> list[int]:
    return [sum(a * b for a, b in zip(row, v)) % m for row in mat]


def det_int(mat: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (fraction-free Bareiss)."""
    n = len(mat)
    if n == 0:
        return 1
    M = [list(row) for row in mat]
    sign = 1
    prev = 1
    for i in range(n - 1):
        piv = next((r for r in range(i, n) if M[r][i] != 0), None)
        if piv is None:
            return 0
        if piv != i:
            M[i], M[piv] = M[piv], M[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                M[r][c] = (M[r][c] * M[i][i] - M[r][i] * M[i][c]) // prev
            M[r][i] = 0
        prev = M[i][i]
    return sign * M[n - 1][n - 1]


def det_is_unit(mat: Sequence[Sequence[int]], p: int) -> bool:
    return det_int(mat) % p != 0


def module_from_shape(
    spec: RingSpec, level: int, shape: ElementaryShape, enum_cap: int = DEFAULT_ENUM_CAP
) -> FiniteLevelModule:
    """Present a shape at a finite level: one generator per block, with the
    relation T^i on a Lambda/J^i block and f on a coprime block.  Free
    blocks and blocks with i >= p^level degenerate identically at this
    level."""
    ngens = shape.e_infinity + sum(e for _, e in shape.j_blocks) + len(shape.coprime_part)
    check_rank(spec.p, level, ngens)
    relations = []
    idx = shape.e_infinity
    zero = GroupRingElem.zero(spec, level)
    for i, e in shape.j_blocks:
        for _ in range(e):
            if i < spec.p**level:
                row = [zero] * ngens
                row[idx] = GroupRingElem.from_poly_coeffs(spec, level, [0] * i + [1])
                relations.append(row)
            idx += 1
    for f in shape.coprime_part:
        row = [zero] * ngens
        row[idx] = GroupRingElem.from_poly_coeffs(spec, level, list(f))
        relations.append(row)
        idx += 1
    return FiniteLevelModule(spec, level, ngens, relations, enum_cap)


def norm_image_intersection(M: FiniteLevelModule) -> Submodule:
    """The intersection of the images nu_n M for n = 1, 2, ..., each image
    spanned by the columns of the action matrix of nu_n, run until it is
    stable past the module's level or n passes level + k + 2: the oracle
    of `FiniteLevelModule.universal_norms`."""
    current = full_submodule(M)
    n = 1
    while n <= M.level + M.spec.k + 2:
        A = M.action_matrix(norm_class(M.spec, n, M.level))
        img = M.submodule([[A[r][c] for r in range(M.dim)] for c in range(M.dim)])
        nxt = intersect(current, img)
        if nxt == current and n > M.level:
            return current
        current = nxt
        n += 1
    return current


def per_pair_left_kernel(d) -> set:
    """{x in the stage : h^(r)(x, g) = 0 for every stage generator g}, with
    one `DerivedHeightPairing.value` call per (element, generator) pair:
    the oracle of `left_kernel_elements`."""
    gens = d.stage.gens()
    return {tuple(x) for x in d.stage.elements() if all(d.value(x, y) == 0 for y in gens)}


def per_pair_right_kernel(d) -> set:
    """{y in the stage : h^(r)(g, y) = 0 for every stage generator g}, one
    `value` call per pair: the oracle of `right_kernel_elements`."""
    gens = d.stage.gens()
    return {tuple(y) for y in d.stage.elements() if all(d.value(x, y) == 0 for x in gens)}


def height_coeff(h: HeightPairing, x, y) -> int:
    """u^(-1) * phi_u([x, y]) mod p^k: x^T G y with the Gram matrix of h,
    the form of h that the test oracles evaluate."""
    total = 0
    for xa, row in zip(x, h.gram):
        if xa:
            total += xa * sum(g * yb for g, yb in zip(row, y))
    return total % h.spec.modulus


def derived_well_defined(d) -> bool:
    """Preimage independence of h^(r): two torsion preimages of the same
    stage element differ by ker((gamma-1)^(r-1)) inside M[J^r], so it
    suffices that h kills that kernel against the stage generators."""
    M = d.h.module
    ambiguity = intersect(M.j_torsion(d.r - 1), M.j_torsion(d.r))
    gens = d.stage.gens()
    return all(height_coeff(d.h, t, y) == 0 for t in ambiguity.gens() for y in gens)


def restricted_kernel_check(
    h: HeightPairing,
    lam0: Union[IwasawaPoly, GroupRingElem],
    lam1: Union[IwasawaPoly, GroupRingElem],
) -> dict:
    """Brute-force kernels of h restricted to M[lam0] x M[lam1], compared
    with the predicted images of multiplication by the twisted partners."""
    M = h.module

    def cls(lam):
        if isinstance(lam, IwasawaPoly):
            return project_to_level(lam, M.level)
        return lam

    l0 = cls(lam0)
    l1 = cls(lam1)
    l0iota = l0.involution()
    l1iota = l1.involution()

    left_els = whole_module_torsion(M, l0).elements()
    right_els = whole_module_torsion(M, l1).elements()

    brute_left = {
        tuple(x) for x in left_els if all(height_coeff(h, x, y) == 0 for y in right_els)
    }
    brute_right = {
        tuple(y) for y in right_els if all(height_coeff(h, x, y) == 0 for x in left_els)
    }

    tor_prod_left = whole_module_torsion(M, l0 * l1iota)
    pred_left = M.submodule([M.act(l1iota, g) for g in tor_prod_left.gens()] or [M.zero()])
    tor_prod_right = whole_module_torsion(M, l0iota * l1)
    pred_right = M.submodule([M.act(l0iota, g) for g in tor_prod_right.gens()] or [M.zero()])

    return {
        "left_kernel": sorted(brute_left),
        "right_kernel": sorted(brute_right),
        "predicted_left": sorted(tuple(v) for v in pred_left.elements()),
        "predicted_right": sorted(tuple(v) for v in pred_right.elements()),
        "left_match": brute_left == {tuple(v) for v in pred_left.elements()},
        "right_match": brute_right == {tuple(v) for v in pred_right.elements()},
    }


def twist_equivariance_check(
    h: HeightPairing,
    sigma_left: Sequence[Sequence[int]],
    sigma_right: Sequence[Sequence[int]],
    omega: int,
) -> bool:
    """Check h(sigma x, sigma y) = omega * h(x, y) on full spanning sets.

    sigma must be a pair of module automorphisms conjugating the group
    action by gamma -> gamma^omega; both conditions are validated first.
    """
    M = h.module
    spec = h.spec
    m = spec.modulus
    if omega % m not in (1, m - 1):
        raise IwaheightsError("only omega = +-1 twists are modelled")
    gam = M.gamma_class()
    gam_omega = gam.involution() if omega % m == m - 1 else gam
    basis = [list(e) for e in _basis(M.dim)]
    for sigma in (sigma_left, sigma_right):
        if not det_is_unit([list(r) for r in sigma], spec.p):
            raise IwaheightsError("sigma is not an automorphism")
        for rel in M.rel_rows:
            if any(M.canon(matvec(sigma, list(rel), m))):
                raise IwaheightsError("sigma does not preserve the relations")
        for e in basis:
            lhs = M.canon(matvec(sigma, M.act(gam, e), m))
            if lhs != M.act(gam_omega, matvec(sigma, e, m)):
                raise IwaheightsError("sigma does not conjugate gamma to gamma^omega")
    for x in basis:
        sx = matvec(sigma_left, x, m)
        for y in basis:
            sy = matvec(sigma_right, y, m)
            if height_coeff(h, sx, sy) != (omega * height_coeff(h, x, y)) % m:
                return False
    return True
