"""Finitely presented modules over a finite-level group ring.

A module is presented as Lambda_N^g modulo the Lambda_N-span of relation
rows.  Internally everything is a submodule of the ambient O-module
O^(g*p^N) represented by a Howell basis, so membership, kernels, images
and orders are all exact.  Enumeration-backed operations
(the oracles of record) refuse to run above a configurable element cap.

The J-adic machinery lives here: J-power torsion M[J^r], the filtration
stages M^(r) = (gamma-1)^(r-1) M[J^r], the universal norms (always {0} at
a finite level, see `FiniteLevelModule.universal_norms`), and the
invariant bookkeeping for elementary module shapes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Optional, Sequence, Union

from iwaheights import kernels, linalg
from iwaheights.errors import EnumerationCapError, IwaheightsError
from iwaheights.iwalg import GroupRingElem, RingSpec, _T_to_gamma

DEFAULT_ENUM_CAP = 3**10

# Largest ambient O-rank (generators times p^level) of any module: a p = 5
# dual module of rank 1250 ran for over a minute.  It admits the builder's
# ranks 162 (--ord 30), 250 (--p 5 --ord 30) and 98 (p = 7, level 2).
MAX_RANK = 256

# Largest T-adic precision (ring.cap) an instance file may ask for.  Series
# products cost cap^2: lfun-check on lfun_seed0_ord1.json took 0.4 s at cap
# 1024 and 5 s at cap 4096, and at cap 10^9 it ran out of a 1 GB address
# space.  The shipped files use at most 63.  The builder's cap
# (k+1)*p^n + ord + 8 at level n, with ord + 1 < k*p^n and p^n <= 128 under
# MAX_RANK, is at most 7*128 + 6 = 902 for k <= 3: 200 for --ord 30 and 288
# for --p 5 --ord 30.  The builder refuses a larger cap before its level
# search builds anything (--k 12 --ord 323 would need 1384).
MAX_CAP = 1024

# Largest bit length of the coefficient modulus p^k.  Every coefficient is
# a residue mod p^k, so each product costs more as p^k grows: heights on
# two_block_mixed_f3.json with k = 10^6 (p^k of 1.6 million bits) ran past
# 10 s.  The bound also keeps p below 2^32 at level 0, where MAX_RANK does
# not bound it and RingSpec's trial-division primality test costs sqrt(p).
# The shipped files use p^k <= 9 and the builder's rungs p^k <= 27.
MAX_MODULUS_BITS = 32

# Largest derived degree (--max-r) any command checks.  Applying
# (gamma - 1)^r costs r group-ring products, so a run grows with the square
# of --max-r: heights and oracle on two_block_mixed_f3.json, and invariants
# on an F_3 level-2 module, took 4-5 s each at --max-r 1000, ran past 20 s
# at 100000, and finish in under 1 s at 256.
MAX_R = 256

Vec = tuple[int, ...]


def check_modulus(p: int, k: int) -> None:
    """Raise EnumerationCapError when p^k has more than MAX_MODULUS_BITS bits.

    Like `check_rank`, p^k is multiplied out one factor at a time and the
    loop stops at the first product above the bound, so a huge k or p is
    refused at once, before any ring is built.  A p or k that RingSpec
    rejects (p < 3, k < 1) passes here and is refused there.
    """
    modulus = 1
    for _ in range(k):
        modulus *= abs(p)
        if modulus.bit_length() > MAX_MODULUS_BITS:
            raise EnumerationCapError(
                f"coefficient modulus {p}^{k} has more than {MAX_MODULUS_BITS} bits"
            )


def check_rank(p: int, level: int, ngens: int) -> None:
    """Raise EnumerationCapError when the ambient O-rank ngens * p^level, or
    the block size p^level, is above MAX_RANK.

    p^level is multiplied out one factor at a time and the loop stops at
    the first product above the cap, so a huge level is refused at once,
    before anything of its size is built.
    """
    block = 1
    for _ in range(level):
        block *= p
        if block > MAX_RANK:
            break
    if max(ngens, 1) * block > MAX_RANK:
        raise EnumerationCapError(
            f"module of O-rank {ngens}*{p}^{level}, above the cap {MAX_RANK}"
        )


def log_p(n: int, p: int) -> Optional[int]:
    """The exponent e with p^e = n, or None when n is not a power of p."""
    e = 0
    while n > 1 and n % p == 0:
        n //= p
        e += 1
    return e if n == 1 else None


def t_valuation(x: GroupRingElem) -> int:
    """The T-adic valuation of x: the index of its first nonzero T-basis
    coefficient, or p^level for x = 0.  At k = 1 x is T^w times a unit."""
    return next((j for j, c in enumerate(x.to_poly_coeffs()) if c), len(x.coeffs))


def check_enum_cap(what: str, count: int, cap: int) -> None:
    """Raise EnumerationCapError when enumerating `count` elements of `what`
    would pass the element cap."""
    if count > cap:
        raise EnumerationCapError(f"{what} has {count} elements, above the cap {cap}")


def combinations(rows: Sequence[Sequence[int]], counts: Sequence[int], m: int, width: int) -> Iterator[Vec]:
    """Every sum a_i * rows_i mod m with 0 <= a_i < counts_i, as a tuple,
    in the order of `itertools.product(*map(range, counts))`; rows are
    `width` long and their entries may be any ints.

    Each vector is packed into one int: entry j sits in the field of b bits
    at bit b*j, b the least multiple of 8 with m < 2^(b-1).  The sum s of
    two packed vectors with entries in [0, m) has every field below
    2m - 1 < 2^b, so no carry crosses a field.  Adding K, which holds
    2^(b-1) - m in every field, sets a field's top (guard) bit exactly
    where that field of s is m or more, so

        s - (((s + K) & G) >> (b - 1)) * m,

    G the guard bits, reduces every field at once.  Each row is packed once
    with its entries reduced mod m, each of its multiples is the one before
    plus the row, and every combination is an earlier combination plus one
    multiple: one big-int add and its reduction.  A finished combination
    is decoded once: at b = 8 its little-endian bytes are its entries, and
    wider fields are shifted out.

    The combinations of all but the last row are built as a list; the full
    ones are generated from it one at a time, so a caller that keeps few of
    them holds little."""
    nbytes = (m.bit_length() + 8) // 8
    bits = 8 * nbytes
    shift = bits - 1
    size = nbytes * width
    K = int.from_bytes(((1 << shift) - m).to_bytes(nbytes, "little") * width, "little")
    G = int.from_bytes((1 << shift).to_bytes(nbytes, "little") * width, "little")

    def multiples(row: Sequence[int], count: int) -> list[int]:
        r = int.from_bytes(b"".join((y % m).to_bytes(nbytes, "little") for y in row), "little")
        out = [0]
        for _ in range(count - 1):
            s = out[-1] + r
            out.append(s - (((s + K) & G) >> shift) * m)
        return out

    table = [multiples(row, count) for row, count in zip(rows, counts) if count > 1]
    last = table.pop() if table else [0]
    combos = [0]
    for mults in table:
        combos = [s - (((s + K) & G) >> shift) * m for v in combos for w in mults for s in [v + w]]
    sums = (s - (((s + K) & G) >> shift) * m for v in combos for w in last for s in [v + w])
    if nbytes == 1:
        return (tuple(s.to_bytes(size, "little")) for s in sums)
    mask = (1 << bits) - 1
    return (tuple(s >> j & mask for j in range(0, bits * width, bits)) for s in sums)


def _circulant(x: GroupRingElem, level: int) -> list[list[int]]:
    """The matrix of multiplication by x on Lambda_level: row a, column j
    is x[(a - j) mod p^level], after `at_level` brings x to that level."""
    xs = x.at_level(level).coeffs
    n = len(xs)
    return [[xs[(a - j) % n] for j in range(n)] for a in range(n)]


def _combine(coeffs: Sequence[int], rows: Sequence[Sequence[int]], dim: int) -> list[int]:
    """sum(coeffs_i * rows_i), unreduced: the zero vector of length dim
    when there are no rows."""
    w = [0] * dim
    for c, row in zip(coeffs, rows):
        if c:
            w = [a + c * b for a, b in zip(w, row)]
    return w


def _divide_by_T(s: list[int], e: int, m: int) -> list[int]:
    """A w with (gamma - 1)^e w = s in Lambda_level over Z/m, s given in the
    gamma basis; raises when no such w exists.

    (gamma - 1) w = s reads w[g-1] - w[g] = s[g] around the cycle, so
    w[g] = -(s[0] + ... + s[g]) solves it exactly when the total s[0] +
    ... + s[n-1] is zero: one division is one prefix sum."""
    for _ in range(e):
        sums = list(itertools.accumulate(s))
        if sums[-1] % m:
            raise IwaheightsError("no torsion preimage found (filtration data broken)")
        s = [-x % m for x in sums]
    return s


@lru_cache(maxsize=None)
def _ideal_rows(p: int, level: int, a: int) -> list[list[int]]:
    """Howell basis, at k = 1 and width n = p^level, of the ideal T^a Lambda_level.

    The ideal depends only on (p, level, a), so its rows are built once per
    triple and shared by every module at that level (a module and its dual
    among them): callers must not mutate them.  There are n + 1 triples per
    ring, and `check_rank` keeps n at most MAX_RANK.  The generators
    gamma^j T^a, j < n - a, are T^a shifted j places without wrapping, so
    they come already in echelon form, with pivot (-1)^a in column j."""
    n = p**level
    t_a = _T_to_gamma([0] * a + [1], n, p) if a < n else []
    return linalg.howell([[0] * j + t_a[: n - j] for j in range(n - a)], p, 1)


class FiniteLevelModule:
    """Lambda_N^g / (relation rows), as an explicit O-module quotient.

    `rel_gens` keeps the presentation's relation rows, one flat row per
    relation; `rel_rows` is the Howell basis of the span of all their
    gamma-shifts.  The module is immutable once built and caches
    `j_torsion(r)` and `filtration_stage(r)` per r.  Cached submodules are
    shared between callers and must not be mutated.  A rank
    above `MAX_RANK` is refused by `check_rank` before any relation row is
    built.
    """

    def __init__(
        self,
        spec: RingSpec,
        level: int,
        ngens: int,
        relations: Sequence[Sequence[Union[GroupRingElem, Sequence[int]]]] = (),
        enum_cap: int = DEFAULT_ENUM_CAP,
    ):
        check_rank(spec.p, level, ngens)
        self.spec = spec
        self.level = level
        self.ngens = ngens
        self.block = spec.p**level
        self.dim = ngens * self.block
        self.enum_cap = enum_cap
        rows = []
        self.rel_gens = []
        for rel in relations:
            if len(rel) != ngens:
                raise ValueError("relation row must have one entry per generator")
            comps = [self._coerce(entry).coeffs for entry in rel]
            self.rel_gens.append([c for cs in comps for c in cs])
            for shift in range(self.block):
                # gamma^shift * comp is comp rotated by shift places
                row = []
                for cs in comps:
                    row.extend(cs[-shift:] + cs[:-shift])
                rows.append(row)
        self.rel_rows = linalg.howell(rows, spec.p, spec.k) if rows else []
        # residues a canonical representative takes in each column: the
        # relation pivot p^w, or p^k where the relations have no pivot
        self.col_sizes = [spec.modulus] * self.dim
        for r in self.rel_rows:
            c = linalg._pivot_col(r)
            self.col_sizes[c] = r[c]
        self.size = math.prod(self.col_sizes)
        self._summands = self._split()
        self._j_torsion: dict[int, Submodule] = {}
        self._stages: dict[int, Submodule] = {}

    def _coerce(self, entry) -> GroupRingElem:
        if isinstance(entry, GroupRingElem):
            if entry.level != self.level or entry.spec != self.spec:
                raise ValueError("relation entry at the wrong level")
            return entry
        return GroupRingElem.from_poly_coeffs(self.spec, self.level, list(entry))

    # -- elements -------------------------------------------------------
    def canon(self, vec: Sequence[int]) -> Vec:
        return tuple(linalg.reduce_vector(list(vec), self.rel_rows, self.spec.p, self.spec.k))

    def zero(self) -> Vec:
        return (0,) * self.dim

    def component(self, vec: Sequence[int], i: int) -> GroupRingElem:
        return GroupRingElem(
            self.spec, self.level, vec[i * self.block : (i + 1) * self.block]
        )

    def elements(self) -> list[Vec]:
        """All canonical representatives, the box of residues `col_sizes`
        in `itertools.product` order; refuses above the element cap."""
        check_enum_cap("module", self.size, self.enum_cap)
        return list(itertools.product(*map(range, self.col_sizes)))

    def images(self, x: GroupRingElem) -> Iterator[Vec]:
        """x * v for every v of `elements()`, in the same order, generated
        one at a time.

        Multiplication by x is O-linear, so x * v = sum v_j (x * e_j): `act`
        runs once per basis vector e_j whose `col_sizes[j]` is above 1, and
        `canonical_combinations` brings the combinations of those images
        to canonical form.  Refuses above the element cap like
        `elements()`, when called."""
        check_enum_cap("module", self.size, self.enum_cap)
        cols = [j for j, size in enumerate(self.col_sizes) if size > 1]
        rows = [self.act(x, [int(c == j) for c in range(self.dim)]) for j in cols]
        return self.canonical_combinations(rows, [self.col_sizes[j] for j in cols])

    def canonical_combinations(self, rows: Sequence[Vec], counts: Sequence[int]) -> Iterator[Vec]:
        """The canonical forms of the `combinations` of canonical rows with
        counts, in their order, generated one at a time as tuples.

        When every relation pivot is a unit (every `col_sizes` entry is 1
        or p^k, as at k = 1), the Howell rows `rel_rows` are fully reduced
        with pivot 1, so `canon` is the linear map v -> v - sum_i v[c_i]
        rel_rows_i, c_i the pivot column of row i.  A sum mod p^k of
        canonical vectors is then canonical, and the tuples `combinations`
        decodes from its packed sums are returned as they are.
        At a pivot p^w with 0 < w < k a sum can leave [0, p^w) in the pivot
        column, so there every combination is reduced by `canon`; the
        canonical rows still leave every unit pivot column of a sum at 0,
        so each reduction skips those relation rows."""
        m = self.spec.modulus
        combos = combinations(rows, counts, m, self.dim)
        if all(size in (1, m) for size in self.col_sizes):
            return combos
        return map(self.canon, combos)

    # -- group-ring action ----------------------------------------------
    def action_matrix(self, x: GroupRingElem) -> list[list[int]]:
        """The matrix of multiplication by x: the circulant of x
        (`_circulant`) on each generator's block."""
        circulant = _circulant(x, self.level)
        return [self._place(i, row) for i in range(self.ngens) for row in circulant]

    def _place(self, i: int, row: list[int]) -> list[int]:
        """A row of generator i's block, padded to the whole module."""
        n = self.block
        return [0] * (i * n) + row + [0] * (self.dim - (i + 1) * n)

    def act(self, x: GroupRingElem, vec: Sequence[int]) -> Vec:
        """x * vec, as a cyclic convolution of x with each generator's block
        (the product action_matrix(x) . vec without building the matrix).
        `images` applies x to a whole module through one call per basis
        vector."""
        xs = x.at_level(self.level).coeffs
        n = self.block
        m = self.spec.modulus
        out: list[int] = []
        for i in range(self.ngens):
            out.extend(kernels.cyclic_mul(xs, vec[i * n : (i + 1) * n], m))
        return self.canon(out)

    def gamma_class(self) -> GroupRingElem:
        return GroupRingElem.gamma(self.spec, self.level)

    def T_class(self) -> GroupRingElem:
        """Class of gamma - 1 at this level."""
        return self.gamma_class() - GroupRingElem.one(self.spec, self.level)

    # -- submodules -------------------------------------------------------
    def submodule(self, vectors: Iterable[Sequence[int]]) -> "Submodule":
        rows = [list(v) for v in vectors] + [list(r) for r in self.rel_rows]
        return Submodule(self, linalg.howell(rows, self.spec.p, self.spec.k))

    def zero_submodule(self) -> "Submodule":
        return Submodule(self, [list(r) for r in self.rel_rows])

    def _direct_sum(self, parts: Iterable[list[list[int]]]) -> "Submodule":
        """Howell rows parts[i] placed on generator i's block: rows of
        different generators share no column, so this is the sum's form."""
        return Submodule(self, [self._place(i, r) for i, part in enumerate(parts) for r in part])

    @cached_property
    def _summand_valuations(self) -> list[int]:
        """Per generator of a split module, the T-valuation of its relation
        (p^N for a free summand)."""
        return [t_valuation(GroupRingElem(self.spec, self.level, rel)) for rel in self._summands]

    def _split(self) -> Optional[list[tuple[int, ...]]]:
        """Per generator, the coefficients of its one relation (() when it
        has none), when every relation row is supported on one generator
        and no generator has two; None otherwise."""
        n = self.block
        out: list[tuple[int, ...]] = [()] * self.ngens
        for rel in self.rel_gens:
            support = [i for i in range(self.ngens) if any(rel[i * n : (i + 1) * n])]
            if len(support) > 1 or (support and out[support[0]]):
                return None
            if support:
                i = support[0]
                out[i] = tuple(rel[i * n : (i + 1) * n])
        return out

    # -- the J-adic machinery ---------------------------------------------
    def j_torsion(self, r: int) -> "Submodule":
        """M[J^r], the (gamma - 1)^r-torsion; computed once per r and shared.

        On a direct sum of summands Lambda_N/(f_i) (`_summands`) it is the
        direct sum of the summands' kernels, each found once per distinct
        summand at width p^N (`_direct_sum`).
        - k = 1: Lambda_N = F_p[T]/(T^(p^N)), the summand is
          Lambda_N/(T^(v_i)) and its kernel is the ideal
          T^(max(v_i - r, 0)) Lambda_N (`_ideal_rows`), with no solve.
        - k > 1: the kernel is `linalg.preimage_span` of the summand's
          relation rows (the module's `rel_rows` on that block, already its
          Howell basis) under the circulant of (gamma - 1)^r.
        Mixed relations take `preimage_span` of `rel_rows` under the action
        matrix of (gamma - 1)^r on the whole module.
        """
        if r in self._j_torsion:
            return self._j_torsion[r]
        p, k, n = self.spec.p, self.spec.k, self.block
        if self._summands is None:
            matrix = self.action_matrix(self.T_class() ** r)
            tor = Submodule(self, linalg.preimage_span(matrix, self.rel_rows, self.dim, p, k))
        elif k == 1:
            tor = self._direct_sum(_ideal_rows(p, self.level, max(v - r, 0)) for v in self._summand_valuations)
        else:
            circulant = _circulant(self.T_class() ** r, self.level)
            solved: dict[tuple[int, ...], list[list[int]]] = {}
            for i, rel in enumerate(self._summands):
                if rel not in solved:
                    rows = [row[i * n : (i + 1) * n] for row in self.rel_rows]
                    solved[rel] = linalg.preimage_span(circulant, rows, n, p, k)
            tor = self._direct_sum(solved[rel] for rel in self._summands)
        self._j_torsion[r] = tor
        return tor

    def filtration_stage(self, r: int) -> "Submodule":
        """M^(r): the image of M[J^r] under (gamma - 1)^(r-1); computed once
        per r, and the returned submodule is shared.

        On a split k = 1 module it is the ideal T^(v_i - 1) Lambda_N on each
        summand Lambda_N/(T^(v_i)) with v_i >= r and zero (T^(v_i) Lambda_N)
        on the others, placed like `j_torsion`'s rows.  Elsewhere `act`
        applies (gamma - 1)^(r-1) to each torsion generator.

        The stage does not depend on the generator: gamma^u - 1 = (gamma -
        1)(1 + gamma + ... + gamma^(u-1)) for a unit u, and the second
        factor has augmentation u, so it is a unit of the local ring
        Lambda_N and (gamma^u - 1)^(r-1) M[J^r] is the same image."""
        if r in self._stages:
            return self._stages[r]
        if r < 1:
            raise ValueError("the filtration starts at r = 1")
        if self._summands is not None and self.spec.k == 1:
            p, vals = self.spec.p, self._summand_valuations
            stage = self._direct_sum(_ideal_rows(p, self.level, v - 1 if v >= r else v) for v in vals)
        else:
            x = self.T_class() ** (r - 1)
            stage = self.submodule(self.act(x, g) for g in self.j_torsion(r).hrows)
        self._stages[r] = stage
        return stage

    def stage_preimages(self, r: int) -> list[list[int]]:
        """A preimage w_i in M[J^r] of each Howell row s_i of
        `filtration_stage(r)` under (gamma - 1)^(r-1), in the same order,
        with entries in [0, p^k).  Raises when some s_i has none.

        On a split k = 1 module each s_i lies on one summand
        Lambda_N/(T^(v_i)).  With v_i < r it is a relation row, and w_i = 0.
        With v_i >= r it lies in T^(v_i - 1) Lambda_N, so (gamma - 1)^(r-1)
        divides it in Lambda_N, and w_i is r - 1 prefix sums on its block
        (`_divide_by_T`); then (gamma - 1)^r w_i = (gamma - 1) s_i is a
        relation, so w_i is r-torsion.  Elsewhere one batched
        `linalg.solve_combination` writes every s_i as a combination of the
        shifted torsion rows ((gamma - 1)^(r-1) times each row of
        `j_torsion(r)`, by `act`) and the relation rows, and w_i is the same
        combination of the torsion rows."""
        stage = self.filtration_stage(r)
        p, k, n, m = self.spec.p, self.spec.k, self.block, self.spec.modulus
        if self._summands is not None and k == 1:
            out = []
            for s in stage.hrows:
                i = linalg._pivot_col(s) // n
                w = [0] * self.dim
                if self._summand_valuations[i] >= r:
                    w[i * n : (i + 1) * n] = _divide_by_T(s[i * n : (i + 1) * n], r - 1, m)
                out.append(w)
            return out
        shift = self.T_class() ** (r - 1)
        gens = self.j_torsion(r).hrows
        shifted = [list(self.act(shift, g)) for g in gens] + [list(rel) for rel in self.rel_rows]
        sols = linalg.solve_combination(shifted, stage.hrows, p, k)
        if None in sols:
            raise IwaheightsError("no torsion preimage found (filtration data broken)")
        return [[a % m for a in _combine(sol, gens, self.dim)] for sol in sols]

    def universal_norms(self) -> "Submodule":
        """The intersection of the images nu_n M over all n, which is {0}.

        nu_n divides nu_(n+1), so the images shrink as n grows.  For n > N
        (N = self.level) nu_n = p^(n-N) nu_N, so once n >= N + k the image
        is p^k nu_N M = 0."""
        return self.zero_submodule()


@dataclass
class Submodule:
    """A submodule of a finite-level module, as a Howell basis containing
    the relation span.

    Equality compares the Howell bases and the owning module by identity
    (`is`): submodules of two separately built but equal modules are never
    equal.  Submodules handed out by a module's caches (`j_torsion`,
    `filtration_stage`) are shared, so callers must not mutate `hrows`.
    """

    module: FiniteLevelModule
    hrows: list[list[int]]

    def _counts(self) -> list[int]:
        """p^(w-v) per Howell row, for its pivot p^v in a column where the
        module's `col_sizes` is p^w."""
        sizes = self.module.col_sizes
        return [sizes[c] // r[c] for r in self.hrows for c in [linalg._pivot_col(r)]]

    def order(self) -> int:
        """Number of elements of the submodule inside the quotient module."""
        return math.prod(self._counts())

    def contains(self, vec: Sequence[int]) -> bool:
        return linalg.span_contains(list(vec), self.hrows, self.module.spec.p, self.module.spec.k)

    def gens(self) -> list[Vec]:
        """Canonical nonzero generators of the image in the quotient."""
        out = []
        seen = set()
        for r in self.hrows:
            c = self.module.canon(r)
            if any(c) and c not in seen:
                seen.add(c)
                out.append(c)
        return out

    def spanning_rows(self) -> tuple[list[list[int]], list[int]]:
        """The Howell rows that take more than one multiple in `elements`,
        with their counts p^(w-v) (`_counts`); refuses above the element
        cap.  The combinations sum a_i * row_i, 0 <= a_i < count_i, are the
        elements, one per coset (`elements`)."""
        counts = self._counts()
        check_enum_cap("submodule", math.prod(counts), self.module.enum_cap)
        live = [i for i, count in enumerate(counts) if count > 1]
        return [self.hrows[i] for i in live], [counts[i] for i in live]

    def elements(self) -> list[Vec]:
        """All elements, as sorted canonical quotient representatives: the
        `combinations` of `spanning_rows` (each one packed-int add and its
        guard-bit reduction), brought to canonical form by
        `FiniteLevelModule.canonical_combinations`.

        They hit each coset of the relation span R once: there are `order()`
        of them, and two differing by an element of R would differ at their
        first differing pivot column by an entry of valuation below w, which
        R's Howell property forbids.  This needs R inside the submodule,
        which every constructor ensures.  The rows are canonical already:
        at each pivot column of R the submodule has a row whose pivot
        divides R's, and the Howell form reduces every other row's entry
        there below it."""
        return sorted(self.module.canonical_combinations(*self.spanning_rows()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Submodule):
            return NotImplemented
        return self.module is other.module and self.hrows == other.hrows

    def __repr__(self):
        return f"<submodule of order {self.order()}>"


# -- elementary shapes and invariant extraction --------------------------


@dataclass(frozen=True)
class ElementaryShape:
    """Multiplicities of an elementary module: free part, J-power blocks,
    and a J-coprime part carried opaquely."""

    e_infinity: int
    j_blocks: tuple[tuple[int, int], ...] = ()
    coprime_part: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.e_infinity < 0 or any(e < 0 or i < 1 for i, e in self.j_blocks):
            raise ValueError("multiplicities must be nonnegative, block sizes >= 1")

    def multiplicity(self, i: int) -> int:
        return sum(e for j, e in self.j_blocks if j == i)

    def max_block(self) -> int:
        return max((i for i, e in self.j_blocks if e), default=0)


def shape_dims(shape: ElementaryShape, r_max: int) -> list[int]:
    """dim^(r) = e_r + e_(r+1) + ... + e_infinity for r = 1..r_max.

    The J-coprime part contributes nothing.
    """
    return [
        sum(e for i, e in shape.j_blocks if i >= r) + shape.e_infinity
        for r in range(1, r_max + 1)
    ]


@dataclass(frozen=True)
class InvariantProfile:
    e: tuple[int, ...]
    e_infinity: int


def infer_invariants(dims: Sequence[int]) -> InvariantProfile:
    """Recover (e_1, e_2, ..., e_infinity) from a stabilised dimension
    sequence: e_r = dims[r] - dims[r+1], e_infinity = the stable tail."""
    if not dims:
        raise ValueError("need at least one dimension")
    if any(a < b for a, b in zip(dims, dims[1:])):
        raise ValueError("dimension sequence must be non-increasing")
    if len(dims) >= 2 and dims[-1] != dims[-2]:
        raise ValueError("dimension sequence has not stabilised")
    e = tuple(a - b for a, b in zip(dims, dims[1:]))
    return InvariantProfile(e, dims[-1])


def odd_even_multiplicities(e_seq: Sequence[int]) -> tuple[int, ...]:
    """The even degrees r (e_seq[0] is e_1) whose multiplicity e_r is odd.

    An even-degree derived pairing on a sign-coherent module is
    alternating, so each of these degrees breaks e_r = 0 mod 2.
    """
    return tuple(r for r, e in enumerate(e_seq, start=1) if r % 2 == 0 and e % 2 == 1)
