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
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from iwaheights import kernels, linalg
from iwaheights.errors import EnumerationCapError
from iwaheights.iwalg import GroupRingElem, RingSpec, _T_to_gamma_matrix

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
        self._summand_modules: dict[tuple[int, ...], FiniteLevelModule] = {}
        self._ideals: dict[int, list[list[int]]] = {}
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
        """All canonical representatives; refuses above the element cap."""
        if self.size > self.enum_cap:
            raise EnumerationCapError(
                f"module has {self.size} elements, above the cap {self.enum_cap}"
            )
        return list(itertools.product(*map(range, self.col_sizes)))

    # -- group-ring action ----------------------------------------------
    def action_matrix(self, x: GroupRingElem) -> list[list[int]]:
        """The matrix of multiplication by x: row a, column j of each
        generator's block is x[(a - j) mod p^N]."""
        xs = x.at_level(self.level).coeffs
        n = self.block
        rows = [[0] * self.dim for _ in range(self.dim)]
        for i in range(self.ngens):
            for a in range(n):
                row = rows[i * n + a]
                for j in range(n):
                    row[i * n + j] = xs[(a - j) % n]
        return rows

    def act(self, x: GroupRingElem, vec: Sequence[int]) -> Vec:
        """x * vec, as a cyclic convolution of x with each generator's block
        (the product action_matrix(x) . vec without building the matrix)."""
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

    def full_submodule(self) -> "Submodule":
        return self.submodule([[int(c == i) for c in range(self.dim)] for i in range(self.dim)])

    def torsion(self, f: GroupRingElem) -> "Submodule":
        """Kernel of multiplication by f: the f-torsion submodule.

        On a direct sum of summands Lambda_N/(f_i) (`_summands`) it is the
        direct sum of the summands' kernels, each found once per distinct
        summand at width p^N and placed at its generator's offset.  Rows of
        different generators share no column, so the placed Howell rows are
        already the Howell form of the sum.
        - k = 1: Lambda_N = F_p[T]/(T^(p^N)), so f is T^w times a unit and
          the summand is Lambda_N/(T^(v_i)); its kernel is the ideal
          T^(max(v_i - w, 0)) Lambda_N (`_ideal_rows`), with no solve.
        - k > 1: the summand is solved as a one-generator module.
        Mixed relations, and one generator at k > 1, take
        `_preimage_torsion` on the whole module.
        """
        if self._summands is None or (self.spec.k > 1 and self.ngens < 2):
            return self._preimage_torsion(f)
        if self.spec.k == 1:
            w = t_valuation(f)
            parts = [self._ideal_rows(max(v - w, 0)) for v in self._summand_valuations]
        else:
            solved = {rel: self._summand(rel)._preimage_torsion(f).hrows for rel in dict.fromkeys(self._summands)}
            parts = [solved[rel] for rel in self._summands]
        n = self.block
        return Submodule(self, [[0] * (i * n) + r + [0] * (self.dim - (i + 1) * n) for i, part in enumerate(parts) for r in part])

    def _preimage_torsion(self, f: GroupRingElem) -> "Submodule":
        """The f-torsion of the whole module: the preimage of the relation
        span under the action matrix of f."""
        A = self.action_matrix(f)
        gens = linalg.preimage_span(A, self.rel_rows or [[0] * self.dim], self.dim, self.spec.p, self.spec.k)
        return self.submodule(gens)

    def _ideal_rows(self, a: int) -> list[list[int]]:
        """Howell basis, at k = 1 and width n = p^N, of the ideal T^a Lambda_N;
        built once per a.  Its generators gamma^j T^a, j < n - a, are T^a
        shifted j places without wrapping, so they come already in echelon
        form, with pivot (-1)^a in column j."""
        rows = self._ideals.get(a)
        if rows is None:
            n = self.block
            t_a = list(_T_to_gamma_matrix(n, self.spec.modulus)[a]) if a < n else []
            rows = self._ideals[a] = linalg.howell([[0] * j + t_a[: n - j] for j in range(n - a)], self.spec.p, 1)
        return rows

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

    def _summand(self, rel: tuple[int, ...]) -> "FiniteLevelModule":
        """Lambda_N/(rel) (Lambda_N for ()), built once per module."""
        mod = self._summand_modules.get(rel)
        if mod is None:
            relations = [[GroupRingElem(self.spec, self.level, rel)]] if rel else []
            mod = self._summand_modules[rel] = FiniteLevelModule(self.spec, self.level, 1, relations, self.enum_cap)
        return mod

    # -- the J-adic machinery ---------------------------------------------
    def j_torsion(self, r: int) -> "Submodule":
        """M[J^r], the (gamma - 1)^r-torsion; computed once per r and shared."""
        tor = self._j_torsion.get(r)
        if tor is None:
            tor = self._j_torsion[r] = self.torsion(self.T_class() ** r)
        return tor

    def filtration_stage(self, r: int) -> "Submodule":
        """M^(r): the image of M[J^r] under (gamma - 1)^(r-1), applied to
        each torsion generator with `act`; computed once per r, and the
        returned submodule is shared.

        The stage does not depend on the generator: gamma^u - 1 = (gamma -
        1)(1 + gamma + ... + gamma^(u-1)) for a unit u, and the second
        factor has augmentation u, so it is a unit of the local ring
        Lambda_N and (gamma^u - 1)^(r-1) M[J^r] is the same image."""
        stage = self._stages.get(r)
        if stage is None:
            x = self.T_class() ** (r - 1)
            stage = self._stages[r] = self.submodule(self.act(x, g) for g in self.j_torsion(r).hrows)
        return stage

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

    def elements(self) -> list[Vec]:
        """All elements, as sorted canonical quotient representatives: the
        combinations sum a_i * hrows_i, 0 <= a_i < p^(w-v) (`_counts`).

        They hit each coset of the relation span R once: there are `order()`
        of them, and two differing by an element of R would differ at their
        first differing pivot column by an entry of valuation below w, which
        R's Howell property forbids.  This needs R inside the submodule,
        which every constructor ensures."""
        counts = self._counts()
        order = math.prod(counts)
        cap = self.module.enum_cap
        if order > cap:
            raise EnumerationCapError(f"submodule order {order} above cap {cap}")
        m = self.module.spec.modulus
        combos = [self.module.zero()]
        for r, count in zip(self.hrows, counts):
            if count > 1:
                combos = [[(x + a * y) % m for x, y in zip(v, r)] for v in combos for a in range(count)]
        return sorted(self.module.canon(v) for v in combos)

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

    def multiplicity(self, r: int) -> int:
        return self.e[r - 1] if r <= len(self.e) else 0


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
