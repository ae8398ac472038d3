"""Induced modules at finite level and the convolution pairing.

A finite Galois module here is a free O-module with an action of a finite
cyclic group (the ambient profinite group is never represented; only its
finite quotients act).  The induced module at level n is realised directly
through its coefficient dictionary: an element is the tuple of values
mu(gamma^j) in T, and the two descriptions of the module structure
(function side and tensor side) are related by

    mu_{gamma0 f}(gamma) = mu_f(gamma0^(-1) gamma)
    mu_{g f}(gamma)      = pi(g) mu_f(omega(g) gamma)

Tate twists only relabel the group action and are not represented.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from iwaheights import kernels, linalg
from iwaheights.errors import IwaheightsError
from iwaheights.iwalg import GroupRingElem, RingSpec, fold_coeffs, iota_coeffs, transfer_coeffs

Vector = tuple[int, ...]
InducedElem = tuple[Vector, ...]


@dataclass(frozen=True)
class FiniteGaloisModule:
    """Free O-module of finite rank with a cyclic group action.

    `generator` is the matrix of the acting generator; its `order`-th power
    must be the identity.
    """

    spec: RingSpec
    rank: int
    order: int
    generator: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = self.spec.modulus
        gen = tuple(tuple(x % m for x in row) for row in self.generator)
        object.__setattr__(self, "generator", gen)
        if len(gen) != self.rank or any(len(r) != self.rank for r in gen):
            raise ValueError("generator matrix has wrong shape")
        if not linalg.det_is_unit([list(r) for r in gen], self.spec.p):
            raise ValueError("generator matrix is not invertible over O")
        if self._power(self.order) != tuple(
            tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)
        ):
            raise ValueError("generator matrix does not have the stated order")

    @classmethod
    def trivial(cls, spec: RingSpec, rank: int = 1) -> "FiniteGaloisModule":
        ident = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
        return cls(spec, rank, 1, ident)

    def _power(self, e: int) -> tuple[tuple[int, ...], ...]:
        m = self.spec.modulus
        e %= self.order
        out = [[int(i == j) for j in range(self.rank)] for i in range(self.rank)]
        g = [list(r) for r in self.generator]
        for _ in range(e):
            out = linalg.matmul(out, g, m)
        return tuple(tuple(r) for r in out)

    def act(self, e: int, v: Sequence[int]) -> Vector:
        m = self.spec.modulus
        return tuple(linalg.matvec(self._power(e), list(v), m))

    def basis(self) -> list[Vector]:
        return [tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)]


class InducedModule:
    """Level-n induction of a finite Galois module, as mu-dictionaries."""

    def __init__(self, base: FiniteGaloisModule, level: int):
        if level < 0:
            raise ValueError("level must be >= 0")
        self.base = base
        self.level = level
        self.spec = base.spec
        self.size = base.spec.p**level

    @property
    def o_rank(self) -> int:
        return self.base.rank * self.size

    def zero(self) -> InducedElem:
        return tuple((0,) * self.base.rank for _ in range(self.size))

    def from_tensor(self, t_vec: Sequence[int], j: int) -> InducedElem:
        """The element t (x) gamma^j: the dictionary supported at gamma^j."""
        m = self.spec.modulus
        out = [(0,) * self.base.rank] * self.size
        out[j % self.size] = tuple(x % m for x in t_vec)
        return tuple(out)

    def add(self, a: InducedElem, b: InducedElem) -> InducedElem:
        m = self.spec.modulus
        return tuple(
            tuple((x + y) % m for x, y in zip(va, vb)) for va, vb in zip(a, b)
        )

    def scale(self, c: int, a: InducedElem) -> InducedElem:
        m = self.spec.modulus
        return tuple(tuple((c * x) % m for x in v) for v in a)

    def lambda_act(self, lam: GroupRingElem, a: InducedElem) -> InducedElem:
        """Tensor-side action of the finite-level group ring: a cyclic
        product with lam in each coordinate of T."""
        if lam.level != self.level:
            raise ValueError("group-ring element at the wrong level")
        m = self.spec.modulus
        cols = [kernels.cyclic_mul(list(lam.coeffs), [v[i] for v in a], m) for i in range(self.base.rank)]
        return _rows(cols, self.size)

    def gamma_function_act(self, a: InducedElem, e: int = 1) -> InducedElem:
        """Function-side action of gamma0^e: mu goes to mu(gamma0^(-e) . )."""
        return tuple(a[(j - e) % self.size] for j in range(self.size))

    def galois_act(self, g: int, a: InducedElem) -> InducedElem:
        """Ambient action: pi(g) applied to the dictionary shifted by omega(g)."""
        return tuple(self.base.act(g, a[(j + g) % self.size]) for j in range(self.size))

    def evaluate(self, a: InducedElem) -> Vector:
        """Evaluation at the identity group element: mu(1)."""
        return a[0]

    def o_basis(self) -> list[InducedElem]:
        out = []
        for j in range(self.size):
            for t in self.base.basis():
                out.append(self.from_tensor(t, j))
        return out


def _rows(cols: Sequence[Sequence[int]], size: int) -> InducedElem:
    """The dictionary whose i-th coordinate, over the group, is cols[i]."""
    return tuple(tuple(c[j] for c in cols) for j in range(size))


def induce(base: FiniteGaloisModule, level: int) -> InducedModule:
    return InducedModule(base, level)


def evaluate(module: InducedModule, a: InducedElem) -> Vector:
    return module.evaluate(a)


def spread(module_from: InducedModule, a: InducedElem, module_to: InducedModule) -> InducedElem:
    """Natural inclusion into a higher level (restriction side of the limit)."""
    if module_to.level < module_from.level or module_to.base is not module_from.base:
        raise ValueError("spread goes to a higher level of the same base")
    return tuple(transfer_coeffs(a, module_to.size))


def fold(module_from: InducedModule, a: InducedElem, module_to: InducedModule) -> InducedElem:
    """Corestriction to a lower level: sum the dictionary over fibres."""
    if module_to.level > module_from.level or module_to.base is not module_from.base:
        raise ValueError("fold goes to a lower level of the same base")
    m = module_from.spec.modulus
    cols = [
        [c % m for c in fold_coeffs([v[i] for v in a], module_to.size)]
        for i in range(module_from.base.rank)
    ]
    return _rows(cols, module_to.size)


def group_ring_transfer(x: GroupRingElem, to_level: int) -> GroupRingElem:
    """Transfer map of group rings: each group element to the sum of its lifts."""
    if to_level < x.level:
        raise ValueError("transfer goes to a higher level")
    return GroupRingElem(x.spec, to_level, transfer_coeffs(x.coeffs, x.spec.p**to_level))


def frobenius_reciprocity(
    phi_vec: Sequence[int], A: FiniteGaloisModule, n: int
) -> Callable[[Sequence[int]], GroupRingElem]:
    """Upgrade an O-linear functional on A to the group-ring-valued map.

    Requires A to be killed by gamma^(p^n) - 1 (the generator's order must
    divide p^n).  The returned map Phi satisfies evaluate(Phi(a)) = phi(a)
    and Phi(gamma a) = gamma Phi(a); phi <-> Phi is a bijection.
    """
    spec = A.spec
    if spec.p**n % A.order != 0:
        raise IwaheightsError(
            f"level {n} too small: the module is not killed by gamma^(p^{n}) - 1"
        )
    m = spec.modulus
    size = spec.p**n
    phi_vec = [x % m for x in phi_vec]

    def pair(v: Sequence[int]) -> int:
        return sum(a * b for a, b in zip(phi_vec, v)) % m

    def Phi(a: Sequence[int]) -> GroupRingElem:
        return GroupRingElem(spec, n, [pair(A.act(-i, a)) for i in range(size)])

    return Phi


class ConvolutionPairing:
    """The level-n pairing induced by a perfect O-pairing of S and T.

    Values lie in the level-n group ring; the defining convolution is
    mu(gamma) = sum over x of e(mu_s(x), mu_t(x gamma^(-1))).  With
    w(x) = mu_s(x) . e, that is sum_j w_j * iota(t_j), one cyclic product
    per coordinate j of T.
    """

    def __init__(
        self,
        e_matrix: Sequence[Sequence[int]],
        S: FiniteGaloisModule,
        T: FiniteGaloisModule,
        level: int,
    ):
        if S.spec != T.spec:
            raise ValueError("mixed specs")
        spec = S.spec
        m = spec.modulus
        mat = [[x % m for x in row] for row in e_matrix]
        if len(mat) != S.rank or any(len(r) != T.rank for r in mat):
            raise ValueError("pairing matrix has wrong shape")
        if S.rank != T.rank or not linalg.det_is_unit(mat, spec.p):
            raise ValueError("pairing is not perfect (matrix not invertible over O)")
        self.spec = spec
        self.e_matrix = mat
        self.S = induce(S, level)
        self.T = induce(T, level)
        self.level = level

    def pair(self, s: InducedElem, t: InducedElem) -> GroupRingElem:
        m = self.spec.modulus
        cs = [0] * self.S.size
        for j in range(self.T.base.rank):
            wj = [sum(si * ei[j] for si, ei in zip(v, self.e_matrix)) % m for v in s]
            tj = iota_coeffs([v[j] for v in t])
            cs = [a + b for a, b in zip(cs, kernels.cyclic_mul(wj, tj, m))]
        return GroupRingElem(self.spec, self.level, cs)

    def gram_matrix_over_O(self) -> list[list[int]]:
        """Matrix of ev(pair(., .)) on the O-bases of the induced modules."""
        sb = self.S.o_basis()
        tb = self.T.o_basis()
        return [[self.pair(s, t).identity_coefficient for t in tb] for s in sb]

    def is_perfect(self) -> bool:
        return linalg.det_is_unit(self.gram_matrix_over_O(), self.spec.p)


def convolution_pairing(
    e_matrix: Sequence[Sequence[int]],
    S: FiniteGaloisModule,
    T: FiniteGaloisModule,
    level: int,
) -> ConvolutionPairing:
    return ConvolutionPairing(e_matrix, S, T, level)
