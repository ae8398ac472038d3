"""Exact linear algebra over Z/p^k.

Z/p^k is a chain ring, so every matrix has a canonical Howell normal form:
an echelon basis whose pivots are powers of p, closed under the "shadow"
rows p^(k-v) * row.  Reduction against a Howell basis is a canonical coset
representative, which is what makes submodule membership, quotient
enumeration, and kernel computations exact.

Vectors are lists of reduced residues; matrices are lists of rows.
"""

from __future__ import annotations

from typing import Optional, Sequence


def pval(x: int, p: int, k: int) -> int:
    """p-adic valuation of a residue mod p^k (valuation of 0 is k)."""
    x %= p**k
    if x == 0:
        return k
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def unit_inv(x: int, m: int) -> int:
    return pow(x, -1, m)


def _pivot_col(row: Sequence[int]) -> int:
    for c, x in enumerate(row):
        if x != 0:
            return c
    return -1


def howell(rows: Sequence[Sequence[int]], p: int, k: int, keep_from: int = 0) -> list[list[int]]:
    """Canonical Howell normal form of the row span, sorted by pivot column.

    Pivot entries are exact powers of p; entries above each pivot are reduced
    into [0, pivot).  Two row sets span the same module iff their Howell
    forms are identical.

    The upward pass reduces each row against the later rows with `_reduce`.
    Rows whose pivot lies in a column before `keep_from` skip it, so only
    the rows pivoting at or after it are canonical (for a caller that keeps
    just those: a row is reduced only against later rows, so theirs is
    unchanged).
    """
    m = p**k
    work = []
    width = 0
    for r in rows:
        rr = [x % m for x in r]
        width = max(width, len(rr))
        if any(rr):
            work.append(rr)
    for r in work:
        r.extend([0] * (width - len(r)))
    pivots: list[list[int]] = []
    cols: list[int] = []
    for c in range(width):
        best = -1
        best_v = k + 1
        for i, r in enumerate(work):
            if r[c] != 0:
                v = pval(r[c], p, k)
                if v < best_v:
                    best_v = v
                    best = i
        if best < 0:
            continue
        row = work.pop(best)
        v = best_v
        u = row[c] // p**v
        ui = unit_inv(u, m)
        row = [(x * ui) % m for x in row]
        pv = p**v
        nxt = []
        for r in work:
            if r[c] != 0:
                q = r[c] // pv
                r = [(x - q * y) % m for x, y in zip(r, row)]
            if any(r):
                nxt.append(r)
        work = nxt
        if v > 0:
            shadow = [(x * p ** (k - v)) % m for x in row]
            if any(shadow):
                work.append(shadow)
        pivots.append(row)
        cols.append(c)
    for j in range(len(pivots)):
        if cols[j] >= keep_from:
            pivots[j] = _reduce(pivots[j], pivots[j + 1 :], m)[0]
    return pivots


def _reduce(v: Sequence[int], hrows: Sequence[Sequence[int]], m: int) -> tuple[list[int], list[int]]:
    """(remainder, quotients q) with v = remainder + sum(q_i * hrows_i).

    hrows must be a Howell basis, or rows taken in order from one, so that
    pivot columns strictly increase: each pivot is searched for from the
    column after the previous one.  Every caller passes one: a module's
    `rel_rows`, a `Submodule`'s `hrows` (a derived height's left stage
    among them), the filtered Howell form in `solve_combination` and the
    later echelon rows in `howell`'s upward pass.
    """
    out = [x % m for x in v]
    qs = []
    c = 0
    for r in hrows:
        while r[c] == 0:
            c += 1
        q = out[c] // r[c]
        qs.append(q)
        if q:
            out = [(x - q * y) % m for x, y in zip(out, r)]
        c += 1
    return out, qs


def reduce_vector(v: Sequence[int], hrows: Sequence[Sequence[int]], p: int, k: int) -> list[int]:
    """Canonical representative of v modulo the span of a Howell basis."""
    return _reduce(v, hrows, p**k)[0]


def coordinates(v: Sequence[int], hrows: Sequence[Sequence[int]], p: int, k: int) -> Optional[list[int]]:
    """Quotients q with v = sum(q_i * hrows_i), read off the reduction that
    reduce_vector performs, or None when v is outside the span."""
    rem, qs = _reduce(v, hrows, p**k)
    return None if any(rem) else qs


def span_contains(v: Sequence[int], hrows: Sequence[Sequence[int]], p: int, k: int) -> bool:
    return not any(reduce_vector(v, hrows, p, k))


def solve_combination(
    rows: Sequence[Sequence[int]], targets: Sequence[Sequence[int]], p: int, k: int
) -> list[Optional[list[int]]]:
    """For each target, one coefficient vector a with sum(a_i * rows_i) =
    target, or None when the target is outside the span.

    The Howell form of [rows | I] is computed once for all the targets;
    each target then costs one reduction against it.
    """
    m = p**k
    n = len(rows)
    if n == 0:
        return [[] if not any(x % m for x in t) else None for t in targets]
    width = len(rows[0])
    aug = [list(r) + [1 if t == i else 0 for t in range(n)] for i, r in enumerate(rows)]
    H = [r for r in howell(aug, p, k) if _pivot_col(r) < width]
    out: list[Optional[list[int]]] = []
    for target in targets:
        v, _ = _reduce(list(target) + [0] * n, H, m)
        out.append(None if any(v[:width]) else [(-x) % m for x in v[width:]])
    return out


def preimage_span(
    mat: Sequence[Sequence[int]],
    span_rows: Sequence[Sequence[int]],
    ncols: int,
    p: int,
    k: int,
) -> list[list[int]]:
    """Howell basis of {x : mat . x in span(span_rows)} (mat maps columns);
    with no span rows, of the right kernel {x : mat . x = 0}.

    The rows [mat . e_j | e_j], one per column j, and [s | 0], one per span
    row s, span the pairs (mat . x + s, x) with s in the span.  By the
    Howell property the rows of their Howell form that vanish on the first
    len(mat) columns span the pairs (0, x), and their tails are already the
    Howell basis of those x.  Those kept rows are the suffix pivoting at or
    after column len(mat), so the other rows skip the upward reduction
    (`keep_from`).
    """
    nout = len(mat)
    aug = [[row[j] for row in mat] + [int(t == j) for t in range(ncols)] for j in range(ncols)]
    aug += [list(s) + [0] * ncols for s in span_rows]
    return [r[nout:] for r in howell(aug, p, k, keep_from=nout) if not any(r[:nout])]
