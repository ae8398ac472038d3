"""Howell-form linear algebra over Z/p^k, checked against enumeration."""

import itertools
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from iwaheights import linalg
from tests.conftest import det_int, matvec, span_intersection


def enumerate_span(rows, m, width=3):
    """Oracle: the full set of O-combinations of the rows."""
    if not rows:
        return {(0,) * width}
    width = len(rows[0])
    out = set()
    for coeffs in itertools.product(range(m), repeat=len(rows)):
        v = [0] * width
        for c, r in zip(coeffs, rows):
            for i in range(width):
                v[i] = (v[i] + c * r[i]) % m
        out.add(tuple(v))
    return out


def small_matrices(p, k, max_rows=3, max_cols=3):
    m = p**k
    return st.lists(
        st.lists(st.integers(0, m - 1), min_size=max_cols, max_size=max_cols),
        min_size=0,
        max_size=max_rows,
    )


@given(rows=small_matrices(3, 2))
@settings(max_examples=60, deadline=None)
def test_howell_spans_same_set(rows):
    H = linalg.howell(rows, 3, 2)
    assert enumerate_span(rows, 9) == enumerate_span(H, 9)
    # a pivot p^v contributes p^(k-v) multiples of its row
    size = math.prod(3 ** (2 - linalg.pval(next(x for x in r if x), 3, 2)) for r in H)
    assert size == len(enumerate_span(rows, 9))


@given(rows=small_matrices(3, 2))
@settings(max_examples=60, deadline=None)
def test_howell_is_canonical(rows):
    # shuffling and duplicating generators does not change the form
    H1 = linalg.howell(rows, 3, 2)
    H2 = linalg.howell(rows[::-1] + rows, 3, 2)
    assert H1 == H2


@given(rows=small_matrices(3, 2), v=st.lists(st.integers(0, 8), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_reduce_vector_canonical_reps(rows, v):
    H = linalg.howell(rows, 3, 2)
    span = enumerate_span(rows, 9)
    red = linalg.reduce_vector(v, H, 3, 2)
    # same coset
    diff = tuple((a - b) % 9 for a, b in zip(v, red))
    assert diff in span
    # every member of the coset reduces identically
    for s in span:
        shifted = [(a + b) % 9 for a, b in zip(v, s)]
        assert linalg.reduce_vector(shifted, H, 3, 2) == red


def combine(coeffs, rows, m, width):
    """sum(coeffs_i * rows_i) mod m."""
    v = [0] * width
    for c, r in zip(coeffs, rows):
        v = [(a + c * b) % m for a, b in zip(v, r)]
    return v


@st.composite
def span_problems(draw):
    """(p, k, rows, v) over (3,1), (3,2), (5,1): up to three rows of width
    three, and v either a drawn combination of the rows or any vector."""
    p, k = draw(st.sampled_from([(3, 1), (3, 2), (5, 1)]))
    m = p**k
    rows = draw(small_matrices(p, k))
    if rows and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(0, m - 1), min_size=len(rows), max_size=len(rows)))
        v = combine(coeffs, rows, m, 3)
    else:
        v = draw(st.lists(st.integers(0, m - 1), min_size=3, max_size=3))
    return p, k, rows, v


@given(span_problems())
@settings(max_examples=150, deadline=None)
def test_coordinates_reconstruct_or_none(problem):
    p, k, rows, v = problem
    H = linalg.howell(rows, p, k)
    q = linalg.coordinates(v, H, p, k)
    if linalg.span_contains(v, H, p, k):
        assert q is not None and len(q) == len(H)
        assert combine(q, H, p**k, 3) == v
    else:
        assert q is None


@given(st.sampled_from([(3, 1), (3, 2), (5, 1)]), st.data())
@settings(max_examples=80, deadline=None)
def test_batched_solve_combination_per_target(pk, data):
    # one Howell form for every target: each answer reconstructs its own
    # target, and None comes back exactly for the targets outside the span
    p, k = pk
    m = p**k
    rows = data.draw(small_matrices(p, k), label="rows")
    targets = data.draw(st.lists(st.lists(st.integers(0, m - 1), min_size=3, max_size=3), max_size=4), label="targets")
    if rows:
        targets.append(combine([1] * len(rows), rows, m, 3))
    H = linalg.howell(rows, p, k)
    sols = linalg.solve_combination(rows, targets, p, k)
    assert len(sols) == len(targets)
    for target, sol in zip(targets, sols):
        if linalg.span_contains(target, H, p, k):
            assert sol is not None and combine(sol, rows, m, 3) == target
        else:
            assert sol is None


def scanning_reduce(v, hrows, m):
    """(remainder, quotients) of v against hrows, each pivot column found
    by scanning its row from the start."""
    out = [x % m for x in v]
    qs = []
    for r in hrows:
        c = next(i for i, x in enumerate(r) if x)
        q = out[c] // r[c]
        qs.append(q)
        if q:
            out = [(x - q * y) % m for x, y in zip(out, r)]
    return out, qs


@given(st.sampled_from([(3, 1), (3, 2), (5, 1), (2, 3)]), st.data())
@settings(max_examples=150, deadline=None)
def test_pivot_walk_matches_scanning_reduction(pk, data):
    p, k = pk
    m = p**k
    width = data.draw(st.integers(1, 6), label="width")
    vec = st.lists(st.integers(0, m - 1), min_size=width, max_size=width)
    rows = data.draw(st.lists(vec, max_size=5), label="rows")
    H = linalg.howell(rows, p, k)
    # pivot columns strictly increase, and each row is already reduced
    # against the rows below it, as the upward loop of howell leaves it
    cols = [next(i for i, x in enumerate(r) if x) for r in H]
    assert all(a < b for a, b in zip(cols, cols[1:]))
    for j, r in enumerate(H):
        assert scanning_reduce(r, H[j + 1 :], m) == (r, [0] * (len(H) - j - 1))
    targets = data.draw(st.lists(vec, min_size=1, max_size=4), label="targets")
    if rows:
        targets.append(combine([1] * len(rows), rows, m, width))
    for v in targets:
        rem, qs = scanning_reduce(v, H, m)
        assert linalg.reduce_vector(v, H, p, k) == rem
        assert linalg.coordinates(v, H, p, k) == (None if any(rem) else qs)


@given(st.sampled_from([(3, 1), (3, 2), (5, 1), (2, 3)]), st.data())
@settings(max_examples=150, deadline=None)
def test_keep_from_rows_match_full_form(pk, data):
    # the upward pass reduces a row only against later rows, so skipping it
    # for rows pivoting before keep_from leaves every later row canonical
    p, k = pk
    m = p**k
    width = data.draw(st.integers(1, 6), label="width")
    rows = data.draw(st.lists(st.lists(st.integers(0, m - 1), min_size=width, max_size=width), max_size=6), label="rows")
    keep_from = data.draw(st.integers(0, width), label="keep_from")
    full = linalg.howell(rows, p, k)
    kept = linalg.howell(rows, p, k, keep_from=keep_from)
    assert len(kept) == len(full)
    for a, b in zip(kept, full):
        c = linalg._pivot_col(b)
        assert linalg._pivot_col(a) == c and a[c] == b[c]
        if c >= keep_from:
            assert a == b


def test_right_kernel_against_enumeration():
    rng = random.Random(4)
    for _ in range(40):
        mat = [[rng.randrange(9) for _ in range(3)] for _ in range(2)]
        gens = linalg.preimage_span(mat, [], 3, 3, 2)
        kernel_true = {
            u
            for u in itertools.product(range(9), repeat=3)
            if all(sum(r[i] * u[i] for i in range(3)) % 9 == 0 for r in mat)
        }
        assert enumerate_span(gens, 9) == kernel_true if gens else kernel_true == {(0, 0, 0)}


def test_solve_combination_roundtrip():
    rng = random.Random(8)
    for _ in range(60):
        rows = [[rng.randrange(9) for _ in range(4)] for _ in range(3)]
        coeffs = [rng.randrange(9) for _ in range(3)]
        target = [0] * 4
        for c, r in zip(coeffs, rows):
            for i in range(4):
                target[i] = (target[i] + c * r[i]) % 9
        (sol,) = linalg.solve_combination(rows, [target], 3, 2)
        assert sol is not None
        back = [0] * 4
        for c, r in zip(sol, rows):
            for i in range(4):
                back[i] = (back[i] + c * r[i]) % 9
        assert back == target


def test_solve_combination_detects_unsolvable():
    rows = [[3, 0], [0, 3]]
    assert linalg.solve_combination(rows, [[1, 0]], 3, 2) == [None]
    assert linalg.solve_combination(rows, [[6, 3]], 3, 2)[0] is not None


def test_span_intersection_oracle():
    rng = random.Random(15)
    for _ in range(25):
        A = [[rng.randrange(9) for _ in range(3)] for _ in range(2)]
        B = [[rng.randrange(9) for _ in range(3)] for _ in range(2)]
        inter = span_intersection(A, B, 3, 2)
        truth = enumerate_span(A, 9) & enumerate_span(B, 9)
        got = enumerate_span(inter, 9) if inter else {(0, 0, 0)}
        assert got == truth


def test_preimage_span_oracle():
    rng = random.Random(23)
    for _ in range(25):
        mat = [[rng.randrange(9) for _ in range(3)] for _ in range(3)]
        S = [[rng.randrange(9) for _ in range(3)]]
        pre = linalg.preimage_span(mat, S, 3, 3, 2)
        span_S = enumerate_span(S, 9)
        truth = {
            x
            for x in itertools.product(range(9), repeat=3)
            if tuple(matvec(mat, list(x), 9)) in span_S
        }
        got = enumerate_span(pre, 9) if pre else {(0, 0, 0)}
        assert got == truth


def test_det_int_matches_permanent_expansion():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randrange(1, 4)
        mat = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        # Laplace-expansion oracle
        def det(m):
            if len(m) == 1:
                return m[0][0]
            return sum(
                (-1) ** j * m[0][j] * det([row[:j] + row[j + 1 :] for row in m[1:]])
                for j in range(len(m))
            )
        assert det_int(mat) == det(mat)
