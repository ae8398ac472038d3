"""The group-ring structure maps on coefficient lists, against the loops
they replaced.

`fold_coeffs`, `transfer_coeffs` and `iota_coeffs` (and `at_level` and
the geometric sum behind `generator_ratio`, and the tests' `norm_element`)
each have one implementation in the package.  Each test here keeps the
hand-written version that one of them replaced as its oracle and compares
the two over (p, k) in {(3,1), (3,2), (5,1)} and levels 0-2.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iwaheights.errors import PrecisionError
from iwaheights.iwalg import (
    GroupRingElem,
    IwasawaPoly,
    RingSpec,
    fold_coeffs,
    generator_ratio,
    iota_coeffs,
    transfer_coeffs,
)
from tests.conftest import norm_element, scale_elem

SPECS = st.sampled_from([(3, 1), (3, 2), (5, 1)])
LEVELS = st.integers(0, 2)


def draw_coeffs(data, spec, size):
    return data.draw(st.lists(st.integers(0, spec.modulus - 1), min_size=size, max_size=size))


def draw_elem(data, spec, level):
    return GroupRingElem(spec, level, draw_coeffs(data, spec, spec.p**level))


def draw_levels(data):
    """Two levels lo <= hi in 0-2."""
    lo = data.draw(LEVELS)
    return lo, data.draw(st.integers(lo, 2))


# -- the replaced code, kept as oracles -------------------------------------
def loop_fold_to_level(x, m_level):
    """The former `GroupRingElem.fold_to_level`."""
    size = x.spec.p**m_level
    m = x.spec.modulus
    out = [0] * size
    for i, c in enumerate(x.coeffs):
        out[i % size] = (out[i % size] + c) % m
    return GroupRingElem(x.spec, m_level, out)


def slice_fold(v, start, width, s):
    """The former `heights._fold` of the component v[start : start + width]."""
    end = start + width
    return [sum(v[start + j : end : s]) for j in range(s)]


def index_iota(c):
    """The former `heights._iota`."""
    return [c[-j] for j in range(len(c))]


def modular_iota(x):
    """The former `GroupRingElem.involution`."""
    size = x.spec.p**x.level
    return GroupRingElem(x.spec, x.level, [x.coeffs[(-i) % size] for i in range(size)])


def loop_transfer(x, to_level):
    """The former group-ring transfer of the induced-module code."""
    size_to = x.spec.p**to_level
    size_fr = x.spec.p**x.level
    return GroupRingElem(x.spec, to_level, [x.coeffs[j % size_fr] for j in range(size_to)])


def module_at_level(level, x):
    """The former `FiniteLevelModule._at_level` for a module of this level."""
    if x.level == level:
        return x
    if x.level > level:
        return loop_fold_to_level(x, level)
    return GroupRingElem(x.spec, level, x.coeffs)


def closed_norm_element(spec, n):
    """The former `norm_element`: C(p^n, i) for i = 1..p^n."""
    q = spec.p**n
    if spec.cap < q - 1:
        raise PrecisionError("cap too small")
    return IwasawaPoly(spec, [math.comb(q, i) for i in range(1, q + 1)])


def loop_generator_ratio(spec, n, u):
    """The former `generator_ratio`."""
    q = spec.p**n
    deg = (u - 1) * q
    if spec.cap < deg:
        raise PrecisionError("cap too small")
    coeffs = [0] * (deg + 1)
    for j in range(u):
        e = j * q
        for t in range(e + 1):
            coeffs[t] += math.comb(e, t)
    return IwasawaPoly(spec, coeffs)


def same_outcome(new, old):
    """new() and old() both raise PrecisionError or return equal values."""
    try:
        expected = old()
    except PrecisionError:
        with pytest.raises(PrecisionError):
            new()
        return
    assert new() == expected


# -- fold --------------------------------------------------------------------
@given(SPECS, st.data())
@settings(max_examples=120, deadline=None)
def test_fold_matches_replaced_folds(pk, data):
    spec = RingSpec(*pk, 8)
    lo, hi = draw_levels(data)
    x = draw_elem(data, spec, hi)
    s = spec.p**lo
    assert x.at_level(lo) == loop_fold_to_level(x, lo)
    # a component of a longer vector, as `BlockPairing.value` folds it
    width = spec.p**hi
    v = draw_coeffs(data, spec, 3 * width)
    start = data.draw(st.sampled_from([0, width, 2 * width]))
    assert fold_coeffs(v[start : start + width], s) == slice_fold(v, start, width, s)


# -- transfer ----------------------------------------------------------------
@given(SPECS, st.data())
@settings(max_examples=120, deadline=None)
def test_transfer_matches_replaced_transfers(pk, data):
    spec = RingSpec(*pk, 8)
    lo, hi = draw_levels(data)
    x = draw_elem(data, spec, lo)
    # tuples stay tuples, lists stay lists
    assert transfer_coeffs(x.coeffs, spec.p**hi) == loop_transfer(x, hi).coeffs
    assert transfer_coeffs(list(x.coeffs), spec.p**hi) == list(loop_transfer(x, hi).coeffs)


@given(SPECS, st.data())
@settings(max_examples=120, deadline=None)
def test_fold_of_transfer_is_multiplication_by_index(pk, data):
    spec = RingSpec(*pk, 8)
    lo, hi = draw_levels(data)
    x = draw_elem(data, spec, lo)
    up = GroupRingElem(spec, hi, transfer_coeffs(x.coeffs, spec.p**hi))
    assert up.at_level(lo) == scale_elem(x, spec.p ** (hi - lo))


# -- involution --------------------------------------------------------------
@given(SPECS, LEVELS, st.data())
@settings(max_examples=120, deadline=None)
def test_iota_matches_replaced_involutions(pk, level, data):
    spec = RingSpec(*pk, 8)
    x = draw_elem(data, spec, level)
    assert x.involution() == modular_iota(x)
    assert iota_coeffs(list(x.coeffs)) == index_iota(list(x.coeffs))
    assert iota_coeffs(iota_coeffs(x.coeffs)) == list(x.coeffs)
    assert x.involution().involution() == x


# -- level coercion ----------------------------------------------------------
@given(SPECS, LEVELS, LEVELS, st.data())
@settings(max_examples=120, deadline=None)
def test_at_level_matches_module_coercion(pk, level, n, data):
    spec = RingSpec(*pk, 8)
    x = draw_elem(data, spec, level)
    assert x.at_level(n) == module_at_level(n, x)


# -- geometric sums ----------------------------------------------------------
@given(SPECS, st.integers(1, 2), st.integers(1, 30))
@settings(max_examples=120, deadline=None)
def test_norm_element_matches_closed_form(pk, n, cap):
    spec = RingSpec(*pk, cap)
    same_outcome(lambda: norm_element(spec, n), lambda: closed_norm_element(spec, n))


@given(SPECS, LEVELS, st.integers(1, 8), st.integers(1, 60))
@settings(max_examples=120, deadline=None)
def test_generator_ratio_matches_loop(pk, n, u, cap):
    spec = RingSpec(*pk, cap)
    assume(spec.is_unit(u))
    same_outcome(lambda: generator_ratio(spec, n, u), lambda: loop_generator_ratio(spec, n, u))
