import random

import pytest
from hypothesis import given, settings, strategies as st

from fplab.errors import (
    FieldMismatchError,
    LengthOutOfRangeError,
    NotADivisorError,
    SizeOutOfRangeError,
)
from fplab.field import build_field
from fplab.sets import (
    from_elements,
    interval,
    poly_image,
    random_set,
    subgroup,
    sumset,
    symmetric_interval,
)


def test_interval_examples():
    f7 = build_field(7)
    assert interval(f7, 0, 3).elems == (1, 2, 3)
    assert interval(f7, -4, 3).elems == (4, 5, 6)
    with pytest.raises(LengthOutOfRangeError):
        interval(build_field(5), 0, 5)


def test_symmetric_interval_examples():
    assert symmetric_interval(build_field(7), 1).elems == (0, 1, 6)
    assert symmetric_interval(build_field(11), 2).elems == (0, 1, 2, 9, 10)
    with pytest.raises(LengthOutOfRangeError):
        symmetric_interval(build_field(5), 3)
    assert len(symmetric_interval(build_field(11), 4)) == 9


def test_subgroup_examples():
    f7 = build_field(7)
    g3 = subgroup(f7, 3)
    assert g3.elems == (1, 2, 4)
    assert set(g3.elems) == {x for x in range(1, 7) if pow(x, 3, 7) == 1}
    assert subgroup(f7, 1).elems == (1,)
    with pytest.raises(NotADivisorError):
        subgroup(f7, 4)


def test_subgroup_closure_and_uniqueness():
    f61 = build_field(61)
    for order in (2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60):
        g = subgroup(f61, order)
        assert len(g) == order
        prod = {x * y % 61 for x in g for y in g}
        assert prod == set(g.elems)


def test_poly_image_examples():
    f7 = build_field(7)
    a = from_elements(f7, [1, 2, 3])
    img = poly_image([0, 0, 1], a)
    assert img.elems == (1, 2, 4)
    ident = poly_image([0, 1], a)
    assert ident.elems == a.elems
    two = poly_image([0, 0, 1], from_elements(f7, [1, 6]))
    assert two.elems == (1,)
    with pytest.raises(ValueError):
        poly_image([3], a)  # constant
    with pytest.raises(ValueError):
        poly_image([0, 7], a)  # degree collapses mod 7


def poly_eval(coeffs, x, p):
    """Referee for poly_image: sum(coeffs[i] * x^i) mod p by a scalar Horner
    loop in Python ints."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


@settings(max_examples=50, deadline=None)
@given(
    p=st.sampled_from([5, 31, 1048573]),
    data=st.data(),
)
def test_poly_image_matches_poly_eval(p, data):
    # coefficients and domain points near p - 1 push every Horner product
    # towards p^2 = 2^40 at p = 1048573
    near = st.one_of(st.integers(0, 3), st.integers(p - 3, p - 1), st.integers(0, p - 1))
    coeffs = data.draw(st.lists(near, min_size=2, max_size=5).filter(lambda c: c[-1] % p))
    a = from_elements(build_field(p), data.draw(st.lists(near, max_size=30)))
    img = poly_image(coeffs, a)
    assert img.elems == tuple(sorted({poly_eval(coeffs, x, p) for x in a}))
    assert all(type(v) is int for v in img.elems)


def test_random_set_examples():
    f7 = build_field(7)
    assert random_set(f7, 7, seed=99).elems == (0, 1, 2, 3, 4, 5, 6)
    assert random_set(f7, 0, seed=1).elems == ()
    assert random_set(f7, 3, seed=42) == random_set(f7, 3, seed=42)
    f101 = build_field(101)
    assert random_set(f101, 10, seed=42) != random_set(f101, 10, seed=43)
    with pytest.raises(SizeOutOfRangeError):
        random_set(f7, 8, seed=1)


def test_sumset_examples():
    f7 = build_field(7)
    e01 = from_elements(f7, [0, 1])
    assert sumset(e01, e01, "+").elems == (0, 1, 2)
    a = from_elements(f7, [2, 3, 5])
    assert sumset(a, from_elements(f7, [0]), "+") == a
    g = from_elements(f7, [1, 2, 4])
    diff = sumset(g, g, "-")
    expect = sorted({(x - y) % 7 for x in g for y in g})
    assert list(diff.elems) == expect
    with pytest.raises(FieldMismatchError):
        sumset(e01, from_elements(build_field(11), [1]), "+")


def _sample_sets(seed=0):
    rng = random.Random(seed)
    out = []
    for p in (11, 31, 61):
        fld = build_field(p)
        out.append(random_set(fld, rng.randint(1, p - 1), rng.randrange(2**31)))
        out.append(interval(fld, rng.randrange(p), rng.randint(1, p - 1)))
        out.append(poly_image([1, 0, 1], random_set(fld, rng.randint(2, 8), 7)))
    for order in (2, 5, 12):
        out.append(subgroup(build_field(61), order))
    return out


def test_ruzsa_triangle_exact():
    # #(A-A) * #A <= #(A+A)^2 for every generated set
    for a in _sample_sets():
        plus = len(sumset(a, a, "+"))
        minus = len(sumset(a, a, "-"))
        assert minus * len(a) <= plus * plus


def test_sumset_cardinality_bound():
    rng = random.Random(3)
    fld = build_field(31)
    for _ in range(25):
        a = random_set(fld, rng.randint(1, 12), rng.randrange(2**31))
        b = random_set(fld, rng.randint(1, 12), rng.randrange(2**31))
        for sign in "+-":
            assert len(sumset(a, b, sign)) <= min(31, len(a) * len(b))


@settings(max_examples=50, deadline=None)
@given(
    p=st.sampled_from([5, 7, 11, 13]),
    seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=1, max_value=10),
)
def test_ruzsa_property(p, seed, n):
    fld = build_field(p)
    a = random_set(fld, min(n, p), seed)
    plus = len(sumset(a, a, "+"))
    minus = len(sumset(a, a, "-"))
    assert minus * len(a) <= plus * plus


@settings(max_examples=50, deadline=None)
@given(
    p=st.sampled_from([5, 7, 11, 13]),
    elems=st.lists(st.integers(min_value=0, max_value=12), max_size=8),
)
def test_membership_matches_element_set(p, elems):
    a = from_elements(build_field(p), elems)
    for x in range(-2, p + 2):
        assert (x in a) == (x in set(a.elems))
