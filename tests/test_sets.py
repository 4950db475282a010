import random
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    symmetric_interval,
)
from library import sumset


def test_interval_examples():
    f7 = build_field(7)
    assert interval(f7, 0, 3).elems.tolist() == [1, 2, 3]
    assert interval(f7, -4, 3).elems.tolist() == [4, 5, 6]
    with pytest.raises(LengthOutOfRangeError):
        interval(build_field(5), 0, 5)


def test_symmetric_interval_examples():
    assert symmetric_interval(build_field(7), 1).elems.tolist() == [0, 1, 6]
    assert symmetric_interval(build_field(11), 2).elems.tolist() == [0, 1, 2, 9, 10]
    with pytest.raises(LengthOutOfRangeError):
        symmetric_interval(build_field(5), 3)
    assert len(symmetric_interval(build_field(11), 4)) == 9


def test_subgroup_examples():
    f7 = build_field(7)
    g3 = subgroup(f7, 3)
    assert g3.elems.tolist() == [1, 2, 4]
    assert set(g3) == {x for x in range(1, 7) if pow(x, 3, 7) == 1}
    assert subgroup(f7, 1).elems.tolist() == [1]
    with pytest.raises(NotADivisorError):
        subgroup(f7, 4)


def test_subgroup_closure_and_uniqueness():
    f61 = build_field(61)
    for order in (2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60):
        g = subgroup(f61, order)
        assert len(g) == order
        prod = {x * y % 61 for x in g for y in g}
        assert prod == set(g)


def test_poly_image_examples():
    f7 = build_field(7)
    a = from_elements(f7, [1, 2, 3])
    img = poly_image([0, 0, 1], a)
    assert img.elems.tolist() == [1, 2, 4]
    ident = poly_image([0, 1], a)
    assert ident == a
    two = poly_image([0, 0, 1], from_elements(f7, [1, 6]))
    assert two.elems.tolist() == [1]
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
    assert img.elems.tolist() == sorted({poly_eval(coeffs, x, p) for x in a})
    assert img.elems.dtype == np.int64 and all(type(v) is int for v in img)


P24 = 16777213
F24 = build_field(P24)
CUBIC = [P24 - 1, P24 - 2, P24 - 3, P24 - 4]
WRAP24 = interval(F24, P24 - 20, 40)  # {p - 19, ..., p - 1, 0, ..., 20}


@st.composite
def _constructor_calls(draw):
    """(make, want): one constructor call as a partial, and the residues it
    should hold, computed in Python ints."""
    p = draw(st.sampled_from([5, 31, 1048573, P24]))
    fld = build_field(p)
    near = st.one_of(st.integers(0, 3), st.integers(p - 3, p - 1), st.integers(0, p - 1))
    kind = draw(st.sampled_from(["from_elements", "interval", "symmetric_interval",
                                 "subgroup", "poly_image", "random_set"]))
    if kind == "from_elements":
        xs = draw(st.lists(st.integers(-2 * p, 2 * p), max_size=20))
        return partial(from_elements, fld, xs), {x % p for x in xs}
    if kind == "interval":
        a, n = draw(near), draw(st.integers(1, min(p - 1, 50)))
        return partial(interval, fld, a, n), {(a + i) % p for i in range(1, n + 1)}
    if kind == "symmetric_interval":
        r = draw(st.integers(0, min((p - 1) // 2, 50)))
        return partial(symmetric_interval, fld, r), {x % p for x in range(-r, r + 1)}
    if kind == "subgroup":
        order = draw(st.sampled_from([d for d in range(1, 61) if (p - 1) % d == 0]))
        return partial(subgroup, fld, order), {pow(fld.g, k * (p - 1) // order, p)
                                               for k in range(order)}
    if kind == "poly_image":
        coeffs = draw(st.lists(near, min_size=2, max_size=4).filter(lambda c: c[-1] % p))
        dom = from_elements(fld, draw(st.lists(near, max_size=20)))
        return partial(poly_image, coeffs, dom), {poly_eval(coeffs, x, p) for x in dom}
    n, seed = draw(st.integers(0, min(p, 20))), draw(st.integers(0, 2**32))
    rng, chosen = random.Random(seed), set()  # the documented rejection sampling
    while len(chosen) < n:
        chosen.add(rng.randrange(p))
    return partial(random_set, fld, n, seed), chosen


@settings(max_examples=120, deadline=None)
@given(_constructor_calls())
@example((partial(interval, F24, P24 - 3, 40), {(P24 - 3 + i) % P24 for i in range(1, 41)}))
@example((partial(symmetric_interval, F24, 40), {x % P24 for x in range(-40, 41)}))
@example((partial(poly_image, CUBIC, WRAP24), {poly_eval(CUBIC, x, P24) for x in WRAP24}))
def test_every_constructor_returns_the_array_form(case):
    # elems is a sorted, distinct, read-only int64 array of residues in
    # [0, p), holding exactly the Python-int residues; at p = 16777213 the
    # cubic's Horner steps reach p^2 ~ 2^48
    make, want = case
    s = make()
    assert s.elems.dtype == np.int64 and not s.elems.flags.writeable
    assert (np.diff(s.elems) > 0).all()
    assert not len(s) or (s.elems[0] >= 0 and s.elems[-1] < s.field.p)
    assert s.elems.tolist() == sorted(want)
    assert s == make() and hash(s) == hash(make())


def test_random_set_examples():
    f7 = build_field(7)
    assert random_set(f7, 7, seed=99).elems.tolist() == [0, 1, 2, 3, 4, 5, 6]
    assert random_set(f7, 0, seed=1).elems.tolist() == []
    assert random_set(f7, 3, seed=42) == random_set(f7, 3, seed=42)
    f101 = build_field(101)
    assert random_set(f101, 10, seed=42) != random_set(f101, 10, seed=43)
    with pytest.raises(SizeOutOfRangeError):
        random_set(f7, 8, seed=1)


def test_sumset_examples():
    f7 = build_field(7)
    e01 = from_elements(f7, [0, 1])
    assert sumset(e01, e01, "+").elems.tolist() == [0, 1, 2]
    a = from_elements(f7, [2, 3, 5])
    assert sumset(a, from_elements(f7, [0]), "+") == a
    g = from_elements(f7, [1, 2, 4])
    diff = sumset(g, g, "-")
    expect = sorted({(x - y) % 7 for x in g for y in g})
    assert diff.elems.tolist() == expect
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
        assert (x in a) == (x in set(a))
