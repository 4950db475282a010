import cmath
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fplab import charsums
from fplab.charsums import (
    AmplificationParams,
    WeightVector,
    _inner_sums,
    amplification_map,
    bilinear_sum,
    complete_product_sum,
    count_n,
    count_n_bruteforce,
    modulus_sum,
    prime_window,
    weil_applicable,
    weil_bound,
)
from fplab.energy import e3
from fplab.errors import (
    FieldMismatchError,
    InadmissibleYZError,
    SupportMismatchError,
    ZeroDenominatorError,
)
from fplab.field import build_field, character
from fplab.sets import (
    from_elements,
    interval,
    random_set,
    symmetric_interval,
)


def test_weight_vector_unit_disk():
    WeightVector({1: 0.5 + 0.5j, 2: 1.0})
    with pytest.raises(ValueError):
        WeightVector({1: 1.5})


def test_bilinear_examples():
    f5 = build_field(5)
    chi = character(f5, 2)
    assert bilinear_sum(chi, from_elements(f5, []), from_elements(f5, [1, 2])) == 0
    w = bilinear_sum(chi, from_elements(f5, [1]), from_elements(f5, [1, 2]))
    assert abs(w - (-2)) < 1e-9
    chi0 = character(f5, 0)
    s = from_elements(f5, [1, 2, 3])
    iv = from_elements(f5, [1, 2])
    zeros = sum(1 for a in s for x in iv if (a + x) % 5 == 0)
    assert abs(bilinear_sum(chi0, s, iv) - (len(s) * len(iv) - zeros)) < 1e-9


@st.composite
def _inner_sum_cases(draw):
    # a block of 1 point gives blocks of one row, 16 points over a small X
    # several multi-row blocks with a short last one; 0 and p - 1 sit in S
    # and X at every p
    p = draw(st.sampled_from([3, 5, 13, 31, 1048573]))
    fld = build_field(p)
    chi = character(fld, draw(st.integers(0, p - 2)))
    elems = st.one_of(st.just(0), st.integers(max(0, p - 3), p - 1), st.integers(0, p - 1))
    s_set = from_elements(fld, draw(st.lists(elems, min_size=1, max_size=40)))
    x_set = from_elements(fld, draw(st.lists(elems, min_size=1, max_size=40)))
    beta = None
    if draw(st.booleans()):
        phases = st.floats(0, 2 * cmath.pi)
        radii = st.floats(0, 1)
        beta = WeightVector({x: draw(radii) * cmath.exp(1j * draw(phases)) for x in x_set})
    return chi, s_set, x_set, beta, draw(st.sampled_from([1, 16, charsums._BLOCK]))


@settings(max_examples=60, deadline=None)
@given(_inner_sum_cases())
def test_inner_sums_match_per_s_referee(case):
    chi, s_set, x_set, beta, block = case
    p = chi.field.p
    with pytest.MonkeyPatch.context() as m:
        m.setattr(charsums, "_BLOCK", block)
        got = _inner_sums(chi, s_set, x_set, beta)
    assert got.shape == (len(s_set),)
    for s, value in zip(s_set, got):
        want = sum((1 if beta is None else beta[x]) * chi((s + x) % p) for x in x_set)
        assert abs(value - want) < 1e-12 * len(x_set)


def test_bilinear_trivial_bound_and_support():
    fld = build_field(31)
    chi = character(fld, 3)
    rng = random.Random(0)
    for _ in range(10):
        s = random_set(fld, rng.randint(1, 10), rng.randrange(2**31))
        iv = interval(fld, rng.randrange(31), rng.randint(1, 10))
        alpha = WeightVector(
            {x: cmath.exp(1j * rng.uniform(0, 7)) for x in s.elems}
        )
        beta = WeightVector(
            {x: rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 7)) for x in iv.elems}
        )
        w = bilinear_sum(chi, s, iv, alpha, beta)
        assert abs(w) <= len(s) * len(iv) + 1e-6
    with pytest.raises(SupportMismatchError):
        bilinear_sum(chi, s, iv, WeightVector({0: 1.0}), None)


def test_modulus_examples_and_optimality():
    f5 = build_field(5)
    chi = character(f5, 2)
    assert abs(modulus_sum(chi, from_elements(f5, [1]), from_elements(f5, [1, 2])) - 2) < 1e-9
    # single inner point, unit weights: counts nonvanishing arguments
    fld = build_field(13)
    chi13 = character(fld, 4)
    s = from_elements(fld, range(13))
    x1 = from_elements(fld, [5])
    assert abs(modulus_sum(chi13, s, x1) - 12) < 1e-9
    rng = random.Random(1)
    for _ in range(6):
        s = random_set(fld, rng.randint(1, 8), rng.randrange(2**31))
        iv = interval(fld, rng.randrange(13), rng.randint(1, 6))
        beta = WeightVector({x: cmath.exp(1j * rng.uniform(0, 7)) for x in iv.elems})
        ms = modulus_sum(chi13, s, iv, beta)
        alpha = WeightVector({x: cmath.exp(1j * rng.uniform(0, 7)) for x in s.elems})
        assert abs(bilinear_sum(chi13, s, iv, alpha, beta)) <= ms + 1e-9


def test_cauchy_step():
    # |W|^2 <= #I * sum_x |sum_s alpha_s chi(s+x)|^2
    rng = random.Random(2)
    fld = build_field(61)
    chi = character(fld, 5)
    for _ in range(8):
        s = random_set(fld, rng.randint(2, 12), rng.randrange(2**31))
        iv = interval(fld, rng.randrange(61), rng.randint(2, 10))
        alpha = WeightVector({x: cmath.exp(1j * rng.uniform(0, 7)) for x in s.elems})
        w = abs(bilinear_sum(chi, s, iv, alpha))
        inner = 0.0
        for x in iv.elems:
            inner += abs(sum(alpha[a] * chi(a + x) for a in s.elems)) ** 2
        assert w * w <= len(iv) * inner * (1 + 1e-6) + 1e-9


# ---------------------------------------------------------------------------
# amplification
# ---------------------------------------------------------------------------

def test_amplification_singleton_is_empty():
    fld = build_field(61)
    m = amplification_map(
        from_elements(fld, [5]), 8, AmplificationParams(y=2, z=1)
    )
    assert m.values.tolist() == [] and m.counts.tolist() == [] and m.total == 0


def test_amplification_example_bruteforce():
    p = 61
    fld = build_field(p)
    s = from_elements(fld, [1, 2])
    params = AmplificationParams(y=2, z=1)
    m = amplification_map(s, 8, params)
    assert prime_window(params, p) == [2, 3]
    nu = {}
    for a in s.elems:
        for t in s.elems:
            if a == t:
                continue
            for x in [v % p for v in range(-8, 9)]:
                for y in (2, 3):
                    yinv = pow(y, p - 2, p)
                    key = ((a + x) * yinv % p, (t + x) * yinv % p)
                    nu[key] = nu.get(key, 0) + 1
    assert m.values.dtype == m.counts.dtype == np.int64
    assert m.values.tolist() == [lam * p + mu for lam, mu in sorted(nu)]
    assert m.counts.tolist() == [nu[key] for key in sorted(nu)]
    assert m.total == 2 * 1 * 17 * 2


def test_amplification_identities_random():
    rng = random.Random(3)
    for _ in range(6):
        p = rng.choice([31, 43, 61])
        fld = build_field(p)
        s = random_set(fld, rng.randint(2, 5), rng.randrange(2**31))
        radius = rng.randint(4, 8)
        params = AmplificationParams(y=rng.randint(1, radius // 4), z=1)
        m = amplification_map(s, radius, params)
        window = prime_window(params, p)
        assert m.total == len(s) * (len(s) - 1) * (2 * radius + 1) * len(window)
        yset = from_elements(fld, window)
        ibar = symmetric_interval(fld, radius)
        assert m.second_moment == count_n(s, ibar, yset)
        assert m.second_moment == count_n_bruteforce(s, ibar, yset)


def test_amplification_admissibility():
    fld = build_field(61)
    s = from_elements(fld, [1, 2])
    with pytest.raises(InadmissibleYZError):
        amplification_map(s, 8, AmplificationParams(y=3, z=1))
    with pytest.raises(ZeroDenominatorError):
        # window [3, 6] contains 3 and 5; 5 = p vanishes mod 5
        prime_window(AmplificationParams(y=3, z=1), 5)


def test_count_n_edges():
    fld = build_field(31)
    single = from_elements(fld, [7])
    xset = interval(fld, 0, 4)
    yset = from_elements(fld, [2, 3])
    assert count_n(single, xset, yset) == 0
    with pytest.raises(ZeroDenominatorError):
        count_n(single, xset, from_elements(fld, [0, 2]))
    for fn in (count_n, count_n_bruteforce):
        with pytest.raises(FieldMismatchError):
            fn(single, xset, from_elements(build_field(37), [2]))
    rng = random.Random(4)
    for _ in range(5):
        s = random_set(fld, rng.randint(2, 5), rng.randrange(2**31))
        n = count_n(s, xset, yset)
        # diagonal solutions always exist
        assert n >= len(s) * (len(s) - 1) * len(xset) * len(yset)


@st.composite
def _nsxy_sets(draw):
    # at p = 1048573, S, X and Y sit near p - 1, where the lambda * p + mu
    # keys of the fibre are largest (~2^40)
    p = draw(st.sampled_from([7, 13, 31, 1048573]))
    low = max(1, p - 10)
    fld = build_field(p)
    mk = lambda n: from_elements(
        fld, draw(st.lists(st.integers(low, p - 1), min_size=1, max_size=n))
    )
    return mk(4), mk(3), mk(2)


def _big_field_set(*elems):
    return from_elements(build_field(1048573), elems)


@settings(max_examples=40, deadline=None)
@given(_nsxy_sets())
# Y = {y, 2y} makes (x + s)/y = (x' + s')/(2y) collide across y, and
# (x + s) * y^-1 spans [0, p^2): a product that wrapped would split them
@example((
    _big_field_set(*range(1048569, 1048573)),
    _big_field_set(*range(1048570, 1048573)),
    _big_field_set(400000, 800000),
))
def test_count_n_property(sets):
    s, xset, yset = sets
    assert count_n(s, xset, yset) == count_n_bruteforce(s, xset, yset)


def _count_n_loop(s_set, x_set, y_set):
    """Referee for count_n_bruteforce: every pair of (s, t, x, y) tuples with
    s != t, in two nested Python loops."""
    p = s_set.field.p
    tuples = [(s, t, x, y) for s in s_set for t in s_set if s != t
              for x in x_set for y in y_set]
    count = 0
    for s1, t1, x1, y1 in tuples:
        a1 = (x1 + s1) % p
        b1 = (x1 + t1) % p
        for s2, t2, x2, y2 in tuples:
            if a1 * y2 % p == (x2 + s2) * y1 % p and b1 * y2 % p == (x2 + t2) * y1 % p:
                count += 1
    return count


@st.composite
def _count_n_referee_sets(draw):
    # at p = 1048573 elements sit near 0 and p - 1, where (x + s) y approaches
    # p^2 ~ 2^40; Y = {y, 2y} makes (x + s)/y = (x' + s')/(2y) collide across
    # y; a singleton S has no s != t and counts 0
    p = draw(st.sampled_from([3, 5, 31, 1048573]))
    fld = build_field(p)
    elems = st.one_of(st.integers(0, 3), st.integers(p - 4, p - 1), st.integers(0, p - 1))
    s = draw(st.lists(elems, min_size=1, max_size=4))
    x = draw(st.lists(elems, min_size=1, max_size=4))
    y = draw(st.integers(1, p - 1))
    ys = [y, 2 * y] if draw(st.booleans()) else [y]
    return tuple(from_elements(fld, e) for e in (s, x, ys))


@settings(max_examples=60, deadline=None)
@given(_count_n_referee_sets(), st.sampled_from([1, 1 << 40]))
# S = {0, c, 2c}, X = {x, 2x}, Y = {y, 2y}: the tuples (0, c, x, y) and
# (0, 2c, 2x, 2y) solve the system, and 2x + 2c wraps past p, so
# (x + c) 2y - ((2x + 2c) mod p) y is p y ~ 2^38, not 0: products that
# wrapped in int32 miss such solutions
@example((_big_field_set(0, 524000, 1048000), _big_field_set(300, 600),
          _big_field_set(262143, 524286)), 1)
# 6 tuples, so 2 * 6 product entries a first tuple: a block of 48 takes 4
# first tuples, then 2
@example((_big_field_set(0, 1, 1048572), _big_field_set(1048571), _big_field_set(1048572)), 48)
def test_count_n_bruteforce_matches_loop_referee(sets, block):
    # a block of 1 pair takes one first tuple at a time, 2^40 all of them
    with pytest.MonkeyPatch.context() as m:
        m.setattr(charsums, "_BLOCK", block)
        assert count_n_bruteforce(*sets) == _count_n_loop(*sets)


# ---------------------------------------------------------------------------
# complete product sums
# ---------------------------------------------------------------------------

def test_complete_product_sum_r1():
    for p in (31, 61, 101):
        fld = build_field(p)
        for m in (1, 2, (p - 1) // 2):
            chi = character(fld, m)
            assert abs(complete_product_sum(chi, (4, 4)) - (p - 1)) < 1e-9
            for z2 in (5, 9, p - 2):
                assert abs(complete_product_sum(chi, (4, z2)) - (-1)) < 1e-9


def test_weil_bound_random_tuples():
    rng = random.Random(5)
    for p in (31, 61, 101):
        fld = build_field(p)
        for r in (1, 2, 3):
            for _ in range(40):
                shifts = tuple(rng.randrange(p) for _ in range(2 * r))
                chi = character(fld, rng.randrange(1, p - 1))
                if weil_applicable(chi, shifts):
                    val = abs(complete_product_sum(chi, shifts))
                    assert val <= weil_bound(p, r) + 1e-9


def test_weil_applicability_degenerate_patterns():
    fld = build_field(31)
    quad = character(fld, 15)  # order 2
    assert quad.order == 2
    # halves are permutations: always degenerate
    assert not weil_applicable(quad, (3, 5, 5, 3))
    # multiplicity difference even everywhere: degenerate for an order-2 chi
    assert not weil_applicable(quad, (3, 3, 5, 5))
    assert abs(complete_product_sum(quad, (3, 3, 5, 5))) > weil_bound(31, 2)
    # same tuple is fine for an order-30 character
    chi = character(fld, 1)
    assert weil_applicable(chi, (3, 3, 5, 5))
    assert abs(complete_product_sum(chi, (3, 3, 5, 5))) <= weil_bound(31, 2)
    assert not weil_applicable(character(fld, 0), (1, 2))


def test_translation_invariance():
    fld = build_field(61)
    chi = character(fld, 6)
    s = random_set(fld, 7, seed=8)
    radius = 5
    ibar = symmetric_interval(fld, radius)
    base = e3(s, s, ibar)
    for shift in (3, 42):
        t = from_elements(fld, [x + shift for x in s.elems])
        assert e3(t, t, ibar) == base
    # modulus sum over a shifted interval = shifted-weights evaluation
    rng = random.Random(9)
    a = 17
    x_len = 6
    iv = interval(fld, 0, x_len)
    iv_shift = interval(fld, a, x_len)
    beta = WeightVector(
        {(x + a) % 61: cmath.exp(1j * rng.uniform(0, 7)) for x in iv.elems}
    )
    beta_unshifted = WeightVector({x: beta[(x + a) % 61] for x in iv.elems})
    lhs = modulus_sum(chi, s, iv_shift, beta)
    rhs = modulus_sum(chi, from_elements(fld, [x + a for x in s.elems]), iv, beta_unshifted)
    assert abs(lhs - rhs) < 1e-9
