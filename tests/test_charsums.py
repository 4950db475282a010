import cmath
import functools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fplab import charsums, field
from fplab.charsums import (
    AmplificationParams,
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
from fplab.energy import _arc, e3, t_k
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
    primes_upto,
    random_set,
    subgroup,
    symmetric_interval,
)
from library import chi_exponent, chi_value


def test_weight_vector_unit_disk():
    f5 = build_field(5)
    chi = character(f5, 2)
    s, iv = from_elements(f5, [1, 2]), from_elements(f5, [3])
    bilinear_sum(chi, s, iv, np.array([0.5 + 0.5j, 1.0]))
    with pytest.raises(ValueError):
        bilinear_sum(chi, s, iv, np.array([1.5, 1.0]))
    with pytest.raises(ValueError):
        modulus_sum(chi, s, iv, np.array([1.5]))


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
    with pytest.raises(FieldMismatchError):
        bilinear_sum(chi, s, from_elements(build_field(7), [1, 2]))


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
        beta = np.array([draw(radii) * cmath.exp(1j * draw(phases)) for x in x_set])
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
        want = sum((1 if beta is None else beta[i]) * chi_value(chi, (s + x) % p)
                   for i, x in enumerate(x_set))
        assert abs(value - want) < 1e-12 * len(x_set)


def test_inner_sums_build_the_roots_once(monkeypatch):
    # p = 65521, order 21840: 65 rows of X = 1000 a block, so S = 200 takes
    # 4 blocks, and each block gathers its classes from one shared table of
    # roots; one block of all 200 rows gives the same bits
    fld = build_field(65521)
    chi = character(fld, 3)
    s_set, x_set = random_set(fld, 200, 11), interval(fld, 0, 1000)
    calls = []
    roots = field.Character.roots
    monkeypatch.setattr(field.Character, "roots",
                        lambda self: calls.append(()) or roots(self))
    got = bilinear_sum(chi, s_set, x_set)
    assert calls == [()]
    monkeypatch.setattr(charsums, "_BLOCK", 1 << 40)
    assert bilinear_sum(chi, s_set, x_set) == got


@st.composite
def _real_inner_sum_cases(draw):
    # a real chi, principal or quadratic, against an interval X anywhere in
    # F_p, so that windows s + X run through 0 and wrap past p - 1; S holds
    # 0 and elements near p - 1
    p = draw(st.sampled_from([3, 5, 13, 31, 1048573, 16777213]))
    fld = build_field(p)
    chi = character(fld, draw(st.sampled_from([0, (p - 1) // 2])))
    elems = st.one_of(st.just(0), st.integers(max(0, p - 3), p - 1), st.integers(0, p - 1))
    s_set = from_elements(fld, draw(st.lists(elems, min_size=1, max_size=40)))
    x_set = interval(fld, draw(elems), draw(st.integers(1, min(p - 1, 60))))
    return chi, s_set, x_set, draw(st.sampled_from([1, 16, charsums._BLOCK]))


def _real_case(p, s_elems, start, length, block):
    fld = build_field(p)
    return character(fld, (p - 1) // 2), from_elements(fld, s_elems), interval(fld, start, length), block


@settings(max_examples=60, deadline=None)
@given(_real_inner_sum_cases())
# windows through 0 for every s, and windows wrapping past p - 1, at 2^20
# and at the 2^24 ceiling, several rows to a block
@example(_real_case(1048573, [0, 1, 5, 1048572], 1048562, 20, 40))
@example(_real_case(16777213, [0, 3, 16777210, 16777212], 16777200, 30, 64))
def test_real_inner_sums_are_exact_legendre_sums(case):
    # a real chi reads exact +-1 and 0 off the squares bitmap, so the np.dot
    # of each row, with beta None or all ones, is bit for bit the integer
    # Legendre-symbol sum, computed here by pow
    chi, s_set, x_set, block = case
    p = chi.field.p
    ones = np.ones(len(x_set), dtype=np.complex128)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(charsums, "_BLOCK", block)
        got = _inner_sums(chi, s_set, x_set, None)
        weighted = _inner_sums(chi, s_set, x_set, ones)
    if chi.order == 2:
        legendre = [sum(0 if (s + x) % p == 0 else 1 if pow(s + x, (p - 1) // 2, p) == 1 else -1
                        for x in x_set) for s in s_set]
    else:
        legendre = [sum((s + x) % p != 0 for x in x_set) for s in s_set]
    want = np.array(legendre, dtype=np.complex128)
    assert got.dtype == np.complex128 and got.tobytes() == want.tobytes() == weighted.tobytes()


ARC_PRIMES = [3, 5, 7, 61, 127, 1048573, 16777213]


@functools.cache
def _squares_words(p):
    return build_field(p).squares


def _euler_squares(p, lo, hi):
    """#{nonzero squares in [lo, hi)}, 0 <= lo <= hi <= p, by Euler's criterion."""
    return sum(pow(x, (p - 1) // 2, p) == 1 for x in range(max(lo, 1), hi))


@st.composite
def _square_windows(draw):
    # window ends at 0, 1, 63, 64 (a word's last bit and the next word's
    # first), p - 1 and p, and anywhere in [0, p]; windows may be empty
    p = draw(st.sampled_from(ARC_PRIMES))
    ends = st.one_of(st.sampled_from([0, 1, 63, 64, p - 1, p]), st.integers(0, p))
    windows = []
    for lo in draw(st.lists(ends, min_size=1, max_size=8)):
        lo = min(lo, p)
        windows.append((lo, lo + draw(st.integers(0, min(p - lo, 130)))))
    return p, windows


@settings(max_examples=80, deadline=None)
@given(_square_windows())
def test_squares_below_counts_euler_squares(case):
    # the squares below each end, off the popcounts of the words, differ
    # across a window by the squares in it; below 0 there are none, below p
    # all (p - 1)/2, and below an end up to 200 the count is checked whole
    p, windows = case
    ends = np.array([t for window in windows for t in window] + [0, p], dtype=np.int64)
    below = charsums._squares_below(_squares_words(p), ends).tolist()
    assert below[-2:] == [0, (p - 1) // 2]
    for (lo, hi), a, b in zip(windows, below[0::2], below[1::2]):
        assert b - a == _euler_squares(p, lo, hi)
        if lo <= 200:
            assert a == _euler_squares(p, 0, lo)


def _gather_route_arc(arr, p):
    """An arc longer than any set: _inner_sums gathers the classes."""
    return 0, p


@st.composite
def _arc_cases(draw):
    # the quadratic chi over an interval X, its arc starting at a, with S
    # drawn so that windows [s + a, s + a + L) start or end at 0, 1, 63, 64,
    # p - 1 and p, wrap past p and hold 0; at p <= 127, X may be all of F_p
    p = draw(st.sampled_from(ARC_PRIMES))
    fld = build_field(p)
    if p < 128 and draw(st.booleans()):
        x_set = from_elements(fld, range(p))
    else:
        x_set = interval(fld, draw(st.integers(0, p - 1)), draw(st.integers(1, min(p - 1, 130))))
    start, length = _arc(x_set.elems, p)
    edges = [(t - start - shift) % p for t in (0, 1, 63, 64, p - 1) for shift in (0, length)]
    s_elems = draw(st.lists(st.one_of(st.sampled_from(edges), st.integers(0, p - 1)),
                            min_size=1, max_size=20))
    return character(fld, (p - 1) // 2), from_elements(fld, s_elems), x_set


@settings(max_examples=80, deadline=None)
@given(_arc_cases())
def test_arc_inner_sums_match_euler_and_gather_route(case):
    # each row of the arc route is 2 #squares - #units over its window, the
    # Legendre-symbol sum by pow, and bit for bit what the gather route reads
    chi, s_set, x_set = case
    p = chi.field.p
    calls, below = [], charsums._squares_below
    with pytest.MonkeyPatch.context() as m:
        m.setattr(charsums, "_squares_below", lambda *a: calls.append(()) or below(*a))
        got = _inner_sums(chi, s_set, x_set, None)
    assert calls == [()]  # the arc route, with no gather
    legendre = [sum(0 if (s + x) % p == 0 else 1 if pow(s + x, (p - 1) // 2, p) == 1 else -1
                    for x in x_set) for s in s_set]
    assert got.dtype == np.complex128 and got.tolist() == legendre
    with pytest.MonkeyPatch.context() as m:
        m.setattr(charsums, "_arc", _gather_route_arc)
        assert _inner_sums(chi, s_set, x_set, None).tobytes() == got.tobytes()


def test_bilinear_trivial_bound_and_support():
    fld = build_field(31)
    chi = character(fld, 3)
    rng = random.Random(0)
    for _ in range(10):
        s = random_set(fld, rng.randint(1, 10), rng.randrange(2**31))
        iv = interval(fld, rng.randrange(31), rng.randint(1, 10))
        alpha = np.array([cmath.exp(1j * rng.uniform(0, 7)) for x in s.elems])
        beta = np.array(
            [rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 7)) for x in iv.elems]
        )
        w = bilinear_sum(chi, s, iv, alpha, beta)
        assert abs(w) <= len(s) * len(iv) + 1e-6
    with pytest.raises(SupportMismatchError):
        bilinear_sum(chi, s, iv, np.ones(len(s) + 1), None)
    with pytest.raises(SupportMismatchError):
        modulus_sum(chi, s, iv, np.ones((1, len(iv))))


def test_modulus_examples_and_optimality():
    f5 = build_field(5)
    chi = character(f5, 2)
    assert abs(modulus_sum(chi, from_elements(f5, [1]), from_elements(f5, [1, 2])) - 2) < 1e-9
    with pytest.raises(FieldMismatchError):
        modulus_sum(chi, from_elements(f5, [1]), from_elements(build_field(7), [1, 2]))
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
        beta = np.array([cmath.exp(1j * rng.uniform(0, 7)) for x in iv.elems])
        ms = modulus_sum(chi13, s, iv, beta)
        alpha = np.array([cmath.exp(1j * rng.uniform(0, 7)) for x in s.elems])
        assert abs(bilinear_sum(chi13, s, iv, alpha, beta)) <= ms + 1e-9


def test_cauchy_step():
    # |W|^2 <= #I * sum_x |sum_s alpha_s chi(s+x)|^2
    rng = random.Random(2)
    fld = build_field(61)
    chi = character(fld, 5)
    for _ in range(8):
        s = random_set(fld, rng.randint(2, 12), rng.randrange(2**31))
        iv = interval(fld, rng.randrange(61), rng.randint(2, 10))
        alpha = np.array([cmath.exp(1j * rng.uniform(0, 7)) for x in s.elems])
        w = abs(bilinear_sum(chi, s, iv, alpha))
        inner = 0.0
        for x in iv.elems:
            inner += abs(sum(w_a * chi_value(chi, a + x) for w_a, a in zip(alpha, s.elems))) ** 2
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


def _nu_loop(s_set, radius, params):
    """Referee for amplification_map: the multiplicities nu of (lambda, mu)
    over (s, t, x, y) with s != t, |x| <= radius and y in the prime window,
    counted in a dict by Python loops with pow inverses."""
    p = s_set.field.p
    nu = {}
    for y in prime_window(params, p):
        yinv = pow(y, p - 2, p)
        for s in s_set:
            for t in s_set:
                if s == t:
                    continue
                for x in range(-radius, radius + 1):
                    key = ((s + x) * yinv % p, (t + x) * yinv % p)
                    nu[key] = nu.get(key, 0) + 1
    return nu


def _assert_matches_nu(m, nu, p):
    assert m.values.tolist() == [lam * p + mu for lam, mu in sorted(nu)]
    assert m.counts.tolist() == [nu[key] for key in sorted(nu)]


def test_amplification_example_bruteforce():
    p = 61
    fld = build_field(p)
    s = from_elements(fld, [1, 2])
    params = AmplificationParams(y=2, z=1)
    m = amplification_map(s, 8, params)
    assert prime_window(params, p) == [2, 3]
    assert m.values.dtype == m.counts.dtype == np.int64
    _assert_matches_nu(m, _nu_loop(s, 8, params), p)
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
    # Bertrand's postulate: [y, 2y] holds a prime for every y >= 1
    assert all(prime_window(AmplificationParams(y=y, z=1), 1048573) for y in range(1, 5001))


def test_count_n_edges():
    fld = build_field(31)
    single = from_elements(fld, [7])
    xset = interval(fld, 0, 4)
    yset = from_elements(fld, [2, 3])
    assert count_n(single, xset, yset) == 0
    empty = from_elements(fld, [])
    assert count_n(empty, xset, yset) == count_n(single, empty, yset) == count_n(single, xset, empty) == 0
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
    # at p = 1048573, S, X and Y sit near p - 1, where the products
    # (x + s) y^-1 are largest (~2^41)
    p = draw(st.sampled_from([7, 13, 31, 1048573]))
    low = max(1, p - 10)
    fld = build_field(p)
    mk = lambda n: from_elements(
        fld, draw(st.lists(st.integers(low, p - 1), min_size=1, max_size=n))
    )
    return mk(4), mk(3), mk(2)


def _big_field_set(*elems, p=1048573):
    return from_elements(build_field(p), elems)


@settings(max_examples=40, deadline=None)
@given(_nsxy_sets())
# Y = {y, 2y} makes (x + s)/y = (x' + s')/(2y) collide across y, and
# (x + s) * y^-1 spans [0, p^2): a product that wrapped would split them
@example((
    _big_field_set(*range(1048569, 1048573)),
    _big_field_set(*range(1048570, 1048573)),
    _big_field_set(400000, 800000),
))
# at the 2^24 ceiling: S near p - 1, so x + s wraps past p for the positive x
# of a symmetric X, and the window residues p - 1 (its own inverse) and p - 2
# take (x + s) y^-1 towards 2p^2 < 2^49
@example((
    _big_field_set(16777205, 16777208, 16777210, 16777212, p=16777213),
    symmetric_interval(build_field(16777213), 3),
    _big_field_set(400000, 16777211, 16777212, p=16777213),
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


def _fibre_one_shot(s_set, x_set, y_set):
    """Referee for count_n: (values, counts) of every key lambda * p + mu
    over (s, t, x, y) with s != t, built at once and merged by one np.unique;
    count_n is the sum of the counts squared."""
    p = s_set.field.p
    ss, xs = s_set.elems, x_set.elems
    yinv = np.array([pow(y, p - 2, p) for y in y_set], dtype=np.int64)
    vals = (xs[:, None] + ss[None, :]) * yinv[:, None, None] % p  # (Y, X, S)
    i, j = np.nonzero(~np.eye(len(ss), dtype=bool))  # ordered pairs s != t
    return np.unique(vals[..., i] * p + vals[..., j], return_counts=True)


@st.composite
def _fibre_cases(draw):
    # p = 7 and 31 give long runs of equal lambda; at p = 1048573 and at the
    # 2^24 ceiling elements sit near 0 and p - 1, where lambda * p + mu
    # approaches 2^48 and (x + s) y^-1 2^49; Y = {y, 2y} makes
    # (x + s)/y = (x' + s')/(2y) collide across y.  amplification_map needs
    # 4Y <= X and 2X + 1 <= p, which no X meets at p = 7.
    p = draw(st.sampled_from([7, 31, 1048573, 16777213]))
    fld = build_field(p)
    elems = st.one_of(st.integers(0, 3), st.integers(p - 4, p - 1), st.integers(0, p - 1))
    s = from_elements(fld, draw(st.lists(elems, min_size=1, max_size=6)))
    x = from_elements(fld, draw(st.lists(elems, min_size=1, max_size=4)))
    y = draw(st.integers(1, p - 1))
    ys = from_elements(fld, [y, 2 * y] if draw(st.booleans()) else [y])
    amp = None
    if p > 7:
        radius = draw(st.integers(4, 15))
        amp = radius, AmplificationParams(y=draw(st.integers(1, radius // 4)), z=1)
    return s, x, ys, amp


def _long_run_case():
    # Y = {1, 2}: lambda = 3 comes from the 3 pairs x + s = 3 at y = 1 and the
    # 4 pairs x + s = 6 at y = 2, 7 entries in 7 rows, so blocks of 2 or 16
    # pairs cut its run
    fld = build_field(1048573)
    return (from_elements(fld, range(6)), from_elements(fld, range(1, 5)),
            from_elements(fld, [1, 2]), (4, AmplificationParams(y=1, z=1)))


def _wide_row_case():
    # S = {0, ..., 7}, X = {0, 1, 2}, Y = {1}: the row x = 0 meets 1, 2 and
    # 3 rows at lambda = 0, 1 and 2..7, 21 pairs, which pass a block of 16
    # alone, so that row is a block of its own
    fld = build_field(1048573)
    return (from_elements(fld, range(8)), from_elements(fld, range(3)),
            from_elements(fld, [1]), (4, AmplificationParams(y=1, z=1)))


@settings(max_examples=80, deadline=None)
@given(_fibre_cases(), st.sampled_from([1, 2, 16, 1 << 40]))
@example(_long_run_case(), 2)
@example(_long_run_case(), 16)
@example(_wide_row_case(), 16)
def test_count_n_blocks_match_one_shot_referee(case, block):
    # count_n's row blocks hold _BLOCK pairs and counts, or one row: 1 and 2
    # give a row a block, 16 cuts runs of equal lambda between blocks, 2^40
    # takes every row at once
    s, xset, yset, _ = case
    _, counts = _fibre_one_shot(s, xset, yset)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(charsums, "_BLOCK", block)
        assert count_n(s, xset, yset) == sum(int(c) ** 2 for c in counts)
        assert count_n(s, xset, yset) == count_n_bruteforce(s, xset, yset)


@settings(max_examples=60, deadline=None)
@given(_fibre_cases().filter(lambda case: case[3] is not None))
@example(_long_run_case())
@example(_wide_row_case())
def test_amplification_map_matches_loop_referee(case):
    s, _, _, (radius, params) = case
    fld = s.field
    m = amplification_map(s, radius, params)
    _assert_matches_nu(m, _nu_loop(s, radius, params), fld.p)
    window = prime_window(params, fld.p)
    assert m.total == len(s) * (len(s) - 1) * (2 * radius + 1) * len(window)
    assert m.second_moment == count_n_bruteforce(
        s, symmetric_interval(fld, radius), from_elements(fld, window))


def test_count_n_memory_budget():
    # 11 window primes x 128 x 64 = 90k entries, whose 5.7M (s, t, x, y)
    # tuples a one-shot fibre held at once (a 233 MB tracemalloc peak); the
    # row blocks hold _BLOCK pairs, and N is the count the one-shot fibre gave
    fld = build_field(1048573)
    sets = random_set(fld, 64, 7), interval(fld, 0, 128), from_elements(fld, primes_upto(32))
    tracemalloc.start()
    try:
        got = count_n(*sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 5677068
    assert peak <= 8e6


def test_count_n_interval_memory_budget():
    # an interval S gives every y runs of up to 64 equal lambda, as the rows
    # of one y share up to 64 values: 7.0M row pairs in all, where the random
    # S of the budget above gives 97k; N is the sum of the squared counts of
    # the fibre's keys lambda * p + mu
    fld = build_field(1048573)
    sets = interval(fld, 0, 64), interval(fld, 0, 128), from_elements(fld, primes_upto(32))
    tracemalloc.start()
    try:
        got = count_n(*sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 222653924
    assert peak <= 8e6


@st.composite
def _diagonal_cases(draw):
    # random, interval and subgroup S against an interval or random X, at a
    # small p where S - S covers most lags and at 2^20, one y each
    p = draw(st.sampled_from([31, 61, 1048573]))
    fld = build_field(p)
    n = draw(st.integers(1, 24))
    family = draw(st.sampled_from(["random", "interval", "subgroup"]))
    if family == "random":
        s = random_set(fld, min(n, p - 1), draw(st.integers(0, 2**31)))
    elif family == "interval":
        s = interval(fld, draw(st.integers(0, p - 1)), min(n, p - 1))
    else:
        s = subgroup(fld, draw(st.sampled_from([d for d in range(1, 64) if (p - 1) % d == 0])))
    x_len = draw(st.integers(1, min(40, p - 1)))
    if draw(st.booleans()):
        x = interval(fld, draw(st.integers(0, p - 1)), x_len)
    else:
        x = random_set(fld, x_len, draw(st.integers(0, 2**31)))
    return s, x, from_elements(fld, [draw(st.integers(1, p - 1))])


def _diagonal_case(p, family, x_len, y):
    fld = build_field(p)
    s = {"random": lambda: random_set(fld, 64, 7), "interval": lambda: interval(fld, 0, 64),
         "subgroup": lambda: subgroup(fld, 63)}[family]()
    return s, interval(fld, 0, x_len), from_elements(fld, [y])


@settings(max_examples=60, deadline=None)
@given(_diagonal_cases())
# item-size instances at 2^20: nS = 64 (63 for the subgroup) and X = 256, at
# y = 1, at y = 2 and at y = p - 1
@example(_diagonal_case(1048573, "random", 256, 2))
@example(_diagonal_case(1048573, "interval", 256, 1048572))
@example(_diagonal_case(1048573, "subgroup", 256, 1))
def test_count_n_single_y_is_e3_minus_t2(sets):
    # at one y, the rows (y, x) and (y, x') have M = r_{S-S}(x' - x), so
    # count_n = sum_{x, x'} r(x' - x)^2 - r(x' - x) = E3(S, S, X) - T2(S, X)
    s, x, y = sets
    assert count_n(s, x, y) == e3(s, s, x) - t_k([s, x])


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


def test_real_complete_product_sum_builds_no_ind():
    # the quadratic chi reads its classes off the squares bitmap, and a sum
    # is an exact integer
    fld = build_field(1009)
    chi = character(fld, 504)
    assert complete_product_sum(chi, (4, 4)) == 1008
    assert complete_product_sum(chi, (4, 9)) == -1
    assert complete_product_sum(character(fld, 0), (4, 9, 1, 2)) == 1009 - 4
    assert "ind" not in fld.__dict__


def _exponent_product_sum(chi, shifts):
    """Referee for complete_product_sum: the exponents m * ind mod (p - 1)
    of the plain shifts minus those of the conjugated ones, as a class."""
    p, r = chi.field.p, len(shifts) // 2
    n = p - 1
    exps = np.array([chi_exponent(chi, x) for x in range(p)], dtype=np.int64)
    e = np.array([exps[(np.arange(p) + z) % p] for z in shifts])
    valid = (e >= 0).all(axis=0)
    acc = e[:r].sum(axis=0) - e[r:].sum(axis=0)
    return complex(chi.roots()[acc[valid] % n // (n // chi.order)].sum())


def test_complete_product_sum_matches_exponent_referee():
    p = 31
    fld = build_field(p)
    rng = random.Random(31)
    for m in range(p - 1):
        chi = character(fld, m)
        for _ in range(200):
            shifts = tuple(rng.randrange(p) for _ in range(2 * rng.randint(1, 3)))
            assert complete_product_sum(chi, shifts) == _exponent_product_sum(chi, shifts)


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
    # iv_shift.elems[i] = iv.elems[i] + a, with no wrap past p, so one weight
    # array is aligned with both intervals
    assert list(iv_shift.elems) == [x + a for x in iv.elems]
    beta = np.array([cmath.exp(1j * rng.uniform(0, 7)) for x in iv.elems])
    lhs = modulus_sum(chi, s, iv_shift, beta)
    rhs = modulus_sum(chi, from_elements(fld, [x + a for x in s.elems]), iv, beta)
    assert abs(lhs - rhs) < 1e-9
