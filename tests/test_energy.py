import itertools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fplab import energy
from fplab.errors import FieldMismatchError
from fplab.energy import (
    MultiplicityFn,
    additive_energy,
    e3,
    e3_bruteforce,
    t_k,
    t_k_fourier,
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


def _support(mf):
    """(values, counts) as Python lists, after checking the int64 layout."""
    assert mf.values.dtype == np.int64 and len(mf.values) == len(mf.counts)
    return mf.values.tolist(), mf.counts.tolist()


def _as_support(table):
    return sorted(table), [table[x] for x in sorted(table)]


def _sum_support(p, arrays):
    """(values, counts) of the sums x_0 + x_1 + ... mod p over the product of
    the arrays, int64, one np.unique step per array: the tests' own route to
    the support, as _convolve returns only the second moment."""
    values, counts = arrays[0], np.ones(len(arrays[0]), dtype=np.int64)
    for s in arrays[1:]:
        values, inverse = np.unique((values[:, None] + s[None, :]).ravel() % p,
                                    return_inverse=True)
        step = np.zeros(len(values), dtype=np.int64)
        np.add.at(step, inverse, np.repeat(counts, len(s)))
        counts = step
    return values, counts


def _diff_counts(a):
    """The count of each difference u - v over the whole set: the referee for
    e3's lag counts."""
    arr = a.elems
    return MultiplicityFn(*_sum_support(a.field.p, [arr, -arr % a.field.p]))


def test_diff_multiplicity_examples():
    f7 = build_field(7)
    assert _support(_diff_counts(from_elements(f7, [0]))) == ([0], [1])
    assert _support(_diff_counts(from_elements(f7, [0, 1]))) == ([0, 1, 6], [2, 1, 1])
    perfect = _support(_diff_counts(from_elements(f7, [1, 2, 4])))
    assert perfect == ([0, 1, 2, 3, 4, 5, 6], [3, 1, 1, 1, 1, 1, 1])


def test_diff_multiplicity_total_and_numpy_path():
    fld = build_field(257)
    a = random_set(fld, 80, seed=3)  # 80 * 80 >= 257: the dense scatter step
    mf = _diff_counts(a)
    assert mf.total == len(a) ** 2
    slow = {}
    for u in a.elems:
        for v in a.elems:
            d = (u - v) % 257
            slow[d] = slow.get(d, 0) + 1
    assert _support(mf) == _as_support(slow)


def test_additive_energy_examples():
    f11 = build_field(11)
    assert additive_energy(from_elements(f11, [0])) == 1
    assert additive_energy(from_elements(f11, [0, 1])) == 6
    assert additive_energy(from_elements(f11, [0, 1, 2])) == 19


def test_additive_energy_equals_sum_form():
    # second moment of the difference counts = quadruples with u1+u2 = v1+v2
    fld = build_field(13)
    rng = random.Random(5)
    for _ in range(10):
        a = random_set(fld, rng.randint(1, 8), rng.randrange(2**31))
        direct = sum(
            1
            for u1 in a for u2 in a for v1 in a for v2 in a
            if (u1 + u2) % 13 == (v1 + v2) % 13
        )
        assert additive_energy(a) == direct


def test_e3_examples():
    f7 = build_field(7)
    z = from_elements(f7, [0])
    assert e3(z, z, z) == 1
    s = from_elements(f7, [0, 1])
    assert e3(s, s, s) == 10
    empty = from_elements(f7, [])
    for sets in ((empty, s, s), (s, empty, s), (s, s, empty), (empty, empty, empty)):
        assert e3(*sets) == 0 == e3_bruteforce(*sets)


def test_e3_against_bruteforce():
    rng = random.Random(11)
    for p in (7, 13, 31):
        fld = build_field(p)
        for _ in range(4):
            mk = lambda: random_set(fld, rng.randint(1, 6), rng.randrange(2**31))
            u, v, w = mk(), mk(), mk()
            assert e3(u, v, w) == e3_bruteforce(u, v, w)
    z3, z5 = from_elements(build_field(3), [1]), from_elements(build_field(5), [1])
    for fn in (e3, e3_bruteforce):
        with pytest.raises(FieldMismatchError):
            fn(z3, z3, z5)


def test_t_k_examples():
    f7 = build_field(7)
    s = from_elements(f7, [0, 1])
    assert t_k([s, s]) == additive_energy(s)
    assert t_k([s, s, s]) == 20  # r = (1,3,3,1), sum of squares
    singles = [from_elements(f7, [2]), from_elements(f7, [3])]
    assert t_k(singles) == 1
    with pytest.raises(ValueError):
        t_k([])


def test_t_k_matches_brute_quadruples():
    fld = build_field(11)
    rng = random.Random(2)
    for _ in range(5):
        a = random_set(fld, rng.randint(1, 6), rng.randrange(2**31))
        b = random_set(fld, rng.randint(1, 6), rng.randrange(2**31))
        direct = sum(
            1
            for u1 in a for u2 in b for v1 in a for v2 in b
            if (u1 + u2) % 11 == (v1 + v2) % 11
        )
        assert t_k([a, b]) == direct


def _sum_counts(sets):
    """(values, counts) of the sums u_1 + ... + u_k."""
    arrays = [s.elems for s in sets]
    return _sum_support(sets[0].field.p, arrays)


def test_sum_counts_total():
    fld = build_field(13)
    sets = [random_set(fld, n, seed=n) for n in (3, 4, 5)]
    _, counts = _sum_counts(sets)
    assert counts.sum() == 3 * 4 * 5


def test_fourier_examples():
    f7 = build_field(7)
    single = from_elements(f7, [4])
    assert abs(t_k([single, single]) - t_k_fourier([single, single])) < 1e-9
    s = from_elements(f7, [0, 1])
    assert abs(t_k_fourier([s, s, s]) - 20) < 1e-6
    rng = random.Random(8)
    for p in (5, 31, 101):
        fld = build_field(p)
        sets = [
            random_set(fld, rng.randint(1, min(p - 1, 10)), rng.randrange(2**31))
            for _ in range(rng.randint(2, 4))
        ]
        exact = t_k(sets)
        assert abs(exact - t_k_fourier(sets)) < 1e-6 * exact


def test_multiplicity_totals():
    fld = build_field(31)
    rng = random.Random(9)
    for _ in range(10):
        a = random_set(fld, rng.randint(1, 12), rng.randrange(2**31))
        assert _diff_counts(a).total == len(a) ** 2


# ---------------------------------------------------------------------------
# inequality suite (exact integer assertions)
# ---------------------------------------------------------------------------

def _instances(seed=4):
    rng = random.Random(seed)
    out = []
    for p in (13, 31, 61):
        fld = build_field(p)
        out.append(random_set(fld, rng.randint(2, 10), rng.randrange(2**31)))
        out.append(interval(fld, rng.randrange(p), rng.randint(2, 8)))
    out.append(subgroup(build_field(61), 12))
    out.append(subgroup(build_field(31), 5))
    return out


def test_e3_trivial_bound_exact():
    rng = random.Random(6)
    for p in (13, 31):
        fld = build_field(p)
        for _ in range(6):
            mk = lambda: random_set(fld, rng.randint(1, 8), rng.randrange(2**31))
            u, v, w = mk(), mk(), mk()
            cards = sorted((len(u), len(v), len(w)), reverse=True)
            assert e3(u, v, w) <= cards[0] * cards[1] * cards[2] * cards[2]


def test_e3_interval_energy_bound_exact():
    # e3(S, S, I) <= #I * E+(S): every interval difference count is <= #I
    for s in _instances():
        fld = s.field
        x_len = min(6, (fld.p - 1) // 2)
        iv = interval(fld, 0, x_len)
        assert e3(s, s, iv) <= len(iv) * additive_energy(s)


def test_energy_tk_moment_chain_exact():
    # (E+)^(k-1) <= T_k * (#S)^(k-2) for k = 3, 4
    for s in _instances(seed=10):
        e2 = additive_energy(s)
        for k in (3, 4):
            assert e2 ** (k - 1) <= t_k([s] * k) * len(s) ** (k - 2)


def test_holder_chain_log_form():
    # T_k(S1..Sk) <= prod_{j>=2} T_k(S1, Sj, ..., Sj)^{1/(k-1)}
    rng = random.Random(12)
    fld = build_field(31)
    for k in (3, 4):
        for _ in range(4):
            sets = [
                random_set(fld, rng.randint(2, 7), rng.randrange(2**31))
                for _ in range(k)
            ]
            lhs = math.log(t_k(sets))
            rhs = sum(
                math.log(t_k([sets[0]] + [sets[j]] * (k - 1))) for j in range(1, k)
            ) / (k - 1)
            assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


def test_translation_invariance_of_e3():
    fld = build_field(61)
    s = random_set(fld, 9, seed=21)
    ibar = symmetric_interval(fld, 5)
    base = e3(s, s, ibar)
    for a in (1, 17, 60):
        shifted = from_elements(fld, [x + a for x in s.elems])
        assert e3(shifted, shifted, ibar) == base


# ---------------------------------------------------------------------------
# property tests: the sparse/dense (values, counts) kernels against references
# ---------------------------------------------------------------------------

@st.composite
def _fields_and_sets(draw, count, max_size):
    # p = 5 .. 101 against sizes 1 .. max_size puts len(support) * |S| on both
    # sides of p, so both the sorting step and the dense scatter step run
    p = draw(st.sampled_from([5, 7, 13, 31, 61, 101]))
    fld = build_field(p)
    sets = [
        from_elements(fld, draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=max_size)))
        for _ in range(count)
    ]
    return sets


def _t_k_direct(sets):
    p = sets[0].field.p
    sums = Counter(sum(combo) % p for combo in itertools.product(*(s.elems for s in sets)))
    return sum(c * c for c in sums.values())


@settings(max_examples=60, deadline=None)
@given(_fields_and_sets(count=1, max_size=12))
def test_additive_energy_property(sets):
    (a,) = sets
    p = a.field.p
    diffs = Counter((u - v) % p for u in a for v in a)
    assert _support(_diff_counts(a)) == _as_support(diffs)
    assert additive_energy(a) == sum(c * c for c in diffs.values())


@settings(max_examples=40, deadline=None)
@given(_fields_and_sets(count=3, max_size=5))
def test_e3_property(sets):
    assert e3(*sets) == e3_bruteforce(*sets)


def _e3_loop(u, v, w):
    """Referee for e3_bruteforce: the six nested Python loops over
    (u1, u2, v1, v2, w1, w2)."""
    p = u.field.p
    count = 0
    for u1 in u:
        for u2 in u:
            d = (u1 - u2) % p
            for v1 in v:
                for v2 in v:
                    if (v1 - v2) % p == d:
                        count += sum((w1 - w2) % p == d for w1 in w for w2 in w)
    return count


@st.composite
def _e3_referee_sets(draw):
    # at p = 1048573 elements sit near 0 and p - 1, so differences wrap;
    # singleton sets are drawn at every p
    p = draw(st.sampled_from([3, 5, 31, 1048573]))
    fld = build_field(p)
    elems = st.one_of(st.integers(0, 3), st.integers(p - 4, p - 1), st.integers(0, p - 1))
    return [from_elements(fld, draw(st.lists(elems, min_size=1,
                                             max_size=draw(st.sampled_from([1, 5])))))
            for _ in range(3)]


def _big_field_set(*elems):
    return from_elements(build_field(1048573), elems)


@settings(max_examples=60, deadline=None)
@given(_e3_referee_sets(), st.sampled_from([1, 1 << 40]))
# 3^2 (u1, u2) pairs of 2^2 sextuples each: a block of 10 takes 2 pairs at a
# time, then 1
@example([_big_field_set(0, 1, 1048572), _big_field_set(0, 1048572), _big_field_set(1)], 10)
def test_e3_bruteforce_matches_loop_referee(sets, block):
    # a block of 1 sextuple takes one (u1, u2) pair at a time, 2^40 all of them
    with pytest.MonkeyPatch.context() as m:
        m.setattr(energy, "_BLOCK", block)
        assert e3_bruteforce(*sets) == _e3_loop(*sets)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: _fields_and_sets(count=k, max_size=9)))
def test_t_k_property(sets):
    exact = t_k(sets)
    assert exact == _t_k_direct(sets)
    assert abs(exact - t_k_fourier(sets)) < 1e-6 * exact
    assert _sum_counts(sets)[1].sum() == math.prod(len(s) for s in sets)


@pytest.mark.parametrize("p, sizes", [(101, (3, 4, 2)), (7, (3, 4, 2)), (31, (5, 5, 5, 5)),
                                      (1021, (3, 4, 2))])
def test_t_k_both_steps(p, sizes):
    # a step sorts below p / 7 keys: (1021, ...) sorts at every step; (7, ...)
    # and (31, ...) add densely at every step; (101, ...) sorts 3*4 keys,
    # then adds densely
    fld = build_field(p)
    sets = [random_set(fld, n, seed=n + p) for n in sizes]
    assert t_k(sets) == _t_k_direct(sets)


@settings(max_examples=40, deadline=None)
@given(_fields_and_sets(count=3, max_size=7), st.integers(1, 3))
def test_python_int_route_past_guard(sets, k):
    # a zero guard sends every count into Python ints and every sum of
    # products through the Python-int route; results must not move.  The
    # second moments of t_k and additive_energy are also taken with every
    # step sorted, then with every step dense, whose last step is squared
    # straight off its accumulator
    want_e3, want_e2, want_tk = e3(*sets), additive_energy(sets[0]), t_k(sets[:k])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(energy, "_INT64_SAFE", 0)
        assert e3(*sets) == want_e3
        for share in (0, sets[0].field.p + 1):
            m.setattr(energy, "_SORT_SHARE", share)
            assert additive_energy(sets[0]) == want_e2
            assert t_k(sets[:k]) == want_tk


@st.composite
def _convolve_inputs(draw):
    p = draw(st.sampled_from([3, 5, 13, 31, 1048573, 16777213]))
    elems = st.one_of(st.integers(0, 2), st.integers(max(0, p - 3), p - 1), st.integers(0, p - 1))
    arrays = [np.array(sorted(set(draw(st.lists(elems, min_size=1, max_size=8)))), dtype=np.int64)
              for _ in range(draw(st.integers(2, 4)))]
    return p, arrays


@settings(max_examples=60, deadline=None)
@given(_convolve_inputs(), st.booleans(), st.sampled_from([1, 5, energy._BLOCK]))
@example((1048573, [np.array([0, 1048571, 1048572]), np.array([1, 2, 5, 1048570, 1048572])]),
         False, 7)
def test_convolve_routes_match_dict_referee(case, python_ints, block):
    # the same input down the sorting route at every step, then down the
    # dense route at every step; residues near p - 1 make every sum wrap.
    # A block of 1 key adds one row of S per np.add.at; 5 keys leave a short
    # last block when a support of 1 or 2 gives blocks of 5 or 2 rows that
    # do not divide |S|, as 7 keys over a support of 3 (2 rows) do for |S| = 5
    p, arrays = case
    sums = Counter(sum(combo) % p for combo in itertools.product(*(a.tolist() for a in arrays)))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(energy, "_BLOCK", block)
        # counts as Python ints, as past 2^62; not at p = 16777213, where
        # _dot's Python-int sum over a dense length-p array takes seconds
        if python_ints and p < 1 << 21:
            m.setattr(energy, "_INT64_SAFE", 0)
        for share in (0, p + 1):
            m.setattr(energy, "_SORT_SHARE", share)
            moment = energy._convolve(p, arrays[0], arrays[1:])
            assert type(moment) is int and moment == sum(c * c for c in sums.values())


def _sums_by_steps(p, arrays):
    """Referee for _convolve at totals too large to enumerate: the counts of
    each sum mod p, convolved one set at a time over dicts of Python ints."""
    counts = Counter({x: 1 for x in arrays[0]})
    for s in arrays[1:]:
        step = Counter()
        for k, c in counts.items():
            for x in s:
                step[(k + x) % p] += c
        counts = step
    return sorted(counts), [counts[k] for k in sorted(counts)]


@pytest.mark.parametrize("p, sizes", [
    (331, (2, 3, 3, 7, 11, 31, 151, 331)),  # total 2^31 - 2: int32 accumulator
    (331, (256, 256, 256, 128)),  # total 2^31: int64 accumulator
    (3, (3,) * 21),  # total 3^21: counts near 3.5e9 overflow int32
])
def test_convolve_accumulator_at_2_31(p, sizes):
    # the dense accumulator is int32 only while the total stays below 2^31,
    # so no count can wrap, on the steps whose support goes on to the next
    # step as on the last one
    arrays = [np.arange(n, dtype=np.int64) * (p // n) for n in sizes]
    want = _sums_by_steps(p, [a.tolist() for a in arrays])
    moment = sum(c * c for c in want[1])
    with pytest.MonkeyPatch.context() as m:
        for share in (0, p + 1):  # every step sorted, then every step dense
            m.setattr(energy, "_SORT_SHARE", share)
            # squared off the int32 or int64 accumulator; at 3^21 the squares
            # pass 2^63 and are summed in Python ints
            assert energy._convolve(p, arrays[0], arrays[1:]) == moment
        # counts as Python ints, as past 2^62: from a total of 2^31 on, the
        # dense accumulator holds them too
        m.setattr(energy, "_INT64_SAFE", 0)
        for share in (0, p + 1):
            m.setattr(energy, "_SORT_SHARE", share)
            assert energy._convolve(p, arrays[0], arrays[1:]) == moment
    if math.prod(sizes) > 1 << 32:
        assert max(want[1]) >= 1 << 31  # an int32 accumulator would wrap here


def test_energies_near_cap_against_python_ints():
    # p close to 2^20 and n = 2048: e3 needs ~2^44 of the 2^62 int64 guard
    # (the route past the guard is checked above); the reference counts
    # densely with np.bincount and sums in Python ints
    fld = build_field(1048573)
    p = fld.p
    u = random_set(fld, 2048, seed=1)
    v = random_set(fld, 2048, seed=2)
    w = interval(fld, 0, 2048)

    def dense(s):
        arr = s.elems
        return np.bincount(((arr[:, None] - arr[None, :]) % p).ravel(), minlength=p).tolist()

    ru, rv, rw = dense(u), dense(v), dense(w)
    assert additive_energy(u) == sum(c * c for c in ru)
    assert e3(u, v, w) == sum(a * b * c for a, b, c in zip(ru, rv, rw))
    assert e3(u, u, u) == sum(c**3 for c in ru)


def test_t_k_memory_budget():
    # the poly cell's largest t_k at 2^20: T_3 of the cubic image of
    # [0, 128), whose last step is dense.  Its second moment is read off
    # the int32 accumulator (4 p bytes) with no sorted support beside it
    fld = build_field(1048573)
    img = poly_image([2, 0, 1, 1], interval(fld, 0, 128))
    tracemalloc.start()
    try:
        got = t_k([img] * 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 17246000  # the sweep's sweep_poly d=3;X=128;stat=T3 row at 2^20
    assert peak <= 8e6


def test_t_k_past_int64():
    # four intervals of length 1024 near 2^20: total 2^40 tuples, so counts
    # fit int64, but T_4 is about 2^68 and needs the guarded sum of squares
    fld = build_field(1048573)
    n = 1024
    r = [1] * n
    for _ in range(3):  # exact convolution with the length-n indicator
        prefix = [0]
        for c in r:
            prefix.append(prefix[-1] + c)
        r = [prefix[min(x + 1, len(r))] - prefix[max(0, x + 1 - n)] for x in range(len(r) + n - 1)]
    want = sum(c * c for c in r)
    assert want >= 1 << 63
    assert t_k([interval(fld, 0, n)] * 4) == want


# ---------------------------------------------------------------------------
# e3 counted on the lag window of the shortest arc
# ---------------------------------------------------------------------------

def _e3_by_least_support(u, v, w):
    """Referee for e3: every set's r_- built in full as a MultiplicityFn and
    looked up on the least support."""
    r = {s: _diff_counts(s) for s in dict.fromkeys((u, v, w))}
    base = min(r.values(), key=lambda m: len(m.values)).values
    return sum(int(a) * int(b) * int(c) for a, b, c in zip(*(r[s].at(base) for s in (u, v, w))))


@st.composite
def _difference_sets(draw, fld):
    # intervals that wrap past p - 1, symmetric intervals, singletons and
    # scattered sets with elements near 0 and p - 1
    p = fld.p
    kind = draw(st.sampled_from(["interval", "symmetric", "singleton", "scattered"]))
    if kind == "interval":
        start = draw(st.one_of(st.integers(p - 8, p - 1), st.integers(0, p - 1)))
        return interval(fld, start, draw(st.integers(1, min(p - 1, 40))))
    if kind == "symmetric":
        return symmetric_interval(fld, draw(st.integers(0, min((p - 1) // 2, 20))))
    elems = st.one_of(st.integers(0, 3), st.integers(p - 4, p - 1), st.integers(0, p - 1))
    size = 1 if kind == "singleton" else draw(st.integers(1, 12))
    return from_elements(fld, draw(st.lists(elems, min_size=size, max_size=size)))


@st.composite
def _e3_triples(draw):
    # patterns u = v = w and two equal sets; an interval and its translate
    # have arcs of one length
    fld = build_field(draw(st.sampled_from([5, 31, 101, 1048573])))
    u, v, w = (draw(_difference_sets(fld)) for _ in range(3))
    pattern = draw(st.sampled_from(["uvw", "uuu", "uuw", "uvu", "uvv", "tie"]))
    if pattern == "tie":
        length = draw(st.integers(1, min(fld.p - 1, 30)))
        u, v = (interval(fld, draw(st.integers(0, fld.p - 1)), length) for _ in range(2))
        return [u, v, w]
    return [{"u": u, "v": v, "w": w}[c] for c in pattern]


def _correlation_work(sets):
    # multiply-adds of correlating the longest arc on e3's lag window
    p = sets[0].field.p
    lengths = [energy._arc(s.elems, p)[1] for s in sets]
    return max(lengths) * (2 * min((p - 1) // 2, min(lengths) - 1) + 1)


def _thm11_shape(p=1048573, n=1024, radius=512):
    # |S| = p^0.5 random, X = p^0.45: the sweep's e3(S, S, Ibar) at 2^20
    fld = build_field(p)
    s = random_set(fld, n, seed=7)
    return [s, s, symmetric_interval(fld, radius)]


def _wrapping_arcs():
    # h = 24 from the interval, while the subgroup's and the random set's
    # arcs plus 2h pass p: their periodic extensions must wrap.  E3 is
    # 707,446; zero padding would count 631,430
    fld = build_field(101)
    return [subgroup(fld, 50), from_elements(fld, range(75, 100)), random_set(fld, 66, 2043387526)]


def _at_ceiling():
    # the largest sweep prime below 2^24: an interval and a scattered set
    # that both wrap past p - 1, and a symmetric interval
    fld = build_field(16777213)
    p = fld.p
    return [interval(fld, p - 20, 40), from_elements(fld, [p - 5, p - 1, 0, 3, 1000]),
            symmetric_interval(fld, 20)]


@settings(max_examples=80, deadline=None)
@given(_e3_triples())
@example(_thm11_shape())
@example(_wrapping_arcs())
@example(_at_ceiling())
def test_e3_matches_least_support_referee(sets):
    want = _e3_by_least_support(*sets)
    assert e3(*sets) == want
    with pytest.MonkeyPatch.context() as m:
        # every set pair by pair, in blocks cut every 3 pairs, so long rows
        # span several cuts
        m.setattr(energy, "_PAIR_COST", 0)
        m.setattr(energy, "_BLOCK", 3)
        assert e3(*sets) == want
        # every set by correlation, where that is affordable: scattered sets
        # at 2^20 have arcs near p and h = (p - 1)/2, about 10^12 multiply-adds
        if _correlation_work(sets) <= 10**8:
            m.setattr(energy, "_PAIR_COST", 1 << 62)
            assert e3(*sets) == want
    if max(map(len, sets)) <= 8:
        assert want == e3_bruteforce(*sets)


def _is_cyclic_interval(a):
    p, n = a.field.p, len(a)
    return any({(x + k) % p for k in range(n)} == set(a.elems) for x in a.elems)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([3, 5, 31, 101, 1048573]).flatmap(
    lambda p: _difference_sets(build_field(p))))
def test_difference_bound_holds(a):
    # the arc holds the set, and min(p, 2L - 1) bounds #(A - A), exactly for
    # intervals, wrapping or symmetric, and singletons
    p = a.field.p
    start, length = energy._arc(a.elems, p)
    assert all((x - start) % p < length for x in a.elems)
    support = len(_diff_counts(a).values)
    assert min(p, 2 * length - 1) >= support
    if _is_cyclic_interval(a):
        assert min(p, 2 * length - 1) == support


def _e3_peak(sets):
    """(e3 of the sets, tracemalloc peak of the call in bytes)."""
    tracemalloc.start()
    try:
        got = e3(*sets)
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_e3_memory_budget():
    # thm11: the interval's 2,049 lags by correlation, the random set's ~3k
    # pairs in that window added up; the dense r_S step took 5.7 MB here.
    # Three random 8-sets: h = (p - 1)/2, so an accumulator over the whole
    # window would take 8 MB; their 64 pairs each are read at one set's lags
    fld = build_field(1048573)
    for sets in (_thm11_shape(), [random_set(fld, 8, seed=i) for i in range(3)]):
        got, peak = _e3_peak(sets)
        assert got == _e3_by_least_support(*sets)
        assert peak <= 1e6


def test_e3_memory_budget_at_ceiling():
    # the sweep's thm11 shape at 2^24 (|S| = 4096, radius 1783), pinned from
    # the dense route, whose length-p int32 accumulator alone took 67 MB
    got, peak = _e3_peak(_thm11_shape(16777213, 4096, 1783))
    assert got == 59868453906
    assert peak <= 2e6
