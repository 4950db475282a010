import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fplab import energy
from fplab.errors import FieldMismatchError
from fplab.energy import (
    additive_energy,
    diff_multiplicity,
    e3,
    e3_bruteforce,
    sum_counts,
    t_k,
    t_k_fourier,
    t_k_fourier_check,
)
from fplab.field import build_field
from fplab.sets import (
    from_elements,
    interval,
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


def test_diff_multiplicity_examples():
    f7 = build_field(7)
    assert _support(diff_multiplicity(from_elements(f7, [0]))) == ([0], [1])
    assert _support(diff_multiplicity(from_elements(f7, [0, 1]))) == ([0, 1, 6], [2, 1, 1])
    perfect = _support(diff_multiplicity(from_elements(f7, [1, 2, 4])))
    assert perfect == ([0, 1, 2, 3, 4, 5, 6], [3, 1, 1, 1, 1, 1, 1])


def test_diff_multiplicity_total_and_numpy_path():
    fld = build_field(257)
    a = random_set(fld, 80, seed=3)  # 80 * 80 >= 257: the dense scatter step
    mf = diff_multiplicity(a)
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


def test_sum_counts_total():
    fld = build_field(13)
    sets = [random_set(fld, n, seed=n) for n in (3, 4, 5)]
    mf = sum_counts(sets)
    assert mf.total == 3 * 4 * 5


def test_fourier_examples():
    f7 = build_field(7)
    single = from_elements(f7, [4])
    assert t_k_fourier_check([single, single]) < 1e-9
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
        assert t_k_fourier_check(sets) < 1e-6 * exact


def test_multiplicity_totals():
    fld = build_field(31)
    rng = random.Random(9)
    for _ in range(10):
        a = random_set(fld, rng.randint(1, 12), rng.randrange(2**31))
        assert diff_multiplicity(a).total == len(a) ** 2


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
    assert _support(diff_multiplicity(a)) == _as_support(diffs)
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
    assert sum_counts(sets).total == math.prod(len(s) for s in sets)


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
    # products through the Python-int route; results must not move
    want_e3, want_e2, want_tk = e3(*sets), additive_energy(sets[0]), t_k(sets[:k])
    want_diff = _support(diff_multiplicity(sets[1]))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(energy, "_INT64_SAFE", 0)
        assert e3(*sets) == want_e3
        assert additive_energy(sets[0]) == want_e2
        assert t_k(sets[:k]) == want_tk
        assert sum_counts(sets[:k]).counts.dtype == object
        assert _support(diff_multiplicity(sets[1])) == want_diff


@st.composite
def _convolve_inputs(draw):
    p = draw(st.sampled_from([3, 5, 13, 31, 1048573]))
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
    want = (sorted(sums), [sums[k] for k in sorted(sums)])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(energy, "_BLOCK", block)
        if python_ints:
            m.setattr(energy, "_INT64_SAFE", 0)  # counts as Python ints, as past 2^62
        for share in (0, p + 1):
            m.setattr(energy, "_SORT_SHARE", share)
            values, counts = energy._convolve(p, arrays[0], arrays[1:])
            assert (values.tolist(), counts.tolist()) == want
            assert counts.dtype == (object if python_ints else np.int64)



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
        arr = np.asarray(s.elems, dtype=np.int64)
        return np.bincount(((arr[:, None] - arr[None, :]) % p).ravel(), minlength=p).tolist()

    ru, rv, rw = dense(u), dense(v), dense(w)
    assert additive_energy(u) == sum(c * c for c in ru)
    assert e3(u, v, w) == sum(a * b * c for a, b, c in zip(ru, rv, rw))
    assert e3(u, u, u) == sum(c**3 for c in ru)


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
