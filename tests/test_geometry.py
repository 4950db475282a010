import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fplab
from fplab import geometry
from fplab.errors import (
    FieldMismatchError,
    PreconditionViolatedError,
    TooLargeError,
)
from fplab.field import build_field
from fplab.geometry import (
    all_planes,
    collinear_triples,
    collinear_triples_bruteforce,
    gram_structure_check,
    incidence_count,
    line_spectrum,
    max_collinear_points_3d,
    misha_residual_report,
    normalize_plane,
    pair_spectrum_identity,
)
from fplab.sets import from_elements, interval, random_set
from fplab.suites import subseed
from library import line_deviation_l2, plane_contains


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
def test_plane_census(p):
    planes = all_planes(p)
    assert len(planes) == p * (p * p + p + 1)
    assert len(set(planes)) == len(planes)
    # every point lies on p^2 + p + 1 planes
    for pt in ((0, 0, 0), (1, 0, p - 1)):
        assert sum(plane_contains(pl, pt, p) for pl in planes) == p * p + p + 1
    # normalization is idempotent on the canonical list
    for pl in planes:
        assert normalize_plane(*pl, p) == pl


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def _line_walk(a):
    """Referee for line_spectrum: the dict walk of every point of A x A
    through its p + 1 lines, keyed ("s", slope, intercept) for
    y = slope * x + intercept and ("v", c) for x = c."""
    p = a.field.p
    counts = {}
    for x in a.elems:
        vkey = ("v", x)
        for y in a.elems:
            counts[vkey] = counts.get(vkey, 0) + 1
            for slope in range(p):
                key = ("s", slope, (y - slope * x) % p)
                counts[key] = counts.get(key, 0) + 1
    return counts


def _encoded(p, walk):
    """The referee's spectrum as sorted (keys, counts) lists, with the line
    keys slope * p + intercept and p^2 + c."""
    table = {(key[1] * p + key[2] if key[0] == "s" else p * p + key[1]): n
             for key, n in walk.items()}
    return sorted(table), [table[k] for k in sorted(table)]


def test_spectrum_single_point():
    spec = line_spectrum(from_elements(build_field(3), [0]))
    # slopes 0, 1, 2 through the origin, then the vertical x = 0 at p^2
    assert spec.values.tolist() == [0, 3, 6, 9]
    assert spec.counts.tolist() == [1, 1, 1, 1]


def test_spectrum_sum_identity_random():
    rng = random.Random(1)
    for p in (5, 13, 31):
        fld = build_field(p)
        for _ in range(5):
            a = random_set(fld, rng.randint(1, min(p, 9)), rng.randrange(2**31))
            assert line_spectrum(a).total == (p + 1) * len(a) ** 2


def test_spectrum_full_field():
    p = 5
    full = from_elements(build_field(p), range(p))
    spec = line_spectrum(full)
    assert set(spec.counts.tolist()) == {p}
    assert spec.values.tolist() == list(range(p * p + p))


@st.composite
def _spectrum_sets(draw):
    p = draw(st.sampled_from([3, 5, 13, 31]))
    return from_elements(build_field(p), draw(st.lists(st.integers(0, p - 1), max_size=8)))


@settings(max_examples=40, deadline=None)
@given(_spectrum_sets())
# near 2^13 the slope * x products and the p^2 + c vertical keys are large
@example(from_elements(build_field(8191), [0, 1, 4095, 8189, 8190]))
def test_spectrum_matches_line_walk(a):
    spec = line_spectrum(a)
    assert spec.values.dtype == np.int64
    assert (spec.values.tolist(), spec.counts.tolist()) == _encoded(a.field.p, _line_walk(a))


def test_pair_identity_examples():
    f3 = build_field(3)
    z = from_elements(f3, [0])
    assert pair_spectrum_identity(z, z) == (4, 4)
    full = from_elements(f3, [0, 1, 2])
    lhs, rhs = pair_spectrum_identity(full, full)
    assert lhs == rhs == 3**4 + 3**3
    with pytest.raises(FieldMismatchError):
        pair_spectrum_identity(z, from_elements(build_field(5), [0]))


def test_pair_identity_random():
    rng = random.Random(2)
    for p in (5, 11, 31):
        fld = build_field(p)
        for _ in range(5):
            a = random_set(fld, rng.randint(1, min(p, 8)), rng.randrange(2**31))
            b = random_set(fld, rng.randint(1, min(p, 8)), rng.randrange(2**31))
            lhs, rhs = pair_spectrum_identity(a, b)
            assert lhs == rhs


def test_centered_second_moment_bound():
    # sum over all lines of f_A^2 <= p #A^2, in exact rationals; the closed
    # form equals the per-line sum over the referee's spectrum
    rng = random.Random(3)
    for p in (5, 13, 31):
        fld = build_field(p)
        for _ in range(4):
            a = random_set(fld, rng.randint(1, min(p, 9)), rng.randrange(2**31))
            walk = _line_walk(a)
            m = Fraction(len(a) ** 2, p)
            per_line = sum((n - m) ** 2 for n in walk.values())
            per_line += (p * p + p - len(walk)) * m * m
            assert line_deviation_l2(a) == per_line
            assert line_deviation_l2(a) <= Fraction(p * len(a) ** 2)


# ---------------------------------------------------------------------------
# collinear triples
# ---------------------------------------------------------------------------

def test_collinear_examples():
    f5 = build_field(5)
    a = from_elements(f5, [0])
    b = from_elements(f5, [1])
    c = from_elements(f5, [2])
    assert collinear_triples(a, b, c) == 1
    assert collinear_triples(a, a, a) == 0  # b1 = c1 forbidden
    f3 = build_field(3)
    full = from_elements(f3, [0, 1, 2])
    brute = collinear_triples_bruteforce(full, full, full)
    assert collinear_triples(full, full, full) == brute == 108
    for fn in (collinear_triples, collinear_triples_bruteforce):
        with pytest.raises(FieldMismatchError):
            fn(a, a, full)


def _cross_from_spectra(a, b, c):
    """Independent route to the cross count: the joint line sum
    sum_l iota_A iota_B iota_C over the public line spectra, minus the
    horizontal/vertical lines (whose B/C points never differ in both
    coordinates) and, on slanted lines, the coincident q_b = q_c pairs.  The
    latter reduces, through the pair-spectrum identity for A against
    E = B cap C, to cardinality arithmetic.  O(n^2 p): oracle scale only."""
    p = a.field.p
    sa, sb, sc = (line_spectrum(s) for s in (a, b, c))
    joint = int((sa.counts * sb.at(sa.values) * sc.at(sa.values)).sum())
    na, nb, nc = len(a), len(b), len(c)
    i_abc = len(set(a) & set(b) & set(c))
    n_e = len(set(b) & set(c))
    axis = 2 * na * nb * nc * i_abc
    coincident = (na * n_e) ** 2 + p * i_abc * i_abc - 2 * na * n_e * i_abc
    return joint - axis - coincident


def test_collinear_fast_equals_oracle():
    rng = random.Random(4)
    for p in (7, 13, 31):
        fld = build_field(p)
        for _ in range(8):
            mk = lambda: random_set(fld, rng.randint(1, 6), rng.randrange(2**31))
            a, b, c = mk(), mk(), mk()
            brute = collinear_triples_bruteforce(a, b, c)
            assert collinear_triples(a, b, c) == brute
            assert _cross_from_spectra(a, b, c) == brute


def test_collinear_fast_routes_agree_beyond_oracle_scale():
    # the ratio fibration and the line-spectrum joint sum are independent;
    # they must agree where the brute force is too slow to referee
    rng = random.Random(123)
    for _ in range(15):
        p = rng.choice([31, 61, 101])
        fld = build_field(p)
        mk = lambda: random_set(fld, rng.randint(1, 22), rng.randrange(2**31))
        a, b, c = mk(), mk(), mk()
        assert collinear_triples(a, b, c) == _cross_from_spectra(a, b, c)


@st.composite
def _collinear_sets(draw):
    # at p = 1048573 the elements sit near 0 and near p - 1, so x - z and the
    # inverse it is multiplied by both reach ~p and the ratio route's
    # (x - z) * inv products reach ~p^2
    p = draw(st.sampled_from([5, 7, 13, 31, 1048573]))
    if p < 100:
        elems = st.integers(0, p - 1)
    else:
        elems = st.one_of(st.integers(0, 5), st.integers(p - 6, p - 1))
    fld = build_field(p)
    return [
        from_elements(fld, draw(st.lists(elems, min_size=1, max_size=4)))
        for _ in range(3)
    ]


def _big_field_set(*elems):
    return from_elements(build_field(1048573), elems)


@settings(max_examples=40, deadline=None)
@given(_collinear_sets())
# ratios such as (p-1-0)/(2-0) = (0-1)/(3-1) = -1/2 collide: a wrapped
# (x - z) * inv product splits them
@example([
    _big_field_set(0, 1, 2, 1048572),
    _big_field_set(0, 2, 1048571, 1048572),
    _big_field_set(1, 3, 1048570, 1048572),
])
def test_collinear_property(sets):
    a, b, c = sets
    assert collinear_triples(a, b, c) == collinear_triples_bruteforce(a, b, c)


def _ratio_route_by_inverse(a, b, c):
    """Referee for collinear_triples's ratio keys: the ratio route keyed by
    l = (x - z) * (y - z)^-1, with one pow per inverse, and sum R(l)^2 in
    Python ints.  O(#A #B #C), so sets can outgrow the brute force."""
    p = a.field.p
    xs, cs = a.elems, c.elems
    r = Counter()
    for y in b.elems:
        zs = cs[cs != y]
        inv = np.array([pow(int(d), p - 2, p) for d in (y - zs) % p], dtype=np.int64)
        r.update(((xs[None, :] - zs[:, None]) % p * inv[:, None] % p).ravel().tolist())
    return sum(v * v for v in r.values())


def _ratio_route_by_ind(a, b, c):
    """Referee for collinear_triples with keys made another way: the ratio
    keyed by its discrete log, ind(x - z) - ind(y - z) mod (p - 1), with l = 0
    (x = z, no log) in the spare key p - 1, a bijection of F_p onto
    [0, p - 1]; sum R(l)^2 over np.unique's counts in Python ints."""
    p, ind = a.field.p, a.field.ind
    xs, ys, cs = a.elems, b.elems, c.elems
    lx = ind[(xs[None, :] - cs[:, None]) % p].astype(np.int64)  # (z, x), -1 where x = z
    ly = ind[(ys[:, None] - cs[None, :]) % p].astype(np.int64)  # (y, z), -1 where z = y
    iy, iz = np.nonzero(ly >= 0)
    keys = (lx[iz] - ly[iy, iz][:, None]) % (p - 1)
    keys[lx[iz] < 0] = p - 1
    return sum(r * r for r in np.unique(keys, return_counts=True)[1].tolist())


@st.composite
def _ratio_sets(draw):
    # elements at 0 and near p - 1 at every p; C's elements planted in A make
    # x = z, the ratio 0 that has no discrete log; B = C = {y} makes z = y for
    # every (y, z), so no ratio key is left
    p = draw(st.sampled_from([3, 5, 13, 31, 1048573]))
    elems = st.one_of(st.just(0), st.integers(max(0, p - 4), p - 1), st.integers(0, p - 1))
    c = draw(st.lists(elems, min_size=1, max_size=20))
    a = draw(st.lists(elems, max_size=20)) + draw(st.lists(st.sampled_from(c), min_size=1, max_size=4))
    b = draw(st.lists(elems, min_size=1, max_size=20))
    if draw(st.booleans()):
        b = c = [draw(st.sampled_from(c))]
    fld = build_field(p)
    return [from_elements(fld, s) for s in (a, b, c)]


def _ceiling_set(*elems):
    return from_elements(build_field(16777213), elems)


@settings(max_examples=60, deadline=None)
@given(_ratio_sets(), st.sampled_from([1, 5, geometry._BLOCK]))
@example([
    _big_field_set(0, 1, 1048571, 1048572),
    _big_field_set(0, 2, 1048572),
    _big_field_set(0, 1, 1048572),
], geometry._BLOCK)
# the largest prime below the 2^24 ceiling: wrapped keys, x = z and z = y,
# the products (x - z) * inv near p^2, and blocks of one (y, z) row
@example([
    _ceiling_set(0, 1, 16777211, 16777212),
    _ceiling_set(0, 2, 16777212),
    _ceiling_set(0, 1, 16777212),
], 1)
@example([_ceiling_set(0, 5, 16777212), _ceiling_set(5), _ceiling_set(5)], geometry._BLOCK)
@example([_ceiling_set(1, 2, 8388606, 8388607, 16777211), _ceiling_set(0, 3, 8388608, 16777212),
          _ceiling_set(0, 1, 2, 16777210, 16777212)], 5)
def test_collinear_matches_inverse_ratio_route(sets, block):
    # each draw with every key sorted at once (_RATIO_SORT_SHARE = 0), then
    # added block by block into the length-p counts (_RATIO_SORT_SHARE =
    # p + 1); a block of 1 or 5 keys holds one (y, z) row, a block of _BLOCK
    # keys all of them; both referees key R apart from the production route
    want = _ratio_route_by_inverse(*sets)
    assert _ratio_route_by_ind(*sets) == want
    with pytest.MonkeyPatch.context() as m:
        m.setattr(geometry, "_BLOCK", block)
        for share in (0, sets[0].field.p + 1):
            m.setattr(geometry, "_RATIO_SORT_SHARE", share)
            assert collinear_triples(*sets) == want


def test_collinear_counts_past_int32_squares():
    # A = B = C, an interval of 216 residues wrapping past p - 1 at 2^20:
    # R(1) counts x = y with z != y, 216 * 215 > 46341 of them, so R(1)^2
    # passes 2^31 and the int32 counts must be widened before they are squared
    a = interval(build_field(1048573), 1048573 - 108, 216)
    assert a.elems[0] == 0 and a.elems[-1] == 1048572
    assert collinear_triples(a, a, a) == _ratio_route_by_inverse(a, a, a)


def test_collinear_memory_budget():
    # the tabc cell's three trials at 2^20 and seed 1000 are below the sort
    # crossover: their keys are sorted, and no length-p array is made, not
    # even one int32 count per residue (4 p bytes)
    p = 1048573
    fld = build_field(p)
    target = round(p**0.3)
    trials = []
    for i in range(3):
        rng = random.Random(subseed(1000, "sw_tabc", p, i))
        trials.append([random_set(fld, rng.randint(target // 2, target), rng.randrange(2**31))
                       for _ in range(3)])
    for sets in trials:
        tracemalloc.start()
        try:
            collinear_triples(*sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * p


def test_collinear_oracle_full_size_corner():
    fld = build_field(31)
    a = random_set(fld, 8, seed=4)
    b = random_set(fld, 8, seed=5)
    c = random_set(fld, 8, seed=6)
    assert collinear_triples(a, b, c) == collinear_triples_bruteforce(a, b, c)


def _collinear_loop(a, b, c):
    """Referee for collinear_triples_bruteforce: the six nested Python loops
    over (b1, c1, b2, c2, a1, a2), in Python ints."""
    p = a.field.p
    count = 0
    for b1 in b:
        for c1 in c:
            if b1 == c1:
                continue
            k1 = (b1 - c1) % p
            for b2 in b:
                for c2 in c:
                    if b2 == c2:
                        continue
                    k2 = (b2 - c2) % p
                    for a1 in a:
                        lhs = (a1 - c1) * k2 % p
                        count += sum(lhs == (a2 - c2) * k1 % p for a2 in a)
    return count


@st.composite
def _referee_sets(draw):
    # at p = 1048573 elements sit near 0 and p - 1, where (a - c)(b - c)
    # approaches p^2 ~ 2^40; singletons and B = C = {x}, where every pair has
    # b = c and the count is 0, are drawn at every p
    p = draw(st.sampled_from([3, 5, 31, 1048573]))
    fld = build_field(p)
    elems = st.one_of(st.integers(0, 3), st.integers(p - 4, p - 1), st.integers(0, p - 1))
    a, b, c = (draw(st.lists(elems, min_size=1, max_size=draw(st.sampled_from([1, 5]))))
               for _ in range(3))
    if draw(st.booleans()):
        b = c = c[:1]
    return [from_elements(fld, s) for s in (a, b, c)]


@settings(max_examples=60, deadline=None)
@given(_referee_sets(), st.sampled_from([1, 1 << 40]))
# B = C = {x}: every pair has b = c, so the count is 0
@example([_big_field_set(0, 1, 1048572), _big_field_set(1048572), _big_field_set(1048572)], 1)
# 3 (b, c) pairs of 2^2 sextuples each: a block of 25 takes 2 pairs, then 1
@example([_big_field_set(0, 1048572), _big_field_set(0, 1, 1048572), _big_field_set(1048571)], 25)
def test_collinear_bruteforce_matches_loop_referee(sets, block):
    # a block of 1 sextuple takes one (b1, c1) pair at a time, 2^40 all of them
    with pytest.MonkeyPatch.context() as m:
        m.setattr(geometry, "_BLOCK", block)
        assert collinear_triples_bruteforce(*sets) == _collinear_loop(*sets)


def test_collinear_range_bounds():
    rng = random.Random(6)
    fld = build_field(31)
    for _ in range(8):
        mk = lambda: random_set(fld, rng.randint(1, 7), rng.randrange(2**31))
        a, b, c = mk(), mk(), mk()
        t = collinear_triples(a, b, c)
        assert 0 <= t <= (len(a) * len(b) * len(c)) ** 2


# ---------------------------------------------------------------------------
# planes and incidences
# ---------------------------------------------------------------------------

def test_incidence_examples():
    points = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]
    count, residual = incidence_count(2, points, all_planes(2))
    assert count == 56 and residual == 0
    assert incidence_count(3, [], all_planes(3)) == (0, Fraction(0))
    count, residual = incidence_count(3, [(1, 2, 0)], all_planes(3))
    assert count == 13
    assert residual == Fraction(13) - Fraction(39, 3)


def test_incidence_rejects_duplicates():
    with pytest.raises(ValueError):
        incidence_count(3, [(0, 0, 0), (0, 0, 0)], all_planes(3))


def test_gram_structure():
    assert gram_structure_check(2) == 0
    assert gram_structure_check(3) == 0
    assert gram_structure_check(5) == 0
    with pytest.raises(TooLargeError):
        gram_structure_check(11)
    with pytest.raises(ValueError):
        gram_structure_check(4)


def _max_collinear_pairs(points, p):
    """Referee for max_collinear_points_3d: count the point pairs on each line,
    keyed by (normalised direction, base point), and invert m(m-1)/2."""
    n = len(points)
    if len({tuple(v % p for v in q) for q in points}) != n:
        raise ValueError("points must be distinct mod p")
    if n <= 1:
        return n
    pair_counts = {}
    for i in range(n):
        qi = points[i]
        for j in range(i + 1, n):
            qj = points[j]
            d = tuple((qj[k] - qi[k]) % p for k in range(3))
            pivot = next(k for k in range(3) if d[k])
            scale = pow(d[pivot], p - 2, p)
            d = tuple(v * scale % p for v in d)
            t = qi[pivot]
            base = tuple((qi[k] - t * d[k]) % p for k in range(3))
            pair_counts[(d, base)] = pair_counts.get((d, base), 0) + 1
    best = max(pair_counts.values())
    m = (1 + isqrt(1 + 8 * best)) // 2
    assert m * (m - 1) // 2 == best
    return m


def test_max_collinear_3d():
    p = 5
    line_pts = [(t, 2 * t % p, 3 * t % p) for t in range(p)]
    assert max_collinear_points_3d(line_pts, p) == 5
    assert max_collinear_points_3d(line_pts[:2] + [(1, 1, 4)], p) == 2
    assert max_collinear_points_3d([(0, 0, 0)], p) == 1
    assert max_collinear_points_3d([], p) == 0


@st.composite
def _points_3d(draw):
    # at p = 1048573 coordinates sit near 0 and near p - 1, so directions and
    # the inverses that scale them reach ~p and their products ~2^40; a
    # planted run base + t * step puts several points on one line
    p = draw(st.sampled_from([2, 3, 5, 7, 1048573]))
    if p < 100:
        coord = st.integers(0, p - 1)
    else:
        coord = st.one_of(st.integers(0, 5), st.integers(p - 6, p - 1))
    point = st.tuples(coord, coord, coord)
    scattered = draw(st.lists(point, max_size=8))
    base, step = draw(point), draw(point)
    run = [tuple(b + t * d for b, d in zip(base, step)) for t in range(draw(st.integers(0, 6)))]
    return list(dict.fromkeys(tuple(v % p for v in q) for q in run + scattered)), p


# the misha cell's 40 points at the cap prime, drawn from the cube
# [p - 8, p - 1]^3: differences wrap near p, the pair keys reach ~40 * 2p^2,
# and the cube's grid lines put 4 of the points on one line
_CAP = 1048573
_NEAR_CAP = random.Random(5).sample(
    [(_CAP - 1 - a, _CAP - 1 - b, _CAP - 1 - c) for a in range(8) for b in range(8) for c in range(8)],
    40,
)


@settings(max_examples=60, deadline=None)
@given(_points_3d())
@example(([(0, 0, 0), (1048572, 1, 2), (1048571, 2, 4), (1048570, 3, 6), (5, 1048572, 1)],
          1048573))
@example((_NEAR_CAP, _CAP))
def test_max_collinear_3d_matches_pair_referee(case):
    points, p = case
    assert max_collinear_points_3d(points, p) == _max_collinear_pairs(points, p)


def test_max_collinear_3d_rejects_duplicates():
    with pytest.raises(ValueError):
        max_collinear_points_3d([(1, 2, 3), (1, 2, 3), (0, 0, 1)], 5)
    with pytest.raises(ValueError):  # equal mod p
        max_collinear_points_3d([(0, 0, 0), (5, 0, 0), (0, 0, 1)], 5)


def test_max_collinear_3d_distinct_past_2_21():
    # (x p + y) p + z wraps in int64 past p = 2^21: at p = 16777213 these two
    # distinct points had equal keys and were rejected as duplicates
    p = 16777213
    points = [(0, 0, 0), (65536, 393216, 589824)]
    assert max_collinear_points_3d(points, p) == _max_collinear_pairs(points, p) == 2
    with pytest.raises(ValueError):
        max_collinear_points_3d(points + [(65536 + p, 393216, 589824 - p)], p)


def test_max_collinear_3d_checks_survive_optimize():
    code = (
        "import fplab.geometry as g\n"
        "try:\n"
        "    g.max_collinear_points_3d([(1, 2, 3), (1, 2, 3), (0, 0, 1)], 5)\n"
        "except ValueError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('duplicates accepted')\n"
    )
    src = str(Path(fplab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_misha_report():
    points = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]
    rep = misha_residual_report(2, points, all_planes(2))
    assert rep.residual == 0
    single = misha_residual_report(3, [(0, 1, 2)], all_planes(3))
    assert incidence_count(3, [(0, 1, 2)], all_planes(3))[0] == 13
    assert single.residual == Fraction(13) - Fraction(39, 3)
    with pytest.raises(PreconditionViolatedError):
        misha_residual_report(3, [(0, 0, 0), (0, 0, 1)], [(0, 0, 1, 0)])


def test_misha_report_random_sweep():
    rng = random.Random(7)
    for p in (5, 13):
        pts_all = [(x, y, z) for x in range(p) for y in range(p) for z in range(p)]
        planes = all_planes(p)
        for _ in range(3):
            pts = rng.sample(pts_all, rng.randint(2, 30))
            pls = rng.sample(planes, max(len(pts), rng.randint(30, 60)))
            rep = misha_residual_report(p, pts, pls)
            assert rep.skeleton > 0
