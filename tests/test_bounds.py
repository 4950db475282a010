import functools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fplab.bounds import (
    FitResult,
    exponent_fit,
    karatsuba_below_chang,
    poly_energy_skeletons,
    poly_t_index,
    region_marks,
    subgroup_agreement,
    subgroup_e3_skeletons,
    subgroup_inside,
    subgroup_inside_raw,
    tabc_skeletons,
    thm11_rhs,
)
from fplab.energy import additive_energy, e3, t_k
from fplab.errors import (
    DomainViolationError,
    InsufficientDataError,
    PreconditionViolatedError,
)
from fplab.field import build_field
from fplab.sets import interval, poly_image, subgroup
from fplab.suites import run_region_suite

# ---------------------------------------------------------------------------
# region predicates: one referee in Fractions at (a/den, b/den)
# ---------------------------------------------------------------------------

DEN_LIMIT = 2**28
CLASSIFIERS = (subgroup_inside, subgroup_inside_raw, subgroup_agreement)
# the raw subgroup system's lines u zeta + v xi = c, as (u, v, c)
RAW_LINES = ((5, 2, 2), (1, 1, Fraction(1, 2)), (40, 31, 20), (9, 16, 6), (36, 55, 21))


@functools.lru_cache(maxsize=4096)
def _thresholds(a, den):
    """At zeta = a/den: the Chang threshold (None where k = floor(1/zeta) is
    1), Karatsuba's, the piecewise subgroup threshold (None outside
    6/25 < zeta < 1/2) and the xi = (c - u zeta)/v of each raw line."""
    z = Fraction(a, den)
    k = math.floor(1 / z)
    chang = None if k == 1 else (3 * k - 2 - 4 * k * z) / (6 * k - 8)
    if z <= Fraction(6, 25) or z >= Fraction(1, 2):
        sub = None
    elif z < Fraction(10, 31):
        sub = 1 - Fraction(5, 2) * z
    elif z < Fraction(134, 361):
        sub = (6 - 9 * z) / 16
    else:
        sub = (20 - 40 * z) / 31
    return z, chang, (1 - z) / 2, sub, tuple((c - u * z) / v for u, v, c in RAW_LINES)


def _referee(a, b, den):
    """The (chang, karatsuba, subgroup) marks at (a/den, b/den), and the raw
    subgroup system's verdict there: None outside the classifiers' domain
    0 < zeta < 1/2, 0 < xi < 2/5."""
    x = Fraction(b, den)
    z, chang, kar, sub, (l1, l2, l3, l4, l5) = _thresholds(a, den)
    marks = ("-" if chang is None else "TF"[x <= chang], "TF"[x <= kar],
             "-" if sub is None or x >= Fraction(2, 5) else "TF"[x <= sub])
    if z >= Fraction(1, 2) or x >= Fraction(2, 5):
        return marks, None
    return marks, x > l1 and x > l2 and (x > l3 or (x > l4 and x > l5))


def _outcome(fn, *args):
    try:
        return fn(*args).tolist()
    except DomainViolationError:
        return DomainViolationError


def _expected(marks, raw):
    """What subgroup_inside, subgroup_inside_raw and subgroup_agreement give."""
    if raw is None:
        return [DomainViolationError] * 3
    inside = marks[2] == "T"
    return [inside, raw, inside == raw]


def _check_against_referee(den, points):
    """Each point alone, as scalars, then all points in one call of
    region_marks and the in-domain points in one call of each classifier."""
    refs = [_referee(a, b, den) for a, b in points]
    for (a, b), (marks, raw) in zip(points, refs):
        assert tuple(m.item() for m in region_marks(a, b, den)) == marks
        assert [_outcome(fn, a, b, den) for fn in CLASSIFIERS] == _expected(marks, raw)
        assert karatsuba_below_chang(a, den).item() == (
            marks[0] != "-" and _thresholds(a, den)[2] < _thresholds(a, den)[1])
    a, b = (np.array(v, dtype=np.int64) for v in zip(*points))
    assert list(zip(*(m.tolist() for m in region_marks(a, b, den)))) == [m for m, _ in refs]
    inside = [i for i, (_, raw) in enumerate(refs) if raw is not None]
    if inside:
        got = [fn(a[inside], b[inside], den).tolist() for fn in CLASSIFIERS]
        assert list(map(list, zip(*got))) == [_expected(*refs[i]) for i in inside]


def _steps(z, x):
    """(den, points): the point (z, x) over the least den that holds both,
    times 10, and its neighbours one step of 1/den away in either coordinate."""
    den = 10 * math.lcm(z.denominator, x.denominator)
    a, b = int(z * den), int(x * den)
    return den, [(a + i, b + j) for i in (-1, 0, 1) for j in (-1, 0, 1)
                 if 1 <= a + i <= den and 1 <= b + j <= den]


def _chang_line(z):
    k = math.floor(1 / z)
    return None if k == 1 else (3 * k - 2 - 4 * k * z) / (6 * k - 8)


# each raw line, Karatsuba's and Chang's lines, and the edge xi = 2/5
LINES = tuple(lambda z, u=u, v=v, c=c: (c - u * z) / v for u, v, c in RAW_LINES) + (
    lambda z: (1 - z) / 2, _chang_line, lambda z: Fraction(2, 5))
BREAKPOINTS = (Fraction(6, 25), Fraction(10, 31), Fraction(134, 361), Fraction(1, 2))
# the breakpoints, the Chang k-edges 1/4, 1/3 and 1/2, the diagonal
# thresholds 7/22 and 2/7, and points inside each piece
ZETAS = BREAKPOINTS + tuple(Fraction(n, d) for n, d in (
    (1, 4), (1, 3), (7, 22), (2, 7), (13, 50), (3, 10), (9, 25), (2, 5), (9, 20), (49, 100),
    (1, 1)))


def _pinned():
    cases = []
    for z in ZETAS:
        for line in LINES:
            x = line(z)
            if x is not None and 0 < x <= 1:
                cases.append(_steps(z, x))
        cases += [_steps(z, Fraction(3, 10)), _steps(z, Fraction(39, 100))]
    return cases


def test_subgroup_region_pinned_breakpoints_and_lines():
    cases = _pinned()
    assert sum(len(points) for _, points in cases) > 500
    for den, points in cases:
        _check_against_referee(den, points)


_dens = st.one_of(st.integers(1, DEN_LIMIT - 1), st.integers(DEN_LIMIT - 2**10, DEN_LIMIT - 1))


def _numerators(den):
    """Anywhere in (0, den], and often near either end, where k = den // a is
    largest or the products nearest the int64 guard."""
    return st.one_of(st.integers(1, den), st.integers(1, min(den, 64)),
                     st.integers(max(1, den - 64), den))


_region_cases = _dens.flatmap(lambda den: st.tuples(
    st.just(den), st.lists(st.tuples(_numerators(den), _numerators(den)), min_size=1,
                           max_size=12)))


@settings(max_examples=200, deadline=None)
@given(_region_cases)
@example((DEN_LIMIT - 1, [(1, 1), (1, DEN_LIMIT - 1), (DEN_LIMIT - 1, DEN_LIMIT - 1),
                          (2, 1), (DEN_LIMIT // 2, DEN_LIMIT // 3)]))
@example((1, [(1, 1)]))
@example((2, [(1, 1), (1, 2), (2, 1)]))
def test_subgroup_region_property(case):
    # all four classifiers, and karatsuba_below_chang, near the den guard too
    _check_against_referee(*case)


@pytest.mark.parametrize("dens", [range(1, 33), range(33, 65)], ids=["1-32", "33-64"])
def test_region_classifiers_on_every_point_of_small_dens(dens):
    # every (a, b) in (0, den]^2, where each k = den // a, breakpoint and line
    # falls on or next to a grid point
    for den in dens:
        a = np.arange(1, den + 1)
        refs = [[_referee(i, j, den) for j in range(1, den + 1)] for i in range(1, den + 1)]
        marks = [m.tolist() for m in region_marks(a[:, None], a, den)]
        assert [[tuple(m[i][j] for m in marks) for j in range(den)] for i in range(den)] == [
            [marks for marks, _ in row] for row in refs]
        below = [karatsuba_below_chang(i, den).item() for i in range(1, den + 1)]
        assert below == [row[0][0][0] != "-" and _thresholds(i, den)[2] < _thresholds(i, den)[1]
                         for i, row in zip(range(1, den + 1), refs)]
        za, xb = a[2 * a < den], a[5 * a < 2 * den]
        if za.size and xb.size:
            got = [fn(za[:, None], xb, den).tolist() for fn in CLASSIFIERS]
            assert [[[g[i][j] for g in got] for j in range(len(xb))] for i in range(len(za))] == [
                [_expected(*refs[i - 1][j - 1]) for j in xb.tolist()] for i in za.tolist()]


def test_chang_region():
    # 7/22 = 70/220 on the diagonal: one step above, then at the threshold
    assert region_marks([71, 70], [71, 70], 220)[0].tolist() == ["T", "F"]
    # k = floor(1/zeta) = 1 degenerates the threshold denominator
    assert region_marks(9, 5, 10)[0] == "-"
    # at (0.26, 0.4): k = 3, threshold (7 - 12 * 0.26) / 10 = 0.388
    assert region_marks(26, 40, 100)[0] == "T"
    assert region_marks(26, 38, 100)[0] == "F"


def test_karatsuba_region():
    assert region_marks([11, 10], [11, 10], 30)[1].tolist() == ["T", "F"]
    # defined where both others are not: zeta >= 1/2 and k = 1
    assert [m.item() for m in region_marks(100, 1, 100)] == ["-", "T", "-"]


def test_karatsuba_beats_chang_on_window():
    # zeta = 1/4 + (2/7 - 1/4) i/201 is (1407 + i)/5628, and k = 3 throughout
    a = 1407 + np.arange(1, 201)
    assert karatsuba_below_chang(a, 5628).all()
    for i in range(1, 201):
        z = Fraction(1, 4) + (Fraction(2, 7) - Fraction(1, 4)) * i / 201
        k = math.floor(1 / z)
        assert z == Fraction(1407 + i, 5628) and k == 3
        assert (1 - z) / 2 < (3 * k - 2 - 4 * k * z) / (6 * k - 8)
    # the two meet at 2/7, Chang's is the lower above it, and undefined at k = 1
    assert not karatsuba_below_chang([1608, 1609, 5628], 5628).any()


def test_subgroup_region_examples():
    assert region_marks([21, 20], [21, 20], 70)[2].tolist() == ["T", "F"]
    # undefined at zeta <= 6/25, zeta >= 1/2 and xi >= 2/5
    assert region_marks([24, 50, 30], [30, 30, 40], 100)[2].tolist() == ["-", "-", "-"]


def _check_grid(n):
    """The check grid's numerators: zeta = 0.01 + 0.47 i/(n - 1) down the rows
    and xi = 0.01 + 0.37 j/(n - 1) across, over den = 100 (n - 1)."""
    steps = np.arange(n)
    return (n - 1) + 47 * steps[:, None], (n - 1) + 37 * steps[None, :], 100 * (n - 1)


def test_subgroup_region_matches_raw_conditions():
    assert subgroup_agreement(*_check_grid(120)).all()


def test_subgroup_region_raw_spot():
    # deep inside: zeta = xi = 0.35 satisfies cond1 and cond3
    assert subgroup_inside_raw(35, 35, 100)
    assert not subgroup_inside_raw(30, 5, 100)


def test_region_marks_match_scalar_predicates():
    # the default table's grid over 2300, the breakpoints and edges, and
    # random points, all over one den that holds them
    den = 2300 * 3 * 31 * 361
    rng = random.Random(11)
    grid = [(46 + 96 * i) * (den // 2300) for i in range(24)]
    edges = [den * n // d for n, d in ((1, 2), (1, 3), (6, 25), (10, 31), (134, 361), (2, 5),
                                       (1, 1))]
    edges += [den // 2 - 1, den // 2 + 1]
    zs = grid + edges + [rng.randint(1, den) for _ in range(30)]
    xs = grid + edges + [rng.randint(1, den) for _ in range(30)]
    chang, kar, sub = region_marks(np.array(zs)[:, None], np.array(xs)[None, :], den)
    assert chang.shape == kar.shape == sub.shape == (len(zs), len(xs))
    for i, a in enumerate(zs):
        for j, b in enumerate(xs):
            assert (chang[i, j], kar[i, j], sub[i, j]) == _referee(a, b, den)[0]
    assert set(chang.ravel()) == set(sub.ravel()) == {"T", "F", "-"}


def test_subgroup_classifiers_broadcast_and_reject_domain():
    zs, xs = [25, 30, 45], [10, 30, 39]
    grid = subgroup_inside(np.array(zs)[:, None], np.array(xs)[None, :], 100)
    assert grid.shape == (3, 3)
    assert grid.tolist() == [[_referee(z, x, 100)[0][2] == "T" for x in xs] for z in zs]
    assert subgroup_inside(35, 35, 100).shape == ()
    for fn in CLASSIFIERS:
        with pytest.raises(DomainViolationError, match="zeta < 1/2"):
            fn(np.array([30, 50]), np.array([30, 30]), 100)
        with pytest.raises(DomainViolationError, match="xi < 2/5"):
            fn(np.array([30, 30]), np.array([30, 40]), 100)


@pytest.mark.parametrize("a, b, den, message", [
    (1, 1, 0, "den: need an integer in [1, 2^28), got 0"),
    (1, 1, DEN_LIMIT, f"den: need an integer in [1, 2^28), got {DEN_LIMIT}"),
    (1, 1, 10.0, "den: need an integer in [1, 2^28), got 10.0"),
    (0, 1, 10, "a: need int64 numerators in (0, 10], got 0"),
    ([3, -2], 1, 10, "a: need int64 numerators in (0, 10], got -2"),
    (1, [[1], [11]], 10, "b: need int64 numerators in (0, 10], got 11"),
    (2**70, 1, 10, "a: need int64 numerators in (0, 10], got dtype object"),
    (1, np.array([0.5]), 10, "b: need int64 numerators in (0, 10], got dtype float64"),
], ids=["den_zero", "den_limit", "den_float", "a_zero", "a_negative", "b_above_den",
        "a_huge", "b_float"])
def test_region_guards_name_the_value(a, b, den, message):
    for fn in (region_marks, *CLASSIFIERS):
        with pytest.raises(DomainViolationError, match=re.escape(message)):
            fn(a, b, den)
    if b == 1:
        with pytest.raises(DomainViolationError, match=re.escape(message)):
            karatsuba_below_chang(a, den)


@pytest.mark.parametrize("n", [2, 3, 82, 128, 200, 400])
def test_region_agreement_grid_matches_referee(n):
    # the float predicates found one disagreement at n = 82 and one at 128,
    # both on a raw line; in exact arithmetic there is none
    a, b, den = _check_grid(n)
    expected = sum(raw != (marks[2] == "T")
                   for i in a[:, 0].tolist() for j in b[0].tolist()
                   for marks, raw in [_referee(i, j, den)])
    assert expected == 0
    rows, _ = run_region_suite({"region_check_grid": n, "region_table_grid": 2})
    agreement = [r for r in rows if r.suite == "region_agreement"]
    assert [(r.params, r.measured, r.skeleton, r.status) for r in agreement] == [
        (f"grid={n}x{n}", 0, 0, "pass")]
    assert type(agreement[0].measured) is int
    assert not [r for r in rows if "flag" in r.params]


def test_thm11_preconditions_named():
    with pytest.raises(PreconditionViolatedError, match=r"X < p\^\{1/2\}"):
        thm11_rhs(61, 5, 30, 2, 100)
    with pytest.raises(PreconditionViolatedError, match=r"S\^2 X <= p\^2"):
        thm11_rhs(61, 60, 7, 2, 100)
    with pytest.raises(PreconditionViolatedError, match=r"X >= p\^\{1/r\}"):
        thm11_rhs(4093, 10, 40, 1, 100)


def test_thm11_monotone_in_e3():
    p, s, x, r = 4093, 50, 40, 3
    values = [thm11_rhs(p, s, x, r, v) for v in (0, 10, 10**4, 10**6)]
    assert values == sorted(values)


def test_tabc_skeletons():
    s1, s2, s3, best = tabc_skeletons(5, 1, 1, 1)
    assert s1 == 5.0 and s2 == 2.0
    assert abs(s3 - (math.sqrt(5) + 1)) < 1e-12
    assert best == 2.0
    # abc >= p^2 makes the flat-p skeleton the smaller of the first two
    rng = random.Random(0)
    for _ in range(50):
        p = rng.choice([5, 13, 31])
        a, b, c = (rng.randint(1, 40) for _ in range(3))
        s1, s2, _, _ = tabc_skeletons(p, a, b, c)
        if a * b * c >= p * p:
            assert s1 <= s2


def test_skeleton_monotonicity():
    rng = random.Random(1)
    for _ in range(60):
        p = rng.choice([31, 61, 127])
        a, b, c = (rng.randint(1, 30) for _ in range(3))
        base = tabc_skeletons(p, a, b, c)
        bigger = tabc_skeletons(p, a + rng.randint(0, 5), b, c)
        assert all(x <= y + 1e-12 for x, y in zip(base[:3], bigger[:3]))
        t, x = rng.randint(1, 50), rng.randint(1, 50)
        s = subgroup_e3_skeletons(p, t, x)
        s_up = subgroup_e3_skeletons(p, t + rng.randint(0, 5), x + rng.randint(0, 5))
        assert s[0] <= s_up[0] + 1e-12 and s[1] <= s_up[1] + 1e-12


def test_subgroup_e3_skeletons():
    s1, s2, flagged = subgroup_e3_skeletons(61, 1, 7)
    assert s1 == 7.0 and not flagged
    fld = build_field(61)
    one = subgroup(fld, 1)
    iv = interval(fld, 0, 7)
    assert e3(one, one, iv) == len(iv)
    g5 = subgroup(fld, 5)
    measured = e3(g5, g5, iv)
    s1, s2, flagged = subgroup_e3_skeletons(61, 5, 7)
    assert measured > 0 and s1 > 0 and s2 > 0 and not flagged
    assert subgroup_e3_skeletons(61, 20, 7)[2]  # 20^5 > 61^2: flagged


def test_poly_energy_skeletons():
    t_skel, e_skel = poly_energy_skeletons(8191, 16, 2)
    assert t_skel == 16**4.5 and e_skel == 16**2.75
    assert poly_t_index(2) == 3 and poly_t_index(3) == 3 and poly_t_index(4) == 5
    with pytest.raises(DomainViolationError):
        poly_energy_skeletons(61, 60, 2)
    d4 = poly_energy_skeletons(8191, 16, 4)
    assert d4 == (16**8.5, 16 ** (3 - 1 / 8))


def test_linear_image_keeps_interval_energies():
    # dilation/translation invariance: a linear image has identical energies
    fld = build_field(101)
    iv = interval(fld, 0, 12)
    img = poly_image([7, 5], iv)  # 5*x + 7
    assert len(img) == len(iv)
    assert additive_energy(img) == additive_energy(iv)
    assert t_k([img] * 3) == t_k([iv] * 3)


def test_exponent_fit():
    rows = [{"q": 3.7, "x": x} for x in (1, 2, 11, 40)]
    assert abs(exponent_fit(rows, "q", "x").slope) < 1e-9
    rows = [{"q": x * x, "x": x} for x in (1, 3, 10, 30, 100)]
    fit = exponent_fit(rows, "q", "x")
    assert abs(fit.slope - 2) < 1e-9
    assert fit.residual < 1e-9
    with pytest.raises(InsufficientDataError):
        exponent_fit(rows[:3], "q", "x")
    narrow = [{"q": x, "x": x} for x in (10, 11, 12, 13)]
    with pytest.raises(InsufficientDataError):
        exponent_fit(narrow, "q", "x")



def _fit_referee(rows, quantity, driver):
    """Least squares in Fractions, by the intercept: (slope, residual)."""
    pts = [(Fraction(math.log(r[driver])), Fraction(math.log(r[quantity]))) for r in rows]
    n = len(pts)
    mx = sum(x for x, _ in pts) / n
    my = sum(y for _, y in pts) / n
    slope = sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)
    intercept = my - slope * mx
    square = sum((y - slope * x - intercept) ** 2 for x, y in pts) / n
    return float(slope), math.sqrt(square)


_positive = st.floats(min_value=1e-6, max_value=1e12)
_fit_rows = st.lists(st.tuples(st.floats(min_value=1e-3, max_value=1e7), _positive),
                     min_size=4, max_size=8).filter(
    lambda pts: max(d for d, _ in pts) >= 10.5 * min(d for d, _ in pts)).map(
    lambda pts: [{"q": q, "x": d} for d, q in pts])


@settings(max_examples=200, deadline=None)
@given(_fit_rows, st.randoms(use_true_random=False))
@example([{"q": x * x, "x": x} for x in (1, 3, 10, 30, 100)], random.Random(0))
@example([{"q": 0.5 * x**1.5, "x": x} for x in (61, 127, 251, 509, 1021, 2039, 4093, 8191)],
         random.Random(0))
def test_exponent_fit_is_exact_least_squares(rows, rnd):
    fit = exponent_fit(rows, "q", "x")
    assert (fit.slope, fit.residual) == _fit_referee(rows, "q", "x")
    assert fit.n == len(rows)
    # exact sums: any order of the records gives the same bits
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert exponent_fit(shuffled, "q", "x") == fit
    # np.polyfit, a float referee, agrees to rounding
    xs = np.log([r["x"] for r in rows])
    ys = np.log([r["q"] for r in rows])
    slope, intercept = np.polyfit(xs, ys, 1)
    residual = np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2))
    assert fit.slope == pytest.approx(slope, rel=1e-12, abs=1e-12)
    assert fit.residual == pytest.approx(residual, rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(_fit_rows)
def test_exponent_fit_exact_lines_have_zero_residual(rows):
    # log q = log x and log q = log 3.7 are lines in the float logs themselves
    assert exponent_fit([{"q": r["x"], "x": r["x"]} for r in rows], "q", "x") == (
        FitResult(1.0, 0.0, len(rows)))
    assert exponent_fit([{"q": 3.7, "x": r["x"]} for r in rows], "q", "x") == (
        FitResult(0.0, 0.0, len(rows)))
