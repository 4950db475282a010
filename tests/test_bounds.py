import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fplab.bounds import (
    _float_cut,
    _threshold_array,
    exponent_fit,
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

EPS = 1e-9


def _diagonal_marks(which, *zetas):
    """The marks of one region at the diagonal points zeta = xi."""
    diag = np.array(zetas)
    return region_marks(diag, diag)[which].tolist()


def test_chang_region():
    assert _diagonal_marks(0, 7 / 22 + EPS, 7 / 22 - EPS) == ["T", "F"]
    # k = floor(1/zeta) = 1 degenerates the threshold denominator
    assert region_marks(0.9, 0.5)[0] == "-"
    # direct evaluation at (0.26, 0.4): k = 3, threshold (7 - 12*0.26)/10
    assert region_marks(0.26, 0.4)[0] == ("T" if 0.4 > (7 - 12 * 0.26) / 10 else "F")


def test_karatsuba_region():
    assert _diagonal_marks(1, 1 / 3 + EPS, 1 / 3 - EPS) == ["T", "F"]
    # defined where both others are not: zeta >= 1/2 and k = 1
    assert [m.item() for m in region_marks(1.0, 0.01)] == ["-", "T", "-"]


def test_karatsuba_beats_chang_on_window():
    for i in range(200):
        z = 0.25 + (2 / 7 - 0.25) * (i + 1) / 201
        k = math.floor(1 / z)
        assert k == 3
        chang_thr = (3 * k - 2 - 4 * k * z) / (6 * k - 8)
        kar_thr = (1 - z) / 2
        assert kar_thr < chang_thr


def test_subgroup_region_examples():
    assert _diagonal_marks(2, 2 / 7 + 1e-6, 2 / 7 - 1e-6) == ["T", "F"]
    # undefined at zeta <= 6/25, zeta >= 1/2 and xi >= 2/5
    zeta, xi = np.array([0.23, 0.6, 0.3]), np.array([0.3, 0.3, 0.45])
    assert region_marks(zeta, xi)[2].tolist() == ["-", "-", "-"]


def _threshold(z):
    return float(_threshold_array(np.float64(z)))


def test_subgroup_threshold_continuity():
    for z in (10 / 31, 134 / 361):
        assert abs(_threshold(z - 1e-12) - _threshold(z + 1e-12)) < 1e-9
    # spot values on each piece
    assert abs(_threshold(0.25) - (1 - 2.5 * 0.25)) < 1e-12
    assert abs(_threshold(0.35) - (6 - 9 * 0.35) / 16) < 1e-12
    assert abs(_threshold(0.45) - (20 - 40 * 0.45) / 31) < 1e-12
    assert math.isnan(_threshold(0.2))


def test_subgroup_region_matches_raw_conditions():
    n = 120
    steps = np.arange(n, dtype=np.float64)
    zeta = (0.01 + (0.49 - 0.02) * steps / (n - 1))[:, None]
    xi = (0.01 + (0.39 - 0.02) * steps / (n - 1))[None, :]
    assert subgroup_agreement(zeta, xi).all()


def test_subgroup_region_raw_spot():
    # deep inside: zeta = xi = 0.35 satisfies cond1 and cond3
    assert subgroup_inside_raw(0.35, 0.35)
    assert not subgroup_inside_raw(0.30, 0.05)


# ---------------------------------------------------------------------------
# subgroup region: the array classifiers against a per-point referee that
# compares with the exact rational breakpoints
# ---------------------------------------------------------------------------

def _ref_threshold(zeta):
    if zeta <= Fraction(6, 25) or zeta >= Fraction(1, 2):
        return None
    if zeta < Fraction(10, 31):
        return 1 - 2.5 * zeta
    if zeta < Fraction(134, 361):
        return (6 - 9 * zeta) / 16
    return (20 - 40 * zeta) / 31


def _ref_region(z, x):
    if not (z < 0.5 and x < 0.4):
        raise DomainViolationError("need zeta < 1/2 and xi < 2/5")
    thr = _ref_threshold(z)
    if thr is None:
        return "out_of_domain"
    return "inside" if x > thr else "outside"


def _ref_raw(z, x):
    if not (z < 0.5 and x < 0.4):
        raise DomainViolationError("need zeta < 1/2 and xi < 2/5")
    cond1 = 5 * z + 2 * x > 2 and z + x > 0.5
    cond2 = 40 * z + 31 * x > 20
    cond3 = 9 * z + 16 * x > 6 and 36 * z + 55 * x > 21
    return cond1 and (cond2 or cond3)


def _ref_agree(z, x):
    return (_ref_region(z, x) == "inside") == _ref_raw(z, x)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainViolationError:
        return DomainViolationError


def _ref_subgroup_mark(z, x):
    """The region-table mark: "-" where the referee is out of its domain."""
    return {"inside": "T", "outside": "F"}.get(_outcome(_ref_region, z, x), "-")


def _check_against_referee(points):
    """Each point alone (0-d arrays for the classifiers), then the subgroup
    marks on all points and the array classifiers on the in-domain points as
    one batch each."""
    for z, x in points:
        ref = _ref_threshold(z)
        assert math.isnan(_threshold(z)) if ref is None else _threshold(z) == ref
        assert region_marks(z, x)[2] == _ref_subgroup_mark(z, x)
        assert _outcome(subgroup_inside_raw, z, x) == _outcome(_ref_raw, z, x)
        assert _outcome(subgroup_agreement, z, x) == _outcome(_ref_agree, z, x)
    zs = np.array([z for z, _ in points], dtype=np.float64)
    xs = np.array([x for _, x in points], dtype=np.float64)
    assert region_marks(zs, xs)[2].tolist() == [_ref_subgroup_mark(z, x) for z, x in points]
    batch = [(z, x) for z, x in points if z < 0.5 and x < 0.4]
    zs = np.array([z for z, _ in batch], dtype=np.float64)
    xs = np.array([x for _, x in batch], dtype=np.float64)
    assert subgroup_inside(zs, xs).tolist() == [_ref_region(z, x) == "inside" for z, x in batch]
    assert subgroup_inside_raw(zs, xs).tolist() == [_ref_raw(z, x) for z, x in batch]
    assert subgroup_agreement(zs, xs).tolist() == [_ref_agree(z, x) for z, x in batch]


def _ulps(value, k=2):
    """value and its k nearest doubles on either side."""
    out = [float(value)]
    for direction in (-np.inf, np.inf):
        v = float(value)
        for _ in range(k):
            v = float(np.nextafter(v, direction))
            out.append(v)
    return sorted(out)


_LINES = (
    lambda z: (20 - 40 * z) / 31,
    lambda z: (2 - 5 * z) / 2,
    lambda z: 0.5 - z,
    lambda z: (6 - 9 * z) / 16,
    lambda z: (21 - 36 * z) / 55,
)


def _pinned_points():
    points = []
    for bp in (Fraction(6, 25), Fraction(10, 31), Fraction(134, 361), Fraction(1, 2)):
        for z in _ulps(bp):
            thr = _ref_threshold(z)
            xis = [0.3, 0.39] + ([] if thr is None else _ulps(thr, 1))
            points += [(z, x) for x in xis]
    for z in (0.26, 0.3, 1 / 3, 0.36, 0.4, 0.45, 0.49, float(Fraction(134, 361))):
        for line in _LINES:
            points += [(z, x) for x in _ulps(line(z), 1) if 0 < x <= 1]
    return points


def test_float_cuts_match_exact_breakpoints():
    for bp, strict in ((Fraction(6, 25), False), (Fraction(10, 31), True),
                       (Fraction(134, 361), True), (Fraction(1, 4), False),
                       (Fraction(1, 4), True)):
        cut = _float_cut(bp, strict)
        above = float(np.nextafter(cut, np.inf))
        assert (Fraction(cut) < bp) if strict else (Fraction(cut) <= bp)
        assert (Fraction(above) >= bp) if strict else (Fraction(above) > bp)
    assert _float_cut(Fraction(1, 4), strict=False) == 0.25


def test_subgroup_region_pinned_breakpoints_and_lines():
    points = _pinned_points()
    assert len(points) > 150
    _check_against_referee(points)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(
        st.floats(0, 0.5, exclude_min=True, exclude_max=True),
        st.floats(0, 0.4, exclude_min=True, exclude_max=True),
    ),
    min_size=1, max_size=20,
))
def test_subgroup_region_property(points):
    _check_against_referee(points)


def _ref_chang_mark(z, x):
    """The Chang mark in exact rationals: k = floor(1/zeta) and the threshold
    (3k - 2 - 4k zeta) / (6k - 8) from the doubles' exact values."""
    z = Fraction(z)
    k = math.floor(1 / z)
    if 6 * k - 8 <= 0:
        return "-"
    return "T" if Fraction(x) > (3 * k - 2 - 4 * k * z) / (6 * k - 8) else "F"


def test_region_marks_match_scalar_predicates():
    # the default table's grid, the k = 1 / k = 2 edge at zeta = 1/2, the
    # subgroup cut points and the 1/2 and 2/5 domain edges, and random points
    rng = random.Random(11)
    edges = [0.5, np.nextafter(0.5, 0), 1 / 3, 6 / 25, 10 / 31, 134 / 361, 0.4, 1.0]
    zs = [0.02 + 0.96 * i / 23 for i in range(24)] + edges + [rng.uniform(1e-3, 1) for _ in range(30)]
    xs = [0.02 + 0.96 * j / 23 for j in range(24)] + edges + [rng.uniform(1e-3, 1) for _ in range(30)]
    chang, kar, sub = region_marks(np.array(zs)[:, None], np.array(xs)[None, :])
    assert chang.shape == kar.shape == sub.shape == (len(zs), len(xs))
    for i, z in enumerate(zs):
        for j, x in enumerate(xs):
            assert chang[i, j] == _ref_chang_mark(z, x)
            assert kar[i, j] == ("T" if x > (1 - z) / 2 else "F")
            assert sub[i, j] == _ref_subgroup_mark(z, x)
    assert set(chang.ravel()) == set(sub.ravel()) == {"T", "F", "-"}


@pytest.mark.filterwarnings("error")
def test_chang_marks_at_tiny_zeta():
    # 1/zeta overflows at the least subnormal, 6k near 1e-308; the threshold
    # sits within 2^-53 below 1/2 there, so the xi avoid that last ulp
    zs = np.array([5e-324, 1e-308, 2.0**-60])[:, None]
    xs = np.array([1e-3, 0.3, 0.4999, 0.5001, 1.0])[None, :]
    chang = region_marks(zs, xs)[0]
    assert chang.tolist() == [[_ref_chang_mark(z, x) for x in xs[0]] for z in zs[:, 0]]
    assert set(chang.ravel()) == {"T", "F"}


def test_subgroup_classifiers_broadcast_and_reject_domain():
    zeta = np.array([[0.25], [0.3], [0.45]])
    xi = np.array([[0.1, 0.3, 0.39]])
    grid = subgroup_inside(zeta, xi)
    assert grid.shape == (3, 3)
    assert grid.tolist() == [[_ref_region(z, x) == "inside" for x in xi[0]] for z in zeta[:, 0]]
    assert subgroup_inside(0.35, 0.35).shape == ()
    for fn in (subgroup_inside, subgroup_inside_raw, subgroup_agreement):
        with pytest.raises(DomainViolationError):
            fn(np.array([0.3, 0.5]), np.array([0.3, 0.3]))
        with pytest.raises(DomainViolationError):
            fn(np.array([0.3, 0.3]), np.array([0.3, 0.4]))
        with pytest.raises(DomainViolationError):
            fn(0.0, 0.3)


@pytest.mark.parametrize("n", [2, 3, 82, 128])
def test_region_agreement_grid_matches_referee(n):
    expected = []
    for i in range(n):
        for j in range(n):
            zeta = 0.01 + (0.49 - 0.02) * i / (n - 1)
            xi = 0.01 + (0.39 - 0.02) * j / (n - 1)
            if not _ref_agree(zeta, xi):
                expected.append(f"flag=disagree;zeta={zeta:.6f};xi={xi:.6f}")
    rows, _ = run_region_suite({"region_check_grid": n, "region_table_grid": 2})
    head, *flags = [r for r in rows if r.suite == "region_agreement"]
    assert head.params == f"grid={n}x{n}"
    assert (head.measured, head.skeleton) == (len(expected), n * n)
    assert type(head.measured) is int
    assert [r.params for r in flags] == expected[:100]
    if n == 82:
        assert expected == ["flag=disagree;zeta=0.282716;xi=0.293210"]


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

