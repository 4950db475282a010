"""Bound-skeleton evaluators and exponent-region predicates.

Skeletons are the explicit bound expressions with implied constants and
p^{o(1)} factors stripped; comparisons against them are report-only ratios,
never assertions.  Region predicates are exact strict inequalities in the
exponents (zeta, xi) with X = p^zeta and S (or T) = p^xi.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DomainViolationError,
    InsufficientDataError,
    PreconditionViolatedError,
)

def _float_cut(bp: Fraction, strict: bool) -> float:
    """The largest double c <= bp (c < bp when strict): for every double z,
    `z <= c` is exactly `z <= bp` (`z < bp`)."""
    cut = float(bp)
    if Fraction(cut) > bp or (strict and Fraction(cut) == bp):
        cut = float(np.nextafter(cut, -np.inf))
    return cut


# the exact breakpoints of the subgroup threshold as float cuts: zeta <= 6/25,
# zeta < 10/31 and zeta < 134/361 are z <= _CUT1, _CUT2 and _CUT3
_CUT1 = _float_cut(Fraction(6, 25), strict=False)
_CUT2 = _float_cut(Fraction(10, 31), strict=True)
_CUT3 = _float_cut(Fraction(134, 361), strict=True)


def chang_threshold(zeta):
    """Elementwise (3k - 2 - 4k zeta) / (6k - 8) with k = floor(1/zeta), over
    float64 zeta in (0, 1]; NaN where k = 1 makes 6k - 8 negative.

    Where zeta <= 2^-53, so k >= 2^53, it is divided through by k, with 1/k
    taken as zeta (they differ by less than one part in 2^53): 1/zeta
    overflows for subnormal zeta and 6k near zeta = 1e-308.
    """
    z = np.asarray(zeta, dtype=np.float64)
    tiny = z <= 2.0**-53
    k = np.floor(1 / np.where(tiny, 1.0, z))
    full = np.where(k > 1, (3 * k - 2 - 4 * k * z) / (6 * k - 8), np.nan)
    return np.where(tiny, (3 - 6 * z) / (6 - 8 * z), full)


def _threshold_array(z):
    """Piecewise xi-threshold at each float64 zeta; NaN outside (6/25, 1/2)."""
    thr = np.where(z <= _CUT3, (6 - 9 * z) / 16, (20 - 40 * z) / 31)
    thr = np.where(z <= _CUT2, 1 - 2.5 * z, thr)
    return np.where((z <= _CUT1) | (z >= 0.5), np.nan, thr)


def _subgroup_domain(zeta, xi):
    z, x = np.asarray(zeta, dtype=np.float64), np.asarray(xi, dtype=np.float64)
    if not (np.all((0 < z) & (z < 0.5)) and np.all((0 < x) & (x < 0.4))):
        raise DomainViolationError("need 0 < zeta < 1/2 and 0 < xi < 2/5")
    return z, x


def subgroup_inside(zeta, xi):
    """Elementwise, over broadcast arrays or scalars: xi lies strictly above
    the piecewise subgroup threshold.  Needs 0 < zeta < 1/2, 0 < xi < 2/5."""
    z, x = _subgroup_domain(zeta, xi)
    return x > _threshold_array(z)


def subgroup_inside_raw(zeta, xi):
    """Elementwise, same domain: the raw system the threshold was distilled
    from, (5z + 2x > 2 and z + x > 1/2) and (40z + 31x > 20 or
    (9z + 16x > 6 and 36z + 55x > 21))."""
    z, x = _subgroup_domain(zeta, xi)
    cond1 = (5 * z + 2 * x > 2) & (z + x > 0.5)
    cond2 = 40 * z + 31 * x > 20
    cond3 = (9 * z + 16 * x > 6) & (36 * z + 55 * x > 21)
    return cond1 & (cond2 | cond3)


def subgroup_agreement(zeta, xi):
    """Elementwise: the piecewise and raw classifications agree."""
    return subgroup_inside(zeta, xi) == subgroup_inside_raw(zeta, xi)


def region_marks(zeta, xi):
    """Elementwise over broadcast float64 arrays in (0, 1]: the Chang,
    Karatsuba and subgroup region-table marks, three string arrays of "T"
    (xi strictly above the region's threshold), "F" (at or below it) or "-"
    (undefined).  The thresholds are chang_threshold, (1 - zeta)/2 and the
    piecewise subgroup threshold.  Chang is "-" where k = floor(1/zeta) = 1;
    Karatsuba is never "-"; subgroup is "-" where zeta <= 6/25, zeta >= 1/2
    or xi >= 2/5."""
    z, x = np.broadcast_arrays(np.asarray(zeta, dtype=np.float64),
                               np.asarray(xi, dtype=np.float64))
    chang_thr = chang_threshold(z)
    chang = np.where(np.isnan(chang_thr), "-", np.where(x > chang_thr, "T", "F"))
    karatsuba = np.where(x > (1 - z) / 2, "T", "F")
    sub_thr = _threshold_array(z)
    defined = (0 < x) & (x < 0.4) & ~np.isnan(sub_thr)
    sub = np.where(defined, np.where(x > sub_thr, "T", "F"), "-")
    return chang, karatsuba, sub


# ---------------------------------------------------------------------------
# skeleton evaluators
# ---------------------------------------------------------------------------

def check_thm11(p: int, s: int, x: int, r: int):
    """Raise PreconditionViolatedError unless S, X, r >= 1, S^2 X <= p^2
    and p^{1/r} <= X < p^{1/2}."""
    if s < 1 or x < 1 or r < 1:
        raise PreconditionViolatedError("need S, X, r >= 1")
    if s * s * x > p * p:
        raise PreconditionViolatedError(f"violated: S^2 X <= p^2 (S={s}, X={x}, p={p})")
    if x * x >= p:
        raise PreconditionViolatedError(f"violated: X < p^{{1/2}} (X={x}, p={p})")
    if x**r < p:
        raise PreconditionViolatedError(f"violated: X >= p^{{1/r}} (X={x}, r={r}, p={p})")


def thm11_rhs(p: int, s: int, x: int, r: int, e3_value, epsilon: float = 0.0) -> float:
    """Bound skeleton S X (E3 p^{(r+1)/r} / (S^4 X^3) + p^{(r+2)/r} / (S X^{5/2})
    + p^{(r+2)/r} / (S^2 X^2))^{1/4r} p^eps + S^{1/2} X."""
    check_thm11(p, s, x, r)
    t1 = e3_value * p ** ((r + 1) / r) / (s**4 * x**3)
    t2 = p ** ((r + 2) / r) / (s * x**2.5)
    t3 = p ** ((r + 2) / r) / (s * s * x * x)
    return s * x * (t1 + t2 + t3) ** (1 / (4 * r)) * p**epsilon + math.sqrt(s) * x


def tabc_skeletons(p: int, a: int, b: int, c: int):
    """The three collinear-triple deviation skeletons and their minimum:
    p*abc, (abc)^{3/2} + abc*Z, sqrt(p)(abc)^{7/6} + Z^4 with Z = max(a,b,c)."""
    if min(a, b, c) < 1:
        raise ValueError("cardinalities must be >= 1")
    abc = a * b * c
    z = max(a, b, c)
    s1 = float(p * abc)
    s2 = float(abc**1.5 + abc * z)
    s3 = float(math.sqrt(p) * abc ** (7 / 6) + z**4)
    return s1, s2, s3, min(s1, s2, s3)


def subgroup_e3_skeletons(p: int, t: int, x: int):
    """The two subgroup triple-energy skeletons, plus a flag raised when the
    standing assumption T <= p^{2/5} fails (row is then report-only noise)."""
    s1 = t ** (49 / 20) * x
    s2 = (
        t * t * x
        + t ** (4 / 3) * x**1.5
        + t ** (11 / 6) * x * x / math.sqrt(p)
        + t ** (41 / 24) * x**1.5 * p ** (-1 / 8)
    )
    flagged = t**5 > p * p
    return float(s1), float(s2), flagged


def poly_t_index(d: int) -> int:
    """Summand count of the generalized energy used for degree d: 3 for
    quadratics and cubics, 2^{d-2} + 1 beyond."""
    if d < 2:
        raise DomainViolationError("need d >= 2")
    return 3 if d == 2 else 2 ** (d - 2) + 1


def poly_energy_skeletons(p: int, x: int, d: int):
    """Skeletons for energies of polynomial images of [1, X], X <= p^{2/3}:
    (T-energy skeleton, additive-energy skeleton)."""
    if d < 2:
        raise DomainViolationError("need d >= 2")
    if x**3 > p * p:
        raise DomainViolationError(f"violated: X <= p^{{2/3}} (X={x}, p={p})")
    if d == 2:
        return float(x**4.5), float(x**2.75)
    return float(x ** (2 ** (d - 1) + 0.5)), float(x ** (3 - 0.5 ** (d - 1)))


# ---------------------------------------------------------------------------
# empirical exponent fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    slope: float
    residual: float  # rms of log-log residuals
    n: int


def exponent_fit(rows, quantity: str, driver: str) -> FitResult:
    """Least-squares slope of log(quantity) against log(driver).

    rows is any iterable of mappings; rows missing either key or with
    nonpositive values are dropped.  Requires at least 4 usable rows whose
    driver spans at least one decade.
    """
    xs, ys = [], []
    for row in rows:
        if quantity not in row or driver not in row:
            continue
        q, dr = row[quantity], row[driver]
        if q is None or dr is None or q <= 0 or dr <= 0:
            continue
        xs.append(math.log(dr))
        ys.append(math.log(q))
    if len(xs) < 4:
        raise InsufficientDataError(f"need >= 4 usable rows, have {len(xs)}")
    if max(xs) - min(xs) < math.log(10):
        raise InsufficientDataError("driver must span at least one decade")
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * np.asarray(xs) + intercept
    residual = float(np.sqrt(np.mean((np.asarray(ys) - fitted) ** 2)))
    return FitResult(float(slope), residual, len(xs))
