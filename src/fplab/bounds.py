"""Bound-skeleton evaluators and exponent-region predicates.

Skeletons are the explicit bound expressions with implied constants and
p^{o(1)} factors stripped; comparisons against them are report-only ratios,
never assertions.  Region predicates are strict inequalities in the
exponents (zeta, xi) = (a/den, b/den), X = p^zeta and S (or T) = p^xi, taken
on the int64 numerators a, b: Karatsuba's xi > (1 - zeta)/2 is 2b > den - a.
The subgroup and Karatsuba ones keep b's term alone on the left, so over an
(n, 1) column of a and a row of b only their comparison is n x n.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainViolationError,
    InsufficientDataError,
    PreconditionViolatedError,
)

# den < 2^28 keeps every product below 2^63: the largest, b(6k - 8) and
# (3k - 2) den with k = den // a <= den, are under 6 den^2 < 2^59
_DEN_LIMIT = 2**28


def _numerators(a, b, den):
    """a and b as int64 arrays; DomainViolationError, naming the value, unless
    den is an integer in [1, 2^28) and every numerator lies in (0, den]."""
    if not isinstance(den, (int, np.integer)) or not 1 <= den < _DEN_LIMIT:
        raise DomainViolationError(f"den: need an integer in [1, 2^28), got {den!r}")
    out = []
    for name, v in (("a", np.asarray(a)), ("b", np.asarray(b))):
        bad = v[(v < 1) | (v > den)] if v.dtype.kind in "iu" else [f"dtype {v.dtype}"]
        if len(bad):
            raise DomainViolationError(f"{name}: need int64 numerators in (0, {den}], got {bad[0]}")
        out.append(v.astype(np.int64))
    return out


def _chang(a, den):
    """Chang's threshold (3k - 2 - 4k zeta)/(6k - 8), k = floor(1/zeta), at a/den
    as (r, q): b/den lies above it exactly when b q > r; defined where q > 0."""
    k = den // a
    return (3 * k - 2) * den - 4 * k * a, 6 * k - 8


def karatsuba_below_chang(a, den):
    """Elementwise over numerators a of zeta = a/den: Chang is defined and
    (1 - zeta)/2 lies strictly below its threshold, by one cross-multiplication
    (den - a)(6k - 8) < 2((3k - 2) den - 4k a)."""
    a, _ = _numerators(a, 1, den)
    r, q = _chang(a, den)
    return (q > 0) & ((den - a) * q < 2 * r)


def _above(a, b, den):
    """xi = b/den strictly above the piecewise subgroup threshold at zeta = a/den in
    (6/25, 1/2): 1 - 5 zeta/2 below 10/31, (6 - 9 zeta)/16 below 134/361, else
    (20 - 40 zeta)/31."""
    return np.where(31 * a < 10 * den, 2 * b > 2 * den - 5 * a,
                    np.where(361 * a < 134 * den, 16 * b > 6 * den - 9 * a,
                             31 * b > 20 * den - 40 * a))


def _subgroup_domain(a, b, den):
    a, b = _numerators(a, b, den)
    if not (np.all(2 * a < den) and np.all(5 * b < 2 * den)):
        raise DomainViolationError("need 0 < zeta < 1/2 and 0 < xi < 2/5")
    return a, b


def subgroup_inside(a, b, den):
    """Elementwise, over broadcast numerators of (zeta, xi) = (a/den, b/den):
    xi lies strictly above the piecewise subgroup threshold, defined for
    6/25 < zeta < 1/2.  Needs 0 < zeta < 1/2 and 0 < xi < 2/5."""
    a, b = _subgroup_domain(a, b, den)
    return (25 * a > 6 * den) & _above(a, b, den)


def subgroup_inside_raw(a, b, den):
    """Elementwise, same domain: the raw system the threshold was distilled
    from, (5 zeta + 2 xi > 2 and zeta + xi > 1/2) and (40 zeta + 31 xi > 20 or
    (9 zeta + 16 xi > 6 and 36 zeta + 55 xi > 21)), times den."""
    a, b = _subgroup_domain(a, b, den)
    cond1 = (2 * b > 2 * den - 5 * a) & (2 * b > den - 2 * a)
    cond2 = 31 * b > 20 * den - 40 * a
    cond3 = (16 * b > 6 * den - 9 * a) & (55 * b > 21 * den - 36 * a)
    return cond1 & (cond2 | cond3)


def subgroup_agreement(a, b, den):
    """Elementwise: the piecewise and raw classifications agree."""
    return subgroup_inside(a, b, den) == subgroup_inside_raw(a, b, den)


def region_marks(a, b, den):
    """Elementwise over broadcast numerators of (zeta, xi) = (a/den, b/den) in
    (0, 1]: the Chang, Karatsuba and subgroup table marks, string arrays of
    "T" (xi strictly above the region's threshold), "F" (at or below it) or
    "-" (undefined: Chang where k = floor(1/zeta) = 1, subgroup where
    zeta <= 6/25, zeta >= 1/2 or xi >= 2/5)."""
    a, b = _numerators(a, b, den)
    r, q = _chang(a, den)
    chang = np.where(q > 0, np.where(b * q > r, "T", "F"), "-")
    karatsuba = np.where(2 * b > den - a, "T", "F")
    defined = (25 * a > 6 * den) & (2 * a < den) & (5 * b < 2 * den)
    sub = np.where(defined, np.where(_above(a, b, den), "T", "F"), "-")
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


def thm11_rhs(p: int, s: int, x: int, r: int, e3_value) -> float:
    """Bound skeleton S X (E3 p^{(r+1)/r} / (S^4 X^3) + p^{(r+2)/r} / (S X^{5/2})
    + p^{(r+2)/r} / (S^2 X^2))^{1/4r} + S^{1/2} X."""
    check_thm11(p, s, x, r)
    t1 = e3_value * p ** ((r + 1) / r) / (s**4 * x**3)
    t2 = p ** ((r + 2) / r) / (s * x**2.5)
    t3 = p ** ((r + 2) / r) / (s * s * x * x)
    return s * x * (t1 + t2 + t3) ** (1 / (4 * r)) + math.sqrt(s) * x


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
    """Least-squares slope of log(quantity) against log(driver), and the rms
    of its residuals.

    rows is any iterable of mappings; rows missing either key or with
    nonpositive values are dropped.  Requires at least 4 usable rows whose
    driver spans at least one decade.  The fit is exact least squares on the
    float logs: every log is a dyadic rational, so scaled to the largest
    denominator they are integers, and the slope is one int/int division,
    correctly rounded (the residual is the sqrt of a correctly rounded mean
    square).  So it does not depend on the order of the rows.
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
    n = len(xs)
    if n < 4:
        raise InsufficientDataError(f"need >= 4 usable rows, have {n}")
    if max(xs) - min(xs) < math.log(10):
        raise InsufficientDataError("driver must span at least one decade")
    ratios = [v.as_integer_ratio() for v in xs + ys]
    scale = max(den for _, den in ratios)  # every den is a power of 2
    ints = [num * (scale // den) for num, den in ratios]
    xs, ys = ints[:n], ints[n:]
    sx, sy = sum(xs), sum(ys)
    dxx = n * sum(x * x for x in xs) - sx * sx
    dxy = n * sum(x * y for x, y in zip(xs, ys)) - sx * sy
    c = sy * dxx - sx * dxy  # n * dxx times the intercept, in units of 1/scale
    square = sum((n * dxx * y - n * dxy * x - c) ** 2 for x, y in zip(xs, ys))
    return FitResult(dxy / dxx, math.sqrt(square / (n * (n * dxx * scale) ** 2)), n)
