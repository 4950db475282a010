"""Lines, line-multiplicity spectra and collinear triples in F_p^2;
points, planes and incidence counts in F_p^3.

Line keys are canonical tuples: ("s", a, b) for y = a*x + b and ("v", c)
for x = c, which enumerates all p^2 + p lines exactly once.  A plane is a
tuple (n1, n2, n3, c) for n.z = c with the first nonzero n_i scaled to 1.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .energy import _dot
from .errors import (
    FieldMismatchError,
    PreconditionViolatedError,
    TooLargeError,
)
from .field import is_prime
from .sets import FpSet

GRAM_CAP = 7  # dense point-plane matrices above this are pointless at desk scale


# ---------------------------------------------------------------------------
# lines in F_p^2
# ---------------------------------------------------------------------------

class LineSpectrum:
    """Map line -> multiplicity against A x A, restricted to hit lines.

    Multiplicities of unstored lines are zero; the mean multiplicity
    (#A)^2 / p and the centered second moment are exact rationals.
    """

    __slots__ = ("field", "set_size", "counts")

    def __init__(self, field, set_size, counts):
        self.field = field
        self.set_size = set_size
        self.counts = counts

    @property
    def p(self) -> int:
        return self.field.p

    def mean(self) -> Fraction:
        return Fraction(self.set_size * self.set_size, self.p)

    def total_lines(self) -> int:
        return self.p * self.p + self.p

    def zero_lines(self) -> int:
        return self.total_lines() - len(self.counts)

    def sum_iota(self) -> int:
        return sum(self.counts.values())

    def f_l2(self) -> Fraction:
        """Exact sum of |f(line)|^2 over all lines, zero-hit lines included."""
        m = self.mean()
        acc = sum((Fraction(c) - m) ** 2 for c in self.counts.values())
        return acc + self.zero_lines() * m * m


def line_spectrum(a: FpSet) -> LineSpectrum:
    """Multiplicity of every line against A x A.

    Built by walking the p + 1 line keys through each point of A x A, so the
    work is #A^2 * (p + 1) dictionary increments and never touches the full
    p^3 point-line incidence relation.
    """
    p = a.field.p
    counts = {}
    for x in a.elems:
        vkey = ("v", x)
        for y in a.elems:
            counts[vkey] = counts.get(vkey, 0) + 1
            for slope in range(p):
                key = ("s", slope, (y - slope * x) % p)
                counts[key] = counts.get(key, 0) + 1
    return LineSpectrum(a.field, len(a), counts)


def pair_spectrum_identity(a: FpSet, b: FpSet):
    """Both sides of  sum_l iota_A(l) iota_B(l) = (#A #B)^2 + p #(A^2 cap B^2)."""
    if a.field.p != b.field.p:
        raise FieldMismatchError(f"p = {a.field.p} vs p = {b.field.p}")
    p = a.field.p
    sa = line_spectrum(a)
    sb = line_spectrum(b)
    small, big = (sa, sb) if len(sa.counts) <= len(sb.counts) else (sb, sa)
    lhs = sum(c * big.counts.get(line, 0) for line, c in small.counts.items())
    common = len(a.as_set() & b.as_set())
    rhs = (len(a) * len(b)) ** 2 + p * common * common
    return lhs, rhs


# ---------------------------------------------------------------------------
# collinear triples
# ---------------------------------------------------------------------------

def _triple_cross_from_ratios(a: FpSet, b: FpSet, c: FpSet) -> int:
    # T = sum_l R(l)^2 where R(l) counts (x, y, z) in A x B x C with
    # x - z = l * (y - z) and y != z; exact, O(#A #B #C) time and
    # O(#A #C + p) memory, one batch of (x, z) pairs per y.
    p = a.field.p
    inv = a.field.inverses()
    xs = np.asarray(a.elems, dtype=np.int64)
    cs = np.asarray(c.elems, dtype=np.int64)
    counts = np.zeros(p, dtype=np.int64)
    for y in b.elems:
        zs = cs[cs != y]
        keys = (xs[None, :] - zs[:, None]) * inv[(y - zs) % p][:, None] % p
        np.add.at(counts, keys.ravel(), 1)
    r = counts[counts > 0]
    return _dot(r, r)  # R(l) can reach #A #B #C: R^2 needs the int64 guard


def collinear_triples(a: FpSet, b: FpSet, c: FpSet) -> int:
    """Number of solutions of (a1-c1)(b2-c2) = (a2-c2)(b1-c1) with
    b1 != c1, b2 != c2.

    Counted exactly through the ratio fibration T = sum_l R(l)^2, where R(l)
    is the number of (x, y, z) in A x B x C with x - z = l (y - z), y != z.
    """
    if not (a.field.p == b.field.p == c.field.p):
        raise FieldMismatchError("sets live in different fields")
    return _triple_cross_from_ratios(a, b, c)


def collinear_triples_bruteforce(a: FpSet, b: FpSet, c: FpSet) -> int:
    """Literal enumeration of all sextuples; oracle for collinear_triples."""
    p = a.field.p
    count = 0
    ae, be, ce = a.elems, b.elems, c.elems
    for b1 in be:
        for c1 in ce:
            if b1 == c1:
                continue
            k1 = (b1 - c1) % p
            for b2 in be:
                for c2 in ce:
                    if b2 == c2:
                        continue
                    k2 = (b2 - c2) % p
                    for a1 in ae:
                        lhs = (a1 - c1) * k2 % p
                        for a2 in ae:
                            if lhs == (a2 - c2) * k1 % p:
                                count += 1
    return count


# ---------------------------------------------------------------------------
# planes and incidences in F_p^3
# ---------------------------------------------------------------------------

def normalize_plane(n1: int, n2: int, n3: int, c: int, p: int):
    """Canonical (n1, n2, n3, c) with the first nonzero n_i scaled to 1."""
    n1, n2, n3, c = n1 % p, n2 % p, n3 % p, c % p
    for lead in (n1, n2, n3):
        if lead:
            scale = pow(lead, p - 2, p)
            return (n1 * scale % p, n2 * scale % p, n3 * scale % p, c * scale % p)
    raise ValueError("normal vector must be nonzero")


def all_planes(p: int) -> list:
    """Every plane of F_p^3 in canonical form (p * (p^2 + p + 1) of them)."""
    planes = []
    for b in range(p):
        for c in range(p):
            planes.extend((1, b, c, d) for d in range(p))
    for c in range(p):
        planes.extend((0, 1, c, d) for d in range(p))
    planes.extend((0, 0, 1, d) for d in range(p))
    return planes


def plane_contains(plane, point, p: int) -> bool:
    n1, n2, n3, c = plane
    x, y, z = point
    return (n1 * x + n2 * y + n3 * z - c) % p == 0


def _incidence_matrix(p: int, points, planes) -> np.ndarray:
    pts = np.asarray(points, dtype=np.int64)
    pl = np.asarray(planes, dtype=np.int64)
    lhs = pts @ pl[:, :3].T  # (Q, P)
    return ((lhs - pl[:, 3][None, :]) % p == 0)


def incidence_count(p: int, points, planes):
    """Total point-plane incidences, plus the exact residual against the
    mean count #Q #Pi / p."""
    if len(set(points)) != len(points):
        raise ValueError("points must be deduplicated")
    if len(set(planes)) != len(planes):
        raise ValueError("planes must be deduplicated")
    if not points or not planes:
        return 0, Fraction(0)
    count = int(_incidence_matrix(p, points, planes).sum())
    residual = Fraction(count) - Fraction(len(points) * len(planes), p)
    return count, residual


def gram_structure_check(p: int) -> int:
    """Max deviation of G G^t from p^2 Id + (p+1) 1 over the full
    point/plane incidence matrix; the contract is zero."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > GRAM_CAP:
        raise TooLargeError(f"p = {p} exceeds the dense-matrix cap {GRAM_CAP}")
    points = [(x, y, z) for x in range(p) for y in range(p) for z in range(p)]
    planes = all_planes(p)
    m = _incidence_matrix(p, points, planes).astype(np.int64)
    gram = m @ m.T
    expected = np.full(gram.shape, p + 1, dtype=np.int64)
    np.fill_diagonal(expected, p * p + p + 1)
    return int(np.abs(gram - expected).max())


def max_collinear_points_3d(points, p: int) -> int:
    """Largest number of the given 3D points on a single line."""
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
            key = (d, base)
            pair_counts[key] = pair_counts.get(key, 0) + 1
    best = max(pair_counts.values())
    m = (1 + isqrt(1 + 8 * best)) // 2
    if m * (m - 1) // 2 != best:
        raise RuntimeError(f"{best} point pairs on one line is not m(m-1)/2 for any m")
    return m


@dataclass(frozen=True)
class IncidenceReport:
    n_points: int
    n_planes: int
    k_collinear: int
    incidences: int
    residual: Fraction
    skeleton: float
    ratio: float


def misha_residual_report(p: int, points, planes) -> IncidenceReport:
    """Residual of the incidence count against its mean, compared (report
    only) with the skeleton sqrt(#Q) #Pi + k #Q."""
    if len(points) > len(planes):
        raise PreconditionViolatedError("need #points <= #planes")
    count, residual = incidence_count(p, points, planes)
    k = max_collinear_points_3d(points, p)
    q, pi = len(points), len(planes)
    skeleton = q**0.5 * pi + k * q
    ratio = float(abs(residual)) / skeleton if skeleton else 0.0
    return IncidenceReport(q, pi, k, count, residual, skeleton, ratio)
