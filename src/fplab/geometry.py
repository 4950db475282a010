"""Lines, line-multiplicity spectra and collinear triples in F_p^2;
points, planes and incidence counts in F_p^3.

Line keys are integers: a*p + b for y = a*x + b and p^2 + c for x = c, which
enumerates all p^2 + p lines exactly once.  A plane is a tuple
(n1, n2, n3, c) for n.z = c with the first nonzero n_i scaled to 1.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .energy import MultiplicityFn, _dot
from .errors import PreconditionViolatedError, TooLargeError
from .field import _BLOCK, is_prime
from .sets import FpSet, _same_field

GRAM_CAP = 7  # dense point-plane matrices above this are pointless at desk scale

# collinear_triples sorts its ratio keys below p / _RATIO_SORT_SHARE of them
# and adds them into a length-p count array otherwise.  Measured with
# #A = #B = #C (best of 5): up to p / 3 keys sorting is 1.4-4.5x faster and
# peaks lower (3.2 against 6.0 MB at p = 1048573 and p / 3 keys, 44 against
# 70 MB at p = 16777213); at p / 2 its peak passes the dense route's at 2^24
# (78 against 70 MB), and at p keys the dense route is faster at 2^20.
_RATIO_SORT_SHARE = 3


# ---------------------------------------------------------------------------
# lines in F_p^2
# ---------------------------------------------------------------------------

def line_spectrum(a: FpSet) -> MultiplicityFn:
    """Multiplicity of every line against A x A, over the hit lines.

    Each point (x, y) of A x A lies on the p lines y = s*x + b, keyed
    s*p + b, and on the vertical line x, keyed p^2 + x: one np.unique over
    the #A^2 (p + 1) keys, never the full p^3 point-line incidence relation.
    Keys stay below p^2 + p < 2^49 at p < 2^24.
    """
    p = a.field.p
    xs = a.elems
    slopes = np.arange(p, dtype=np.int64)
    intercepts = (xs[None, None, :] - slopes[:, None, None] * xs[None, :, None]) % p
    slanted = slopes[:, None, None] * p + intercepts  # (slope, x, y)
    vertical = np.repeat(p * p + xs, len(xs))
    return MultiplicityFn(*np.unique(np.concatenate([slanted.ravel(), vertical]),
                                     return_counts=True))


def pair_spectrum_identity(a: FpSet, b: FpSet):
    """Both sides of  sum_l iota_A(l) iota_B(l) = (#A #B)^2 + p #(A^2 cap B^2)."""
    _same_field(a, b)
    p = a.field.p
    sa = line_spectrum(a)
    sb = line_spectrum(b)
    lhs = _dot(sa.counts, sb.at(sa.values))
    common = len(np.intersect1d(a.elems, b.elems, assume_unique=True))
    rhs = (len(a) * len(b)) ** 2 + p * common * common
    return lhs, rhs


# ---------------------------------------------------------------------------
# collinear triples
# ---------------------------------------------------------------------------

def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p elementwise, the inverse of each nonzero x < p; the
    squares stay below p^2 < 2^48 at p < 2^24."""
    out = np.ones_like(x)
    e = p - 2
    while e > 0:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def _triple_cross_from_ratios(a: FpSet, b: FpSet, c: FpSet) -> int:
    # T = sum_l R(l)^2 where R(l) counts (x, y, z) in A x B x C with
    # x - z = l * (y - z) and y != z; exact, O(#A #B #C) time.  R is keyed by
    # l = (x - z) * (y - z)^-1 mod p itself, with one Fermat inverse for each
    # of the #B #C differences y - z != 0; each product is below p^2 < 2^48.
    # The keys are made for blocks of (y, z) rows, at most _BLOCK keys each
    # (one row when A alone is longer).  Below p / _RATIO_SORT_SHARE keys they
    # are all sorted at once as int32 and no length-p array is made; above it
    # each block is added into one length-p count array, int32 while
    # #A #B #C < 2^31 bounds R(l).
    p = a.field.p
    xs, ys, cs = a.elems, b.elems, c.elems
    iy, iz = np.nonzero(ys[:, None] != cs[None, :])  # the (y, z) pairs with y != z
    inv = _inverse_mod((ys[iy] - cs[iz]) % p, p)
    x_minus_z = (xs[None, :] - cs[:, None]) % p  # (z, x)
    rows = max(1, _BLOCK // max(1, len(xs)))

    def blocks():  # (offset, keys) of each block, in (y, z) row order
        for lo in range(0, len(inv), rows):
            keys = x_minus_z[iz[lo:lo + rows]] * inv[lo:lo + rows, None]
            keys %= p
            yield lo * len(xs), keys.ravel()

    if len(xs) * len(inv) * _RATIO_SORT_SHARE < p:
        keys = np.empty(len(xs) * len(inv), dtype=np.int32)
        for at, block in blocks():
            keys[at:at + len(block)] = block
        keys.sort()
        # a run of R >= 2 equal keys holds R - 1 consecutive repeats, and
        # sum R^2 = #keys + sum R (R - 1) over those runs
        repeats = np.flatnonzero(keys[1:] == keys[:-1])
        m = np.diff(np.flatnonzero(np.diff(repeats, prepend=-2, append=keys.size) != 1))
        return keys.size + _dot(m, m + 1)
    one = np.int32(1) if len(a) * len(b) * len(c) < 1 << 31 else np.int64(1)
    counts = np.zeros(p, dtype=one.dtype)
    for _, keys in blocks():
        np.add.at(counts, keys, one)  # fast only with the counts' dtype
    return _dot(counts, counts)


def collinear_triples(a: FpSet, b: FpSet, c: FpSet) -> int:
    """Number of solutions of (a1-c1)(b2-c2) = (a2-c2)(b1-c1) with
    b1 != c1, b2 != c2.

    Counted exactly through the ratio fibration T = sum_l R(l)^2, where R(l)
    is the number of (x, y, z) in A x B x C with x - z = l (y - z), y != z.
    """
    _same_field(a, b, c)
    return _triple_cross_from_ratios(a, b, c)


def collinear_triples_bruteforce(a: FpSet, b: FpSet, c: FpSet) -> int:
    """Literal enumeration of all sextuples; oracle for collinear_triples.

    Over every (a1, a2, b1, b2, c1, c2) with b1 != c1 and b2 != c2 it compares
    (a1 - c1)(b2 - c2) with (a2 - c2)(b1 - c1) mod p; the products stay below
    p^2 < 2^48 at p < 2^24.  The comparisons are made for a block of (b1, c1)
    pairs at a time, at most _BLOCK sextuples (one pair when a pair has more).
    """
    _same_field(a, b, c)
    p = a.field.p
    xs, bs, cs = a.elems, b.elems, c.elems
    ib, ic = np.nonzero(bs[:, None] != cs[None, :])  # the (b, c) pairs with b != c
    k = bs[ib] - cs[ic]
    a_minus_c = xs[None, :] - cs[ic, None]  # (pair, a)
    rows = max(1, _BLOCK // max(1, len(k) * len(xs) ** 2))
    count = 0
    for lo in range(0, len(k), rows):
        # (pair 1, pair 2, a1, a2): (a1 - c1) k2 against (a2 - c2) k1
        lhs = a_minus_c[lo:lo + rows, None, :, None] * k[None, :, None, None] % p
        rhs = a_minus_c[None, :, None, :] * k[lo:lo + rows, None, None, None] % p
        count += np.count_nonzero(lhs == rhs)
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
    """Largest number of the given 3D points on a single line.

    From each point i, the other points fall into classes by the direction
    to them, scaled so its first nonzero coordinate is 1; a class is the rest
    of one line through i, so the answer is 1 + the largest class.  Each
    ordered pair gets one int64 key i * 2p^2 + (d0 p + d1) p + d2 for its
    scaled direction d: d0 is 0 or 1, so the key is below n 2p^2, which is
    n 2^49 at p < 2^24.
    """
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 3) % p
    n = len(pts)
    cells = pts[np.lexsort(pts.T)]  # rows, not a p^3 key: that wraps past p = 2^21
    if (cells[1:] == cells[:-1]).all(axis=1).any():
        raise ValueError("points must be distinct mod p")
    if n <= 1:
        return n
    i, j = np.nonzero(~np.eye(n, dtype=bool))  # ordered pairs i != j
    d = (pts[j] - pts[i]) % p
    pivot = d[np.arange(len(d)), (d != 0).argmax(axis=1)]
    d = d * _inverse_mod(pivot, p)[:, None] % p
    keys = i * (2 * p * p) + (d[:, 0] * p + d[:, 1]) * p + d[:, 2]
    _, counts = np.unique(keys, return_counts=True)
    return 1 + int(counts.max())


@dataclass(frozen=True)
class IncidenceReport:
    n_points: int
    n_planes: int
    k_collinear: int
    residual: Fraction
    skeleton: float


def misha_residual_report(p: int, points, planes) -> IncidenceReport:
    """Residual of the incidence count against its mean, compared (report
    only) with the skeleton sqrt(#Q) #Pi + k #Q."""
    if len(points) > len(planes):
        raise PreconditionViolatedError("need #points <= #planes")
    _, residual = incidence_count(p, points, planes)
    k = max_collinear_points_3d(points, p)
    q, pi = len(points), len(planes)
    skeleton = q**0.5 * pi + k * q
    return IncidenceReport(q, pi, k, residual, skeleton)
