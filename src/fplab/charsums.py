"""Bilinear character sums, the amplification transform, and complete
product character sums.

The bilinear sum is sum_{s in S} sum_{x in I} alpha_s beta_x chi(s + x)
with weights in the closed unit disk, each given as a complex array aligned
with its set's sorted elems (None for unit weights).  The quadratic chi with
unit weights over an interval sums each row by counting the squares in its
window off the popcounts of the squares words, with no gather of chi at
|S| |I| points; any other sum gathers chi's classes.  The amplification
map counts the pairs (lambda, mu) = ((s + x)/y, (t + x)/y) over a prime
window y in [Y, 2Y] as one np.unique over the keys of _values; it applies
no shift x -> x + y*z, and Z enters only its check 4YZ <= X.  Its solution
count count_n is summed over pairs of rows (y, x) from the intersections of
their value sets {(x + s)/y : s in S}, in _row_meets.
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import InadmissibleYZError, SupportMismatchError, ZeroDenominatorError
from .energy import MultiplicityFn, _arc, _dot
from .field import _BLOCK, Character, PrimeField
from .sets import FpSet, _same_field, primes_upto, symmetric_interval

_UNIT_SLACK = 1e-12


def _weights(w, fp_set: FpSet, name: str):
    """w as a complex array aligned with fp_set.elems, or None for unit
    weights: one weight per element, each in the closed unit disk."""
    if w is None:
        return None
    w = np.asarray(w, dtype=np.complex128)
    if w.shape != (len(fp_set),):
        raise SupportMismatchError(f"{name} has shape {w.shape}, its set {len(fp_set)} elements")
    outside = np.flatnonzero(np.abs(w) > 1 + _UNIT_SLACK)
    if len(outside):
        raise ValueError(f"{name} leaves the unit disk at index {outside[0]}: {w[outside[0]]}")
    return w


def _check_supports(s_set: FpSet, x_set: FpSet, alpha, beta):
    """alpha and beta checked against S and X, as arrays (or None)."""
    _same_field(s_set, x_set)
    return _weights(alpha, s_set, "alpha"), _weights(beta, x_set, "beta")


def _inner_sums(chi: Character, s_set: FpSet, x_set: FpSet, beta) -> np.ndarray:
    """sum_x beta_x chi(s + x) for every s, as a complex vector; beta is an
    array aligned with X, or None for unit weights.

    The quadratic chi with unit weights over an X that fills its shortest
    arc (_arc), of length L from a, sums each row over the window
    [s + a, s + a + L) mod p as the integer 2 #squares - #units, with the
    squares counted by the field's squares_below at the window's ends.  Any
    other chi, weights or X gathers chi's classes at s + x for blocks of rows
    of S, at most _BLOCK points each (one row when X alone is longer).  A
    real chi with unit weights sums each row as the integer
    #{k = 0} - #{k = 1}.  Any other chi or weights index its roots, with a 0
    appended for x = 0, and every row keeps its own np.dot, which a matrix
    product would not match bit for bit.
    """
    p = chi.field.p
    xs, ss = x_set.elems, s_set.elems
    real = chi.order <= 2 and beta is None
    start, length = _arc(xs, p)
    if chi.order == 2 and beta is None and length == len(xs):
        lo = (ss + start) % p
        hi = lo + length
        wraps = hi > p
        hi -= p * wraps
        below = chi.field.squares_below(np.concatenate((lo, hi)))
        n_squares = below[len(ss):] - below[:len(ss)] + wraps * ((p - 1) // 2)
        units = length - (lo == 0) - wraps  # a window holds 0 where it starts at 0 or wraps
        return (2 * n_squares - units).astype(np.complex128)
    bv = beta if beta is not None else np.ones(len(xs))
    values = np.append(chi.roots(), 0)
    out = np.empty(len(ss), dtype=np.complex128)
    rows = max(1, _BLOCK // len(xs))
    for lo in range(0, len(ss), rows):
        pts = ss[lo:lo + rows, None] + xs[None, :]
        pts -= p * (pts >= p)
        k = chi.classes(pts)
        if real:
            out[lo:lo + rows] = np.count_nonzero(k == 0, axis=1) - np.count_nonzero(k == 1, axis=1)
        else:
            for i, row in enumerate(values[k], lo):
                out[i] = np.dot(bv, row)
    return out


def bilinear_sum(
    chi: Character, s_set: FpSet, x_set: FpSet, alpha=None, beta=None
) -> complex:
    """sum_s sum_x alpha_s beta_x chi(s + x); unit weights by default."""
    alpha, beta = _check_supports(s_set, x_set, alpha, beta)
    if not len(s_set) or not len(x_set):
        return 0j
    inner = _inner_sums(chi, s_set, x_set, beta)
    if alpha is None:
        return complex(inner.sum())
    return complex(np.dot(alpha, inner))


def modulus_sum(chi: Character, s_set: FpSet, x_set: FpSet, beta=None) -> float:
    """sum_s |sum_x beta_x chi(s + x)|, the one-sided absolute sum."""
    _, beta = _check_supports(s_set, x_set, None, beta)
    if not len(s_set) or not len(x_set):
        return 0.0
    return float(np.abs(_inner_sums(chi, s_set, x_set, beta)).sum())


# ---------------------------------------------------------------------------
# amplification transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmplificationParams:
    """Amplification step parameters: the prime window [y, 2y], and z, which
    enters only amplification_map's check 4yz <= X (no shift is applied)."""

    y: int
    z: int

    def __post_init__(self):
        if self.y < 1 or self.z < 1:
            raise ValueError("y, z must be positive")


def prime_window(params: AmplificationParams, p: int) -> list:
    """Primes of [y, 2y] reduced mod p (all nonzero residues required); by
    Bertrand's postulate there is at least one for every y >= 1."""
    qs = [q for q in primes_upto(2 * params.y) if q >= params.y]
    for q in qs:
        if q % p == 0:
            raise ZeroDenominatorError(f"window prime {q} vanishes mod {p}")
    return [q % p for q in qs]


def _values(p: int, ss, xs, ys) -> np.ndarray:
    """(x + s) y^-1 mod p over the int64 arrays ss, xs and ys, shaped
    (#Y, #X, #S); y must be nonzero mod p.  The products stay below
    2p^2 < 2^49 at p < 2^24, in int64."""
    yinv = np.array([pow(y, p - 2, p) for y in ys.tolist()], dtype=np.int64)
    return (xs[:, None] + ss[None, :]) * yinv[:, None, None] % p


def amplification_map(s_set: FpSet, x_radius: int, params: AmplificationParams) -> MultiplicityFn:
    """Multiplicities of (lambda, mu), as keys lambda * p + mu, over the
    (s, t, x, y) with s != t in the set, x in the symmetric interval of the
    radius and y in the prime window, where (s+x)/y = lambda, (t+x)/y = mu.
    Keys stay below p^2 < 2^48 at p < 2^24, in int64."""
    fld = s_set.field
    if 4 * params.y * params.z > x_radius:
        raise InadmissibleYZError(
            f"4YZ = {4 * params.y * params.z} exceeds X = {x_radius}"
        )
    window = np.array(prime_window(params, fld.p), dtype=np.int64)
    vals = _values(fld.p, s_set.elems, symmetric_interval(fld, x_radius).elems, window)
    i, j = np.nonzero(~np.eye(len(s_set), dtype=bool))  # ordered pairs s != t
    return MultiplicityFn(*np.unique(vals[..., i] * fld.p + vals[..., j], return_counts=True))


def _row_meets(fld: PrimeField, ss, xs, ys):
    """The intersection sizes M[r, r'] = |V_r & V_r'| over the rows
    r = (y, x) of Y x X, where V_r = {(x + s) y^-1 : s in S} for the int64
    arrays ss, xs and ys; y must be nonzero mod p.

    Yields one np.bincount per block of first rows r, over the keys
    (r - first row of the block) * #rows + r'.  The #Y #X #S values are
    sorted once.  s -> (x + s) y^-1 is injective, so a run of d equal values
    lambda holds d distinct rows, and the entry (r, lambda) meets each of
    them once: a block's pairs (r, r') are the runs of its entries, laid out
    by np.repeat, sum d(lambda)^2 pairs in all.  A block holds at most _BLOCK
    pairs and _BLOCK counts, or a single row; it may cut a run of equal
    lambda, as each of its entries takes its whole run.  The run starts and
    lengths and each entry's length are int32, exact below 2^31 entries;
    cumsum and sum widen them to int64, so the pair totals stay exact.
    """
    n_s, n_rows = len(ss), len(ys) * len(xs)
    vals = _values(fld.p, ss, xs, ys).ravel()
    if not len(vals):
        return
    order = np.argsort(vals)
    starts = np.flatnonzero(np.diff(vals[order], prepend=-1)).astype(np.int32)
    runs = np.diff(starts, append=np.int32(len(vals)))
    # each entry's run of equal lambda, its first sorted entry and length, in
    # (y, x, s) order; vals is not read again, so first takes its buffer
    first, deg = vals, np.empty(len(vals), dtype=np.int32)
    first[order] = np.repeat(starts, runs)
    deg[order] = np.repeat(runs, runs)
    pairs = deg.reshape(n_rows, n_s).sum(axis=1)  # each row's pairs
    ends = np.cumsum(pairs)
    per_block = max(1, _BLOCK // n_rows)
    lo = 0
    while lo < n_rows:
        done = int(ends[lo - 1]) if lo else 0
        hi = min(lo + per_block,
                 max(lo + 1, int(np.searchsorted(ends, done + _BLOCK, side="right"))))
        d = deg[lo * n_s:hi * n_s]
        # pair j of an entry is the sorted entry first + j, of row order[...] // n_s
        at = np.arange(int(ends[hi - 1]) - done) + np.repeat(
            first[lo * n_s:hi * n_s] - (np.cumsum(d) - d), d)
        rows = np.repeat(np.arange(hi - lo) * n_rows, pairs[lo:hi])
        yield np.bincount(rows + order[at] // n_s)
        lo = hi


def count_n(s_set: FpSet, x_set: FpSet, y_set: FpSet) -> int:
    """Solutions of (x1+s1)/y1 = (x2+s2)/y2 and (x1+t1)/y1 = (x2+t2)/y2
    with s1 != t1, s2 != t2, counted by row intersections.

    A solution is a pair of rows r1 = (y1, x1), r2 = (y2, x2) with two
    distinct common values lambda != mu of V_r1 and V_r2, each of which
    fixes its s and t, so the count is sum M (M - 1) over _row_meets' M,
    one block of first rows at a time."""
    _same_field(s_set, x_set, y_set)
    if 0 in y_set:
        raise ZeroDenominatorError("denominator set contains 0")
    return sum(_dot(m, m) - int(m.sum())
               for m in _row_meets(s_set.field, s_set.elems, x_set.elems, y_set.elems))


def count_n_bruteforce(s_set: FpSet, x_set: FpSet, y_set: FpSet) -> int:
    """Pairwise enumeration of the defining system; oracle for count_n.

    Over every pair of tuples (s1, t1, x1, y1), (s2, t2, x2, y2) with s != t
    it tests (x1 + s1) y2 - (x2 + s2) y1 and (x1 + t1) y2 - (x2 + t2) y1 for
    0 mod p; each product stays below p^2 < 2^48 at p < 2^24.  The first test
    runs on a block of first tuples at a time, and the second on the pairs
    that pass it.  A block's two int64 products hold at most _BLOCK entries
    together (one first tuple when there are more tuples): at _BLOCK pairs a
    block, they made `fplab oracles` the command with the highest peak RSS.
    """
    _same_field(s_set, x_set, y_set)
    if 0 in y_set:
        raise ZeroDenominatorError("denominator set contains 0")
    p = s_set.field.p
    ss, xs, ys = s_set.elems, x_set.elems, y_set.elems
    i, j = np.nonzero(ss[:, None] != ss[None, :])  # the (s, t) pairs with s != t
    # the tuples (s, t, x, y), flattened to x + s, x + t and y
    xs_plus_s = np.repeat((xs[None, :] + ss[i, None]).ravel() % p, len(ys))
    xs_plus_t = np.repeat((xs[None, :] + ss[j, None]).ravel() % p, len(ys))
    y = np.tile(ys, len(i) * len(xs))
    rows = max(1, _BLOCK // max(1, 2 * len(y)))
    count = 0
    for lo in range(0, len(y), rows):
        first = slice(lo, lo + rows)
        d = xs_plus_s[first, None] * y
        d -= xs_plus_s * y[first, None]
        d %= p
        one, two = np.nonzero(d == 0)  # the pairs of tuples that pass the first test
        one += lo
        count += np.count_nonzero((xs_plus_t[one] * y[two] - xs_plus_t[two] * y[one]) % p == 0)
    return count


# ---------------------------------------------------------------------------
# complete product sums
# ---------------------------------------------------------------------------

def complete_product_sum(chi: Character, shifts) -> complex:
    """sum over lambda in F_p of prod_i chi(lambda + z_i) * conj(chi)(lambda + z_{r+i}).

    shifts lists the 2r shift values, first the r plain ones then the r
    conjugated ones.  Terms where any argument vanishes contribute 0.
    """
    shifts = tuple(shifts)
    if len(shifts) % 2 or not shifts:
        raise ValueError("need an even, positive number of shifts")
    r = len(shifts) // 2
    p = chi.field.p
    lam = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    valid = np.ones(p, dtype=bool)
    for i, z in enumerate(shifts):
        k = chi.classes((lam + z) % p)
        valid &= k >= 0
        acc += k if i < r else -k
    return complex(chi.roots()[acc[valid] % chi.order].sum())


def weil_applicable(chi: Character, shifts) -> bool:
    """True when the shifted product is not a perfect power of order ord(chi),
    i.e. some shift's multiplicity difference is nonzero mod the order.
    Permutation-equal halves are always degenerate."""
    if chi.is_principal:
        return False
    shifts = tuple(shifts)
    r = len(shifts) // 2
    d = chi.order
    p = chi.field.p
    mult = {}
    for z in shifts[:r]:
        mult[z % p] = mult.get(z % p, 0) + 1
    for z in shifts[r:]:
        mult[z % p] = mult.get(z % p, 0) - 1
    return any(v % d for v in mult.values())


def weil_bound(p: int, r: int) -> float:
    """(2r - 1) sqrt(p), the complete-sum bound for nondegenerate products."""
    return (2 * r - 1) * sqrt(p)
