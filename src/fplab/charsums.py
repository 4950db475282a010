"""Bilinear character sums, the amplification transform, and complete
product character sums.

The bilinear sum is sum_{s in S} sum_{x in I} alpha_s beta_x chi(s + x)
with weights in the closed unit disk, each given as a complex array aligned
with its set's sorted elems (None for unit weights).  The amplification
transform substitutes x -> x + y*z over a prime window y in [Y, 2Y] and a
shift range z in (Z, 2Z], which turns the inner sums into complete sums over
F_p whose size the Weil bound controls.
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import (
    EmptyPrimeWindowError,
    InadmissibleYZError,
    SupportMismatchError,
    ZeroDenominatorError,
)
from .energy import MultiplicityFn
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

    chi's classes at s + x are gathered for blocks of rows of S, at most
    _BLOCK points each (one row when X alone is longer), and index its roots
    with a 0 appended for x = 0; every row keeps its own np.dot, which a
    matrix product would not match bit for bit.
    """
    p = chi.field.p
    xs, ss = x_set.elems, s_set.elems
    bv = beta if beta is not None else np.ones(len(xs))
    values = np.append(chi.roots(), 0)
    out = np.empty(len(ss), dtype=np.complex128)
    rows = max(1, _BLOCK // len(xs))
    for lo in range(0, len(ss), rows):
        pts = ss[lo:lo + rows, None] + xs[None, :]
        pts -= p * (pts >= p)
        for i, row in enumerate(values[chi.classes(pts)], lo):
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
    """Amplification step parameters: prime window [y, 2y] and shift range
    (z, 2z]."""

    y: int
    z: int

    def __post_init__(self):
        if self.y < 1 or self.z < 1:
            raise ValueError("y, z must be positive")


def prime_window(params: AmplificationParams, p: int) -> list:
    """Primes of [y, 2y] reduced mod p (all nonzero residues required)."""
    qs = [q for q in primes_upto(2 * params.y) if q >= params.y]
    if not qs:
        raise EmptyPrimeWindowError(f"no primes in [{params.y}, {2 * params.y}]")
    for q in qs:
        if q % p == 0:
            raise ZeroDenominatorError(f"window prime {q} vanishes mod {p}")
    return [q % p for q in qs]


def _fibre_parts(fld: PrimeField, ss, xs, ys):
    """Multiplicities of the keys lambda * p + mu over (s, t, x, y) in the
    int64 arrays ss, xs and ys with s != t, lambda = (x + s)/y and
    mu = (x + t)/y; y must be nonzero mod p.

    Yields one MultiplicityFn per chunk of lambda, in increasing lambda, so
    the chunks concatenate to the whole fibre, sorted.  The (y, x, s) entries
    are sorted by lambda and cut only where lambda changes, so no key spans
    two chunks.  Each entry pairs with the #S - 1 values t != s, and a chunk
    holds at most _BLOCK / 4 keys unless one lambda alone has more; memory is
    O(#Y #X #S) for the entries, never O(#Y #X #S^2) for the fibre.  Keys and
    the products (x + s) y^-1 stay below 2p^2 < 2^49 at p < 2^24, in int64.
    """
    p = fld.p
    if len(ss) < 2:
        return
    yinv = np.array([pow(y, p - 2, p) for y in ys.tolist()], dtype=np.int64)
    vals = ((xs[:, None] + ss[None, :]) * yinv[:, None, None] % p).reshape(-1, len(ss))
    order = np.argsort(vals, axis=None)
    lam = vals.ravel()[order]
    # the offsets where a run of equal lambda starts, and the end
    bounds = np.flatnonzero(np.diff(lam, prepend=-1, append=p))
    # _BLOCK / 4 = 2^14 keys a chunk: at the 8191 sweep cell (106k keys) and
    # at 5.7M keys, chunks of 2^13 to 2^15 keys ran equally fast within noise
    # and 2^16 no faster, while the tracemalloc peak grows with the chunk
    # (0.7 and 3.6 MB at 2^13, 1.2 and 3.9 MB at 2^14, 3.4 and 7.1 MB at 2^16)
    per_chunk = max(1, (_BLOCK >> 2) // (len(ss) - 1))
    ts = np.arange(len(ss))
    i = 0
    while i < len(bounds) - 1:
        # the last run start within per_chunk entries, or the next one
        j = max(i + 1, np.searchsorted(bounds, bounds[i] + per_chunk, side="right") - 1)
        row, col = np.divmod(order[bounds[i]:bounds[j]], len(ss))  # (y, x) row and s
        keys = lam[bounds[i]:bounds[j], None] * p + vals[row]
        yield MultiplicityFn(*np.unique(keys[ts != col[:, None]], return_counts=True))
        i = j


def amplification_map(s_set: FpSet, x_radius: int, params: AmplificationParams) -> MultiplicityFn:
    """Multiplicities of (lambda, mu), as keys lambda * p + mu, over the
    (s, t, x, y) with s != t in the set, x in the symmetric interval of the
    radius and y in the prime window, where (s+x)/y = lambda, (t+x)/y = mu."""
    fld = s_set.field
    if 4 * params.y * params.z > x_radius:
        raise InadmissibleYZError(
            f"4YZ = {4 * params.y * params.z} exceeds X = {x_radius}"
        )
    window = np.array(prime_window(params, fld.p), dtype=np.int64)
    values, counts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for part in _fibre_parts(fld, s_set.elems, symmetric_interval(fld, x_radius).elems, window):
        values.append(part.values)
        counts.append(part.counts)
    return MultiplicityFn(np.concatenate(values), np.concatenate(counts))


def count_n(s_set: FpSet, x_set: FpSet, y_set: FpSet) -> int:
    """Solutions of (x1+s1)/y1 = (x2+s2)/y2 and (x1+t1)/y1 = (x2+t2)/y2
    with s1 != t1, s2 != t2, counted through the (lambda, mu) fibration:
    the sum of nu(lambda, mu)^2, one lambda chunk at a time."""
    _same_field(s_set, x_set, y_set)
    if 0 in y_set:
        raise ZeroDenominatorError("denominator set contains 0")
    return sum(part.second_moment
               for part in _fibre_parts(s_set.field, s_set.elems, x_set.elems, y_set.elems))


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
