"""Exact additive energies and representation-function machinery.

Every representation function has one form, `MultiplicityFn`: the sorted
distinct keys it takes (`values`) and how often it takes each (`counts`), as
aligned int64 arrays.  Energies here, the amplification fibre in `charsums`
and line spectra in `geometry` all use it.  Counts whose total could reach
2^62 are Python ints instead, and every sum of products is computed in int64
only below the same guard, so all counts and energies are exact integers.
Dense length-p accumulators are int32 while the total they count stays below
2^31, 4 bytes per residue.  Floating point appears only in the Fourier
cross-check, which exists to bound the error of the orthogonality identity,
not to produce counts.
"""

import math
from dataclasses import dataclass

import numpy as np

from .field import _BLOCK
from .sets import FpSet, _same_field

_INT64_SAFE = 1 << 62  # exactness guard for int64 counts and sums of products

# A _convolve step sorts below p / _SORT_SHARE keys and adds densely
# otherwise.  Measured at p = 1048573, |S| from 8 to 256: the routes tie near
# p / 7 keys; sorting is 1.8x faster at p / 16 and 2.3x slower at p / 2.
_SORT_SHARE = 7


@dataclass(frozen=True, eq=False)
class MultiplicityFn:
    """Representation function: sorted distinct keys `values` and the
    positive `counts` of each, aligned arrays."""

    values: np.ndarray
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def second_moment(self) -> int:
        return _dot(self.counts, self.counts)

    def at(self, keys: np.ndarray) -> np.ndarray:
        """The count at each key, 0 off the support (binary search)."""
        i = np.searchsorted(self.values, keys)
        hit = i < len(self.values)
        hit[hit] = self.values[i[hit]] == keys[hit]
        out = np.zeros(len(keys), dtype=self.counts.dtype)
        out[hit] = self.counts[i[hit]]
        return out


def _residues(a: FpSet) -> np.ndarray:
    return np.asarray(a.elems, dtype=np.int64)


def _convolve(p: int, first: np.ndarray, others, at=None, moment=False):
    """(values, counts) of x_0 + x_1 + ... mod p over first x others[0] x ...,
    or only the counts at the sorted keys `at`, or, with `moment`, sum counts^2.

    first holds sorted distinct residues, each of others distinct residues.
    Each step against a set S runs on the current support: when the
    len(support) * |S| key matrix has fewer than p / _SORT_SHARE entries it
    sorts the keys and sums equal ones, otherwise it adds the counts into one
    dense length-p array with one np.add.at per block of rows of S, each block
    at most _BLOCK keys (one row when the support alone is longer).  A sum of
    two residues is reduced by subtracting p * (sum >= p), which costs less
    than % p and less than a boolean-mask subtract.  Counts are int64 while
    their total stays below the guard and Python ints past it; the dense
    array is int32 while the total is below 2^31, and its weights take its
    exact dtype, which np.add.at needs to stay fast.  A last dense step is
    never reduced to its support: it is read at `at`, or squared by _dot.
    """
    total = len(first) * math.prod(len(s) for s in others)
    counts = np.ones(len(first), dtype=np.int64 if total < _INT64_SAFE else object)
    values = first
    for step, s in enumerate(others, 1):
        if len(values) * len(s) * _SORT_SHARE < p:
            keys = values[:, None] + s[None, :]
            keys -= p * (keys >= p)
            keys = keys.ravel()
            order = np.argsort(keys)
            keys = keys[order]
            starts = np.flatnonzero(np.diff(keys, prepend=-1))
            counts = np.add.reduceat(np.repeat(counts, len(s))[order], starts)
            values = keys[starts]
        else:
            dense = np.zeros(p, dtype=np.int32 if total < 1 << 31 else counts.dtype)
            rows = max(1, _BLOCK // len(values))
            weights = np.tile(counts.astype(dense.dtype, copy=False), min(rows, len(s)))
            for lo in range(0, len(s), rows):
                keys = s[lo:lo + rows, None] + values[None, :]
                keys -= p * (keys >= p)
                np.add.at(dense, keys.ravel(), weights[:keys.size])
            if step == len(others) and (moment or at is not None):
                return _dot(dense, dense) if moment else dense[at].astype(counts.dtype)
            values = np.flatnonzero(dense)
            counts = dense[values].astype(counts.dtype, copy=False)
    if at is not None:
        return MultiplicityFn(values, counts).at(at)
    return _dot(counts, counts) if moment else (values, counts)


def _dot(*columns) -> int:
    """Exact sum over i of prod_j columns[j][i], for nonnegative count arrays.

    sum(columns[0]) * prod(max(columns[1:])) bounds every partial product and
    the total, so below the guard int64 is exact: np.einsum widens int32
    columns to int64 in buffer-sized slices, never a whole-column copy.  Past
    the guard the sum runs in Python ints.
    """
    if not len(columns[0]):
        return 0
    bound = int(columns[0].sum())
    for col in columns[1:]:
        bound *= int(col.max())
    if bound < _INT64_SAFE:
        return int(np.einsum(",".join("i" * len(columns)) + "->", *columns, dtype=np.int64))
    return sum(math.prod(row) for row in zip(*(col.tolist() for col in columns)))


def diff_multiplicity(a: FpSet) -> MultiplicityFn:
    """Counts of x as a difference u - v with u, v in the set."""
    p = a.field.p
    arr = _residues(a)
    return MultiplicityFn(*_convolve(p, arr, [-arr % p]))


def additive_energy(a: FpSet) -> int:
    """Number of quadruples with u1 + u2 = v1 + v2, t_k([a, a])."""
    return t_k([a, a])


def _difference_bound(a: FpSet) -> int:
    """An upper bound on #(A - A): min(p, n(n - 1) + 1, 2L - 1), where L is
    the length of the shortest cyclic arc holding A (p less the largest gap
    between cyclically consecutive elements, plus one).  Exact for intervals
    and symmetric intervals."""
    arr = _residues(a)
    n = len(arr)
    if not n:
        return 0
    p = a.field.p
    arc = p - int(np.diff(arr, append=arr[0] + p).max()) + 1
    return min(p, n * (n - 1) + 1, 2 * arc - 1)


def e3(u: FpSet, v: FpSet, w: FpSet) -> int:
    """Number of sextuples with u1 - u2 = v1 - v2 = w1 - w2.

    A difference counts only where all three sets take it, so the sum runs
    over the support of the distinct set with the least _difference_bound:
    that set's r_- is built, and each other set's is counted at those keys
    only.
    """
    _same_field(u, v, w)
    p = u.field.p
    first, *rest = sorted(dict.fromkeys((u, v, w)), key=_difference_bound)
    base = diff_multiplicity(first)
    r = {first: base.counts}
    for s in rest:
        arr = _residues(s)
        r[s] = _convolve(p, arr, [-arr % p], at=base.values)
    return _dot(*(r[s] for s in (u, v, w)))


def e3_bruteforce(u: FpSet, v: FpSet, w: FpSet) -> int:
    """Literal enumeration of the e3 equation over all sextuples; oracle only.

    The differences u1 - u2, v1 - v2 and w1 - w2 mod p are compared for every
    (u1, u2, v1, v2, w1, w2), for a block of (u1, u2) pairs at a time, at
    most _BLOCK sextuples (one pair when a pair alone has more).
    """
    _same_field(u, v, w)
    p = u.field.p
    du, dv, dw = (((arr[:, None] - arr[None, :]) % p).ravel()
                  for arr in map(_residues, (u, v, w)))
    rows = max(1, _BLOCK // max(1, len(dv) * len(dw)))
    count = 0
    for lo in range(0, len(du), rows):
        d = du[lo:lo + rows, None, None]
        count += np.count_nonzero((d == dv[None, :, None]) & (d == dw[None, None, :]))
    return count


def t_k(sets) -> int:
    """Number of 2k-tuples with u_1 + ... + u_k = v_1 + ... + v_k.

    sets lists the k source sets (repeat a set for the symmetric energy);
    t_k([s, s]) is the additive energy.
    """
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one set")
    _same_field(*sets)
    arrays = [_residues(s) for s in sets]
    return _convolve(sets[0].field.p, arrays[0], arrays[1:], moment=True)


def t_k_fourier(sets) -> float:
    """(1/p) * sum_lambda prod_j |sum_{v in S_j} e_p(lambda v)|^2."""
    _same_field(*sets)
    p = sets[0].field.p
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    lam = np.arange(p, dtype=np.int64)
    prod = np.ones(p, dtype=np.float64)
    for s in sets:
        acc = np.zeros(p, dtype=np.complex128)
        for v in s.elems:
            acc += roots[(lam * v) % p]
        prod *= np.abs(acc) ** 2
    return float(prod.sum() / p)


def t_k_fourier_check(sets) -> float:
    """|t_k - its Fourier evaluation|; contract: below 1e-6 relative."""
    return abs(t_k(sets) - t_k_fourier(sets))
