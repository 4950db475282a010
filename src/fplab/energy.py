"""Exact additive energies and representation-function machinery.

`MultiplicityFn` is a representation function kept whole (line spectra, the
amplification fibre): sorted distinct keys and their counts, aligned int64
arrays.  `_convolve` returns only the second moment of its sum counts, and
`e3` keeps difference counts on one lag window [-h, h] only.  Counts that
could pass the 2^62 guard are Python ints, and sums of products run in int64
only below it, so every count and energy is an exact integer.  Floats count
only in `e3`'s correlation of 0/1 indicators, exact far below 2^53, and in
the Fourier cross-check, which bounds the error of the orthogonality identity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .field import _BLOCK
from .sets import FpSet, _same_field, _sorted_distinct

_INT64_SAFE = 1 << 62  # exactness guard for int64 counts and sums of products

# A _convolve step sorts below p / _SORT_SHARE keys and adds densely
# otherwise.  Measured at p = 1048573, |S| from 8 to 256: the routes tie near
# p / 7 keys; sorting is 1.8x faster at p / 16 and 2.3x slower at p / 2.
_SORT_SHARE = 7

# A pair in _lag_counts costs _PAIR_COST correlation multiply-adds.  Measured at
# p = 1048573 (density 0.05-0.6, arcs of 1,000-12,000, h from L/4 to L - 1) the
# routes tie at 53-94 (quartiles); 50 leans to pairs, O(_BLOCK + h) in memory.
_PAIR_COST = 50


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


def _convolve(p: int, first: np.ndarray, others) -> int:
    """sum counts^2 over the counts of x_0 + x_1 + ... mod p on first x
    others[0] x ... (first sorted, all distinct residues).

    A step against S sorts the len(support) * |S| keys and sums equal ones
    below p / _SORT_SHARE keys; otherwise it adds the counts into one dense
    length-p array, int32 while the total is below 2^31, with one np.add.at
    (weights of its exact dtype, which keeps it fast) per block of rows of S
    of at most _BLOCK keys (one row when the support alone is longer).  Sums
    are reduced by subtracting p * (sum >= p), cheaper than % p.  Counts are
    int64 below the guard and Python ints past it.  A last dense step is
    squared in place by _dot, never reduced to its support.
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
            if step == len(others):
                return _dot(dense, dense)
            values = np.flatnonzero(dense)
            counts = dense[values].astype(counts.dtype, copy=False)
    return _dot(counts, counts)


def _dot(*columns) -> int:
    """Exact sum over i of prod_j columns[j][i], for nonnegative count arrays.

    sum(columns[0]) * prod(max(columns[1:])) bounds every partial product and
    the total, so below the guard int64 is exact: np.einsum widens int32
    columns to int64 in buffer-sized slices, never a whole-column copy.  Past
    the guard the sum runs in Python ints.
    """
    if not len(columns[0]):
        return 0
    bound = int(columns[0].sum()) * math.prod(int(col.max()) for col in columns[1:])
    if bound < _INT64_SAFE:
        return int(np.einsum(",".join("i" * len(columns)) + "->", *columns, dtype=np.int64))
    rows = np.flatnonzero(columns[0])
    return sum(math.prod(row) for row in zip(*(col[rows].tolist() for col in columns)))


def additive_energy(a: FpSet) -> int:
    """Number of quadruples with u1 + u2 = v1 + v2, t_k([a, a])."""
    return t_k([a, a])


def _arc(arr: np.ndarray, p: int):
    """(start, length) of the shortest cyclic arc holding sorted residues."""
    gaps = np.diff(np.concatenate((arr, arr[:1] + p)))
    i = int(gaps.argmax())
    return int(arr[(i + 1) % len(arr)]), p - int(gaps[i]) + 1


def _pairs(arr: np.ndarray, p: int, h: int):
    """(#pairs, blocks): blocks() yields the differences x - y in [-h, h],
    h <= (p - 1)/2, of A's pairs, in rows of whole x cut every _BLOCK pairs (a
    row holds at most min(|A|, 2h + 1)).  np.searchsorted finds each x's
    window [x - h, x + h] in the tripled sorted residues arr."""
    tripled = np.concatenate((arr - p, arr, arr + p))
    lo = np.searchsorted(tripled, arr - h)
    counts = np.searchsorted(tripled, arr + h, side="right") - lo
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(_BLOCK, ends[-1], _BLOCK), side="right")
    bounds = list(dict.fromkeys([0, *cuts.tolist(), len(arr)]))  # a row may span cuts

    def blocks():
        for a, b in zip(bounds, bounds[1:]):
            c = counts[a:b]  # pair k of row i sits at tripled[k + lo[i] + c[i] - ends[i]]
            k = np.arange(ends[a] - c[0], ends[b - 1]) + np.repeat(lo[a:b] + c - ends[a:b], c)
            yield np.repeat(arr[a:b], c) - tripled[k]
    return int(ends[-1]), blocks


def _lag_counts(arr: np.ndarray, p: int, h: int, keys, arc, pairs) -> np.ndarray:
    """#{(x, y) in A^2 : x - y = d mod p} at each of the sorted lags keys in
    [-h, h], int64.  Below L * (2h + 1) / _PAIR_COST pairs, L the length of
    A's arc (start, L), the _pairs blocks are added up at their place in
    keys; otherwise A's 0/1 indicator on its arc is correlated with that on
    [-h, L + h) around it, L * (2h + 1) multiply-adds, exact in float64."""
    (start, length), (npairs, blocks) = arc, pairs
    if npairs * _PAIR_COST >= length * (2 * h + 1):
        z = np.arange(start - h, start + length + h) % p  # np.isin would import numpy.ma
        g = (arr[np.searchsorted(arr, z) % len(arr)] == z).astype(float)
        return np.correlate(g, g[h:h + length], "valid").astype(np.int64)[keys + h]
    r = np.zeros(len(keys), dtype=np.int64)
    for d in blocks():
        if len(keys) > 2 * h:  # the whole window
            np.add.at(r, d + h, 1)
        else:
            i = np.searchsorted(keys, d)
            np.add.at(r, i[keys[i % len(keys)] == d], 1)
    return r


def e3(u: FpSet, v: FpSet, w: FpSet) -> int:
    """Number of sextuples with u1 - u2 = v1 - v2 = w1 - w2.

    Every difference of the set on the shortest cyclic arc, of length L, lies
    in [-h, h], h = min(L - 1, (p - 1) / 2), so E3 is summed over that window
    of the distinct sets' _lag_counts, or over the distinct lags of the set
    with the fewest pairs there when it has fewer than 2h + 1."""
    _same_field(u, v, w)
    p = u.field.p
    arrays = {s: s.elems for s in dict.fromkeys((u, v, w))}
    if not all(map(len, arrays.values())):
        return 0
    arcs = {s: _arc(arr, p) for s, arr in arrays.items()}
    h = min((p - 1) // 2, *(length - 1 for _, length in arcs.values()))
    pairs = {s: _pairs(arr, p, h) for s, arr in arrays.items()}
    npairs, blocks = min(pairs.values(), key=lambda x: x[0])
    keys = (_sorted_distinct(np.concatenate(list(blocks()))) if npairs < 2 * h + 1
            else np.arange(-h, h + 1))
    r = {s: _lag_counts(arr, p, h, keys, arcs[s], pairs[s]) for s, arr in arrays.items()}
    return _dot(*(r[s] for s in (u, v, w)))


def e3_bruteforce(u: FpSet, v: FpSet, w: FpSet) -> int:
    """Literal enumeration of the e3 equation, oracle only: u1 - u2, v1 - v2
    and w1 - w2 mod p compared over every sextuple, a block of (u1, u2) pairs
    at a time, at most _BLOCK sextuples (one pair when a pair alone has more).
    """
    _same_field(u, v, w)
    p = u.field.p
    du, dv, dw = (((arr[:, None] - arr[None, :]) % p).ravel()
                  for arr in (u.elems, v.elems, w.elems))
    rows = max(1, _BLOCK // max(1, len(dv) * len(dw)))
    count = 0
    for lo in range(0, len(du), rows):
        d = du[lo:lo + rows, None, None]
        count += np.count_nonzero((d == dv[None, :, None]) & (d == dw[None, None, :]))
    return count


def t_k(sets) -> int:
    """Number of 2k-tuples with u_1 + ... + u_k = v_1 + ... + v_k over the k
    sets listed; t_k([s, s]) is the additive energy."""
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one set")
    _same_field(*sets)
    return _convolve(sets[0].field.p, sets[0].elems, [s.elems for s in sets[1:]])


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
