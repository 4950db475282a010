"""Exact additive energies and representation-function machinery.

`MultiplicityFn` is a representation function kept whole (line spectra, the
amplification fibre): sorted distinct keys and their counts, aligned int64
arrays.  `_convolve` returns only the second moment of its sum counts, taken
on the sets' own arcs when their sums cannot wrap; a dense step adds its
counts as shifted slices where its support is dense and, where it is sparse,
scatters them by np.add.at into one window of _WINDOW sums at a time, so no
length-p array is held.  `e3` keeps difference counts on one lag window
[-h, h] only.  Counts that could pass the 2^62 guard are Python ints, and sums
of products run in int64 only below it, so every count and energy is an exact
integer.  Floats appear only in the Fourier cross-check, which bounds the error
of the orthogonality identity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .field import _BLOCK
from .sets import FpSet, _same_field, _sorted_distinct

_INT64_SAFE = 1 << 62  # exactness guard for int64 counts and sums of products

# A _convolve step over n sums sorts below n / _SORT_SHARE keys and adds
# densely otherwise.  Measured on one step (best of 5, |S| = 8, 128 and 2048,
# the int16 accumulator) at n = p = 1048573 and 16777213: sorting is 2.5-2.9x
# slower at n / 7 keys, 1.2-1.4x at n / 16, 0.75-0.99x at n / 24 and
# 0.5-0.7x at n / 32, and the same on a window of n = 2^20 at p = 16777213.
_SORT_SHARE = 20

# A dense step adds its support's counts at each x in S: as one slice of
# w = max(support) + 1 entries (two where sums wrap) when
# w + _SHIFT_CALL < _SHIFT_SHARE * len(support), by np.add.at otherwise.
# Measured on one step (best of 7-25, |S| = 128, int16, random supports): a
# slice add costs about 1 us a call plus 0.08-0.16 ns an entry, a scattered
# key 2.5-5 ns, so _SHIFT_CALL is one call in entries.  Shifting is 1.0x as
# fast at w / 32 keys at w = 2^16 and 2^20, 1.3-1.6x at w / 16 and 0.5x at
# w / 64; at w = 2^13 it breaks even near 512 keys (w / 16), and at w = 2^10
# it is 0.33x as fast at 128 keys and 2.2x at 512.
_SHIFT_SHARE = 32
_SHIFT_CALL = 8192

# A scattered dense step adds into one window of _WINDOW sums at a time, so it
# holds no length-n array.  Measured on the poly cell's largest T3 (|S| = 128,
# support 8,205, int16; best of 31, 2 CPUs; wall time, then tracemalloc peak),
# windows of 2^15, 2^16, 2^17 and 2^18 against one length-p array: at p =
# 1048573, 8.5, 8.4, 8.0 and 7.8 against 6.7 ms in 1.11, 1.18, 1.31 and 1.57
# against 2.65 MB; at 16777213, 19.2, 16.5, 14.8 and 14.7 against 12.5 ms in
# 0.88, 1.02, 1.15 and 1.41 against 13.2 MB.
_WINDOW = 1 << 17


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
    others[0] x ... (each array sorted distinct residues).

    As in e3, each distinct array's shortest arc (_arc, of length L_i) is
    found first.  When the span n = sum (L_i - 1) + 1 is below p, every set
    is shifted to its arc's start and the sums are taken in the integers,
    all in [0, n), where none wraps: each count is the count of a sum mod p,
    moved by the sum of the starts, so the moment is the same.  Otherwise
    the sums are taken mod p over n = p residues, reduced by subtracting
    p * (sum >= p), cheaper than % p.  A step against S sorts the
    len(support) * |S| keys and sums equal ones below n / _SORT_SHARE keys;
    otherwise it adds the counts densely over [0, n), in one of two forms.
    Where the support fills most of its width w = max(support) + 1,
    w + _SHIFT_CALL < _SHIFT_SHARE * len(support), they are laid out over
    [0, w) once and added at each x in S as one contiguous slice of one
    length-n array, or two where the sums wrap past p.  Otherwise they are
    scattered by np.add.at into one window of _WINDOW sums at a time, in
    _scattered.  The dense arrays take the narrowest dtype that holds the
    step's count bound min(max count * |S|, total): int16 below 2^15, int32
    below 2^31, the counts' own dtype past that.  Counts are int64 below the
    guard and Python ints past it.  A last dense step squares each window in
    place by _dot, never reduced to its support; an earlier one keeps each
    window's support.  Any empty set makes every count 0.
    """
    arrays = [first, *others]
    total = math.prod(map(len, arrays))
    if not total:
        return 0
    arcs = {id(a): _arc(a, p) for a in arrays}
    n = sum(arcs[id(a)][1] - 1 for a in arrays) + 1
    wraps = n >= p
    if not wraps:
        arrays = [np.sort((a - arcs[id(a)][0]) % p) for a in arrays]
    n = min(n, p)
    counts = np.ones(len(first), dtype=np.int64 if total < _INT64_SAFE else object)
    values = arrays[0]
    for step, s in enumerate(arrays[1:], 1):
        if len(values) * len(s) * _SORT_SHARE < n:
            keys = values[:, None] + s[None, :]
            if wraps:
                keys -= p * (keys >= p)
            keys = keys.ravel()
            order = np.argsort(keys)
            keys = keys[order]
            starts = np.flatnonzero(np.diff(keys, prepend=-1))
            counts = np.add.reduceat(np.repeat(counts, len(s))[order], starts)
            values = keys[starts]
            continue
        bound = min(int(counts.max()) * len(s), total)
        weights = counts.astype(np.int16 if bound < 1 << 15
                                else np.int32 if bound < 1 << 31 else counts.dtype, copy=False)
        width = int(values[-1]) + 1
        if width + _SHIFT_CALL < _SHIFT_SHARE * len(values):
            windows = [(0, _shifted(values, weights, s, n, width))]
        else:
            windows = _scattered(values, weights, s, n, wraps)
        if step == len(others):
            return sum(_dot(dense, dense) for _, dense in windows)
        parts = []
        for lo, dense in windows:
            nz = np.flatnonzero(dense)
            parts.append((dense[nz].astype(counts.dtype, copy=False), nz + lo))
        counts, values = (np.concatenate(part) for part in zip(*parts))
    return _dot(counts, counts)


def _shifted(values, weights, s, n, width):
    """The sums of the sorted support values (with weights) and S over
    [0, n), each x in S adding the weights laid out over [0, width) as one
    slice, or two where the sums wrap past n."""
    src = np.zeros(width, dtype=weights.dtype)
    src[values] = weights
    dense = np.zeros(n, dtype=weights.dtype)
    for x in s.tolist():
        head = min(width, n - x)  # below width only where sums wrap
        dense[x:x + head] += src[:head]
        if head < width:
            dense[:width - head] += src[head:]
    return dense


def _scattered(values, weights, s, n, wraps):
    """Yields (lo, the sums of the sorted support values and S over
    [lo, lo + _WINDOW) & [0, n)) for each window that holds a sum, one
    buffer reused.  The rows are the shorter of S and the support and the
    runs the other, doubled with -n where sums wrap, so that the sums of a
    row in a window are one contiguous run of keys, found with
    np.searchsorted.  The runs are gathered and added by np.add.at (weights
    of the buffer's exact dtype, which keeps it fast) in blocks of at most
    _BLOCK keys; a row's weight is its support count, or the count of each
    key of its run when the rows are S."""
    if len(s) <= len(values):
        rows, row_weights, runs, run_weights = s, None, values, weights
    else:
        rows, row_weights, runs, run_weights = values, weights, s, None
    if wraps:
        runs = np.concatenate((runs - n, runs))
        run_weights = None if run_weights is None else np.tile(run_weights, 2)
    buf = np.zeros(min(_WINDOW, n), dtype=weights.dtype)
    stop = np.searchsorted(runs, -rows)
    for lo in range(0, n, _WINDOW):
        hi = min(lo + _WINDOW, n)
        start, stop = stop, np.searchsorted(runs, hi - rows)
        end = np.cumsum(stop - start)
        if not end[-1]:
            continue
        begin = end - (stop - start)
        shift, offset = rows - lo, start - begin
        dense = buf[:hi - lo]
        dense[:] = 0
        for f in range(0, int(end[-1]), _BLOCK):
            # the block's keys f .. f + _BLOCK - 1 of the rows' runs laid end to end
            g = min(f + _BLOCK, int(end[-1]))
            a, b = np.searchsorted(end, f, side="right"), np.searchsorted(begin, g)
            c = np.minimum(end[a:b], g) - np.maximum(begin[a:b], f)
            k = np.repeat(offset[a:b], c)
            k += np.arange(f, g)
            keys = runs.take(k)
            keys += np.repeat(shift[a:b], c)
            np.add.at(dense, keys, run_weights.take(k) if row_weights is None
                      else np.repeat(row_weights[a:b], c))
        yield lo, dense


def _dot(*columns) -> int:
    """Exact sum over i of prod_j columns[j][i], for nonnegative count arrays.

    sum(columns[0]) * prod(max(columns[1:])) bounds every partial product and
    the total, so below the guard int64 is exact: np.einsum widens int16 and
    int32 columns to int64 in buffer-sized slices, never a whole-column copy.
    Past the guard the sum runs in Python ints.
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


def _lag_counts(arr: np.ndarray, p: int, h: int, keys, length: int, pairs) -> np.ndarray:
    """#{(x, y) in A^2 : x - y = d mod p} at each of the sorted lags keys in
    [-h, h], h <= (p - 1)/2, int64.  A set that fills its shortest arc, of
    length L (an interval), has r(d) = max(0, L - |d|) + max(0, L - (p - |d|)),
    the second term the pairs that wrap once L > (p + 1)/2; any other set adds
    up the blocks of its _pairs at their place in keys."""
    if length == len(arr):
        d = np.abs(keys)
        return np.maximum(0, length - d) + np.maximum(0, length - (p - d))
    r = np.zeros(len(keys), dtype=np.int64)
    for d in pairs[1]():
        i = np.searchsorted(keys, d)
        np.add.at(r, i[keys[i % len(keys)] == d], 1)
    return r


def e3(u: FpSet, v: FpSet, w: FpSet) -> int:
    """Number of sextuples with u1 - u2 = v1 - v2 = w1 - w2.

    Every difference of the set on the shortest cyclic arc, of length L, lies
    in [-h, h], h = min(L - 1, (p - 1) / 2), so E3 is summed over that window
    of the distinct sets' _lag_counts, or over the distinct lags of the set
    with the fewest pairs there when it has fewer than 2h + 1: only a set
    that does not fill its arc can, so only such sets are paired."""
    _same_field(u, v, w)
    p = u.field.p
    arrays = {s: s.elems for s in dict.fromkeys((u, v, w))}
    if not all(map(len, arrays.values())):
        return 0
    lengths = {s: _arc(arr, p)[1] for s, arr in arrays.items()}
    h = min((p - 1) // 2, *(length - 1 for length in lengths.values()))
    pairs = {s: _pairs(arr, p, h) for s, arr in arrays.items() if lengths[s] > len(arr)}
    npairs, blocks = min(pairs.values(), key=lambda x: x[0], default=(2 * h + 1, None))
    keys = (_sorted_distinct(np.concatenate(list(blocks()))) if npairs < 2 * h + 1
            else np.arange(-h, h + 1))
    r = {s: _lag_counts(arr, p, h, keys, lengths[s], pairs.get(s)) for s, arr in arrays.items()}
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
