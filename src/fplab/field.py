"""Prime-field substrate: primality, primitive roots, discrete-log tables, characters.

Everything downstream counts exactly in integers.  A field is (p, g), built
anew by each build_field call; each of its two tables is built on first read
and freed with the field.  A character value is held as its class k in
[0, order), an index into the character's `order` roots of unity, converted
to a complex number only when a sum is accumulated.  `squares`, the nonzero
squares as one bit per residue in uint64 words, gives a real character its
classes with no discrete log, and squares_below its sums over windows; no
other module reads the words.  Any other character gathers `ind`, the int32
discrete logs to g (4 bytes per residue), at the points it is evaluated and
takes k = (m * ind[x] mod (p-1)) / ((p-1)/order); gathered logs are widened
to int64 before the product, as m * ind reaches p^2.
"""

import math
from functools import cached_property

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    NotPrimeError,
    TooLargeError,
    TooSmallError,
)

DEFAULT_CAP = 1 << 20  # the default max_p
P_CEILING = 1 << 24  # the most max_p may be raised to: build_field's cap

# Kernels whose temporaries would grow with p (the ind and squares builds) or
# with a whole key matrix (the gathers of the scattered _convolve step, the chi
# gathers of _inner_sums, the collinear ratio keys, the row pairs and counts of
# _row_meets) work through them in blocks of at most _BLOCK entries.  2^14
# against 2^16 (2 CPUs, best of 5-11, warm; wall time, then tracemalloc peak):
# at p = 1048573, poly 13 against 17 ms in 1.3 against 2.5 MB, thm11 5.0
# against 6.4 ms in 0.7 against 2.3 MB and the squares build 3.9-4.9 ms
# either way in 0.5 against 1.7 MB; at p = 16777213, poly 22 against 21 ms in
# 1.2 against 1.9 MB, thm11 77 against 80 ms in 4.9 MB either way and the
# squares build 72 against 74 ms in 2.5 against 3.7 MB.  Measured before the
# squares were packed: tabc 8 ms in 1.1 against 2.2 MB and nsxy (count_n's row
# blocks) 0.55 against 0.45 ms in 0.6 against 1.0 MB at 1048573, and the ind
# build 24 ms either way there and 0.74 against 0.69 s at 16777213.
_BLOCK = 1 << 14

# Witness set makes Miller-Rabin deterministic for n < 3.3e24, far past the cap.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list:
    """Distinct prime factors of n, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def least_primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod p."""
    phi = p - 1
    factors = prime_factors(phi)
    for g in range(2, p):
        if all(pow(g, phi // q, p) != 1 for q in factors):
            return g
    raise NotPrimeError(f"no primitive root mod {p}; {p} is not prime")


class PrimeField:
    """Prime p and its least primitive root g, with two tables built on first
    read and kept for the object's lifetime: the discrete logs `ind` and the
    packed squares bitmap `squares`.

    ind[x] = k for the unique k in [0, p-2] with g^k = x (mod p); ind[0] = -1
    as a sentinel.  ind is a read-only int32 array (p < 2^31), so kernels
    gather from it at the points they use and widen what they gathered to
    int64 before multiplying; the scalar accessors return Python ints.
    squares holds one bit per residue in (p + 63) // 64 read-only uint64
    words: bit x & 63 of word x >> 6 is set exactly for the nonzero squares x.
    Safe to share across workers, which build their own tables.
    """

    def __init__(self, p: int, g: int):
        self.p = p
        self.g = g

    @cached_property
    def ind(self) -> np.ndarray:
        return _index_table(self.p, self.g)

    @cached_property
    def squares(self) -> np.ndarray:
        return _squares_bitmap(self.p)

    def squares_below(self, ts: np.ndarray) -> np.ndarray:
        """#{nonzero squares below t} for each t in [0, p] of the int64 array
        ts, off the squares words: the popcounts of the whole words below t's
        word, summed by one np.add.reduceat between the sorted word indices and
        a cumsum, plus the popcount of t's word below bit t & 63."""
        words = self.squares
        w = ts >> 6
        order = np.argsort(w)
        cuts = np.concatenate(([0], w[order]))
        runs = np.add.reduceat(np.bitwise_count(words), cuts, dtype=np.int64)[:-1]
        runs[cuts[1:] == cuts[:-1]] = 0  # reduceat reads one word where a run is empty
        below = np.empty(len(ts), dtype=np.int64)
        below[order] = np.cumsum(runs)
        low = np.left_shift(np.uint64(1), (ts & 63).astype(np.uint64)) - np.uint64(1)
        return below + np.bitwise_count(words[w] & low)

    def __repr__(self):
        return f"PrimeField(p={self.p}, g={self.g})"


def _index_table(p: int, g: int) -> np.ndarray:
    """The ind table, built from the b x b table of powers
    g^(jb + i) = g^(jb) * g^i, b = isqrt(p - 1) + 1, one block of rows of at
    most _BLOCK entries at a time; every product is below p^2."""
    n = p - 1
    b = math.isqrt(n) + 1
    low = np.array([pow(g, i, p) for i in range(b)], dtype=np.int64)
    high = np.array([pow(g, b * j, p) for j in range(-(-n // b))], dtype=np.int64)
    ind = np.full(p, -1, dtype=np.int32)
    rows = max(1, _BLOCK // b)
    for j in range(0, len(high), rows):
        block = high[j:j + rows, None] * low[None, :]
        block %= p
        k = j * b
        size = min(block.size, n - k)
        ind[block.ravel()[:size]] = np.arange(k, k + size, dtype=np.int32)
    ind.flags.writeable = False
    return ind


def _squares_bitmap(p: int) -> np.ndarray:
    """The squares words: bit q & 63 of word q >> 6 set at q = k^2 mod p for
    k in [1, (p-1)/2], which are all the nonzero squares, each once, so
    adding each bit sets it; _BLOCK values of k at a time, k^2 < p^2."""
    words = np.zeros((p + 63) // 64, dtype=np.uint64)
    half = (p - 1) // 2
    for lo in range(1, half + 1, _BLOCK):
        q = np.arange(lo, min(lo + _BLOCK, half + 1), dtype=np.int64)
        q *= q
        q %= p
        bits = q.astype(np.uint64)
        bits &= np.uint64(63)
        np.left_shift(np.uint64(1), bits, out=bits)
        q >>= 6
        np.add.at(words, q, bits)
    words.flags.writeable = False
    return words


def build_field(p: int) -> PrimeField:
    """Validated field constructor: p prime, 3 <= p <= P_CEILING.

    Deterministic: always the least primitive root.  p = 2 is rejected
    everywhere in this package (trivial multiplicative group).  Each call
    returns a new field, so its tables are freed with it.
    """
    if not isinstance(p, int):
        raise NotPrimeError(f"modulus must be an integer, got {p!r}")
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if p < 3:
        raise TooSmallError("p must be at least 3 (p = 2 is not supported)")
    if p > P_CEILING:
        raise TooLargeError(f"p = {p} exceeds the cap {P_CEILING}")
    return PrimeField(p, least_primitive_root(p))


_EXACT_ROOTS = {1: [1], 2: [1, -1], 4: [1, 1j, -1, -1j]}


class Character:
    """Multiplicative character chi_m on a prime field.

    chi(x) = exp(2*pi*i * m * ind[x] / (p-1)) for x != 0 and chi(0) = 0.
    A value is held as its class k in [0, order), chi(x) = roots()[k], and
    k = -1 at x = 0; complex numbers appear only when sums are evaluated.
    """

    __slots__ = ("field", "m")

    def __init__(self, field: PrimeField, m: int):
        self.field = field
        self.m = m

    def __repr__(self):
        return f"Character(p={self.field.p}, m={self.m})"

    @property
    def is_principal(self) -> bool:
        return self.m == 0

    @property
    def order(self) -> int:
        """Order of chi in the character group."""
        n = self.field.p - 1
        return n // math.gcd(self.m, n) if self.m else 1

    def roots(self) -> np.ndarray:
        """The values exp(2*pi*i*k*step/(p-1)) of chi at every class k in
        [0, order); step = (p-1)/order, and every exponent m * ind[x] mod
        (p-1) is a multiple of it.  Exact at orders 1, 2 and 4, where np.exp
        leaves 1e-16 parts that should be 0."""
        if self.order in _EXACT_ROOTS:
            return np.array(_EXACT_ROOTS[self.order], dtype=np.complex128)
        n = self.field.p - 1
        return np.exp(2j * np.pi * (np.arange(self.order) * (n // self.order)) / n)

    def classes(self, xs: np.ndarray) -> np.ndarray:
        """The class k in [0, order) of chi(x), chi(x) = roots()[k], for every
        residue x in [0, p-1] of the int64 array xs, and -1 at x = 0, as an
        int64 array of the same shape.  A real chi reads k off the squares
        words (principal: 0 at every unit) with no ind; any other gathers
        ind at those points only."""
        if self.order == 2:
            bits = self.field.squares[xs >> 6] >> (xs & 63).astype(np.uint64)
            k = 1 - (bits & np.uint64(1)).astype(np.int64)  # 0 on a square
            k[xs == 0] = -1
            return k
        if self.order == 1:
            return np.where(xs == 0, -1, 0)
        n = self.field.p - 1
        e = self.field.ind[xs]
        k = np.multiply(e, self.m, dtype=np.int64)  # m * ind reaches p^2
        k %= n
        k //= n // self.order
        k[e < 0] = -1
        return k


def character(field: PrimeField, m: int) -> Character:
    """Character with index m in [0, p-2]; m = 0 is the principal character."""
    if not 0 <= m <= field.p - 2:
        raise IndexOutOfRangeError(f"character index {m} not in [0, {field.p - 2}]")
    return Character(field, m)
