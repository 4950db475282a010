"""Constructors for every set species the harness uses, plus sumset algebra.

Sets are immutable sorted residue tuples.  Random sets use Mersenne Twister
rejection sampling so a (p, n, seed) triple reproduces bit-exactly.
"""

import random
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import (
    FieldMismatchError,
    LengthOutOfRangeError,
    NotADivisorError,
    SizeOutOfRangeError,
)
from .field import PrimeField

@dataclass(frozen=True, eq=False)
class FpSet:
    """A finite subset of F_p: sorted residues."""

    field: PrimeField
    elems: tuple

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __contains__(self, x):
        i = bisect_left(self.elems, x)
        return i < len(self.elems) and self.elems[i] == x

    def __eq__(self, other):
        return (
            isinstance(other, FpSet)
            and other.field.p == self.field.p
            and other.elems == self.elems
        )

    def __hash__(self):
        return hash((self.field.p, self.elems))

    def __repr__(self):
        body = ",".join(map(str, self.elems[:8]))
        if len(self.elems) > 8:
            body += ",..."
        return f"FpSet(p={self.field.p}, {{{body}}})"

    def as_set(self) -> frozenset:
        return frozenset(self.elems)


def _same_field(*sets):
    p = sets[0].field.p
    for s in sets[1:]:
        if s.field.p != p:
            raise FieldMismatchError(f"p = {p} vs p = {s.field.p}")


def from_elements(field: PrimeField, elems) -> FpSet:
    """Normalize arbitrary residues into a sorted duplicate-free FpSet."""
    p = field.p
    reduced = sorted({x % p for x in elems})
    return FpSet(field, tuple(reduced))


def interval(field: PrimeField, a: int, length: int) -> FpSet:
    """The interval {a+1, ..., a+length} reduced mod p."""
    if not 1 <= length < field.p:
        raise LengthOutOfRangeError(
            f"interval length {length} not in [1, {field.p - 1}]"
        )
    p = field.p
    return FpSet(field, tuple(sorted((a + i) % p for i in range(1, length + 1))))


def symmetric_interval(field: PrimeField, radius: int) -> FpSet:
    """The symmetric interval {-radius, ..., radius} reduced mod p."""
    if radius < 0 or 2 * radius + 1 > field.p:
        raise LengthOutOfRangeError(
            f"radius {radius}: need 0 <= 2*radius+1 <= {field.p}"
        )
    p = field.p
    return FpSet(field, tuple(sorted(x % p for x in range(-radius, radius + 1))))


def subgroup(field: PrimeField, order: int) -> FpSet:
    """The unique multiplicative subgroup of the given order.

    order must divide p-1; the subgroup is {g^(k*(p-1)/order)}.
    """
    p = field.p
    if order < 1 or (p - 1) % order != 0:
        raise NotADivisorError(f"{order} does not divide p-1 = {p - 1}")
    h = (p - 1) // order
    gen = pow(field.g, h, p)
    elems = []
    acc = 1
    for _ in range(order):
        elems.append(acc)
        acc = acc * gen % p
    return FpSet(field, tuple(sorted(elems)))


def poly_image(coeffs, domain: FpSet) -> FpSet:
    """Image set {f(a) : a in domain}.

    coeffs lists the polynomial's coefficients from constant term upward;
    degree must be at least 1 after reduction mod p.  One numpy Horner pass
    evaluates f; each step acc * x + c stays below p^2 < 2^48 at p < 2^24.
    """
    p = domain.field.p
    reduced = [c % p for c in coeffs]
    while reduced and reduced[-1] == 0:
        reduced.pop()
    if len(reduced) < 2:
        raise ValueError("polynomial must have degree >= 1 mod p")
    xs = np.asarray(domain.elems, dtype=np.int64)
    acc = np.zeros_like(xs)
    for c in reversed(reduced):
        acc = (acc * xs + c) % p
    return FpSet(domain.field, tuple(sorted(set(acc.tolist()))))


def primes_upto(n: int) -> list:
    """All primes <= n by a plain sieve."""
    if n < 2:
        return []
    mark = bytearray([1]) * (n + 1)
    mark[0] = mark[1] = 0
    d = 2
    while d * d <= n:
        if mark[d]:
            mark[d * d :: d] = bytearray(len(mark[d * d :: d]))
        d += 1
    return [i for i in range(2, n + 1) if mark[i]]


def random_set(field: PrimeField, n: int, seed: int) -> FpSet:
    """Uniform n-subset of F_p, reproducible from (p, n, seed).

    Scheme: Mersenne Twister seeded with `seed`; draw residues with
    rng.randrange(p) and reject repeats until n distinct values are held.
    """
    p = field.p
    if not 0 <= n <= p:
        raise SizeOutOfRangeError(f"requested {n} elements from a field of {p}")
    rng = random.Random(seed)
    chosen = set()
    while len(chosen) < n:
        chosen.add(rng.randrange(p))
    return FpSet(field, tuple(sorted(chosen)))


def sumset(a: FpSet, b: FpSet, sign: str = "+") -> FpSet:
    """{x + y} or {x - y} mod p over all pairs."""
    _same_field(a, b)
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    xs = np.asarray(a.elems, dtype=np.int64)[:, None]
    ys = np.asarray(b.elems, dtype=np.int64)[None, :]
    out = (xs + ys if sign == "+" else xs - ys) % a.field.p
    return FpSet(a.field, tuple(np.unique(out).tolist()))
