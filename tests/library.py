"""Set algebra, geometry and character values that only the tests use:
sumsets, the centred second moment of a line spectrum, point-plane
incidence, and chi(x) read pointwise off the discrete log, the referee for
Character.classes."""

from fractions import Fraction

import numpy as np

from fplab.geometry import line_spectrum
from fplab.sets import FpSet, _same_field


def sumset(a, b, sign="+"):
    """{x + y} or {x - y} mod p over all pairs, by one numpy broadcast."""
    _same_field(a, b)
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    xs, ys = a.elems[:, None], b.elems[None, :]
    return FpSet(a.field, np.unique((xs + ys if sign == "+" else xs - ys) % a.field.p))


def line_deviation_l2(a) -> Fraction:
    """Exact sum over all p^2 + p lines, zero-hit lines included, of
    (iota(l) - m)^2 with m = #A^2 / p the mean multiplicity:
    S_2 - 2 m sum_l iota(l) + (p^2 + p) m^2."""
    p = a.field.p
    spectrum = line_spectrum(a)
    m = Fraction(len(a) ** 2, p)
    return spectrum.second_moment - 2 * m * spectrum.total + (p * p + p) * m * m


def plane_contains(plane, point, p: int) -> bool:
    n1, n2, n3, c = plane
    x, y, z = point
    return (n1 * x + n2 * y + n3 * z - c) % p == 0


def chi_exponent(chi, x) -> int:
    """m * ind[x] mod (p-1), or -1 when x = 0 mod p."""
    p = chi.field.p
    x %= p
    if x == 0:
        return -1
    return chi.m * int(chi.field.ind[x]) % (p - 1)


def chi_value(chi, x) -> complex:
    """chi(x) read off ind at one point: roots() at the class
    chi_exponent / ((p-1)/order), and 0 at x = 0."""
    e = chi_exponent(chi, x)
    if e < 0:
        return 0j
    return complex(chi.roots()[e // ((chi.field.p - 1) // chi.order)])
