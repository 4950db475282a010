"""Set algebra and geometry that only the tests use: sumsets, the centred
second moment of a line spectrum, and point-plane incidence."""

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
