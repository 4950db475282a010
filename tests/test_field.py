import cmath
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fplab.errors import (
    IndexOutOfRangeError,
    NotPrimeError,
    TooLargeError,
    TooSmallError,
)
from fplab import field
from fplab.field import build_field, character, is_prime, least_primitive_root
from library import chi_exponent, chi_value

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_is_prime_basics():
    assert [n for n in range(2, 40) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
    ]
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(1048573)  # largest prime under the default cap
    assert not is_prime(1048575)


def test_build_field_examples():
    f5 = build_field(5)
    assert f5.g == 2
    assert f5.ind[4] == 2
    assert build_field(7).g == 3  # 2 is not a generator mod 7, 3 is
    with pytest.raises(NotPrimeError):
        build_field(4)


def test_build_field_rejects_two_and_large():
    with pytest.raises(TooSmallError):
        build_field(2)
    with pytest.raises(TooLargeError):
        build_field(16777259)  # the least prime above the cap P_CEILING = 2^24


def test_least_primitive_root_agrees_with_exhaustion():
    for p in SMALL_PRIMES:
        g = least_primitive_root(p)
        powers = {pow(g, k, p) for k in range(p - 1)}
        assert powers == set(range(1, p))
        # nothing smaller generates
        for h in range(2, g):
            assert {pow(h, k, p) for k in range(p - 1)} != set(range(1, p))


@pytest.mark.parametrize("p", SMALL_PRIMES + [101, 257])
def test_index_round_trip(p):
    fld = build_field(p)
    for x in range(1, p):
        assert pow(fld.g, int(fld.ind[x]), p) == x


@pytest.mark.parametrize("p, block", [(1048573, None), (65537, None), (65537, 1), (65537, 1000),
                                      (8191, 5)])
def test_index_table_built_in_blocks(p, block, monkeypatch):
    # b = isqrt(p - 1) + 1 rows of powers, _BLOCK // b of them per block:
    # 64 blocks at 1048573, 5 at 65537 (the last 4 rows), one row each at
    # block 1, 86 blocks at block 1000 (the last one row), and one row of 91
    # per block at 8191 with block 5, smaller than a row
    shipped = build_field(p).ind  # built in blocks of the shipped _BLOCK
    if block is not None:
        monkeypatch.setattr(field, "_BLOCK", block)
    fld = build_field(p)
    p, g, ind = fld.p, fld.g, fld.ind
    assert ind[0] == -1 and ind[1] == 0
    assert np.array_equal(np.sort(ind[1:]), np.arange(p - 1))
    # ind[g x] = ind[x] + 1 mod (p - 1) for every x, which with ind[1] = 0
    # is g^ind[x] = x for every x
    x = np.arange(1, p, dtype=np.int64)
    assert np.array_equal(ind[g * x % p], (ind[x] + 1) % (p - 1))
    assert np.array_equal(ind, shipped)


def _values(chi, xs):
    """chi at the residues xs from its classes and roots: roots()[k], and 0
    where k = -1, in the shape of xs."""
    ks = chi.classes(np.asarray(xs, dtype=np.int64))
    assert ks.shape == np.shape(xs) and ks.dtype == np.int64
    assert ((ks >= -1) & (ks < chi.order)).all()
    return np.where(ks < 0, 0, chi.roots()[np.maximum(ks, 0)])


def test_character_examples():
    f5 = build_field(5)
    principal = character(f5, 0)
    assert chi_value(principal, 0) == 0
    for x in range(1, 5):
        assert abs(chi_value(principal, x) - 1) < 1e-9
    quadratic = character(f5, 2)
    assert abs(chi_value(quadratic, 2) - (-1)) < 1e-9  # Legendre symbol (2|5) = -1
    f7 = build_field(7)
    assert character(f7, 3).order == 2
    with pytest.raises(IndexOutOfRangeError):
        character(f5, 4)
    with pytest.raises(IndexOutOfRangeError):
        character(f5, -1)


def test_quadratic_character_is_legendre():
    for p in (5, 7, 11, 13):
        fld = build_field(p)
        chi = character(fld, (p - 1) // 2)
        squares = {x * x % p for x in range(1, p)}
        for x in range(1, p):
            want = 1 if x in squares else -1
            assert abs(chi_value(chi, x) - want) < 1e-9


def test_multiplicativity_bulk():
    fld = build_field(101)
    chi = character(fld, 7)
    rng = random.Random(0)
    for _ in range(10_000):
        x = rng.randrange(1, 101)
        y = rng.randrange(1, 101)
        assert abs(chi_value(chi, x * y % 101) - chi_value(chi, x) * chi_value(chi, y)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from(SMALL_PRIMES),
    m=st.integers(min_value=0, max_value=28),
    x=st.integers(min_value=1, max_value=200),
    y=st.integers(min_value=1, max_value=200),
)
def test_multiplicativity_property(p, m, x, y):
    fld = build_field(p)
    chi = character(fld, m % (p - 1))
    if x % p == 0 or y % p == 0:
        return
    assert abs(chi_value(chi, x * y) - chi_value(chi, x) * chi_value(chi, y)) < 1e-9


def test_orthogonality():
    for p in (5, 7, 13):
        fld = build_field(p)
        for m in range(p - 1):
            chi = character(fld, m)
            total = sum(chi_value(chi, x) for x in range(1, p))
            if m == 0:
                assert abs(total - (p - 1)) < 1e-9
            else:
                assert abs(total) < 1e-9


@pytest.mark.parametrize("p", [3, 31, 1048573])
def test_tables_are_read_only_int32(p):
    fld = build_field(p)
    assert fld.ind.dtype == np.int32 and fld.ind.shape == (p,)
    assert not fld.ind.flags.writeable
    with pytest.raises(ValueError):
        fld.ind[1] = 0
    assert fld.ind[0] == -1
    rng = random.Random(p)
    for x in [1, 2, p - 2, p - 1] + [rng.randrange(1, p) for _ in range(20)]:
        assert pow(fld.g, int(fld.ind[x]), p) == x % p
        assert type(chi_exponent(character(fld, 1), x)) is int


def test_values_table_matches_pointwise():
    # classes() index the order-many roots; chi_value reads the root of the
    # exponent e off ind
    fld = build_field(31)
    for m in range(30):
        chi = character(fld, m)
        assert len(chi.roots()) == chi.order
        tab = _values(chi, np.arange(31))
        assert tab[0] == 0
        for x in range(1, 31):
            assert abs(tab[x] - chi_value(chi, x)) < 1e-12
    p = 1048573
    quadratic = character(build_field(p), (p - 1) // 2)
    rng = random.Random(5)
    xs = [0, 1, 2, p - 2, p - 1] + [rng.randrange(1, p) for _ in range(50)]
    for x, value in zip(xs, _values(quadratic, xs)):
        legendre = 0 if x == 0 else 1 if pow(x, (p - 1) // 2, p) == 1 else -1
        assert abs(value - chi_value(quadratic, x)) < 1e-12
        assert abs(value - legendre) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([3, 5, 13, 31, 1048573]),
    data=st.data(),
)
def test_character_at_property(p, data):
    # every m at small p, m near 0 and p - 1 or random at 2^20; x = 0 and
    # x near p - 1 drawn often; classes() keep the shape of their argument
    chi = character(build_field(p), data.draw(st.one_of(
        st.integers(0, min(3, p - 2)), st.integers(max(0, p - 5), p - 2), st.integers(0, p - 2))))
    elems = st.one_of(st.just(0), st.integers(max(0, p - 3), p - 1), st.integers(0, p - 1))
    shape = data.draw(st.sampled_from([(0,), (1,), (5,), (2, 3), (3, 1, 2)]))
    xs = np.array(data.draw(st.lists(elems, min_size=int(np.prod(shape)),
                                     max_size=int(np.prod(shape)))), dtype=np.int64)
    got = _values(chi, xs.reshape(shape))
    assert got.shape == shape and got.dtype == np.complex128
    for x, value in zip(xs.tolist(), got.ravel()):
        assert abs(value - chi_value(chi, x)) < 1e-12
        assert (value == 0) == (x == 0)


def test_exponent_form():
    fld = build_field(11)
    chi = character(fld, 3)
    for x in range(1, 11):
        e = chi_exponent(chi, x)
        assert abs(chi_value(chi, x) - cmath.exp(2j * cmath.pi * e / 10)) < 1e-12
    assert chi_exponent(chi, 0) == -1
    for m in (3, 4):  # orders 10 and 5: (p - 1)/order = 1 and 2
        chi = character(fld, m)
        step = 10 // chi.order
        ks = chi.classes(np.arange(11, dtype=np.int64))
        assert ks[0] == -1
        for x in range(1, 11):
            e = chi_exponent(chi, x)
            assert ks[x] == e // step
            assert abs(chi.roots()[ks[x]] - cmath.exp(2j * cmath.pi * e / 10)) < 1e-12


@pytest.mark.parametrize("m", [1, (1048573 - 1) // 2, 1048573 - 2])
def test_character_widens_int32_logs(m):
    # m * ind reaches (p - 2)^2 ~ 2^40: a product taken in int32 wraps, so
    # each accessor must widen the gathered logs first; the referee is
    # chi(g^k) = exp(2 pi i m k / (p - 1)) from pow(g, k, p)
    p = 1048573
    fld = build_field(p)
    chi = character(fld, m)
    rng = random.Random(m)
    ks = [0, 1, 2, p - 3, p - 2] + [rng.randrange(p - 1) for _ in range(40)]
    xs = np.array([0] + [pow(fld.g, k, p) for k in ks], dtype=np.int64)
    want = [-1] + [m * k % (p - 1) for k in ks]
    assert [chi_exponent(chi, int(x)) for x in xs] == want
    step = (p - 1) // chi.order
    assert chi.classes(xs).tolist() == [-1] + [e // step for e in want[1:]]
    assert chi.classes(xs).dtype == np.int64
    values = _values(chi, xs)
    assert values[0] == 0
    for value, e in zip(values[1:], want[1:]):
        assert abs(value - cmath.exp(2j * cmath.pi * e / (p - 1))) < 1e-9


def _table_peak(p, table):
    """(tracemalloc peak of building a field, then of reading its table)."""
    tracemalloc.start()
    try:
        fld = build_field(p)
        bare = tracemalloc.get_traced_memory()[1]
        getattr(fld, table)
        return bare, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_field_memory_budget():
    # the int32 ind table is 4 bytes per residue (4.2 MB at 2^20); an int64
    # table alone would be 8.4 MB.  A field builds no table until one is read
    bare, peak = _table_peak(1048573, "ind")
    assert bare < 1e5 and peak <= 6.5e6


def test_squares_bitmap_memory_budget():
    # 1 bit per residue (131 KB at 2^20) and one block of k^2 at a time
    bare, peak = _table_peak(1048573, "squares")
    assert bare < 1e5 and peak <= 1e6


def _unpacked(words, p):
    """The squares words as one bool per residue in [0, p)."""
    return np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")[:p].astype(bool)


@pytest.mark.parametrize("p", [3, 5, 31, 1048573])
def test_squares_bitmap_is_index_parity(p):
    # x != 0 is a square exactly when its discrete log is even; 0 is no
    # nonzero square, and half the units are squares
    fld = build_field(p)
    squares = fld.squares
    assert "ind" not in vars(fld)  # the bitmap is built without the log table
    assert squares.dtype == np.uint64 and squares.shape == ((p + 63) // 64,)
    assert not squares.flags.writeable
    with pytest.raises(ValueError):
        squares[0] = 0
    assert int(np.bitwise_count(squares).sum()) == (p - 1) // 2
    bits = _unpacked(squares, p)
    assert not bits[0] and np.array_equal(bits[1:], fld.ind[1:] % 2 == 0)


def test_squares_bitmap_euler_criterion_at_ceiling():
    p = 16777213
    fld = build_field(p)
    rng = random.Random(p)
    xs = [0, 1, 2, 3, 63, 64, p // 2, p // 2 + 1, p - 2, p - 1] + [rng.randrange(p) for _ in range(200)]
    want = [-1 if x == 0 else 0 if pow(x, (p - 1) // 2, p) == 1 else 1 for x in xs]
    assert character(fld, (p - 1) // 2).classes(np.array(xs, dtype=np.int64)).tolist() == want
    assert "ind" not in vars(fld)


@pytest.mark.parametrize("p", [5, 13, 1048573])
def test_exact_roots_at_orders_1_2_4(p):
    # np.exp(i pi) = -1 + 1.2e-16j: a real character summed through it
    # leaves 1e-14 where the sum is 0.  Orders 1, 2 and 4 take their values
    # exactly, and the real ones read them off the squares bitmap, with no
    # discrete-log table
    fld = build_field(p)
    want = {1: [1], 2: [1, -1], 4: [1, 1j, -1, -1j]}
    for order, roots in want.items():
        chi = character(fld, (p - 1) // order if order > 1 else 0)
        assert chi.order == order
        assert chi.roots().tolist() == roots and chi.roots().dtype == np.complex128
    xs = np.array([0, 1, 2, 3, 4, p - 2, p - 1], dtype=np.int64)
    legendre = [0 if x == 0 else 1 if pow(int(x), (p - 1) // 2, p) == 1 else -1 for x in xs]
    quadratic = _values(character(fld, (p - 1) // 2), xs.reshape(1, -1))
    assert quadratic.shape == (1, len(xs)) and quadratic.dtype == np.complex128
    assert quadratic.ravel().tolist() == legendre and not np.signbit(quadratic.imag).any()
    assert _values(character(fld, 0), xs).tolist() == [0, 1, 1, 1, 1, 1, 1]
    assert "ind" not in vars(fld)
    quartic = character(fld, (p - 1) // 4)
    values = _values(quartic, xs[1:])
    assert set(values.tolist()) <= {1, 1j, -1, -1j}
    assert np.abs(values - [chi_value(quartic, x) for x in xs[1:].tolist()]).max() < 1e-12
    # chi_value takes the exponent off ind, and its value from the same exact
    # roots as classes() index, with no 1e-16 parts from a complex exponential
    for m in (0, (p - 1) // 2, (p - 1) // 4):
        chi = character(fld, m)
        assert [chi_value(chi, x) for x in xs.tolist()] == _values(chi, xs).tolist()
