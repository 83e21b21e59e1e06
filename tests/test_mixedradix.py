import itertools

import numpy as np
import pytest

from msrcodes.errors import ParameterError
from msrcodes.mixedradix import CoordinateSystem


def cyc_add(x: int, v: int, base: int) -> int:
    """Cyclic digit addition: shift_digits on a one-digit system."""
    return CoordinateSystem(base, 1).shift_digits(x, [1], v)


def from_digits(ds, base: int) -> int:
    """Reference: a = sum_i ds[i-1] * base^(i-1), least significant digit first."""
    return sum(dig * base**i for i, dig in enumerate(ds))


def to_digits(a: int, base: int, ndigits: int) -> list:
    """Reference: the floor-divide expansion of a, least significant digit first."""
    return [a // base**i % base for i in range(ndigits)]


def test_digits_examples():
    assert CoordinateSystem(3, 3).digit_table()[:, 5].tolist() == [2, 1, 0]  # 5 = 2 + 1*3
    assert CoordinateSystem(4, 5).digit_table()[:, 0].tolist() == [0, 0, 0, 0, 0]
    assert CoordinateSystem(3, 3).digit_table()[:, 26].tolist() == [2, 2, 2]


def test_cyc_add_examples():
    assert cyc_add(2, 2, 3) == 1
    assert cyc_add(1, 1, 2) == 0
    for base in (2, 3, 5):
        for x in range(base):
            assert cyc_add(x, 0, base) == x
    with pytest.raises(ParameterError):  # digit position outside the system
        CoordinateSystem(3, 1).shift_digits(2, [2], 0)


@pytest.mark.parametrize("base", [2, 3, 4, 5])
def test_cyc_add_is_bijection(base):
    for v in range(base):
        image = {cyc_add(x, v, base) for x in range(base)}
        assert image == set(range(base))


def test_from_digits_roundtrip():
    cs = CoordinateSystem(3, 4)
    table = cs.digit_table()
    for a in range(cs.a_count):
        assert from_digits(table[:, a].tolist(), 3) == a
        assert to_digits(a, 3, 4) == table[:, a].tolist()


def test_shift_digits_matches_manual():
    cs = CoordinateSystem(3, 4)
    for a, v in itertools.product(range(cs.a_count), range(3)):
        shifted = cs.shift_digits(a, [2, 4], v)
        ds = to_digits(a, 3, 4)
        ds[1] = (ds[1] + v) % 3
        ds[3] = (ds[3] + v) % 3
        assert shifted == from_digits(ds, 3)


def test_array_digit_and_shift_match_scalar():
    cs = CoordinateSystem(3, 3)
    a = np.arange(cs.a_count)
    d2 = cs.digit_table([2])[0]
    assert d2.tolist() == [to_digits(int(x), 3, 3)[1] for x in a]
    out = cs.shift_digits(a, [1, 3], 2)
    assert np.array_equal(out, np.array([cs.shift_digits(int(x), [1, 3], 2) for x in a]))


@pytest.mark.parametrize("base, ndigits", [(2, 20), (3, 5), (4, 10), (9, 6)])
def test_digit_matches_floor_divide_and_remainder(base, ndigits):
    cs = CoordinateSystem(base, ndigits)
    a = np.random.default_rng(base).integers(0, cs.a_count, size=500)
    table = cs.digit_table()
    for i in range(1, ndigits + 1):
        want = (a // base ** (i - 1)) % base
        assert np.array_equal(table[i - 1, a], want)
        assert np.array_equal(cs.digit_table([i])[0, a], want)


@pytest.mark.parametrize("base", [2, 3, 4, 5])
@pytest.mark.parametrize("ndigits", [1, 2, 3, 4, 5, 6])
def test_digit_table_is_the_divided_digit_at_every_position(base, ndigits):
    cs = CoordinateSystem(base, ndigits)
    q = np.arange(cs.a_count)
    table = cs.digit_table()
    assert table.dtype == np.uint8 and table.shape == (ndigits, cs.a_count)
    for i in range(1, ndigits + 1):
        qi = q // base ** (i - 1)
        assert np.array_equal(table[i - 1], qi - qi // base * base)
    # any positions, in any order, and repeated
    picked = [ndigits, 1, ndigits]
    assert np.array_equal(cs.digit_table(picked), table[[j - 1 for j in picked]])
    # scalar shifts read the same table as array ones
    for v in range(base):
        shifted = cs.shift_digits(q, [ndigits], v)
        for a in range(0, cs.a_count, max(1, cs.a_count // 50)):
            assert cs.shift_digits(a, [ndigits], v) == shifted[a]
            ds = to_digits(a, base, ndigits)
            ds[-1] = (ds[-1] + v) % base
            assert shifted[a] == from_digits(ds, base)


def test_digit_table_range_checks():
    with pytest.raises(ParameterError):
        CoordinateSystem(3, 2).digit_table([3])
    with pytest.raises(ParameterError):
        CoordinateSystem(3, 2).digit_table([0])
    with pytest.raises(ParameterError):
        CoordinateSystem(257, 1).digit_table()
