import itertools

import numpy as np
import pytest

from msrcodes.errors import ParameterError
from msrcodes.mixedradix import digit_table, shift_digits


def cyc_add(x: int, v: int, base: int) -> int:
    """Cyclic digit addition: shift_digits on a one-digit system."""
    return shift_digits(base, 1, x, [1], v)


def from_digits(ds, base: int) -> int:
    """Reference: a = sum_i ds[i-1] * base^(i-1), least significant digit first."""
    return sum(dig * base**i for i, dig in enumerate(ds))


def to_digits(a: int, base: int, ndigits: int) -> list:
    """Reference: the floor-divide expansion of a, least significant digit first."""
    return [a // base**i % base for i in range(ndigits)]


def test_digits_examples():
    assert digit_table(3, 3)[:, 5].tolist() == [2, 1, 0]  # 5 = 2 + 1*3
    assert digit_table(4, 5)[:, 0].tolist() == [0, 0, 0, 0, 0]
    assert digit_table(3, 3)[:, 26].tolist() == [2, 2, 2]


def test_cyc_add_examples():
    assert cyc_add(2, 2, 3) == 1
    assert cyc_add(1, 1, 2) == 0
    for base in (2, 3, 5):
        for x in range(base):
            assert cyc_add(x, 0, base) == x
    with pytest.raises(ParameterError):  # digit position outside the system
        shift_digits(3, 1, 2, [2], 0)


@pytest.mark.parametrize("base", [2, 3, 4, 5])
def test_cyc_add_is_bijection(base):
    for v in range(base):
        image = {cyc_add(x, v, base) for x in range(base)}
        assert image == set(range(base))


def test_from_digits_roundtrip():
    table = digit_table(3, 4)
    for a in range(3**4):
        assert from_digits(table[:, a].tolist(), 3) == a
        assert to_digits(a, 3, 4) == table[:, a].tolist()


def test_shift_digits_matches_manual():
    for a, v in itertools.product(range(3**4), range(3)):
        shifted = shift_digits(3, 4, a, [2, 4], v)
        ds = to_digits(a, 3, 4)
        ds[1] = (ds[1] + v) % 3
        ds[3] = (ds[3] + v) % 3
        assert shifted == from_digits(ds, 3)


def test_array_digit_and_shift_match_scalar():
    a = np.arange(3**3)
    d2 = digit_table(3, 3, [2])[0]
    assert d2.tolist() == [to_digits(int(x), 3, 3)[1] for x in a]
    out = shift_digits(3, 3, a, [1, 3], 2)
    assert np.array_equal(out, np.array([shift_digits(3, 3, int(x), [1, 3], 2) for x in a]))


@pytest.mark.parametrize("base, ndigits", [(2, 20), (3, 5), (4, 10), (9, 6)])
def test_digit_matches_floor_divide_and_remainder(base, ndigits):
    a = np.random.default_rng(base).integers(0, base**ndigits, size=500)
    table = digit_table(base, ndigits)
    for i in range(1, ndigits + 1):
        want = (a // base ** (i - 1)) % base
        assert np.array_equal(table[i - 1, a], want)
        assert np.array_equal(digit_table(base, ndigits, [i])[0, a], want)


@pytest.mark.parametrize("base", [2, 3, 4, 5])
@pytest.mark.parametrize("ndigits", [1, 2, 3, 4, 5, 6])
def test_digit_table_is_the_divided_digit_at_every_position(base, ndigits):
    q = np.arange(base**ndigits)
    table = digit_table(base, ndigits)
    assert table.dtype == np.uint8 and table.shape == (ndigits, base**ndigits)
    for i in range(1, ndigits + 1):
        qi = q // base ** (i - 1)
        assert np.array_equal(table[i - 1], qi - qi // base * base)
    # any positions, in any order, and repeated
    picked = [ndigits, 1, ndigits]
    assert np.array_equal(digit_table(base, ndigits, picked), table[[j - 1 for j in picked]])
    # scalar shifts read the same table as array ones
    for v in range(base):
        shifted = shift_digits(base, ndigits, q, [ndigits], v)
        for a in range(0, q.size, max(1, q.size // 50)):
            assert shift_digits(base, ndigits, a, [ndigits], v) == shifted[a]
            ds = to_digits(a, base, ndigits)
            ds[-1] = (ds[-1] + v) % base
            assert shifted[a] == from_digits(ds, base)


def test_digit_table_range_checks():
    with pytest.raises(ParameterError):
        digit_table(3, 2, [3])
    with pytest.raises(ParameterError):
        digit_table(3, 2, [0])
    with pytest.raises(ParameterError):
        digit_table(257, 1)
    for base, ndigits in ((0, 2), (3, 0)):
        with pytest.raises(ParameterError, match="base and ndigits must be >= 1"):
            digit_table(base, ndigits)
        with pytest.raises(ParameterError, match="base and ndigits must be >= 1"):
            shift_digits(base, ndigits, 0, [1], 1)
    # a table may repeat a position; a shift may not, as it would add v twice
    with pytest.raises(ParameterError, match="duplicate positions"):
        shift_digits(3, 2, np.arange(9), [2, 2], 1)
