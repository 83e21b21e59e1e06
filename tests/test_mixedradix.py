import itertools

import numpy as np
import pytest

from msrcodes.errors import ParameterError
from msrcodes.mixedradix import Coordinate, CoordinateSystem


def cyc_add(x: int, v: int, base: int) -> int:
    """Cyclic digit addition: shift_digits on a one-digit system."""
    return CoordinateSystem(base, 1, 1).shift_digits(x, [1], v)


def test_digits_examples():
    assert CoordinateSystem(3, 3, 1).digits(5) == (2, 1, 0)  # 5 = 2 + 1*3
    assert CoordinateSystem(4, 5, 1).digits(0) == (0, 0, 0, 0, 0)
    assert CoordinateSystem(3, 3, 1).digits(26) == (2, 2, 2)


def test_digits_range_check():
    with pytest.raises(ParameterError):
        CoordinateSystem(3, 3, 1).digits(27)
    with pytest.raises(ParameterError):
        CoordinateSystem(3, 3, 1).digits(-1)


def test_substitute_examples():
    # a=5=(2,1,0) base 3: replacing digit 2 with 0 gives (2,0,0)=2
    assert CoordinateSystem(3, 3, 1).substitute(5, [2], [0]) == 2
    assert CoordinateSystem(2, 4, 1).substitute(0, [1, 2], [1, 1]) == 3


def test_substitute_identity():
    cs = CoordinateSystem(3, 4, 1)
    rng = np.random.default_rng(0)
    for a in rng.integers(0, cs.a_count, size=50):
        a = int(a)
        ds = cs.digits(a)
        assert cs.substitute(a, [1, 3], [ds[0], ds[2]]) == a


def test_substitute_idempotent_and_disjoint_commute():
    cs = CoordinateSystem(4, 5, 1)
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = int(rng.integers(0, cs.a_count))
        x = sorted(rng.choice(np.arange(1, 6), size=2, replace=False).tolist())
        v = rng.integers(0, 4, size=2).tolist()
        once = cs.substitute(a, x, v)
        assert cs.substitute(once, x, v) == once
        # disjoint position sets commute
        y = [p for p in range(1, 6) if p not in x][:2]
        w = rng.integers(0, 4, size=len(y)).tolist()
        assert (cs.substitute(cs.substitute(a, x, v), y, w)
                == cs.substitute(cs.substitute(a, y, w), x, v))
    # untouched digits stay put
    a = 123 % cs.a_count
    out = cs.substitute(a, [2], [3])
    for pos in (1, 3, 4, 5):
        assert cs.digit(out, pos) == cs.digit(a, pos)
    assert cs.digit(out, 2) == 3


def test_cyc_add_examples():
    assert cyc_add(2, 2, 3) == 1
    assert cyc_add(1, 1, 2) == 0
    for base in (2, 3, 5):
        for x in range(base):
            assert cyc_add(x, 0, base) == x
    with pytest.raises(ParameterError):  # digit position outside the system
        CoordinateSystem(3, 1, 1).shift_digits(2, [2], 0)


@pytest.mark.parametrize("base", [2, 3, 4, 5])
def test_cyc_add_is_bijection(base):
    for v in range(base):
        image = {cyc_add(x, v, base) for x in range(base)}
        assert image == set(range(base))


def test_pack_unpack_examples():
    assert CoordinateSystem(3, 2, 2).pack(6, 1) == 15
    assert CoordinateSystem(3, 2, 2).unpack(0) == Coordinate(0, 0)
    assert CoordinateSystem(2, 3, 3).unpack(23) == Coordinate(7, 2)


@pytest.mark.parametrize("base,n,s", [(2, 3, 3), (3, 2, 2), (3, 5, 1), (2, 8, 1), (4, 3, 6)])
def test_pack_unpack_roundtrip_exhaustive(base, n, s):
    cs = CoordinateSystem(base, n, s)
    for tau in range(cs.ell):
        a, b = cs.unpack(tau)
        assert cs.pack(a, b) == tau
    with pytest.raises(ParameterError):
        cs.unpack(cs.ell)
    with pytest.raises(ParameterError):
        cs.pack(cs.a_count, 0)


def test_from_digits_roundtrip():
    cs = CoordinateSystem(3, 4, 1)
    for a in range(cs.a_count):
        assert cs.from_digits(cs.digits(a)) == a


def test_shift_digits_matches_manual():
    cs = CoordinateSystem(3, 4, 1)
    for a, v in itertools.product(range(cs.a_count), range(3)):
        shifted = cs.shift_digits(a, [2, 4], v)
        ds = list(cs.digits(a))
        ds[1] = (ds[1] + v) % 3
        ds[3] = (ds[3] + v) % 3
        assert shifted == cs.from_digits(ds)


def test_array_digit_and_substitute():
    cs = CoordinateSystem(3, 3, 2)
    a = np.arange(cs.a_count)
    d2 = cs.digit(a, 2)
    assert np.array_equal(d2, np.array([cs.digit(int(x), 2) for x in a]))
    out = cs.substitute(a, [2], [np.zeros_like(a)])
    assert np.array_equal(out, np.array([cs.substitute(int(x), [2], [0]) for x in a]))
