import numpy as np
import pytest

from msrcodes.errors import ParameterError
from msrcodes.field import PrimeField, is_prime, next_prime


def test_add_examples():
    f7, f11 = PrimeField(7), PrimeField(11)
    assert f7.add(3, 5) == 1
    assert f7.add(0, 4) == 4
    assert f11.add(10, 10) == 9


def test_mul_examples():
    f7, f11 = PrimeField(7), PrimeField(11)
    assert f7.mul(3, 5) == 1
    assert f7.mul(1, 6) == 6
    assert f11.mul(4, 9) == 3


def test_inv_examples():
    f7, f11 = PrimeField(7), PrimeField(11)
    assert f7.inv(3) == 5
    assert f7.inv(1) == 1
    assert f11.inv(2) == 6
    with pytest.raises(ZeroDivisionError):
        f7.inv(0)


def test_pow_examples():
    f7, f11 = PrimeField(7), PrimeField(11)
    assert f7.pow(3, 2) == 2
    assert f7.pow(0, 0) == 1  # 0^0 = 1 by convention
    assert f11.pow(2, 5) == 10


def test_nonprime_modulus_rejected():
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(ParameterError):
            PrimeField(bad)


def test_modulus_at_or_above_2_to_the_31_rejected():
    assert is_prime(2**31 + 11)
    with pytest.raises(ParameterError, match="too large"):
        PrimeField(2**31 + 11)
    assert PrimeField(2**31 - 1).p == 2**31 - 1


def test_pow_rejects_a_negative_exponent():
    f = PrimeField(7)
    for x in (3, np.array([1, 2, 3])):
        with pytest.raises(ParameterError, match="negative exponent"):
            f.pow(x, -1)


@pytest.mark.parametrize("p", [7, 11, 257, 65537])
def test_field_axioms_random(p):
    f = PrimeField(p)
    rng = np.random.default_rng(p)
    xs = rng.integers(0, p, size=(10_000, 3))
    for x, y, z in xs:
        x, y, z = int(x), int(y), int(z)
        assert f.add(x, y) == f.add(y, x)
        assert f.mul(x, y) == f.mul(y, x)
        assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
        assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
        if x % p:
            assert f.mul(x, f.inv(x)) == 1
        assert f.add(x, (p - x) % p) == 0


@pytest.mark.parametrize("p", [7, 257])
def test_pow_matches_repeated_multiplication(p):
    f = PrimeField(p)
    rng = np.random.default_rng(1)
    for x in rng.integers(0, p, size=50):
        x = int(x)
        acc = 1
        for e in range(17):
            assert f.pow(x, e) == acc
            acc = f.mul(acc, x)


def test_array_ops_match_scalar():
    f = PrimeField(13)
    rng = np.random.default_rng(2)
    x = rng.integers(0, 13, size=100)
    y = rng.integers(0, 13, size=100)
    assert np.array_equal(f.add(x, y), (x + y) % 13)
    assert np.array_equal(f.mul(x, y), (x * y) % 13)
    nz = x[x != 0]
    inv = f.inv(nz)
    assert np.array_equal(f.mul(nz, inv), np.ones_like(nz))
    assert np.array_equal(f.pow(x, 5), np.array([pow(int(v), 5, 13) for v in x]))


def test_primes_helper():
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert next_prime(9) == 11
    assert next_prime(13) == 13
    assert next_prime(25) == 29
    assert next_prime(16) == 17
