"""Prime-field arithmetic GF(p).

Scalar operations go through :class:`FieldElement`, which carries its field and
rejects cross-field arithmetic.  The hot paths (encoding, repair solves) use
the :class:`PrimeField` methods directly on numpy int64 arrays of canonical
residues; products of two residues must fit in int64, hence the p < 2^31 cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldMismatchError, ParameterError

_MAX_PRIME = 1 << 31  # (p-1)^2 must fit in signed 64-bit


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    c = max(n, 2)
    while not is_prime(c):
        c += 1
    return c


@dataclass(frozen=True)
class PrimeField:
    """GF(p) for prime p.  All methods accept ints or int64 ndarrays of residues."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ParameterError(f"modulus {self.p} is not prime")
        if self.p >= _MAX_PRIME:
            raise ParameterError(f"modulus {self.p} too large (must be < 2^31)")

    # -- scalar/array kernels ------------------------------------------------

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def inv(self, x):
        """Multiplicative inverse via x^(p-2); raises on zero input."""
        if isinstance(x, np.ndarray):
            if np.any(x % self.p == 0):
                raise ZeroDivisionError("inverse of zero in GF(%d)" % self.p)
            return self.pow(x, self.p - 2)
        if x % self.p == 0:
            raise ZeroDivisionError("inverse of zero in GF(%d)" % self.p)
        return pow(x, self.p - 2, self.p)

    def pow(self, x, e: int):
        """x^e with 0^0 = 1.  e is a non-negative Python int."""
        if e < 0:
            raise ParameterError("negative exponent")
        if isinstance(x, np.ndarray):
            result = np.ones_like(x)
            base = x % self.p
            while e:
                if e & 1:
                    result = (result * base) % self.p
                base = (base * base) % self.p
                e >>= 1
            return result
        return pow(x % self.p, e, self.p)

    # -- element layer -------------------------------------------------------

    def element(self, value: int) -> "FieldElement":
        return FieldElement(value % self.p, self)

    def __contains__(self, value: int) -> bool:
        return 0 <= value < self.p

    def __repr__(self):
        return f"GF({self.p})"


@dataclass(frozen=True)
class FieldElement:
    """A residue in [0, p-1] tagged with its field."""

    value: int
    field: PrimeField

    def __post_init__(self):
        if not (0 <= self.value < self.field.p):
            raise ParameterError(f"value {self.value} outside [0, {self.field.p - 1}]")

    def _check(self, other: "FieldElement"):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.field.add(self.value, other.value), self.field)

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.field.sub(self.value, other.value), self.field)

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.field.mul(self.value, other.value), self.field)

    def __neg__(self):
        return FieldElement(self.field.neg(self.value), self.field)

    def __pow__(self, e: int):
        return FieldElement(self.field.pow(self.value, e), self.field)

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field.inv(self.value), self.field)

    def __int__(self):
        return self.value

