"""Prime-field arithmetic GF(p).

The :class:`PrimeField` methods act on Python ints and on numpy int64 arrays
of canonical residues alike; the hot paths (encoding, repair solves) pass
arrays.  Products of two residues must fit in int64, hence the p < 2^31 cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

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

    def residues(self, values) -> np.ndarray:
        """values as int64 residues in [0, p), reduced only if an entry lies
        outside that range (checked in values' own dtype, so u64 entries
        >= 2^63 reduce exactly); int64 residues come back uncopied.  The check
        is one pass (a max) for int64, read as uint64 so that a negative entry
        reads >= 2^63, and for unsigned dtypes."""
        x = np.asarray(values)
        seen = x.view(np.uint64) if x.dtype == np.int64 else x
        if x.size and ((seen.dtype.kind != "u" and seen.min() < 0) or seen.max() >= self.p):
            x = x % self.p
        return x.astype(np.int64, copy=False)

    def add(self, x, y):
        return (x + y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def inv(self, x):
        """Multiplicative inverse via x^(p-2); raises on zero input."""
        if np.any(np.asarray(x) % self.p == 0):
            raise ZeroDivisionError("inverse of zero in GF(%d)" % self.p)
        return self.pow(x, self.p - 2)

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

    def __repr__(self):
        return f"GF({self.p})"
