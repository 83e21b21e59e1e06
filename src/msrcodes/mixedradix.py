"""Mixed-radix coordinate calculus for array-code symbol indexing.

A node stores ell = s * base^ndigits symbols, where the code fixes the
b-block count s.  Symbol tau splits as tau = b * a_count + a, and only a has
digits: a = sum_i a_i * base^(i-1) with 1-based digit positions (least
significant digit first).  Digit positions are 1-based throughout so index
expressions stay transcribable.

This module is the one home of the digit arithmetic: the encoder's point
table and every repair-group builder go through CoordinateSystem.digit and
CoordinateSystem.shift_digits; digits expands one index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ParameterError


@dataclass(frozen=True)
class CoordinateSystem:
    base: int  # digit alphabet size
    ndigits: int  # number of digits in a

    def __post_init__(self):
        if self.base < 1 or self.ndigits < 1:
            raise ParameterError("base and ndigits must be >= 1")

    @property
    def a_count(self) -> int:
        return self.base**self.ndigits

    # -- digit access ----------------------------------------------------

    def digits(self, a: int) -> tuple:
        """Base-ary expansion of a, least significant digit first."""
        if not (0 <= a < self.a_count):
            raise ParameterError(f"a={a} outside [0, {self.a_count - 1}]")
        out = []
        for _ in range(self.ndigits):
            out.append(a % self.base)
            a //= self.base
        return tuple(out)

    def digit(self, a, i: int):
        """Digit at 1-based position i; works on ints and ndarrays.  Taken as
        q - (q // base) * base for q = a // base^(i-1): numpy divides an
        int64 array by a scalar fast, but has no fast path for its %."""
        if not (1 <= i <= self.ndigits):
            raise ParameterError(f"position {i} outside [1, {self.ndigits}]")
        q = a // self.base ** (i - 1)
        return q - q // self.base * self.base

    def shift_digits(self, a, positions: Sequence[int], v: int):
        """Add v cyclically (mod base) to every digit of a at the given positions."""
        if len(set(positions)) != len(positions):
            raise ParameterError("duplicate positions")
        out = a
        for pos in positions:
            dig = self.digit(a, pos)
            out = out + ((dig + v) % self.base - dig) * self.base ** (pos - 1)
        return out
