"""Mixed-radix coordinate calculus for array-code symbol indexing.

A node stores ell = blocks * base^ndigits symbols.  Symbol tau splits as
tau = b * base^ndigits + a, where a has a base-ary digit expansion
a = sum_i a_i * base^(i-1) with 1-based digit positions (least significant
digit first).  Digit positions are 1-based throughout so index expressions
stay transcribable.

This module is the one home of the digit arithmetic: the encoder's point
table and every repair-group builder go through CoordinateSystem.digit and
CoordinateSystem.shift_digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ParameterError


class Coordinate(NamedTuple):
    a: int
    b: int


def cyc_add(x: int, y: int, base: int) -> int:
    """Digit addition modulo base."""
    if not (0 <= x < base and 0 <= y < base):
        raise ParameterError(f"digits {x},{y} out of range for base {base}")
    return (x + y) % base


@dataclass(frozen=True)
class CoordinateSystem:
    base: int  # digit alphabet size
    ndigits: int  # number of digits in a
    blocks: int  # number of b values

    def __post_init__(self):
        if self.base < 1 or self.ndigits < 1 or self.blocks < 1:
            raise ParameterError("base, ndigits and blocks must be >= 1")

    @property
    def a_count(self) -> int:
        return self.base**self.ndigits

    @property
    def ell(self) -> int:
        return self.blocks * self.a_count

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

    def from_digits(self, ds: Sequence[int]) -> int:
        if len(ds) != self.ndigits:
            raise ParameterError("wrong digit count")
        a = 0
        for i in reversed(range(self.ndigits)):
            if not (0 <= ds[i] < self.base):
                raise ParameterError(f"digit {ds[i]} out of range")
            a = a * self.base + ds[i]
        return a

    def digit(self, a, i: int):
        """Digit at 1-based position i; works on ints and ndarrays."""
        if not (1 <= i <= self.ndigits):
            raise ParameterError(f"position {i} outside [1, {self.ndigits}]")
        return (a // self.base ** (i - 1)) % self.base

    def substitute(self, a, positions: Sequence[int], values: Sequence[int]):
        """Replace the digits of a at the given 1-based positions with values.

        Works elementwise when a is an ndarray (values may then also be
        per-element arrays).
        """
        if len(positions) != len(values):
            raise ParameterError("positions and values differ in length")
        if len(set(positions)) != len(positions):
            raise ParameterError("duplicate positions")
        out = a
        for pos, v in zip(positions, values):
            if not (1 <= pos <= self.ndigits):
                raise ParameterError(f"position {pos} outside [1, {self.ndigits}]")
            if isinstance(v, np.ndarray):
                if np.any((v < 0) | (v >= self.base)):
                    raise ParameterError("digit value out of range")
            elif not (0 <= v < self.base):
                raise ParameterError(f"digit value {v} out of range")
            out = out + (v - self.digit(out, pos)) * self.base ** (pos - 1)
        return out

    def shift_digits(self, a, positions: Sequence[int], v: int):
        """Add v cyclically (mod base) to every digit of a at the given positions."""
        if len(set(positions)) != len(positions):
            raise ParameterError("duplicate positions")
        out = a
        for pos in positions:
            dig = self.digit(a, pos)
            out = out + ((dig + v) % self.base - dig) * self.base ** (pos - 1)
        return out

    # -- (a, b) packing ----------------------------------------------------

    def pack(self, a, b):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return b * self.a_count + a
        if not (0 <= a < self.a_count and 0 <= b < self.blocks):
            raise ParameterError(f"(a={a}, b={b}) out of range")
        return b * self.a_count + a

    def unpack(self, tau):
        if isinstance(tau, np.ndarray):
            return tau % self.a_count, tau // self.a_count
        if not (0 <= tau < self.ell):
            raise ParameterError(f"tau={tau} outside [0, {self.ell - 1}]")
        return Coordinate(tau % self.a_count, tau // self.a_count)


def digits(a: int, base: int, n: int) -> tuple:
    return CoordinateSystem(base, n, 1).digits(a)


def substitute(a: int, base: int, n: int, positions: Sequence[int], values: Sequence[int]) -> int:
    return CoordinateSystem(base, n, 1).substitute(a, positions, values)


def pack(a: int, b: int, base: int, n: int, s: int) -> int:
    return CoordinateSystem(base, n, s).pack(a, b)


def unpack(tau: int, base: int, n: int, s: int) -> Coordinate:
    return CoordinateSystem(base, n, s).unpack(tau)
