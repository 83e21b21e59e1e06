"""Mixed-radix coordinate calculus for array-code symbol indexing.

A node stores ell = s * base^ndigits symbols, where the code fixes the
b-block count s.  Symbol tau splits as tau = b * a_count + a, and only a has
digits: a = sum_i a_i * base^(i-1) with 1-based digit positions (least
significant digit first).  Digit positions are 1-based throughout so index
expressions stay transcribable.

This module is the one home of the digit arithmetic.  Every per-symbol path
reads digits from CoordinateSystem.digit_table, a uint8 table of every a's
digits built without a division: constructions.apply_table takes it at
each word's base plane (encode, decode, verify_planes and the center), the
repair plan's shifts (shift_digits) gather from it, and erasure_table takes
its rows' digit tuples from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

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

    def _check_position(self, i: int):
        if not (1 <= i <= self.ndigits):
            raise ParameterError(f"position {i} outside [1, {self.ndigits}]")

    def digit_table(self, positions: Optional[Sequence[int]] = None) -> np.ndarray:
        """table[r, a] = digit of a at positions[r] (default 1..ndigits), as
        a (len(positions), a_count) uint8 array, made without a division.
        The row of position i repeats a period of base^i entries, each digit
        base^(i-1) times: arange(base) broadcast into a (base, base^(i-1))
        view of its first period, then copies of its filled prefix, doubling
        it, so that every copy is contiguous (a broadcast over the whole row
        runs an inner loop of base^(i-1) entries: 1 ms per 2^20 at i = 1)."""
        positions = range(1, self.ndigits + 1) if positions is None else positions
        if self.base > 256:
            raise ParameterError(f"base {self.base} has digits beyond uint8")
        table = np.empty((len(positions), self.a_count), dtype=np.uint8)
        for row, i in zip(table, positions):
            self._check_position(i)
            done = self.base**i
            row[:done].reshape(self.base, -1)[...] = np.arange(self.base, dtype=np.uint8)[:, None]
            while done < row.size:
                step = min(done, row.size - done)
                row[done:done + step] = row[:step]
                done += step
        return table

    def shift_digits(self, a, positions: Sequence[int], v: int):
        """Add v cyclically (mod base) to every digit of a at the given
        positions; a is an int or an int array in [0, a_count).  Each
        position's digits come from the digit table and select its step,
        ((c + v) mod base - c) * base^(pos-1) for digit c, from a
        base-entry lookup."""
        if len(set(positions)) != len(positions):
            raise ParameterError("duplicate positions")
        c = np.arange(self.base, dtype=np.int64)
        out = np.asarray(a, dtype=np.int64)
        for row, pos in zip(self.digit_table(positions), positions):
            step = ((c + v) % self.base - c) * self.base ** (pos - 1)
            out = out + np.take(step, np.take(row, a))
        return out
