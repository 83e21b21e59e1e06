"""Binary Hamming codes and the coset partition they induce on {0,1}^N.

For N = 2^w - 1 the Hamming code V_0 (all vectors whose syndrome vanishes)
together with its single-bit-flip translates V_1..V_N tiles {0,1}^N exactly:
the code is perfect with minimum distance 3, so every vector is within
Hamming distance 1 of exactly one codeword.

Vectors are stored as ints with bit i-1 holding coordinate y_i (LSB = y_1).
The parity-check matrix columns are the binary expansions of 1..N, which makes
the syndrome, read as an integer, equal to the flipped 1-based coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


def _to_int(y) -> int:
    if isinstance(y, (int, np.integer)):
        return int(y)
    return sum(int(bit) << i for i, bit in enumerate(y))


def syndrome_of(y: int) -> int:
    """XOR of the 1-based positions of the set bits (0 for codewords)."""
    s = 0
    pos = 1
    while y:
        if y & 1:
            s ^= pos
        y >>= 1
        pos += 1
    return s


@dataclass(frozen=True)
class CosetPartition:
    w: int
    N: int
    cosets: tuple  # N+1 frozensets of ints; cosets[i] = V_i

    def classify(self, y) -> int:
        """Index i of the coset containing y (0 means the Hamming code itself)."""
        yi = _to_int(y)
        if not (0 <= yi < 1 << self.N):
            raise ParameterError(f"vector outside {{0,1}}^{self.N}")
        if not isinstance(y, (int, np.integer)) and len(y) != self.N:
            raise ParameterError(f"expected length-{self.N} vector")
        return syndrome_of(yi)

    def class_table(self) -> np.ndarray:
        """Coset index per vector-as-int, shape (2^N,)."""
        table = np.empty(1 << self.N, dtype=np.int64)
        for y in range(1 << self.N):
            table[y] = syndrome_of(y)
        return table

    def members(self, i: int, as_tuples: bool = False):
        if not (0 <= i <= self.N):
            raise ParameterError(f"coset index {i} outside [0, {self.N}]")
        if not as_tuples:
            return self.cosets[i]
        return {tuple((y >> b) & 1 for b in range(self.N)) for y in self.cosets[i]}


def build_partition(w: int) -> CosetPartition:
    """Hamming(2, w) coset partition of {0,1}^(2^w - 1)."""
    if w < 1:
        raise ParameterError("w must be >= 1")
    N = (1 << w) - 1
    buckets: list = [set() for _ in range(N + 1)]
    for y in range(1 << N):
        buckets[syndrome_of(y)].add(y)
    return CosetPartition(w, N, tuple(frozenset(b) for b in buckets))
