"""The binary Hamming code on {0,1}^N, N = 2^w - 1, as one syndrome array.

Vector y is an int, bit i-1 holding y_i.  The parity-check columns are 1..N in
binary, so syn[y] is the XOR of the 1-based positions of y's set bits.  The
code V_0 = {y : syn[y] == 0} is perfect (minimum distance 3), so it and its
bit-flip cosets V_i = {y : syn[y] == i} tile {0,1}^N, 2^N / (N+1) members each.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError


def syndromes(N: int) -> np.ndarray:
    """syn[y] for every y in [0, 2^N), shape (2^N,) int64.  Setting bit i of
    the y below 2^i flips position i+1, so the upper half of each doubling is
    the lower half XOR (i+1)."""
    if N < 1 or (N + 1) & N:
        raise ParameterError(f"Hamming length N must be 2^w - 1, got {N}")
    syn = np.zeros(1 << N, dtype=np.int64)
    for i in range(N):
        np.bitwise_xor(syn[:1 << i], i + 1, out=syn[1 << i:2 << i])
    return syn
