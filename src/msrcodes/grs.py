"""Generalized Reed-Solomon machinery on Vandermonde parity checks.

A word (c_1, ..., c_L) on distinct evaluation points (x_1, ..., x_L) satisfies
r parity checks  sum_i x_i^(t-1) * c_i = 0  for t in [r].  Erasure decoding
solves for up to r missing entries; when fewer than r entries are missing the
spare checks act as a consistency test and a nonzero residual raises
CorruptionError.

The batched kernels at the bottom solve many independent Vandermonde systems
at once (one per plane or repair group) on stacked int64 arrays.  Elimination
needs no pivoting: every leading minor of a Vandermonde matrix on distinct
points is itself a Vandermonde determinant, hence nonzero.  Callers run them
over the slices of `slices`, so their temporaries stay near SLICE_BUDGET
elements however many planes or groups a code has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CorruptionError, ParameterError
from .field import PrimeField

ERASED = None


@dataclass
class GrsWord:
    field: PrimeField
    points: tuple
    values: list  # entries are ints or ERASED
    r: int

    def __post_init__(self):
        pts = tuple(int(x) % self.field.p for x in self.points)
        self.points = pts
        if len(set(pts)) != len(pts):
            raise ParameterError("evaluation points must be distinct")
        if len(self.values) != len(pts):
            raise ParameterError("points/values length mismatch")
        if len(pts) < self.r:
            raise ParameterError("word shorter than parity check count")
        self.values = [None if v is ERASED else int(v) % self.field.p for v in self.values]
        if self.erasure_count() > self.r:
            raise ParameterError(
                f"{self.erasure_count()} erasures exceed r={self.r}")

    def erasure_count(self) -> int:
        return sum(1 for v in self.values if v is ERASED)

    def erased_positions(self) -> list:
        return [i for i, v in enumerate(self.values) if v is ERASED]


def _known_rhs(word: GrsWord, positions, r: int) -> np.ndarray:
    """syndrome_rhs over the word's entries at the given positions: shape (r,)."""
    pts = np.array([[word.points[i] for i in positions]], dtype=np.int64)
    vals = np.array([[word.values[i] for i in positions]], dtype=np.int64)
    return syndrome_rhs(word.field, pts, vals, r)[0]


def syndromes(word: GrsWord) -> list:
    """The r parity sums; requires a fully known word."""
    if word.erasure_count():
        raise ParameterError("cannot compute syndromes with erased entries")
    rhs = _known_rhs(word, range(len(word.values)), word.r)
    return ((-rhs) % word.field.p).tolist()


def erasure_decode(word: GrsWord) -> GrsWord:
    """Fill erased entries so all r parity checks vanish.

    With e erasures the first e checks determine the solution uniquely; any
    remaining checks are verified and a nonzero residual signals corruption.
    """
    e = word.erasure_count()
    if e:
        erased = word.erased_positions()
        known = [i for i, v in enumerate(word.values) if v is not ERASED]
        pts = np.array([[word.points[i] for i in erased]], dtype=np.int64)
        x = solve_vandermonde(word.field, pts, _known_rhs(word, known, e)[None])[0]
        filled = list(word.values)
        for pos, val in zip(erased, x.tolist()):
            filled[pos] = int(val)
    else:
        filled = list(word.values)
    result = GrsWord(word.field, word.points, filled, word.r)
    if any(s != 0 for s in syndromes(result)):
        raise CorruptionError("nonzero GRS residual: known symbols inconsistent")
    return result


def systematic_extend(field: PrimeField, points: Sequence[int], r: int,
                      data: Sequence[int], data_positions: Sequence[int]) -> GrsWord:
    """Extend k data symbols at the given 1-based positions to a full word.

    len(points) - r positions carry data; the rest are solved so all r parity
    checks vanish.
    """
    n = len(points)
    if len(data) != len(data_positions):
        raise ParameterError("data/data_positions length mismatch")
    if len(data) != n - r:
        raise ParameterError(f"expected {n - r} data symbols, got {len(data)}")
    if len(set(data_positions)) != len(data_positions):
        raise ParameterError("duplicate data positions")
    values: list = [ERASED] * n
    for pos, v in zip(data_positions, data):
        if not (1 <= pos <= n):
            raise ParameterError(f"position {pos} outside [1, {n}]")
        values[pos - 1] = int(v) % field.p
    return erasure_decode(GrsWord(field, tuple(points), values, r))


# ---------------------------------------------------------------------------
# batched kernels
# ---------------------------------------------------------------------------

# Elements per kernel temporary (int64, so 2 MiB).  Unsliced, one 18 MiB
# c1(10,6,{(1,8),(1,9)}) block built about 1 GB of temporaries.  On a 2-vCPU
# VM, encode time was flat for budgets 2^14..2^20, and 2^18 beat 2^16 on every
# cluster-benchmark throughput (a 1 MiB cluster has 4096 blocks, so a 2^16
# slice holds only one or two planes or groups).
SLICE_BUDGET = 1 << 18


def slices(count: int, per_item: int):
    """(start, stop) pairs covering range(count), each holding as many items
    as fit SLICE_BUDGET elements at per_item elements each, and at least one."""
    step = max(1, SLICE_BUDGET // max(1, per_item))
    for start in range(0, count, step):
        yield start, min(start + step, count)


def solve_vandermonde(field: PrimeField, points: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve sum_i points[g,i]^t * x[g,i] = rhs[g,t] for t in [0,e) per group g.

    points: (G, e) distinct per row.  rhs: (G, e) or (G, e, R) for multiple
    right-hand sides.  Returns x with rhs's shape.
    """
    p = field.p
    G, e = points.shape
    squeeze = rhs.ndim == 2
    b = rhs[..., None] if squeeze else rhs
    b = b.copy() % p
    if b.shape[:2] != (G, e):
        raise ParameterError("rhs shape mismatch")
    if e == 0:
        return rhs.copy()
    # M[g, t, i] = points[g, i]^t
    M = np.ones((G, e, e), dtype=np.int64)
    for t in range(1, e):
        M[:, t, :] = (M[:, t - 1, :] * points) % p
    for c in range(e):
        piv_inv = field.inv(M[:, c, c].copy())
        M[:, c, c:] = (M[:, c, c:] * piv_inv[:, None]) % p
        b[:, c] = (b[:, c] * piv_inv[:, None]) % p
        for rr in range(c + 1, e):
            f = M[:, rr, c].copy()  # copy: the M-row update below would alias it away
            M[:, rr, c:] = (M[:, rr, c:] - f[:, None] * M[:, c, c:]) % p
            b[:, rr] = (b[:, rr] - f[:, None] * b[:, c]) % p
    for c in range(e - 1, 0, -1):
        for rr in range(c - 1, -1, -1):
            f = M[:, rr, c]
            b[:, rr] = (b[:, rr] - f[:, None] * b[:, c]) % p
    return b[..., 0] if squeeze else b


def syndrome_rhs(field: PrimeField, points: np.ndarray, values: np.ndarray, r: int) -> np.ndarray:
    """-sum_i points[g,i]^t * values[g,i,...] for t in [0,r), batched.

    points: (G, m); values: (G, m) or (G, m, R).  Returns (G, r[, R]).
    """
    p = field.p
    squeeze = values.ndim == 2
    v = values[..., None] if squeeze else values
    G, m = points.shape
    out = np.zeros((G, r, v.shape[2]), dtype=np.int64)
    pw = np.ones_like(points)
    for t in range(r):
        out[:, t] = ((pw[..., None] * v) % p).sum(axis=1) % p
        if t + 1 < r:
            pw = (pw * points) % p
    out = (-out) % p
    return out[..., 0] if squeeze else out
