"""Generalized Reed-Solomon kernels on Vandermonde parity checks.

A word (c_1, ..., c_L) on distinct evaluation points (x_1, ..., x_L) satisfies
r parity checks  sum_i x_i^(t-1) * c_i = 0  for t in [r].  Every plane of a
code and every repair group is such a word.  Its e erased entries are
x_E = C x_K (mod p) for the (e x m) erasure operator C = -V_E^-1 V_K of its
points.  The two batched kernels build operators, not decode words:
syndrome_rhs moves known entries to the right-hand side, and
solve_vandermonde fills the erased ones, so on an identity right-hand side
they give the columns of C.  apply_operator applies per-word operators in
place, over the slices of block_slices.  Per-symbol arrays are reduced with
mod_p, a floor division by the scalar p, never with an integer % p: numpy
has a fast path for the former only.

Both kernels take one shape: points (G, m), one row of distinct points per
word, and values or rhs (G, m, R), R right-hand sides per word.  Elimination
needs no pivoting: every leading minor of a Vandermonde matrix on distinct
points is itself a Vandermonde determinant, hence nonzero.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .field import PrimeField

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


def block_slices(blocks: int, count: int, per_item: int, op_per_item: int):
    """((start, stop), block ranges) pairs over `blocks` blocks of `count` words,
    blocks first: all words with runs of whole blocks while one block and its
    operator fit SLICE_BUDGET, else word ranges of one block at a time.  A word
    holds per_item elements per block plus op_per_item operator elements."""
    if count * (per_item + op_per_item) <= SLICE_BUDGET:
        return [((0, count), list(slices(blocks, count * per_item)))]
    return [(w, [(b, b + 1) for b in range(blocks)]) for w in slices(count, per_item + op_per_item)]


def mod_p(acc: np.ndarray, p: int, tmp: np.ndarray) -> np.ndarray:
    """acc - floor(acc / p) * p, the residue of acc in [0, p), in place; tmp is
    scratch of acc's shape.  Exact for every int64 acc: the quotient fits,
    and the product and difference, should they wrap, wrap modulo 2^64 to a
    result that lies in [0, p) (for acc >= 0 nothing wraps at all)."""
    np.floor_divide(acc, p, out=tmp)
    tmp *= p
    acc -= tmp
    return acc


def apply_operator(p: int, op: np.ndarray, values, out) -> None:
    """out[u] = sum_i op[u, i] * values[i] (mod p) in place; op (U, I, L)
    broadcasts along the last axis of the residue arrays values[i] and out[u].
    The reduction is deferred: a carry below p plus `fold` products of at most
    (p-1)^2 stay <= 2^63 - 1, so it runs mod_p once per `fold` terms (2^47 at
    p = 257, which no word reaches; 2 at p = 2^31 - 1) and once at the end."""
    fold = (2**63 - p) // (p - 1) ** 2
    tmp = np.empty_like(out[0])
    for u, acc in enumerate(out):
        np.multiply(op[u, 0], values[0], out=acc)
        for i in range(1, len(values)):
            if i % fold == 0:
                mod_p(acc, p, tmp)
            acc += np.multiply(op[u, i], values[i], out=tmp)
        mod_p(acc, p, tmp)


def solve_vandermonde(field: PrimeField, points: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve sum_i points[g,i]^t * x[g,i,:] = rhs[g,t,:] for t in [0,e) per group g.

    points: (G, e) distinct per row.  rhs: (G, e, R).  Returns x, shape (G, e, R).
    """
    p = field.p
    G, e = points.shape
    if rhs.ndim != 3 or rhs.shape[:2] != (G, e):
        raise ParameterError("rhs shape mismatch")
    b = rhs % p
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
    return b


def syndrome_rhs(field: PrimeField, points: np.ndarray, values: np.ndarray, r: int) -> np.ndarray:
    """-sum_i points[g,i]^t * values[g,i,:] for t in [0,r), batched.

    points: (G, m); values: (G, m, R).  Returns (G, r, R).
    """
    p = field.p
    G, m = points.shape
    out = np.zeros((G, r, values.shape[2]), dtype=np.int64)
    pw = np.ones_like(points)
    for t in range(r):
        out[:, t] = ((pw[..., None] * values) % p).sum(axis=1) % p
        if t + 1 < r:
            pw = (pw * points) % p
    return (-out) % p
