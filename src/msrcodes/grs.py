"""Generalized Reed-Solomon kernels on Vandermonde parity checks.

A word (c_1, ..., c_L) on distinct evaluation points (x_1, ..., x_L) satisfies
r parity checks  sum_i x_i^(t-1) * c_i = 0  for t in [r].  Every plane of a
code and every repair group is such a word.  Its e erased entries are
x_E = C x_K (mod p) for the (e x m) erasure operator C = -V_E^-1 V_K of its
points.  The two batched kernels build operators, not decode words:
syndrome_rhs moves known entries to the right-hand side, and
solve_vandermonde fills the erased ones, so on an identity right-hand side
they give the columns of C (constructions.erasure_table lays them out).
apply_operator reads each word's operator straight from such a table and
applies it in place.  Every kernel loop cuts its words and blocks into
units(), at most SLICE_BUDGET = 2^20 elements each (measured at the
constant) and a multiple of WORKERS of them, which each() runs on a pool of
WORKERS threads.  Per-symbol arrays are reduced with mod_p, a floor division
by the scalar p, never with an integer % p: numpy has a fast path for the
former only.

Both kernels take one shape: points (G, m), one row of distinct points per
word, and values or rhs (G, m, R), R right-hand sides per word.  Elimination
needs no pivoting: every leading minor of a Vandermonde matrix on distinct
points is itself a Vandermonde determinant, hence nonzero.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .errors import ParameterError
from .field import PrimeField

# Elements per kernel temporary (int64, so 8 MiB); each() runs up to WORKERS
# units at once.  Unsliced, one 18 MiB c1(10,6,{(1,8),(1,9)}) block built
# about 1 GB of temporaries.  A unit must pay for its hand-offs of the GIL: on
# a 2-vCPU Xeon VM (numpy 2.4, best of 3), the c1 (1,9) center repair took
# 113 ms with one worker at 2^18, 140 ms with two at 2^18, 85 ms at 2^19,
# 58-67 ms at 2^20 and 57 ms at 2^21, and c1 encode 246 / 246 / 194 / 172-177
# / 180 ms.  Two workers at 2^20 also beat one at 2^18 on every 1 MiB c3 kernel
# (encode 13.4 vs 15.1 ms, center 5.9 vs 10.1 ms), while at 2^21 the c3 center
# is one unit again (13.7 ms).
SLICE_BUDGET = 1 << 20


# Threads each() runs units on: the CPUs this process may use.  Units are
# numpy-bound, and numpy releases the GIL inside its loops.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def units(blocks: int, count: int, per_item: int, op_per_item: int = 0) -> list:
    """Units ((w0, w1), block ranges) over `blocks` blocks of `count` words,
    for each().  A word holds per_item elements per block and op_per_item
    table rows in all.  Blocks first: while one block and its rows fit
    SLICE_BUDGET, a unit is every word over a run of whole blocks, else a
    range of words over every block, one at a time.  Either way a unit's
    rows and one block range's words fit the budget when one item does.
    The unit count is the fewest that fit, rounded up to a multiple of
    WORKERS but to no more units than items, and the units are near-equal.
    They cover disjoint (word, block) pairs, so each() may run them in any
    order."""
    if not blocks or not count:
        return []
    whole = count * (per_item + op_per_item) <= SLICE_BUDGET
    if whole:
        items, step = blocks, (SLICE_BUDGET - count * op_per_item) // max(1, count * per_item)
    else:
        items, step = count, SLICE_BUDGET // (per_item + op_per_item)
    parts = -(-items // max(1, step))
    parts = min(items, -(-parts // WORKERS) * WORKERS)
    cuts = [i * items // parts for i in range(parts + 1)]
    ranges = list(zip(cuts, cuts[1:]))
    if whole:
        return [((0, count), [b]) for b in ranges]
    return [(w, [(b, b + 1) for b in range(blocks)]) for w in ranges]


@functools.lru_cache(maxsize=None)
def _pool(workers: int) -> ThreadPoolExecutor:
    """The executor each() uses for a worker count, made on first use."""
    return ThreadPoolExecutor(workers, thread_name_prefix="msrcodes")


if hasattr(os, "register_at_fork"):
    # a forked child has none of the parent's threads: it makes its own pool
    os.register_at_fork(after_in_child=_pool.cache_clear)


def each(fn, units) -> list:
    """[fn(*unit) for unit in units], run on a pool of WORKERS threads; a
    plain loop when there is one worker or one unit.  Every unit finishes
    before the first exception raised in one, if any, reaches the caller.

    The kernels run their slice units here, and storage its shard reads,
    casts, hashes and writes.  Units must write disjoint outputs, must not
    call each() themselves (a unit waiting on the pool can starve it), and
    must not call a name that a caller may rebind at run time, as perfbench's
    tracer does: its records are not thread-safe.
    """
    units = list(units)
    if WORKERS <= 1 or len(units) <= 1:
        return [fn(*unit) for unit in units]
    pool = _pool(WORKERS)
    futures = [pool.submit(fn, *unit) for unit in units]
    wait(futures)
    return [f.result() for f in futures]


def mod_p(acc: np.ndarray, p: int, tmp: np.ndarray) -> np.ndarray:
    """acc - floor(acc / p) * p, the residue of acc in [0, p), in place; tmp is
    scratch of acc's shape.  Exact for every int64 acc: the quotient fits,
    and the product and difference, should they wrap, wrap modulo 2^64 to a
    result that lies in [0, p) (for acc >= 0 nothing wraps at all)."""
    np.floor_divide(acc, p, out=tmp)
    tmp *= p
    acc -= tmp
    return acc


def apply_operator(p: int, table: np.ndarray, rows, values, out) -> None:
    """out[u] = sum_i table[u, i][rows[i]] * values[i] (mod p) in place.  Each
    entry is gathered into one reused (L,) buffer that broadcasts along the
    last axis of the residue arrays values[i] and out[u].  The reduction is
    deferred: a carry below p plus `fold` products of at most (p-1)^2 stay
    <= 2^63 - 1, so it runs mod_p once per `fold` terms (2^47 at p = 257,
    which no word reaches; 2 at p = 2^31 - 1) and once at the end."""
    fold = (2**63 - p) // (p - 1) ** 2
    tmp = np.empty_like(out[0])
    coef = np.empty(len(rows[0]), dtype=table.dtype)
    for u, acc in enumerate(out):
        for i, (row, v) in enumerate(zip(rows, values)):
            # mode="clip" writes into coef unbuffered; row lies in table[u, i]
            np.take(table[u, i], row, out=coef, mode="clip")
            if i == 0:
                np.multiply(coef, v, out=acc)
                continue
            if i % fold == 0:
                mod_p(acc, p, tmp)
            acc += np.multiply(coef, v, out=tmp)
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
