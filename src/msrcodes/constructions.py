"""MDS array code families with optimal centralized repair.

Five families share one parity-check shape: for every plane (a, b) and every
t in [r],  sum_j lambda_{j, a_j}^(t-1) * c_{j,(a,b)} = 0.  They also share
one parameter rule.  Every pattern (h, d) needs 1 <= h <= n-k and
k <= d <= n-h, and then gets

  delta = gcd(h, d-k),  s_i = (d-k+delta)/delta,  width = (d-k+h)/delta

(C4's rule; when h | (d-k) it gives delta = h, the C1/C2 values).  The
patterns are sorted stably by s_i; s_m is the largest s_i and s is the lcm
of the widths of the patterns that are not pinned.  Each family adds only
its own constraints:

  C1        h = 1 and d > k
  C2        h | (d-k)
  C3        exactly one pattern, h >= 2 and d > k
  C4        none
  HADAMARD  exactly one pattern, d > k, (d-k) | h and h/(d-k)+1 a power of
            two; its pattern has delta = d-k, s_i = 2 and width 1, so s_m = 2,
            s = 1 and ell = 2^n

A pinned pattern is the largest-s pattern of C1 or C2: its repair fixes the
digit at min(H) instead of spreading over b-blocks, so it needs no share of
s.  Nodes, digit positions and pattern indices are 1-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, Optional, Sequence

import numpy as np

from .errors import ParameterError
from .field import PrimeField, next_prime
from .grs import apply_operator, block_slices, each, solve_vandermonde, syndrome_rhs
from .mixedradix import CoordinateSystem

LAMBDA_RULE = "row-consecutive-v1"  # lambda_{i,j} = (i-1)*s_m + j + 1

MANIFEST_FORMAT = "msr-manifest/1"


class Family(str, Enum):
    C1 = "c1"
    C2 = "c2"
    C3 = "c3"
    C4 = "c4"
    HADAMARD = "hadamard"


@dataclass(frozen=True)
class PatternInfo:
    """One repair pattern with its derived quantities."""

    h: int
    d: int
    delta: int  # gcd(h, d-k) (h for C1/C2 patterns); d-k for HADAMARD
    s: int      # contribution to the digit base
    width: int  # b-block width used by the repair scheme
    pinned: bool = False  # largest-s C1/C2 pattern; its width is not in s


@dataclass(frozen=True)
class CodeSpec:
    """A validated code; only build() derives its fields, by the rule above."""

    family: Family
    n: int
    k: int
    r: int
    patterns: tuple            # (h, d) pairs in caller order
    sorted_patterns: tuple     # PatternInfo ascending by s (stable)
    s_m: int
    s: int
    ell: int
    field: PrimeField
    lam: tuple                 # n rows of s_m distinct nonzero evaluation points

    @property
    def coords(self) -> CoordinateSystem:
        return CoordinateSystem(self.s_m, self.n)

    def lam_array(self) -> np.ndarray:
        return np.array(self.lam, dtype=np.int64)

    def pattern_info(self, h: int, d: int) -> PatternInfo:
        """The info of a supported pattern; raises otherwise."""
        for info in self.sorted_patterns:
            if info.h == h and info.d == d:
                return info
        raise ParameterError(f"pattern (h={h}, d={d}) not supported by this spec")


def assign_lambda(n: int, s_m: int, field: PrimeField) -> tuple:
    """Default evaluation-point table: lambda_{i,j} = (i-1)*s_m + j + 1.

    Needs p >= s_m*n + 1 so all entries are distinct and nonzero.
    """
    if field.p < s_m * n + 1:
        raise ParameterError(f"field GF({field.p}) too small for {s_m * n} distinct nonzero points")
    return tuple(tuple((i - 1) * s_m + j + 1 for j in range(s_m)) for i in range(1, n + 1))


def _pattern_info(family: Family, n: int, k: int, h: int, d: int) -> PatternInfo:
    """The per-pattern rule for (h, d) after the range checks and the
    constraints `family` adds to them."""
    name = family.name
    if not 1 <= h <= n - k:
        raise ParameterError(f"{name} requires 1 <= h <= n-k, got h={h}")
    if not k <= d <= n - h:
        raise ParameterError(f"{name} requires k <= d <= n-h, got (h={h}, d={d})")
    if family is Family.C1 and h != 1:
        raise ParameterError(f"C1 takes single-failure patterns only, got h={h}")
    if family is Family.C2 and (d - k) % h:
        raise ParameterError(f"C2 requires h | (d-k), got (h={h}, d={d})")
    if family is Family.C3 and h < 2:
        raise ParameterError(f"C3 requires 2 <= h, got h={h}")
    if family in (Family.C1, Family.C3, Family.HADAMARD) and d == k:
        raise ParameterError(f"{name} requires k < d, got d={d}")
    if family is Family.HADAMARD:
        if h % (d - k):
            raise ParameterError(f"HADAMARD requires (d-k) | h, got (h={h}, d={d})")
        N = h // (d - k)
        if (N + 1) & N:  # power-of-two test on N+1
            raise ParameterError(f"HADAMARD requires h/(d-k)+1 to be a power of two, got {N + 1}")
        return PatternInfo(h, d, d - k, 2, 1)
    delta = math.gcd(h, d - k)
    return PatternInfo(h, d, delta, (d - k + delta) // delta, (d - k + h) // delta)


def build(family, n: int, k: int, patterns,
          prime: Optional[int] = None, min_prime: int = 0) -> CodeSpec:
    """Construct and validate a CodeSpec.

    patterns is a sequence of (h, d) pairs (C1 uses h=1).  The field modulus
    defaults to the smallest prime >= max(s_m*n + 1, min_prime); an explicit
    prime is validated against the same floor.
    """
    family = Family(family)
    if not 1 <= k < n:
        raise ParameterError(f"need 1 <= k < n, got n={n}, k={k}")
    pats = [(int(h), int(d)) for h, d in patterns]
    if not pats:
        raise ParameterError("pattern list is empty")
    if len(set(pats)) != len(pats):
        raise ParameterError("duplicate pattern")
    if family in (Family.C3, Family.HADAMARD) and len(pats) != 1:
        raise ParameterError(f"{family.name} takes exactly one (h, d) pattern")
    # stable: caller order preserved among ties
    infos = sorted((_pattern_info(family, n, k, h, d) for h, d in pats), key=lambda pi: pi.s)
    if family in (Family.C1, Family.C2):
        infos[-1] = replace(infos[-1], pinned=True)
    s_m = infos[-1].s
    s = math.lcm(*(pi.width for pi in infos if not pi.pinned))
    ell = s * s_m**n
    floor = s_m * n + 1
    if prime is None:
        p = next_prime(max(floor, min_prime))
    else:
        p = int(prime)
        if p < floor:
            raise ParameterError(f"prime {p} below required floor {floor}")
    fld = PrimeField(p)
    lam = assign_lambda(n, s_m, fld)
    flat = [v for row in lam for v in row]
    assert len(set(flat)) == len(flat) and 0 not in flat

    return CodeSpec(family=family, n=n, k=k, r=n - k,
                    patterns=tuple(pats), sorted_patterns=tuple(infos),
                    s_m=s_m, s=s, ell=ell, field=fld, lam=lam)


# ---------------------------------------------------------------------------
# encoding and reconstruction (plane-batched)
# ---------------------------------------------------------------------------

@dataclass
class Codeword:
    spec: CodeSpec
    columns: np.ndarray  # (n, ell) int64 residues

    def column(self, j: int) -> np.ndarray:
        """Content of node j (1-based)."""
        return self.columns[j - 1]


def node_points(spec: CodeSpec, nodes: Sequence[int], a) -> np.ndarray:
    """points[i, ...] = lambda_{nodes[i], a_{nodes[i]}} for plane indices a
    of any shape; shape (len(nodes),) + a.shape.

    The one place a (node, plane) pair becomes its evaluation point.
    """
    coords, lam = spec.coords, spec.lam_array()
    a = np.asarray(a, dtype=np.int64)
    out = np.empty((len(nodes),) + a.shape, dtype=np.int64)
    for i, j in enumerate(nodes):
        out[i] = lam[j - 1, coords.digit(a, j)]
    return out


def erasure_inputs(spec: CodeSpec, slot_nodes: Sequence[int], known_nodes: Sequence[int]):
    """Kernel inputs (points, candidates, identity) of an erasure table.

    Row t = sum_u t_u * s_m^u puts erased slot u (on node slot_nodes[u]; a
    node may hold several) at digit t_u; column i*s_m + c is known node i at
    digit c.  Rows that repeat a point, which no word has, borrow a valid
    row's points.  solve_vandermonde(points, syndrome_rhs(candidates,
    identity, e)) is the (s_m^e, e, m*s_m) table operator_table lays out."""
    s_m, e, lam = spec.s_m, len(slot_nodes), spec.lam_array()
    digits = np.arange(s_m**e)[:, None] // s_m ** np.arange(e) % s_m
    points = lam[np.asarray(slot_nodes) - 1, digits]
    ordered = np.sort(points, axis=1)
    repeats = np.any(ordered[:, 1:] == ordered[:, :-1], axis=1)
    points[repeats] = points[~repeats][0]
    cand = lam[np.asarray(known_nodes) - 1].ravel()
    eye = np.eye(cand.size, dtype=np.int64)
    return points, np.broadcast_to(cand, (len(points),) + cand.shape), np.broadcast_to(
        eye, (len(points),) + eye.shape)


def operator_table(spec: CodeSpec, table: np.ndarray) -> np.ndarray:
    """The (s_m^e, e, m*s_m) erasure table laid out as (e, m, s_m^e * s_m),
    entry [u, i, t*s_m + c] = table[t, u, i*s_m + c], so that every operator
    entry (u, i) is one contiguous row that erasure_operator reads with a
    1-D take."""
    rows, e, width = table.shape
    m = width // spec.s_m
    return np.ascontiguousarray(
        table.reshape(rows, e, m, spec.s_m).transpose(1, 2, 0, 3)).reshape(e, m, -1)


def erasure_operator(spec: CodeSpec, table: np.ndarray, slot_digits, known_digits):
    """Per-word operators (e, m, L) read from an operator_table, given each
    erased slot's digit (e arrays (L,)) and each known node's (m arrays)."""
    e, m, _ = table.shape
    s_m = spec.s_m
    row = sum(dig * s_m ** (u + 1) for u, dig in enumerate(slot_digits))
    op = np.empty((e, m, len(row)), dtype=np.int64)
    idx = np.empty_like(row)
    for i, dig in enumerate(known_digits):
        np.add(row, dig, out=idx)
        for u in range(e):
            # mode="clip" writes into op unbuffered; idx lies in the row
            np.take(table[u, i], idx, out=op[u, i], mode="clip")
    return op


def complete_columns(spec: CodeSpec, known_nodes: Sequence[int],
                     known: np.ndarray) -> np.ndarray:
    """Fill the remaining r node columns so every plane's checks vanish.

    known: (B, k, ell) integers for the 1-based known_nodes, reduced mod p
    only if an entry lies outside [0, p).  Returns (B, n, ell).  Exactly k
    known nodes are required; a plane's r erased symbols are then its erasure
    operator applied to its k known ones.  One kernel solve builds the
    operator table, and each slice unit (grs.each) reads its planes'
    operators from it and applies them in place on its own part of out.
    """
    n, k, r, p = spec.n, spec.k, spec.r, spec.field.p
    nodes = [int(j) for j in known_nodes]
    if len(nodes) != k or len(set(nodes)) != k:
        raise ParameterError(f"need exactly {k} distinct node indices")
    if any(not 1 <= j <= n for j in nodes):
        raise ParameterError("node index out of range")
    known = np.asarray(known)
    if known.ndim == 2:
        known = known[None]
    B = known.shape[0]
    if known.shape[1:] != (k, spec.ell):
        raise ParameterError(f"expected data shape (k={k}, ell={spec.ell})")

    # reduced in known's own dtype: a u64 entry >= 2^63 is not read as negative
    known = spec.field.residues(known)
    out = np.empty((B, n, spec.ell), dtype=np.int64)
    for i, j in enumerate(nodes):
        out[:, j - 1] = known[:, i]
    kept = sorted(nodes)
    erased = [j for j in range(1, n + 1) if j not in nodes]
    points, cand, eye = erasure_inputs(spec, erased, kept)
    table = operator_table(spec, solve_vandermonde(
        spec.field, points, syndrome_rhs(spec.field, cand, eye, r)))
    coords, A, S = spec.coords, spec.s_m**n, spec.s
    # column layout: tau = b*A + a  ->  (B, n, S, A), a view of out
    planes = out.reshape(B, n, S, A)

    def work(words, blocks):
        a0, a1 = words
        a = np.arange(a0, a1)
        op = erasure_operator(spec, table, [coords.digit(a, j) for j in erased],
                              [coords.digit(a, j) for j in kept])
        for b0, b1 in blocks:
            apply_operator(p, op, [planes[b0:b1, j - 1, :, a0:a1] for j in kept],
                           [planes[b0:b1, j - 1, :, a0:a1] for j in erased])

    each(work, block_slices(B, A, n * S, r * k))
    return out


def encode_blocks(spec: CodeSpec, data: np.ndarray) -> np.ndarray:
    """Systematic encode of (B, k, ell) data blocks; nodes 1..k hold the data."""
    return complete_columns(spec, range(1, spec.k + 1), data)


def encode(spec: CodeSpec, data) -> Codeword:
    """Systematic encode of one k x ell data matrix."""
    out = encode_blocks(spec, np.asarray(data)[None])
    return Codeword(spec, out[0])


def mds_reconstruct(spec: CodeSpec, surviving_nodes: Sequence[int],
                    surviving_columns) -> Codeword:
    """Rebuild the full codeword from any k surviving columns."""
    out = complete_columns(spec, surviving_nodes, np.asarray(surviving_columns)[None])
    return Codeword(spec, out[0])


def verify_planes(spec: CodeSpec, columns: np.ndarray) -> bool:
    """True iff every plane of (n, ell) or (B, n, ell) columns has zero syndromes."""
    cols = np.asarray(columns)
    if cols.ndim == 2:
        cols = cols[None]
    B = cols.shape[0]
    if cols.shape[1:] != (spec.n, spec.ell):
        raise ParameterError("column array shape mismatch")
    n, r, p, A, S = spec.n, spec.r, spec.field.p, spec.s_m**spec.n, spec.s
    cols = spec.field.residues(cols)
    planes = cols.reshape(B, n, S, A)

    def vanish(words, blocks):
        # the checks as an operator: op[t, j] = (point of node j)^t per plane
        a0, a1 = words
        pts = node_points(spec, range(1, n + 1), np.arange(a0, a1))
        op = np.ones((r, n, a1 - a0), dtype=np.int64)
        for t in range(1, r):
            op[t] = op[t - 1] * pts % p
        for b0, b1 in blocks:
            syn = np.empty((r, b1 - b0, S, a1 - a0), dtype=np.int64)
            apply_operator(p, op, np.moveaxis(planes[b0:b1, ..., a0:a1], 1, 0), syn)
            if syn.any():
                return False
        return True

    return all(each(vanish, block_slices(B, A, n * S, r * n)))


def random_data(spec: CodeSpec, rng: np.random.Generator, blocks: Optional[int] = None) -> np.ndarray:
    shape = (spec.k, spec.ell) if blocks is None else (blocks, spec.k, spec.ell)
    return rng.integers(0, spec.field.p, size=shape, dtype=np.int64)


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def manifest_dict(spec: CodeSpec, **extra) -> Dict:
    d = {
        "format": MANIFEST_FORMAT,
        "family": spec.family.value,
        "n": spec.n,
        "k": spec.k,
        "patterns": [list(p) for p in spec.patterns],
        "prime": spec.field.p,
        "lambda_rule": LAMBDA_RULE,
        "ell": spec.ell,
        "digest": None,
        "padding": 0,
    }
    d.update(extra)
    return d


def spec_from_manifest(manifest: Dict) -> CodeSpec:
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ParameterError(f"unknown manifest format {manifest.get('format')!r}")
    if manifest.get("lambda_rule") != LAMBDA_RULE:
        raise ParameterError(f"unknown lambda rule {manifest.get('lambda_rule')!r}")
    spec = build(manifest["family"], manifest["n"], manifest["k"],
                 [tuple(p) for p in manifest["patterns"]], prime=manifest["prime"])
    if spec.ell != manifest["ell"]:
        raise ParameterError(f"manifest ell={manifest['ell']} != derived {spec.ell}")
    return spec
