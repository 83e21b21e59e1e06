"""MDS array code families with optimal centralized repair.

Five families share one parity-check shape: for every plane (a, b) and every
t in [r],  sum_j lambda_{j, a_j}^(t-1) * c_{j,(a,b)} = 0.  They differ only in
how the digit base s_m and block count s derive from the repair patterns:

  C1        single failures, repair degrees d_1 < ... < d_m; s_i = d_i - k + 1
  C2        patterns (h_i, d_i) with h_i | (d_i - k); s_i = (d_i-k+h_i)/h_i
  C3        one general pattern (h, d); delta = gcd(h, d-k),
            s_m = (d-k+delta)/delta, s = (d-k+h)/delta
  C4        any pattern list; per-pattern delta_i as in C3,
            s = lcm of the block widths (d_i-k+h_i)/delta_i
  HADAMARD  one pattern with (d-k) | h and h/(d-k)+1 a power of two; ell = 2^n

Nodes, digit positions and pattern indices are 1-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import ParameterError
from .field import PrimeField, next_prime
from .grs import solve_vandermonde, syndrome_rhs
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
    delta: int  # gcd(h, d-k); equals h for C1/C2 patterns
    s: int      # contribution to the digit base
    width: int  # b-block width used by the repair scheme


@dataclass(frozen=True)
class CodeSpec:
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
    had_w: Optional[int] = None  # HADAMARD only: Ham(2, w) parameter
    had_N: Optional[int] = None  # HADAMARD only: h / (d-k)

    @property
    def coords(self) -> CoordinateSystem:
        return CoordinateSystem(self.s_m, self.n, self.s)

    def lam_array(self) -> np.ndarray:
        return np.array(self.lam, dtype=np.int64)

    def pattern_info(self, h: int, d: int) -> Tuple[int, PatternInfo]:
        """(sorted index, info) for a supported pattern; raises otherwise."""
        for idx, info in enumerate(self.sorted_patterns):
            if info.h == h and info.d == d:
                return idx, info
        raise ParameterError(f"pattern (h={h}, d={d}) not supported by this spec")


def _lcm(values: Sequence[int]) -> int:
    return math.lcm(*values) if values else 1


def assign_lambda(n: int, s_m: int, field: PrimeField) -> tuple:
    """Default evaluation-point table: lambda_{i,j} = (i-1)*s_m + j + 1.

    Needs p >= s_m*n + 1 so all entries are distinct and nonzero.
    """
    if field.p < s_m * n + 1:
        raise ParameterError(f"field GF({field.p}) too small for {s_m * n} distinct nonzero points")
    return tuple(tuple((i - 1) * s_m + j + 1 for j in range(s_m)) for i in range(1, n + 1))


def _validate_patterns(family: Family, n: int, k: int, patterns) -> list:
    if n < 2 or not (1 <= k < n):
        raise ParameterError(f"need 1 <= k < n, got n={n}, k={k}")
    pats = [(int(h), int(d)) for h, d in patterns]
    if not pats:
        raise ParameterError("pattern list is empty")
    if len(set(pats)) != len(pats):
        raise ParameterError("duplicate pattern")
    return pats


def _derive_c1(n, k, pats):
    for h, d in pats:
        if h != 1:
            raise ParameterError(f"C1 takes single-failure patterns only, got h={h}")
    ds = sorted(d for _, d in pats)
    if ds[0] <= k:
        raise ParameterError(f"C1 requires k < d, got d={ds[0]}")
    if ds[-1] > n - 1:
        raise ParameterError(f"C1 requires d <= n-1, got d={ds[-1]}")
    return [PatternInfo(1, d, 1, d - k + 1, d - k + 1) for d in ds]


def _derive_c2(n, k, pats):
    infos = []
    for h, d in pats:
        if not (1 <= h <= n - k):
            raise ParameterError(f"C2 requires 1 <= h <= n-k, got h={h}")
        if not (k <= d <= n - h):
            raise ParameterError(f"C2 requires k <= d <= n-h, got (h={h}, d={d})")
        if (d - k) % h:
            raise ParameterError(f"C2 requires h | (d-k), got (h={h}, d={d})")
        si = (d - k + h) // h
        infos.append(PatternInfo(h, d, h, si, si))
    infos.sort(key=lambda pi: pi.s)  # stable: caller order preserved among ties
    return infos


def _derive_c3(n, k, pats):
    if len(pats) != 1:
        raise ParameterError("C3 takes exactly one (h, d) pattern")
    h, d = pats[0]
    if not (2 <= h <= n - k):
        raise ParameterError(f"C3 requires 2 <= h <= n-k, got h={h}")
    if not (k < d):
        raise ParameterError(f"C3 requires k < d, got d={d}")
    if d > n - h:
        raise ParameterError(f"C3 requires d <= n-h, got (h={h}, d={d})")
    delta = math.gcd(h, d - k)
    s0 = (d - k + delta) // delta
    width = (d - k + h) // delta
    return [PatternInfo(h, d, delta, s0, width)]


def _derive_c4(n, k, pats):
    infos = []
    for h, d in pats:
        if not (1 <= h <= n - k):
            raise ParameterError(f"C4 requires 1 <= h <= n-k, got h={h}")
        if not (k <= d <= n - h):
            raise ParameterError(f"C4 requires k <= d <= n-h, got (h={h}, d={d})")
        delta = math.gcd(h, d - k) if d > k else h
        si = (d - k + delta) // delta
        infos.append(PatternInfo(h, d, delta, si, (d - k + h) // delta))
    infos.sort(key=lambda pi: pi.s)
    return infos


def _derive_hadamard(n, k, pats):
    if len(pats) != 1:
        raise ParameterError("HADAMARD takes exactly one (h, d) pattern")
    h, d = pats[0]
    if not (1 <= h <= n - k):
        raise ParameterError(f"HADAMARD requires 1 <= h <= n-k, got h={h}")
    if not (k < d):
        raise ParameterError(f"HADAMARD requires k < d, got d={d}")
    if d > n - h:
        raise ParameterError(f"HADAMARD requires d <= n-h, got (h={h}, d={d})")
    if h % (d - k):
        raise ParameterError(f"HADAMARD requires (d-k) | h, got (h={h}, d={d})")
    N = h // (d - k)
    if (N + 1) & N:  # power-of-two test on N+1
        raise ParameterError(f"HADAMARD requires h/(d-k)+1 to be a power of two, got {N + 1}")
    w = (N + 1).bit_length() - 1
    if w > n:
        raise ParameterError(f"HADAMARD requires h/(d-k)+1 <= 2^n, got 2^{w} > 2^{n}")
    return [PatternInfo(h, d, d - k, 2, 1)], w, N


def build(family, n: int, k: int, patterns,
          prime: Optional[int] = None, min_prime: int = 0) -> CodeSpec:
    """Construct and validate a CodeSpec.

    patterns is a sequence of (h, d) pairs (C1 uses h=1).  The field modulus
    defaults to the smallest prime >= max(s_m*n + 1, min_prime); an explicit
    prime is validated against the same floor.
    """
    family = Family(family)
    pats = _validate_patterns(family, n, k, patterns)
    had_w = had_N = None
    if family is Family.C1:
        infos = _derive_c1(n, k, pats)
    elif family is Family.C2:
        infos = _derive_c2(n, k, pats)
    elif family is Family.C3:
        infos = _derive_c3(n, k, pats)
    elif family is Family.C4:
        infos = _derive_c4(n, k, pats)
    else:
        infos, had_w, had_N = _derive_hadamard(n, k, pats)

    if family in (Family.C1, Family.C2):
        s_m = infos[-1].s
        s = _lcm([pi.s for pi in infos[:-1]])
    elif family is Family.C3:
        s_m = infos[0].s
        s = infos[0].width
    elif family is Family.C4:
        s_m = infos[-1].s
        s = _lcm([pi.width for pi in infos])
    else:  # HADAMARD
        s_m, s = 2, 1

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
                    s_m=s_m, s=s, ell=ell, field=fld, lam=lam,
                    had_w=had_w, had_N=had_N)


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


@lru_cache(maxsize=32)
def _digit_matrix(s_m: int, n: int) -> np.ndarray:
    """digits[j-1, a] = j-th digit of a, for all a in [0, s_m^n)."""
    coords = CoordinateSystem(s_m, n, 1)
    a = np.arange(coords.a_count, dtype=np.int64)
    return np.stack([coords.digit(a, j) for j in range(1, n + 1)])


def node_point_matrix(spec: CodeSpec) -> np.ndarray:
    """points[j-1, a] = lambda_{j, a_j}; shape (n, s_m^n)."""
    digs = _digit_matrix(spec.s_m, spec.n)
    lam = spec.lam_array()
    return lam[np.arange(spec.n)[:, None], digs]


def complete_columns(spec: CodeSpec, known_nodes: Sequence[int],
                     known: np.ndarray) -> np.ndarray:
    """Fill the remaining r node columns so every plane's checks vanish.

    known: (B, k, ell) residues for the 1-based known_nodes.  Returns
    (B, n, ell).  Exactly k known nodes are required; the solve per plane is
    then uniquely determined.
    """
    n, k, r = spec.n, spec.k, spec.r
    nodes = [int(j) for j in known_nodes]
    if len(nodes) != k or len(set(nodes)) != k:
        raise ParameterError(f"need exactly {k} distinct node indices")
    if any(not 1 <= j <= n for j in nodes):
        raise ParameterError("node index out of range")
    known = np.asarray(known, dtype=np.int64)
    if known.ndim == 2:
        known = known[None]
    B = known.shape[0]
    if known.shape[1:] != (k, spec.ell):
        raise ParameterError(f"expected data shape (k={k}, ell={spec.ell})")
    known = known % spec.field.p

    order = sorted(range(k), key=lambda i: nodes[i])
    nodes_sorted = [nodes[i] for i in order]
    erased = [j for j in range(1, n + 1) if j not in set(nodes_sorted)]
    A, S = spec.s_m**spec.n, spec.s
    pts = node_point_matrix(spec)  # (n, A)
    known_pts = pts[[j - 1 for j in nodes_sorted]].T.copy()   # (A, k)
    erased_pts = pts[[j - 1 for j in erased]].T.copy()        # (A, r)

    # column layout: tau = b*A + a  ->  (S, A)
    vals = known[:, order].reshape(B, k, S, A).transpose(3, 1, 0, 2).reshape(A, k, B * S)
    rhs = syndrome_rhs(spec.field, known_pts, vals, r)        # (A, r, B*S)
    x = solve_vandermonde(spec.field, erased_pts, rhs)        # (A, r, B*S)

    out = np.empty((B, n, spec.ell), dtype=np.int64)
    for rank, j in enumerate(nodes_sorted):
        out[:, j - 1] = known[:, order[rank]]
    for rank, j in enumerate(erased):
        out[:, j - 1] = x[:, rank, :].reshape(A, B, S).transpose(1, 2, 0).reshape(B, spec.ell)
    return out


def encode_blocks(spec: CodeSpec, data: np.ndarray) -> np.ndarray:
    """Systematic encode of (B, k, ell) data blocks; nodes 1..k hold the data."""
    return complete_columns(spec, range(1, spec.k + 1), data)


def encode(spec: CodeSpec, data) -> Codeword:
    """Systematic encode of one k x ell data matrix."""
    out = encode_blocks(spec, np.asarray(data, dtype=np.int64)[None])
    return Codeword(spec, out[0])


def mds_reconstruct(spec: CodeSpec, surviving_nodes: Sequence[int],
                    surviving_columns) -> Codeword:
    """Rebuild the full codeword from any k surviving columns."""
    cols = np.asarray(surviving_columns, dtype=np.int64)
    out = complete_columns(spec, surviving_nodes, cols[None])
    return Codeword(spec, out[0])


def verify_planes(spec: CodeSpec, columns: np.ndarray) -> bool:
    """True iff every plane of (n, ell) or (B, n, ell) columns has zero syndromes."""
    cols = np.asarray(columns, dtype=np.int64) % spec.field.p
    if cols.ndim == 2:
        cols = cols[None]
    B = cols.shape[0]
    if cols.shape[1:] != (spec.n, spec.ell):
        raise ParameterError("column array shape mismatch")
    A, S = spec.s_m**spec.n, spec.s
    pts = node_point_matrix(spec).T.copy()  # (A, n)
    vals = cols.reshape(B, spec.n, S, A).transpose(3, 1, 0, 2).reshape(A, spec.n, B * S)
    synd = syndrome_rhs(spec.field, pts, vals, spec.r)
    return not np.any(synd)


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
