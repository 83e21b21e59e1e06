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
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, Optional, Sequence

import numpy as np

from . import mixedradix
from .errors import ParameterError
from .field import PrimeField, next_prime
from .grs import apply_operator, each, solve_vandermonde, syndrome_rhs, units

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
    """A validated code; only build() derives its fields, by the rule above.
    Its points (i-1)*s_m + j + 1 (LAMBDA_RULE) are 1..n*s_m: distinct, nonzero as p > n*s_m."""

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

    @property
    def lam(self) -> tuple:
        return tuple(map(tuple, self.lam_array().tolist()))

    def lam_array(self) -> np.ndarray:
        """LAMBDA_RULE as an (n, s_m) int64 table, lam[i-1, j] = (i-1)*s_m + j + 1:
        1..n*s_m row by row, so distinct, and nonzero residues as p > n*s_m."""
        return np.arange(1, self.n * self.s_m + 1, dtype=np.int64).reshape(self.n, self.s_m)

    def pattern_info(self, h: int, d: int) -> PatternInfo:
        """The info of a supported pattern; raises otherwise."""
        for info in self.sorted_patterns:
            if info.h == h and info.d == d:
                return info
        raise ParameterError(f"pattern (h={h}, d={d}) not supported by this spec")


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
    return CodeSpec(family=family, n=n, k=k, r=n - k,
                    patterns=tuple(pats), sorted_patterns=tuple(infos),
                    s_m=s_m, s=s, ell=ell, field=PrimeField(p))


# ---------------------------------------------------------------------------
# encoding and reconstruction (plane-batched)
# ---------------------------------------------------------------------------

@dataclass
class Codeword:
    columns: np.ndarray  # (n, ell) int64 residues

    def column(self, j: int) -> np.ndarray:
        """Content of node j (1-based)."""
        return self.columns[j - 1]


def node_points(spec: CodeSpec, nodes: Sequence[int], a) -> np.ndarray:
    """points[i, ...] = lambda_{nodes[i], a_{nodes[i]}} for plane indices a
    of any shape; shape (len(nodes),) + a.shape.  The codec reads digit-keyed
    erasure tables instead: this is the reference the tests and demo 01 use."""
    lam = spec.lam_array()
    digits = mixedradix.digit_table(spec.s_m, spec.n, nodes)
    a = np.asarray(a, dtype=np.int64)
    out = np.empty((len(nodes),) + a.shape, dtype=np.int64)
    for i, (j, row) in enumerate(zip(nodes, digits)):
        out[i] = lam[j - 1, np.take(row, a)]
    return out


def erasure_table(spec: CodeSpec, slot_nodes: Sequence[int], known_nodes: Sequence[int]):
    """The operators of every word with e erased slots (on nodes slot_nodes;
    a node may hold up to s_m of them) and m known nodes, from one call of the
    kernels, laid out (e, m, s_m^q * s_m) for grs.apply_operator, where q is
    the number of distinct slot nodes.

    Row t = sum_u t_u * s_m^u puts the u-th distinct slot node, in first-seen
    order, at digit t_u; its v-th slot holds digit t_u + v (mod s_m), as in a
    repair orbit, so no row repeats a point.  Column i*s_m + c is known node i
    at digit c.  Entry [u, i, t*s_m + c] is then operator entry (u, i) of row
    t at known digit c, so every entry (u, i) is one contiguous row that
    apply_operator reads with a 1-D take at index t*s_m + c."""
    s_m, lam, slot_nodes = spec.s_m, spec.lam_array(), list(slot_nodes)
    nodes = list(dict.fromkeys(slot_nodes))
    digits = mixedradix.digit_table(s_m, len(nodes))
    # np.roll(lam[j - 1], -v)[c] = lam[j - 1, (c + v) mod s_m]
    points = np.stack([np.roll(lam[j - 1], -slot_nodes[:u].count(j))[digits[nodes.index(j)]]
                       for u, j in enumerate(slot_nodes)], axis=1)
    cand = lam[np.asarray(known_nodes) - 1].ravel()
    rows, m, e = len(points), len(known_nodes), len(slot_nodes)
    # -V_K does not depend on the row: one right-hand side serves them all
    rhs = syndrome_rhs(spec.field, cand[None], np.eye(cand.size, dtype=np.int64)[None], e)
    table = solve_vandermonde(spec.field, points, np.broadcast_to(rhs, (rows,) + rhs.shape[1:]))
    return np.ascontiguousarray(
        table.reshape(rows, e, m, s_m).transpose(1, 2, 0, 3)).reshape(e, m, -1)


def apply_table(spec: CodeSpec, table: np.ndarray, slot_nodes: Sequence[int],
                known_nodes: Sequence[int], base, values, into) -> None:
    """The one solve loop.  values are the known slots' (B, U, G) arrays, in
    known_nodes order (word g, copy u, block b), and word g's operator lies
    in table (an erasure_table for slot_nodes and known_nodes, or one laid
    out alike) at the nodes' digits of its base plane base[g] (g if base is
    None).  Each unit of grs.units finds its words' rows once; apply_operator
    reads and applies the operators, per block range, to the U copies into
    the e arrays that the context into(b0, b1, g0, g1) yields.  into runs
    inside the unit, so it obeys grs.each's rules: disjoint outputs and no
    traced names."""
    nodes = list(dict.fromkeys(slot_nodes))
    digits, q = mixedradix.digit_table(spec.s_m, spec.n, nodes + list(known_nodes)), len(nodes)
    (e, m, _), (B, U, G) = table.shape, values[0].shape

    def unit(words, blocks):
        g0, g1 = words
        dig = digits[:, g0:g1] if base is None else np.take(digits, base[g0:g1], axis=1)
        # table rows sum_u slot digit_u * s_m^(u+1) + known digit, in int64:
        # digit tables are uint8, and s_m^(q+1) may pass 255
        rows = dig[q:] + spec.s_m ** np.arange(1, q + 1) @ dig[:q]
        for b0, b1 in blocks:
            with into(b0, b1, g0, g1) as out:
                apply_operator(spec.field.p, table, rows, [v[b0:b1, :, g0:g1] for v in values], out)

    each(unit, units(B, G, U * (m + e), m))


def complete_columns(spec: CodeSpec, known_nodes: Sequence[int],
                     known: np.ndarray) -> np.ndarray:
    """Fill the remaining r node columns so every plane's checks vanish.

    known: (B, k, ell) integers for the 1-based known_nodes, reduced mod p
    only if an entry lies outside [0, p).  Returns (B, n, ell).  Exactly k
    known nodes are required; a plane's r erased symbols are then the width-1
    repair of its k known ones, which apply_table solves in place on the
    (B, n, S, A) view of out (tau = b*A + a): words a < A, copies b < S."""
    n, k = spec.n, spec.k
    nodes = [int(j) for j in known_nodes]
    if len(nodes) != k or len(set(nodes)) != k:
        raise ParameterError(f"need exactly {k} distinct node indices")
    if any(not 1 <= j <= n for j in nodes):
        raise ParameterError("node index out of range")
    known = np.asarray(known)
    if known.shape[1:] != (k, spec.ell):
        raise ParameterError(f"expected data shape (B, k={k}, ell={spec.ell})")

    # reduced in known's own dtype: a u64 entry >= 2^63 is not read as negative
    known = spec.field.residues(known)
    out = np.empty((known.shape[0], n, spec.ell), dtype=np.int64)
    for i, j in enumerate(nodes):
        out[:, j - 1] = known[:, i]
    kept = sorted(nodes)
    erased = [j for j in range(1, n + 1) if j not in nodes]
    planes = out.reshape(-1, n, spec.s, spec.s_m**n)
    apply_table(spec, erasure_table(spec, erased, kept), erased, kept, None,
                [planes[:, j - 1] for j in kept],
                lambda b0, b1, g0, g1: nullcontext([planes[b0:b1, j - 1, :, g0:g1]
                                                    for j in erased]))
    return out


def encode_blocks(spec: CodeSpec, data: np.ndarray) -> np.ndarray:
    """Systematic encode of (B, k, ell) data blocks; nodes 1..k hold the data."""
    return complete_columns(spec, range(1, spec.k + 1), data)


def encode(spec: CodeSpec, data) -> Codeword:
    """Systematic encode of one k x ell data matrix."""
    out = encode_blocks(spec, np.asarray(data)[None])
    return Codeword(out[0])


def mds_reconstruct(spec: CodeSpec, surviving_nodes: Sequence[int],
                    surviving_columns) -> Codeword:
    """Rebuild the full codeword from any k surviving columns."""
    out = complete_columns(spec, surviving_nodes, np.asarray(surviving_columns)[None])
    return Codeword(out[0])


def verify_planes(spec: CodeSpec, columns: np.ndarray) -> bool:
    """True iff every plane of (n, ell) or (B, n, ell) columns has zero syndromes."""
    cols = np.asarray(columns)
    if cols.ndim == 2:
        cols = cols[None]
    if cols.shape[1:] != (spec.n, spec.ell):
        raise ParameterError("column array shape mismatch")
    n, r, S = spec.n, spec.r, spec.s
    planes = spec.field.residues(cols).reshape(-1, n, S, spec.s_m**n)
    # the checks as a one-row erasure table: table[t, j, c] = lam[j, c]^t, so
    # a plane's operator op[t, j] is (point of node j)^t
    table = np.stack([spec.field.pow(spec.lam_array(), t) for t in range(r)])
    nonzero = []

    @contextmanager
    def syndromes(b0, b1, g0, g1):
        syn = np.empty((r, b1 - b0, S, g1 - g0), dtype=np.int64)
        yield syn
        nonzero.append(syn.any())

    apply_table(spec, table, [], range(1, n + 1), None,
                [planes[:, j] for j in range(n)], syndromes)
    return not any(nonzero)


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
