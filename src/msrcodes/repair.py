"""Centralized repair engines for every code family.

All schemes reduce to the same shape.  A *group* is a small set of planes
whose parity checks, summed over a digit-shift orbit of the failed set,
assemble a [d+r, d] GRS word:

  slot (j, w), j in the group's member set P    one unknown symbol of node j
  slot j, j outside P                           the sum of node j's symbols
                                                over the group's aggregation
                                                coordinates

Helpers transmit their sum slot (one field element per group); the word then
has exactly r erasures (the member symbols, the sums of the other failed
nodes, and the sums of idle nodes), filled by the group's erasure operator.
A plan stores only each group's aggregation coordinates (agg_tau), slot-major:
agg_tau[:, w] is contiguous, so a helper sums its column over a family with
one take per slot and one reduction (grs.mod_p, a division by the scalar p,
not an integer %).  A family's groups are U block copies of G orbits, and
its slots are in one fixed order: known slots are the helpers ascending;
erased slots are the members' (j, w) slots (slot w holds the member's digit
plus w), then the other non-helpers ascending.  Step 1 is then one
constructions.apply_table call per family on the helpers' payloads as they
are; a plain MDS decode is the same call with width 1, h = r and d = k.
Families with more than one member set (C3, C4, Hadamard) run a second,
download-free step: each remaining coordinate of a failed node equals its
recovered group sum minus symbols already known from step 1.

One builder makes every family: a group is the orbit of a base plane under
cyclic shifts of its digits at the member positions P, the v-th shifted plane
placed in block b_table[u, v].  The shifts, the base-plane selections and the
builder's repeated-digit check all read the digit table; nothing in a plan
divides.  Schemes differ only in that data:

  pinned    largest-s C1/C2 pattern; base planes have digit 0 at min(H),
            b_table[b, v] = b
  block     C3/C4 and the other C1/C2 patterns; every plane is a base plane,
            b_table[mu, v] = mu * w_i + Omega_i[v]
  Hadamard  base planes whose bits at M have Hamming syndrome 0 (the code
            V_0); b_table = [[0, 0]]

Group ordering is deterministic: families in partition order, groups by
(block, a) within a family, so helper payloads need no per-symbol labels.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from typing import List, Sequence, Tuple

import numpy as np

from . import audit, mixedradix
from .constructions import CodeSpec, Family, apply_table, erasure_table
from .errors import ParameterError
from .grs import each, mod_p, units
# perfbench's BINDINGS look these kernels up here; repair calls neither
from .grs import solve_vandermonde, syndrome_rhs  # noqa: F401
from .hamming import syndromes


@dataclass
class GroupFamily:
    """All groups sharing one member set P and one slot layout."""

    index: int                # 1-based partition index i
    members: tuple            # P_i, ascending node ids
    width: int                # symbols recovered per member per group
    agg_tau: np.ndarray       # (U*G, width) packed aggregation coordinates,
                              # slot-major: each agg_tau[:, w] is contiguous
    others: tuple             # nodes outside P, ascending
    copies: int               # U: group u*G + g is base plane g's copy u

    @property
    def group_count(self) -> int:
        return self.agg_tau.shape[0]


@dataclass
class RepairPlan:
    spec: CodeSpec
    pattern: tuple            # (h, d)
    failed: tuple             # H, ascending
    helpers: tuple            # R, ascending
    partition: tuple          # P_1..P_{h/delta}
    families: List[GroupFamily]
    per_helper: int
    beta: int
    gamma: int
    extras: dict = dc_field(default_factory=dict)

    @property
    def group_count(self) -> int:
        return sum(f.group_count for f in self.families)

    def step1_taus(self, node: int) -> np.ndarray:
        """Packed coordinates of node recovered by its own family's solves."""
        for fam in self.families:
            if node in fam.members:
                return fam.agg_tau.ravel()
        raise ParameterError(f"node {node} is not failed")


@dataclass
class HelperPayload:
    helper: int
    values: np.ndarray  # one aggregated element per group, plan order


# ---------------------------------------------------------------------------
# family builder
# ---------------------------------------------------------------------------

def _orbit_family(spec: CodeSpec, index: int, P: tuple, R: tuple,
                  a_base: np.ndarray, b_table: np.ndarray) -> GroupFamily:
    """The family whose groups are digit-shift orbits of the planes a_base.

    Group u*G + g collects, for v in [W), plane a_base[g] with v added
    cyclically to its digits at the positions P, in block b_table[u, v]:

        agg_tau[u*G + g, v] = b_table[u, v] * A + shift_P(a_base[g], v)
    """
    s_m, n, W = spec.s_m, spec.n, b_table.shape[1]
    if len(P) * W + n - len(P) - len(R) != spec.r:
        raise ParameterError("group shape incompatible with pattern (internal)")
    # slot-major: row v of the (W, G) buffer is slot v of every group, so
    # each agg_tau[:, v] is contiguous
    shifted = [mixedradix.shift_digits(s_m, n, a_base, P, v) for v in range(W)]
    slot_major = np.empty((W, b_table.shape[0] * len(a_base)), dtype=np.int64)
    for v, row in enumerate(slot_major):
        np.add(b_table[:, v, None] * s_m**n, shifted[v], out=row.reshape(-1, len(a_base)))
    # d + r distinct points per group: the lam entries are distinct, so this
    # holds iff each member's W digits differ within every group.  (Checked
    # after agg_tau is made: temporaries made before it raised c1 peak RSS.)
    for row in mixedradix.digit_table(s_m, n, P):
        digits = [np.take(row, a) for a in shifted]
        if any(np.any(digits[v] == digits[w]) for w in range(W) for v in range(w)):
            raise ParameterError("repeated evaluation point in a repair group (internal)")
    agg_tau = slot_major.T
    return GroupFamily(index=index, members=P, width=W, agg_tau=agg_tau,
                       others=tuple(j for j in range(1, n + 1) if j not in P),
                       copies=b_table.shape[0])


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def plan(spec: CodeSpec, failed: Sequence[int], helpers: Sequence[int],
         pattern: Tuple[int, int]) -> RepairPlan:
    """Build the full repair description for failed set H and helper set R."""
    h, d = int(pattern[0]), int(pattern[1])
    H = tuple(sorted(int(j) for j in failed))
    R = tuple(sorted(int(j) for j in helpers))
    if len(set(H)) != len(H) or len(set(R)) != len(R):
        raise ParameterError("duplicate node index")
    if any(not 1 <= j <= spec.n for j in H + R):
        raise ParameterError("node index out of range")
    if set(H) & set(R):
        raise ParameterError("failed and helper sets overlap")
    if len(H) != h:
        raise ParameterError(f"pattern expects h={h} failed nodes, got {len(H)}")
    if len(R) != d:
        raise ParameterError(f"pattern expects d={d} helpers, got {len(R)}")
    info = spec.pattern_info(h, d)
    if h % info.delta:
        raise ParameterError("failed set not partitionable (internal)")
    partition = tuple(H[i:i + info.delta] for i in range(0, h, info.delta))

    if spec.family is Family.HADAMARD:
        # plane pairs {a, a + 1_{P_i}} with a|_M in the Hamming code V_0: the
        # bits y of a at M, one representative position (the maximum) per P_i,
        # have syndrome 0 (len(M) = h/(d-k) = 2^w - 1)
        M = tuple(max(P) for P in partition)
        y = (1 << np.arange(len(M))) @ mixedradix.digit_table(spec.s_m, spec.n, M)
        a_base = np.flatnonzero(syndromes(len(M))[y] == 0)
        b_tables = [np.zeros((1, 2), dtype=np.int64)] * len(partition)
        extras = {"M": M}
    elif info.pinned:
        # largest-s pattern of C1/C2: full s_m-orbits whose representative has
        # digit 0 at min(H), repeated in every block b
        a_base = np.flatnonzero(mixedradix.digit_table(spec.s_m, spec.n, H[:1])[0] == 0)
        b_tables = [np.repeat(np.arange(spec.s)[:, None], spec.s_m, axis=1)]
        extras = {}
    else:
        # C3/C4 and the other C1/C2 patterns: within each b-block of width w_i
        # the planes of P_i are Omega_i = {0..s_i-2, s_i-2+i}
        si, wi = info.s, info.width
        u = spec.s // wi
        omega = {i: tuple(range(si - 1)) + (si - 2 + i,)
                 for i in range(1, len(partition) + 1)}
        a_base = np.arange(spec.s_m**spec.n, dtype=np.int64)
        b_tables = [np.arange(u)[:, None] * wi + np.array(omega[i]) for i in omega]
        extras = {"omega": omega}
    fams = [_orbit_family(spec, i, P, R, a_base, b_tables[i - 1])
            for i, P in enumerate(partition, start=1)]

    per_helper = sum(f.group_count for f in fams)
    beta, gamma = audit.cut_set(h, d, spec.k, spec.ell)
    if per_helper != beta:
        raise ParameterError(
            f"plan downloads {per_helper} per helper, cut-set bound is {beta} (internal)")
    return RepairPlan(spec=spec, pattern=(h, d), failed=H, helpers=R,
                      partition=partition, families=fams,
                      per_helper=per_helper, beta=beta, gamma=gamma, extras=extras)


def helper_aggregate(plan_: RepairPlan, helper: int, column: np.ndarray) -> HelperPayload:
    """One aggregated element per group: the sum of the helper's own column
    over the group's aggregation coordinates.

    column is (ell,) or (B, ell); it is reduced mod p only if an entry lies
    outside [0, p).  Each family adds one take per slot into the output and
    reduces once, with grs.mod_p.  A group reads width elements per block,
    and grs.units cuts each family by that: into runs of whole blocks for the
    stacked codewords of a cluster, into group ranges for one large column.
    """
    if helper not in plan_.helpers:
        raise ParameterError(f"node {helper} is not in the helper set")
    p = plan_.spec.field.p
    col = plan_.spec.field.residues(column)
    if col.shape[-1] != plan_.spec.ell:
        raise ParameterError(f"column length {col.shape[-1]} != ell={plan_.spec.ell}")
    out = np.empty(col.shape[:-1] + (plan_.per_helper,), dtype=np.int64)
    rows, outs = col.reshape(-1, col.shape[-1]), out.reshape(-1, plan_.per_helper)

    def aggregate(groups, blocks, fam, start):
        g0, g1 = groups
        for b0, b1 in blocks:
            acc, src = outs[b0:b1, start + g0:start + g1], rows[b0:b1]
            take = np.empty_like(acc)
            # mode="clip" writes into out unbuffered; plan indices are below ell
            np.take(src, fam.agg_tau[g0:g1, 0], axis=-1, out=acc, mode="clip")
            for w in range(1, fam.width):
                acc += np.take(src, fam.agg_tau[g0:g1, w], axis=-1, out=take, mode="clip")
            mod_p(acc, p, take)

    work, start = [], 0
    for fam in plan_.families:
        work += [(g, b, fam, start) for g, b in units(len(rows), fam.group_count, fam.width)]
        start += fam.group_count
    each(aggregate, work)
    return HelperPayload(helper, out)


def _payload_arrays(plan_: RepairPlan, payloads) -> list:
    """Payloads as d (B, per_helper) int64 residue arrays in helper order,
    uncopied; a payload is reduced mod p only if an entry lies outside [0, p).
    Exactly one payload per helper is accepted."""
    by_node = {int(pl.helper): np.atleast_2d(pl.values) for pl in payloads}
    if sorted(int(pl.helper) for pl in payloads) != list(plan_.helpers):
        raise ParameterError("payloads do not match the helper set, one per helper")
    shape = (by_node[plan_.helpers[0]].shape[0], plan_.per_helper)
    for j in plan_.helpers:
        if by_node[j].shape != shape:
            raise ParameterError(
                f"helper {j} payload has shape {by_node[j].shape}, expected {shape}")
    return [plan_.spec.field.residues(by_node[j]) for j in plan_.helpers]


def repair_columns(plan_: RepairPlan, payloads: Sequence[np.ndarray]) -> np.ndarray:
    """Solve all groups and run the subtraction step; returns (h, B, ell).

    payloads holds the d helpers' (B, per_helper) residue arrays, in helper
    order.  A group's r erased slots are its (r x d) erasure operator applied
    to the d helper sums, and it depends only on the group's base plane
    a = agg_tau[g, 0] (copy 0 lies in block 0).  So each family is one
    erasure_table and one apply_table over (B, U, G) views of the payloads;
    each unit scatters its buffer to the restored columns and the sums.
    """
    spec, helpers, r = plan_.spec, plan_.helpers, plan_.spec.r
    p, B = spec.field.p, payloads[0].shape[0]
    restored = np.zeros((len(plan_.failed), B, spec.ell), dtype=np.int64)
    node_row = {j: i for i, j in enumerate(plan_.failed)}

    sums, start = [], 0
    for fam in plan_.families:
        U, G = fam.copies, fam.group_count // fam.copies
        # erased slots: (member, w), then (other non-helper, None)
        slots = [(j, w) for j in fam.members for w in range(fam.width)]
        slots += [(j, None) for j in fam.others if j not in helpers]
        erased = [j for j, _ in slots]
        taus = fam.agg_tau.reshape(U, G, -1)
        fam_sums = {j: np.empty((B, U, G), dtype=np.int64)
                    for j, w in slots if w is None and j in node_row}

        @contextmanager
        def scatter(b0, b1, g0, g1):
            x = np.empty((r, b1 - b0, U, g1 - g0), dtype=np.int64)
            yield x
            for (j, w), xu in zip(slots, x):
                if w is not None:
                    restored[node_row[j]][b0:b1, taus[:, g0:g1, w]] = xu
                elif j in fam_sums:
                    fam_sums[j][b0:b1, :, g0:g1] = xu

        apply_table(spec, erasure_table(spec, erased, helpers), erased, helpers, taus[0, :, 0],
                    [pl[:, start:start + U * G].reshape(B, U, G) for pl in payloads], scatter)
        sums += [(fam, j, acc.reshape(B, -1)) for j, acc in fam_sums.items()]
        start += fam.group_count

    # step 2: no download; peel the recovered sums with already-known symbols
    for fam, j, acc in sums:
        row, take = restored[node_row[j]], np.empty_like(acc)
        for w in range(fam.width - 1):
            acc -= np.take(row, fam.agg_tau[:, w], axis=-1, out=take, mode="clip")
        row[:, fam.agg_tau[:, -1]] = mod_p(acc, p, take)
    return restored


def build_transcript(plan_: RepairPlan, blocks: int = 1) -> audit.RepairTranscript:
    """Transcript for a repair of `blocks` stacked codewords under this plan."""
    return audit.RepairTranscript(
        pattern=plan_.pattern, failed=plan_.failed, helpers=plan_.helpers,
        ell=plan_.spec.ell * blocks,
        per_helper={j: plan_.per_helper * blocks for j in plan_.helpers},
        total=plan_.per_helper * len(plan_.helpers) * blocks,
        beta=plan_.beta * blocks, gamma=plan_.gamma * blocks,
        group_families=[{"family": f.index, "members": list(f.members),
                         "count": f.group_count, "width": f.width,
                         "erasures_per_group": plan_.spec.r}
                        for f in plan_.families],
    )


def center_repair(plan_: RepairPlan, payloads):
    """Restore the failed columns from helper payloads.

    payloads: HelperPayload per helper (values of shape (per_helper,) or
    (B, per_helper) for B stacked codewords).  Returns ({node: column},
    RepairTranscript); columns are (ell,) when payloads were 1-D.
    """
    arrays = _payload_arrays(plan_, payloads)
    squeeze = all(pl.values.ndim == 1 for pl in payloads)
    restored = repair_columns(plan_, arrays)
    out = {node: restored[i, 0] if squeeze else restored[i]
           for i, node in enumerate(plan_.failed)}
    return out, build_transcript(plan_, blocks=arrays[0].shape[0])


def repair_from_codeword(plan_: RepairPlan, columns: np.ndarray):
    """Convenience: aggregate helper columns from a full (n, ell) array and repair."""
    payloads = [helper_aggregate(plan_, j, columns[j - 1]) for j in plan_.helpers]
    return center_repair(plan_, payloads)
