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
nodes, and the sums of idle nodes) and is solved by Vandermonde elimination.
Families with more than one member set (C3, C4, Hadamard) run a second,
download-free step: each remaining coordinate of a failed node equals its
recovered group sum minus symbols already known from step 1.

One builder makes every family: a group is the orbit of a base plane under
cyclic shifts of its digits at the member positions P, the v-th shifted plane
placed in block b_table[u, v].  Schemes differ only in that data:

  pinned    largest-s C1/C2 pattern; base planes have digit 0 at min(H),
            b_table[b, v] = b
  block     C3/C4 and the other C1/C2 patterns; every plane is a base plane,
            b_table[mu, v] = mu * w_i + Omega_i[v]
  Hadamard  base planes from the Hamming coset V_0; b_table = [[0, 0]]

Group ordering is deterministic: families in partition order, groups by
(block, a) within a family, so helper payloads need no per-symbol labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import List, Sequence, Tuple

import numpy as np

from . import audit
from .constructions import CodeSpec, Family
from .errors import ParameterError
from .grs import slices, solve_vandermonde, syndrome_rhs
from .hamming import build_partition
from .mixedradix import Coordinate


@dataclass
class GroupFamily:
    """All groups sharing one member set P and one slot layout."""

    index: int                # 1-based partition index i
    members: tuple            # P_i, ascending node ids
    width: int                # symbols recovered per member per group
    agg_tau: np.ndarray       # (G, width) packed aggregation coordinates
    points: np.ndarray        # (G, L) evaluation points per slot
    others: tuple             # nodes outside P, ascending
    known_slots: np.ndarray   # slot indices of the d helper sums
    erased_slots: np.ndarray  # slot indices of the r erasures (ascending)
    member_ranks: dict        # (node, w) -> column of the solve output
    failed_sum_ranks: dict    # failed node outside P -> column of the solve output

    @property
    def group_count(self) -> int:
        return self.agg_tau.shape[0]

    @property
    def word_length(self) -> int:
        return self.points.shape[1]

    def agg_coords(self, g: int, coords) -> list:
        return [Coordinate(*coords.unpack(int(t))) for t in self.agg_tau[g]]

    def unknown_symbol_slots(self, g: int, coords) -> list:
        cs = self.agg_coords(g, coords)
        return [(j, cs[w]) for j in self.members for w in range(self.width)]


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

    def family_slices(self) -> list:
        """(family, start, stop) offsets into the flat payload ordering."""
        out, off = [], 0
        for fam in self.families:
            out.append((fam, off, off + fam.group_count))
            off += fam.group_count
        return out

    def step1_taus(self, node: int) -> np.ndarray:
        """Packed coordinates of node recovered by its own family's solves."""
        for fam in self.families:
            if node in fam.members:
                return fam.agg_tau.ravel()
        raise ParameterError(f"node {node} is not failed")

    def step2_schedule(self, node: int):
        """(target tau, source family index, group, subtraction taus) per entry."""
        out = []
        for fam in self.families:
            if node in fam.members or node not in self.failed:
                continue
            for g in range(fam.group_count):
                out.append((int(fam.agg_tau[g, -1]), fam.index, g,
                            [int(t) for t in fam.agg_tau[g, :-1]]))
        return out


@dataclass
class HelperPayload:
    helper: int
    values: np.ndarray  # one aggregated element per group, plan order


# ---------------------------------------------------------------------------
# family builder
# ---------------------------------------------------------------------------

def _make_family(spec: CodeSpec, index: int, members: tuple, failed: tuple,
                 helpers: tuple, agg_tau: np.ndarray) -> GroupFamily:
    n, r, d = spec.n, spec.r, len(helpers)
    coords = spec.coords
    lam = spec.lam_array()
    G, W = agg_tau.shape
    others = tuple(j for j in range(1, n + 1) if j not in members)
    L = len(members) * W + len(others)
    if len(members) * W + n - len(members) - d != r:
        raise ParameterError("group shape incompatible with pattern (internal)")

    points = np.empty((G, L), dtype=np.int64)
    agg_a = agg_tau % coords.a_count
    for mi, j in enumerate(members):
        for w in range(W):
            points[:, mi * W + w] = lam[j - 1, coords.digit(agg_a[:, w], j)]
    for oi, j in enumerate(others):
        points[:, len(members) * W + oi] = lam[j - 1, coords.digit(agg_a[:, 0], j)]
    # d + r distinct points per group (spec structural invariant)
    srt = np.sort(points, axis=1)
    if np.any(srt[:, 1:] == srt[:, :-1]):
        raise ParameterError("repeated evaluation point in a repair group (internal)")

    helper_set = set(helpers)
    known = [len(members) * W + oi for oi, j in enumerate(others) if j in helper_set]
    erased = [s for s in range(L) if s not in set(known)]
    member_ranks, failed_sum_ranks = {}, {}
    for rank, slot in enumerate(erased):
        if slot < len(members) * W:
            member_ranks[(members[slot // W], slot % W)] = rank
        else:
            j = others[slot - len(members) * W]
            if j in failed:
                failed_sum_ranks[j] = rank
    return GroupFamily(index=index, members=members, width=W, agg_tau=agg_tau,
                       points=points, others=others,
                       known_slots=np.array(known, dtype=np.int64),
                       erased_slots=np.array(erased, dtype=np.int64),
                       member_ranks=member_ranks,
                       failed_sum_ranks=failed_sum_ranks)


def _orbit_family(spec: CodeSpec, index: int, P: tuple, H: tuple, R: tuple,
                  a_base: np.ndarray, b_table: np.ndarray) -> GroupFamily:
    """The family whose groups are digit-shift orbits of the planes a_base.

    Group u*G + g collects, for v in [W), plane a_base[g] with v added
    cyclically to its digits at the positions P, in block b_table[u, v]:

        agg_tau[u*G + g, v] = b_table[u, v] * A + shift_P(a_base[g], v)
    """
    coords = spec.coords
    W = b_table.shape[1]
    shifted = np.stack([coords.shift_digits(a_base, P, v) for v in range(W)], axis=1)
    agg_tau = (b_table[:, None, :] * coords.a_count + shifted[None]).reshape(-1, W)
    return _make_family(spec, index, P, H, R, agg_tau)


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

    coords = spec.coords
    a_all = np.arange(coords.a_count, dtype=np.int64)
    if spec.family is Family.HADAMARD:
        # plane pairs {a, a + 1_{P_i}} with a|_M in the Hamming coset V_0, where
        # M holds one representative position (the maximum) per P_i
        part = build_partition((info.h // info.delta).bit_length())  # h/(d-k) = 2^w - 1
        M = tuple(max(P) for P in partition)
        y = sum(coords.digit(a_all, pos) << gi for gi, pos in enumerate(M))
        a_base = a_all[part.class_table()[y] == 0]
        b_tables = [np.zeros((1, 2), dtype=np.int64)] * len(partition)
        extras = {"M": M, "partition": part}
    elif info.pinned:
        # largest-s pattern of C1/C2: full s_m-orbits whose representative has
        # digit 0 at min(H), repeated in every block b
        a_base = a_all[coords.digit(a_all, H[0]) == 0]
        b_tables = [np.repeat(np.arange(spec.s)[:, None], spec.s_m, axis=1)]
        extras = {}
    else:
        # C3/C4 and the other C1/C2 patterns: within each b-block of width w_i
        # the planes of P_i are Omega_i = {0..s_i-2, s_i-2+i}
        si, wi = info.s, info.width
        u = spec.s // wi
        omega = {i: tuple(range(si - 1)) + (si - 2 + i,)
                 for i in range(1, len(partition) + 1)}
        a_base = a_all
        b_tables = [np.arange(u)[:, None] * wi + np.array(omega[i]) for i in omega]
        extras = {"omega": omega}
    fams = [_orbit_family(spec, i, P, H, R, a_base, b_tables[i - 1])
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
    over the group's aggregation coordinates."""
    if helper not in plan_.helpers:
        raise ParameterError(f"node {helper} is not in the helper set")
    col = np.asarray(column, dtype=np.int64) % plan_.spec.field.p
    if col.shape[-1] != plan_.spec.ell:
        raise ParameterError(f"column length {col.shape[-1]} != ell={plan_.spec.ell}")
    parts = [col[..., fam.agg_tau].sum(axis=-1) % plan_.spec.field.p
             for fam in plan_.families]
    return HelperPayload(helper, np.concatenate(parts, axis=-1))


def _payload_matrix(plan_: RepairPlan, payloads) -> np.ndarray:
    """Stack payloads as (d, B, per_helper) in helper order."""
    by_node = {}
    for pl in payloads:
        by_node[int(pl.helper)] = np.asarray(pl.values, dtype=np.int64)
    if set(by_node) != set(plan_.helpers):
        raise ParameterError("payloads do not match the helper set")
    rows = []
    for j in plan_.helpers:
        v = by_node[j]
        if v.ndim == 1:
            v = v[None]
        if v.shape[-1] != plan_.per_helper:
            raise ParameterError(
                f"helper {j} payload has {v.shape[-1]} values, expected {plan_.per_helper}")
        rows.append(v % plan_.spec.field.p)
    return np.stack(rows)


def repair_columns(plan_: RepairPlan, payload_matrix: np.ndarray) -> np.ndarray:
    """Solve all groups and run the subtraction step; returns (h, B, ell)."""
    spec = plan_.spec
    p = spec.field.p
    B = payload_matrix.shape[1]
    restored = np.zeros((len(plan_.failed), B, spec.ell), dtype=np.int64)
    node_row = {j: i for i, j in enumerate(plan_.failed)}

    sums = {}
    for fam, start, _ in plan_.family_slices():
        for node in fam.failed_sum_ranks:
            sums[(fam.index, node)] = np.empty((B, fam.group_count), dtype=np.int64)
        for g0, g1 in slices(fam.group_count, fam.word_length * B):
            vals = payload_matrix[:, :, start + g0:start + g1].transpose(2, 0, 1)  # (g, d, B)
            pts = fam.points[g0:g1]
            rhs = syndrome_rhs(spec.field, pts[:, fam.known_slots], vals, spec.r)  # (g, r, B)
            x = solve_vandermonde(spec.field, pts[:, fam.erased_slots], rhs)
            for (node, w), rank in fam.member_ranks.items():
                restored[node_row[node]][:, fam.agg_tau[g0:g1, w]] = x[:, rank, :].T
            for node, rank in fam.failed_sum_ranks.items():
                sums[(fam.index, node)][:, g0:g1] = x[:, rank, :].T

    # step 2: no download; peel the recovered sums with already-known symbols
    for fam in plan_.families:
        for node in fam.failed_sum_ranks:
            row = restored[node_row[node]]
            acc = sums[(fam.index, node)]                            # (B, G)
            if fam.width > 1:
                acc = (acc - row[:, fam.agg_tau[:, :-1]].sum(axis=-1)) % p
            row[:, fam.agg_tau[:, -1]] = acc % p
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
    matrix = _payload_matrix(plan_, payloads)
    squeeze = all(pl.values.ndim == 1 for pl in payloads)
    restored = repair_columns(plan_, matrix)
    out = {node: restored[i, 0] if squeeze else restored[i]
           for i, node in enumerate(plan_.failed)}
    return out, build_transcript(plan_, blocks=matrix.shape[1])


def repair_from_codeword(plan_: RepairPlan, columns: np.ndarray):
    """Convenience: aggregate helper columns from a full (n, ell) array and repair."""
    payloads = [helper_aggregate(plan_, j, columns[j - 1]) for j in plan_.helpers]
    return center_repair(plan_, payloads)
