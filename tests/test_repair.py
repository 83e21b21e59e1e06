import itertools
import sys

import numpy as np
import pytest

from msrcodes import audit
from msrcodes.constructions import (build, complete_columns, encode, encode_blocks,
                                    mds_reconstruct, node_points, random_data, verify_planes)
from msrcodes.errors import ParameterError
from msrcodes.mixedradix import CoordinateSystem
from msrcodes.repair import (HelperPayload, RepairPlan, _orbit_family, center_repair,
                             helper_aggregate, plan, repair_columns, repair_from_codeword)


def all_patterns(n, k):
    return [(h, d) for h in range(1, n - k + 1) for d in range(k, n - h + 1)]


# ---------------------------------------------------------------------------
# plan shapes (frozen counts)
# ---------------------------------------------------------------------------

def test_plan_c3_counts():
    spec = build("c3", 6, 2, [(2, 4)])
    pl = plan(spec, [1, 2], [3, 4, 5, 6], (2, 4))
    assert len(pl.families) == 1  # h/delta = 1
    assert pl.group_count == 64 == pl.per_helper
    assert pl.per_helper == 2 * 128 // 4
    assert pl.beta == 64 and pl.gamma == 256


def test_plan_hadamard_counts():
    spec = build("hadamard", 8, 4, [(3, 5)])
    pl = plan(spec, [1, 2, 3], [4, 5, 6, 7, 8], (3, 5))
    assert len(pl.families) == 3
    assert all(f.group_count == 256 // 4 for f in pl.families)
    assert pl.per_helper == 192 and pl.gamma == 960


def test_plan_c1_counts_both_degrees():
    spec = build("c1", 5, 2, [(1, 3), (1, 4)])
    pl3 = plan(spec, [1], [2, 3, 4], (1, 3))
    assert pl3.per_helper == 243 and pl3.gamma == 729  # 3*486/2
    pl4 = plan(spec, [1], [2, 3, 4, 5], (1, 4))
    assert pl4.per_helper == 162 and pl4.gamma == 648  # 4*486/3


def test_plan_validation_errors():
    spec = build("c3", 6, 2, [(2, 4)])
    with pytest.raises(ParameterError):
        plan(spec, [1, 2], [2, 3, 4, 5], (2, 4))  # overlap
    with pytest.raises(ParameterError):
        plan(spec, [1], [3, 4, 5, 6], (2, 4))  # wrong h
    with pytest.raises(ParameterError):
        plan(spec, [1, 2], [3, 4, 5], (2, 4))  # wrong d
    with pytest.raises(ParameterError):
        plan(spec, [1, 2], [3, 4, 5], (2, 3))  # unsupported pattern
    with pytest.raises(ParameterError):
        plan(spec, [1, 7], [3, 4, 5, 6], (2, 4))  # node out of range
    for failed, helpers in (([1, 1], [3, 4, 5, 6]), ([1, 2], [3, 4, 4, 6])):
        with pytest.raises(ParameterError, match="duplicate node index"):
            plan(spec, failed, helpers, (2, 4))


def test_step1_taus_of_a_node_that_has_not_failed():
    pl = plan(build("c3", 6, 2, [(2, 4)]), [1, 2], [3, 4, 5, 6], (2, 4))
    assert pl.step1_taus(1).size
    with pytest.raises(ParameterError, match="node 3 is not failed"):
        pl.step1_taus(3)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

PLAN_CASES = [
    ("c1", 5, 2, [(1, 3), (1, 4)], [1], [2, 3, 4], (1, 3)),
    ("c1", 5, 2, [(1, 3), (1, 4)], [3], [1, 2, 5], (1, 3)),
    ("c1", 5, 2, [(1, 3), (1, 4)], [5], [1, 2, 3, 4], (1, 4)),
    ("c2", 6, 2, [(1, 3), (1, 4), (1, 5), (2, 4)], [2, 4], [1, 3, 5, 6], (2, 4)),
    ("c2", 6, 2, [(1, 3), (1, 4), (1, 5), (2, 4)], [6], [1, 2, 3, 4, 5], (1, 5)),
    ("c3", 6, 2, [(2, 4)], [2, 5], [1, 3, 4, 6], (2, 4)),
    ("c3", 7, 2, [(4, 3)], [1, 3, 5, 7], [2, 4, 6], (4, 3)),
    ("c4", 6, 2, all_patterns(6, 2), [1, 2, 3], [4, 5, 6], (3, 3)),
    ("c4", 6, 2, all_patterns(6, 2), [2, 6], [1, 3, 4], (2, 3)),
    ("c4", 6, 2, all_patterns(6, 2), [1], [2, 3], (1, 2)),
    ("hadamard", 8, 4, [(3, 5)], [2, 5, 8], [1, 3, 4, 6, 7], (3, 5)),
    ("hadamard", 6, 2, [(3, 3)], [1, 4, 5], [2, 3, 6], (3, 3)),
    ("hadamard", 9, 4, [(3, 5)], [1, 5, 9], [2, 3, 6, 7, 8], (3, 5)),  # idle node
]


@pytest.mark.parametrize("family,n,k,pats,H,R,pattern", PLAN_CASES)
def test_group_words_have_r_erasures_and_distinct_points(family, n, k, pats, H, R, pattern):
    spec = build(family, n, k, pats)
    pl = plan(spec, H, R, pattern)
    h, d = pattern
    assert pl.per_helper == h * spec.ell // (d - k + h)
    for fam in pl.families:
        # slot order: the members' width slots, then the others ascending
        a = fam.agg_tau.T % spec.coords.a_count
        table = np.concatenate([node_points(spec, fam.members, a).reshape(-1, fam.group_count),
                                node_points(spec, fam.others, a[0])]).T
        slots = [j for j in fam.members for _ in range(fam.width)] + list(fam.others)
        assert table.shape == (fam.group_count, d + spec.r)
        assert sum(j not in R for j in slots) == spec.r
        assert sum(j in R for j in slots) == d
        for g in range(fam.group_count):
            row = table[g]
            assert len(set(row.tolist())) == len(row)
            taus = fam.agg_tau[g]
            assert len(set(taus.tolist())) == len(taus)


@pytest.mark.parametrize("family,n,k,pats,H,R,pattern", PLAN_CASES)
def test_step_coverage_partitions_every_failed_column(family, n, k, pats, H, R, pattern):
    spec = build(family, n, k, pats)
    pl = plan(spec, H, R, pattern)
    for node in H:
        own = pl.step1_taus(node)
        extra = [fam.agg_tau[:, -1] for fam in pl.families if node not in fam.members]
        combined = np.concatenate([own] + extra)
        assert np.array_equal(np.sort(combined), np.arange(spec.ell))


def test_step1_sets_disjoint_across_groups():
    spec = build("c3", 6, 2, [(2, 4)])
    pl = plan(spec, [1, 2], [3, 4, 5, 6], (2, 4))
    taus = pl.families[0].agg_tau.ravel()
    assert len(np.unique(taus)) == taus.size


def test_hadamard_step1_classes_match_coset_union():
    spec = build("hadamard", 8, 4, [(3, 5)])
    H = [1, 2, 3]
    pl = plan(spec, H, [4, 5, 6, 7, 8], (3, 5))
    M = pl.extras["M"]
    # reference: a GF(2) parity-check matrix whose column c is c in binary
    check = np.array([[(c >> b) & 1 for c in range(1, len(M) + 1)] for b in range(2)])

    def a_class(a):
        y = np.array([(a >> (pos - 1)) & 1 for pos in M])
        return int((check @ y % 2) @ [1, 2])

    for fam in pl.families:
        covered = sorted(int(t) for t in fam.agg_tau.ravel())
        expected = [a for a in range(spec.ell) if a_class(a) in (0, fam.index)]
        assert covered == expected


def test_c3_omega_sets():
    spec = build("c3", 7, 2, [(4, 3)])  # delta = gcd(4,1) = 1, s_0 = 2, h/delta = 4
    pl = plan(spec, [1, 2, 3, 4], [5, 6, 7], (4, 3))
    assert pl.extras["omega"] == {1: (0, 1), 2: (0, 2), 3: (0, 3), 4: (0, 4)}
    assert [f.members for f in pl.families] == [(1,), (2,), (3,), (4,)]


# ---------------------------------------------------------------------------
# helper aggregation
# ---------------------------------------------------------------------------

def test_aggregate_zero_column():
    spec = build("c3", 6, 2, [(2, 4)])
    pl = plan(spec, [1, 2], [3, 4, 5, 6], (2, 4))
    payload = helper_aggregate(pl, 3, np.zeros(spec.ell, dtype=np.int64))
    assert payload.helper == 3
    assert payload.values.shape == (64,) and not payload.values.any()


def test_aggregate_singleton_set_is_identity():
    # d = k pattern: every aggregation set is one coordinate
    spec = build("c4", 6, 2, [(1, 2), (1, 3)])
    pl = plan(spec, [1], [2, 3], (1, 2))
    assert pl.families[0].width == 1
    rng = np.random.default_rng(0)
    col = rng.integers(0, spec.field.p, size=spec.ell)
    payload = helper_aggregate(pl, 2, col)
    taus = pl.families[0].agg_tau[:, 0]
    assert np.array_equal(payload.values, col[taus])


def test_aggregate_matches_direct_sum():
    spec = build("c3", 6, 2, [(2, 4)])
    rng = np.random.default_rng(1)
    cw = encode(spec, random_data(spec, rng))
    pl = plan(spec, [1, 2], [3, 4, 5, 6], (2, 4))
    payload = helper_aggregate(pl, 5, cw.column(5))
    fam = pl.families[0]
    for g in range(fam.group_count):
        expected = sum(int(cw.column(5)[t]) for t in fam.agg_tau[g]) % spec.field.p
        assert payload.values[g] == expected


def test_aggregate_rejects_non_helper():
    spec = build("c3", 6, 2, [(2, 4)])
    pl = plan(spec, [1, 2], [3, 4, 5, 6], (2, 4))
    with pytest.raises(ParameterError):
        helper_aggregate(pl, 1, np.zeros(spec.ell, dtype=np.int64))
    for bad in (np.zeros(spec.ell - 1, dtype=np.int64), np.zeros((2, spec.ell + 1), dtype=np.int64)):
        with pytest.raises(ParameterError, match=f"column length {bad.shape[-1]} != ell"):
            helper_aggregate(pl, 3, bad)


def _unreduced(x, p):
    """Copies of residues x congruent to them mod p but outside [0, p):
    negative, x + k*p, and u64 values >= 2^63."""
    high = 2**63 // p + 1  # high * p >= 2^63, and high * p + p - 1 < 2^64
    return {"negative": x - p, "plus-k-p": x + 12345 * p,
            "u64-high": x.astype(np.uint64) + np.uint64(high * p)}


@pytest.mark.parametrize("family, n, k, pats, H, R, pattern", [
    ("c1", 5, 2, [(1, 3), (1, 4)], [4], [1, 2, 3, 5], (1, 4)),  # pinned
    ("c3", 6, 2, [(2, 4)], [1, 2], [3, 4, 5, 6], (2, 4)),
    ("c4", 6, 2, [(1, 3), (2, 4), (3, 3)], [1, 3, 5], [2, 4, 6], (3, 3)),  # step-2 peel
])
def test_unreduced_inputs_repair_as_their_residues(family, n, k, pats, H, R, pattern):
    spec = build(family, n, k, pats)
    p = spec.field.p
    cols = encode_blocks(spec, random_data(spec, np.random.default_rng(8), blocks=2))
    pl = plan(spec, H, R, pattern)
    payloads = [helper_aggregate(pl, j, cols[:, j - 1]) for j in R]
    restored, _ = center_repair(pl, payloads)
    assert all(np.array_equal(restored[j], cols[:, j - 1]) for j in H)
    for name, col in _unreduced(cols[:, R[0] - 1], p).items():
        assert np.array_equal(helper_aggregate(pl, R[0], col).values, payloads[0].values), name
    for name in ("negative", "plus-k-p", "u64-high"):
        again, _ = center_repair(pl, [HelperPayload(pay.helper, _unreduced(pay.values, p)[name])
                                      for pay in payloads])
        assert all(np.array_equal(again[j], restored[j]) for j in H), name


# ---------------------------------------------------------------------------
# centralized repair
# ---------------------------------------------------------------------------

def test_zero_codeword_restores_zero():
    spec = build("c3", 6, 2, [(2, 4)])
    pl = plan(spec, [1, 2], [3, 4, 5, 6], (2, 4))
    cols = np.zeros((6, spec.ell), dtype=np.int64)
    restored, t = repair_from_codeword(pl, cols)
    assert all(not restored[j].any() for j in (1, 2))
    assert t.total == 256


def test_c3_roundtrip_with_bandwidth():
    spec = build("c3", 6, 2, [(2, 4)])
    rng = np.random.default_rng(2)
    cw = encode(spec, random_data(spec, rng))
    pl = plan(spec, [1, 2], [3, 4, 5, 6], (2, 4))
    restored, t = repair_from_codeword(pl, cw.columns)
    assert np.array_equal(restored[1], cw.column(1))
    assert np.array_equal(restored[2], cw.column(2))
    assert t.total == 256 and t.per_helper == {3: 64, 4: 64, 5: 64, 6: 64}


def test_c2_corollary_instance():
    spec = build("c2", 6, 2, [(1, 3), (1, 4), (1, 5), (2, 4)])
    rng = np.random.default_rng(3)
    cw = encode(spec, random_data(spec, rng))
    pl = plan(spec, [5, 6], [1, 2, 3, 4], (2, 4))
    restored, t = repair_from_codeword(pl, cw.columns)
    assert np.array_equal(restored[5], cw.column(5))
    assert np.array_equal(restored[6], cw.column(6))
    assert t.total == 2 * 4 * spec.ell // 4 == 49152


@pytest.mark.parametrize("family,n,k,pats,H,R,pattern", PLAN_CASES)
def test_roundtrip_all_plan_cases(family, n, k, pats, H, R, pattern):
    spec = build(family, n, k, pats)
    rng = np.random.default_rng(4)
    pl = plan(spec, H, R, pattern)
    for _ in range(3):
        cw = encode(spec, random_data(spec, rng))
        restored, t = repair_from_codeword(pl, cw.columns)
        for j in H:
            assert np.array_equal(restored[j], cw.column(j))
        h, d = pattern
        assert t.total == d * h * spec.ell // (d - k + h)


@pytest.mark.parametrize("family,n,k,pats,H,R,pattern", [
    ("c1", 5, 2, [(1, 3), (1, 4)], [4], [1, 2, 5], (1, 3)),
    ("c1", 5, 2, [(1, 3), (1, 4)], [4], [1, 2, 3, 5], (1, 4)),
    ("c2", 6, 2, [(1, 3), (2, 4)], [3, 4], [1, 2, 5, 6], (2, 4)),
    ("c2", 6, 2, [(1, 3), (2, 4)], [6], [2, 3, 5], (1, 3)),
    ("c3", 6, 2, [(2, 4)], [1, 6], [2, 3, 4, 5], (2, 4)),
    ("c4", 5, 2, [(h, d) for h in range(1, 4) for d in range(2, 5 - h + 1)],
     [2, 4], [3, 5, 1], (2, 3)),
    ("hadamard", 8, 4, [(3, 5)], [1, 4, 7], [2, 3, 5, 6, 8], (3, 5)),
])
def test_100_random_codewords_restore_exactly(family, n, k, pats, H, R, pattern):
    spec = build(family, n, k, pats)
    rng = np.random.default_rng(99)
    from msrcodes.constructions import encode_blocks
    cols = encode_blocks(spec, random_data(spec, rng, blocks=100))
    pl = plan(spec, H, R, pattern)
    payloads = [helper_aggregate(pl, j, cols[:, j - 1, :]) for j in pl.helpers]
    restored, t = center_repair(pl, payloads)
    for j in H:
        assert np.array_equal(restored[j], cols[:, j - 1, :])
    h, d = pattern
    assert t.total == 100 * d * h * spec.ell // (d - k + h)


def test_c1_cross_degree_consistency():
    spec = build("c1", 5, 2, [(1, 3), (1, 4)])
    rng = np.random.default_rng(5)
    cw = encode(spec, random_data(spec, rng))
    outs = []
    for pattern, R in (((1, 3), [2, 4, 5]), ((1, 4), [2, 3, 4, 5])):
        pl = plan(spec, [1], R, pattern)
        restored, _ = repair_from_codeword(pl, cw.columns)
        outs.append(restored[1])
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], cw.column(1))


def test_center_repair_blocked_payloads():
    spec = build("c3", 6, 2, [(2, 4)])
    rng = np.random.default_rng(6)
    data = random_data(spec, rng, blocks=4)
    from msrcodes.constructions import encode_blocks
    cols = encode_blocks(spec, data)  # (4, n, ell)
    pl = plan(spec, [1, 2], [3, 4, 5, 6], (2, 4))
    payloads = [helper_aggregate(pl, j, cols[:, j - 1, :]) for j in pl.helpers]
    restored, t = center_repair(pl, payloads)
    for j in (1, 2):
        assert np.array_equal(restored[j], cols[:, j - 1, :])
    assert t.total == 256 * 4 and t.ell == spec.ell * 4


def test_center_repair_payload_validation():
    spec = build("c3", 6, 2, [(2, 4)])
    pl = plan(spec, [1, 2], [3, 4, 5, 6], (2, 4))
    good = [HelperPayload(j, np.zeros(64, dtype=np.int64)) for j in (3, 4, 5, 6)]
    bad_set = good[:3] + [HelperPayload(2, np.zeros(64, dtype=np.int64))]
    with pytest.raises(ParameterError):
        center_repair(pl, bad_set)
    bad_len = good[:3] + [HelperPayload(6, np.zeros(63, dtype=np.int64))]
    with pytest.raises(ParameterError):
        center_repair(pl, bad_len)
    stacked = HelperPayload(6, np.zeros((2, 64), dtype=np.int64))
    for bad_blocks in (good[:3] + [stacked], [stacked] + good[:3]):
        with pytest.raises(ParameterError):
            center_repair(pl, bad_blocks)


def test_center_repair_takes_exactly_one_payload_per_helper():
    # a second payload for a helper must not replace the first: here the
    # extra one is a corrupted copy of helper 4's
    spec = build("c3", 6, 2, [(2, 4)])
    cw = encode(spec, random_data(spec, np.random.default_rng(8)))
    pl = plan(spec, [1, 2], [3, 4, 5, 6], (2, 4))
    good = [helper_aggregate(pl, j, cw.column(j)) for j in pl.helpers]
    corrupt = HelperPayload(4, (good[1].values + 1) % spec.field.p)
    for bad in (good + [corrupt], [good[0], good[1], corrupt, good[2], good[3]],
                good[:3], good[:3] + [good[0]]):
        with pytest.raises(ParameterError, match="one per helper"):
            center_repair(pl, bad)
    restored, t = center_repair(pl, good[::-1])   # any order, one each
    assert np.array_equal(restored[1], cw.column(1)) and t.total == 256


def test_transcript_json_schema():
    spec = build("c3", 6, 2, [(2, 4)])
    rng = np.random.default_rng(7)
    cw = encode(spec, random_data(spec, rng))
    pl = plan(spec, [1, 2], [3, 4, 5, 6], (2, 4))
    _, t = repair_from_codeword(pl, cw.columns)
    j = t.to_json()
    assert j["pattern"] == [2, 4]
    assert j["failed"] == [1, 2] and j["helpers"] == [3, 4, 5, 6]
    assert j["per_helper"] == {"3": 64, "4": 64, "5": 64, "6": 64}
    assert j["total"] == 256 and j["bound_gamma"] == 256 and j["optimal"]
    assert j["groups"][0]["erasures_per_group"] == spec.r


def test_plan_rejects_a_group_that_repeats_a_member_digit(monkeypatch):
    # an orbit builder that ignores its shift puts the same plane, hence the
    # same member digits and evaluation points, in every slot of a group
    monkeypatch.setattr(CoordinateSystem, "shift_digits", lambda self, a, positions, v: a)
    with pytest.raises(ParameterError, match="repeated evaluation point in a repair group"):
        plan(build("c3", 6, 2, [(2, 4)]), [1, 2], [3, 4, 5, 6], (2, 4))


@pytest.mark.parametrize("family, n, k", [("c2", 5, 2), ("c2", 6, 2), ("c4", 5, 2), ("c4", 6, 3)])
def test_one_code_repairs_every_pattern_optimally(family, n, k):
    # the abstract's claim: one code meets the cut-set bound for all its
    # patterns at once; every failed set of every pattern, one seeded helper set
    pats = [(h, d) for h, d in all_patterns(n, k) if family == "c4" or (d - k) % h == 0]
    spec = build(family, n, k, pats)
    rng = np.random.default_rng(10 * n + k)
    cw = encode(spec, random_data(spec, rng))
    for h, d in pats:
        for H in itertools.combinations(range(1, n + 1), h):
            rest = [j for j in range(1, n + 1) if j not in H]
            R = sorted(rng.choice(rest, size=d, replace=False).tolist())
            restored, t = repair_from_codeword(plan(spec, H, R, (h, d)), cw.columns)
            assert t.total == t.gamma == d * h * spec.ell // (d - k + h) and t.uniform
            for j in H:
                assert np.array_equal(restored[j], cw.column(j)), (h, d, H, R)


DIGIT_CASES = [  # spec, then (failed, helpers, pattern) per repair
    (("c1", 8, 4, [(1, 6), (1, 7)]),
     [([2], [1, 3, 4, 5, 6, 7], (1, 6)), ([8], [1, 2, 3, 4, 5, 6, 7], (1, 7))]),
    (("c4", 6, 2, [(1, 3), (2, 4), (3, 3)]),
     [([6], [1, 2, 3], (1, 3)), ([2, 5], [1, 3, 4, 6], (2, 4)), ([1, 3, 5], [2, 4, 6], (3, 3))]),
    (("hadamard", 8, 4, [(3, 5)]), [([2, 5, 7], [1, 3, 4, 6, 8], (3, 5))]),
]


def _digit_case_outputs():
    out = []
    for args, repairs in DIGIT_CASES:
        spec = build(*args)
        cols = encode_blocks(spec, random_data(spec, np.random.default_rng(12), blocks=2))
        last = list(range(spec.n - spec.k + 1, spec.n + 1))
        bad = cols.copy()
        bad[-1, -1, -1] = (bad[-1, -1, -1] + 1) % spec.field.p
        out += [cols, mds_reconstruct(spec, last, cols[0, [j - 1 for j in last]]).columns,
                verify_planes(spec, cols), verify_planes(spec, bad)]
        for failed, helpers, pattern in repairs:
            pl = plan(spec, failed, helpers, pattern)
            payloads = [helper_aggregate(pl, j, cols[:, j - 1]) for j in helpers]
            restored, transcript = center_repair(pl, payloads)
            out += [f.agg_tau for f in pl.families] + [pay.values for pay in payloads]
            out += [restored[j] for j in failed] + [transcript.to_json()]
    return out


def test_no_per_symbol_path_divides_for_its_digits(monkeypatch):
    # CoordinateSystem keeps one digit implementation, digit_table, which
    # builds every a's digits without a division; apply_table (encode,
    # decode, verify_planes and the center), erasure_table and the plan all
    # read it, and agree with a floor-divide expansion put in its place
    assert not any(hasattr(CoordinateSystem, name) for name in ("digit", "digits"))
    before = _digit_case_outputs()
    assert before[2] and not before[3]
    callers = set()

    def divided(self, positions=None):
        callers.add(sys._getframe(1).f_code.co_name)
        positions = range(1, self.ndigits + 1) if positions is None else positions
        a = np.arange(self.a_count)
        return np.array([a // self.base ** (i - 1) % self.base for i in positions], dtype=np.uint8)

    monkeypatch.setattr(CoordinateSystem, "digit_table", divided)
    after = _digit_case_outputs()
    assert {"apply_table", "erasure_table", "plan", "_orbit_family"} <= callers
    assert len(after) == len(before)
    assert all(np.array_equal(x, y) for x, y in zip(before, after))


SPECS = {  # name: (family, n, k, patterns)
    "c1": ("c1", 5, 2, [(1, 3), (1, 4)]),
    "c2": ("c2", 6, 2, [(1, 3), (2, 4)]),
    "c3": ("c3", 6, 2, [(2, 4)]),
    "c4": ("c4", 6, 2, [(1, 3), (2, 4), (3, 3)]),
    "hadamard": ("hadamard", 8, 4, [(3, 5)]),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_decoding_is_the_width_one_repair(name):
    # an MDS decode from k nodes is the (h, d) = (r, k) repair: one slot per
    # erased node, every plane its own orbit in each of the s b-blocks, and
    # each helper sends its own column, so beta = ell and gamma = k*ell
    spec = build(*SPECS[name])
    n, k, r, ell = spec.n, spec.k, spec.r, spec.ell
    cols = encode_blocks(spec, random_data(spec, np.random.default_rng(14), blocks=2))
    beta, gamma = audit.cut_set(r, k, k, ell)
    for kept in itertools.combinations(range(1, n + 1), k):
        erased = tuple(j for j in range(1, n + 1) if j not in kept)
        fam = _orbit_family(spec, 1, erased, kept, np.arange(spec.coords.a_count),
                            np.arange(spec.s)[:, None])
        pl = RepairPlan(spec=spec, pattern=(r, k), failed=erased, helpers=kept,
                        partition=(erased,), families=[fam], per_helper=fam.group_count,
                        beta=beta, gamma=gamma)
        assert pl.per_helper == beta == ell and gamma == k * ell
        restored = repair_columns(pl, [cols[:, j - 1] for j in kept])
        decoded = complete_columns(spec, kept, cols[:, [j - 1 for j in kept]])
        assert np.array_equal(restored, decoded[:, [j - 1 for j in erased]].swapaxes(0, 1)), kept
