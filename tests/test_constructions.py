import itertools
import math

import numpy as np
import pytest

from msrcodes import audit
from msrcodes.constructions import (build, encode,
                                    encode_blocks,
                                    manifest_dict, mds_reconstruct,
                                    random_data,
                                    spec_from_manifest, verify_planes)
from msrcodes.errors import ParameterError
from msrcodes.grs import apply_operator
from msrcodes.hamming import syndromes
from msrcodes.repair import plan


def all_patterns(n, k):
    return [(h, d) for h in range(1, n - k + 1) for d in range(k, n - h + 1)]


def divisible_patterns(n, k):
    return [(h, d) for h, d in all_patterns(n, k) if (d - k) % h == 0]


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def test_build_c1_example():
    spec = build("c1", 5, 2, [(1, 3), (1, 4)])
    assert [pi.s for pi in spec.sorted_patterns] == [2, 3]
    assert spec.s_m == 3 and spec.s == 2
    assert spec.ell == 2 * 3**5 == 486
    assert spec.field.p == 17  # smallest prime >= 3*5+1


def test_build_c3_example():
    spec = build("c3", 6, 2, [(2, 4)])
    info = spec.sorted_patterns[0]
    assert info.delta == 2 and info.s == 2 and info.width == 2
    assert spec.s_m == 2 and spec.s == 2 and spec.ell == 128
    assert spec.field.p == 13


def test_build_hadamard_example():
    spec = build("hadamard", 8, 4, [(3, 5)])
    extras = plan(spec, [1, 2, 3], [4, 5, 6, 7, 8], (3, 5)).extras
    assert extras == {"M": (1, 2, 3)}  # Ham(2, w) with N = h/(d-k) = 3 positions
    assert np.array_equal(np.bincount(syndromes(len(extras["M"]))), [2, 2, 2, 2])
    assert spec.ell == 256 and spec.s == 1 and spec.s_m == 2
    assert spec.field.p == 17  # > 2n = 16


def test_build_c2_multi_pattern():
    spec = build("c2", 6, 2, [(1, 3), (1, 4), (1, 5), (2, 4)])
    assert [pi.s for pi in spec.sorted_patterns] == [2, 2, 3, 4]
    assert spec.s_m == 4 and spec.s == 6
    assert spec.ell == 6 * 4**6 == 24576
    assert spec.field.p == 29


def test_build_c4_all_patterns():
    spec = build("c4", 6, 2, all_patterns(6, 2))
    assert spec.s_m == 4 and spec.s == 12
    assert spec.ell == 12 * 4**6 == 49152


def test_build_constraint_errors():
    with pytest.raises(ParameterError):
        build("c3", 6, 2, [(2, 5)])  # d <= n-h violated
    with pytest.raises(ParameterError):
        build("c3", 6, 2, [(2, 2)])  # d = k rejected for C3
    with pytest.raises(ParameterError):
        build("c1", 5, 2, [(1, 2)])  # d = k rejected for C1
    with pytest.raises(ParameterError):
        build("c1", 5, 2, [(1, 5)])  # d <= n-1 violated
    with pytest.raises(ParameterError):
        build("c2", 6, 2, [(2, 3)])  # h does not divide d-k
    with pytest.raises(ParameterError):
        build("hadamard", 8, 4, [(2, 5)])  # h/(d-k)+1 = 3 not a power of two
    with pytest.raises(ParameterError):
        build("c2", 6, 2, [])
    with pytest.raises(ParameterError):
        build("c2", 6, 2, [(1, 3), (1, 3)])  # duplicate pattern


def test_build_accepts_d_equals_k_for_c2_c4():
    spec2 = build("c2", 6, 2, [(3, 2)])
    assert spec2.ell == 1  # s_i = 1
    spec4 = build("c4", 6, 2, [(3, 2), (1, 3)])
    assert spec4.s_m == 2


def _documented_ell(family, n, k, pats):
    """ell from the README's family table, or None where it rejects pats.

    Written from the documented constraints only, as the reference build is
    checked against.
    """
    if not (1 <= k < n and pats and len(set(pats)) == len(pats)):
        return None
    if not all(1 <= h <= n - k and k <= d <= n - h for h, d in pats):
        return None
    if family == "c1" and all(h == 1 and d > k for h, d in pats):
        s = sorted(d - k + 1 for _, d in pats)
        return math.lcm(*s[:-1]) * s[-1] ** n
    if family == "c2" and all((d - k) % h == 0 for h, d in pats):
        s = sorted((d - k + h) // h for h, d in pats)
        return math.lcm(*s[:-1]) * s[-1] ** n
    if family == "c4" or (family == "c3" and len(pats) == 1
                          and pats[0][0] >= 2 and pats[0][1] > k):
        deltas = [math.gcd(h, d - k) for h, d in pats]
        widths = [(d - k + h) // g for (h, d), g in zip(pats, deltas)]
        s_m = max((d - k + g) // g for (_, d), g in zip(pats, deltas))
        return math.lcm(*widths) * s_m ** n
    if family == "hadamard" and len(pats) == 1:
        h, d = pats[0]
        if d > k and h % (d - k) == 0 and h // (d - k) + 1 in [2**w for w in range(n + 1)]:
            return 2**n
    return None


def test_build_accepts_exactly_the_documented_constraints():
    calls = accepted = 0
    for n in range(8):
        singles = [[(h, d)] for h in range(n + 1) for d in range(n + 1)]
        pairs = [list(pq) for pq in itertools.combinations(
            [p for (p,) in singles], 2)] if n <= 5 else []
        for family, k, pats in itertools.product(
                ["c1", "c2", "c3", "c4", "hadamard"], range(n + 1), singles + pairs):
            want = _documented_ell(family, n, k, pats)
            try:
                spec = build(family, n, k, pats)
            except ParameterError:
                spec = None
            got = None if spec is None else spec.ell
            assert got == want, (family, n, k, pats)
            if spec is not None:
                lam = spec.lam_array()
                assert lam.shape == (n, spec.s_m)
                assert len(np.unique(lam)) == lam.size
                assert 1 <= lam.min() and lam.max() < spec.field.p
            calls += 1
            accepted += got is not None
    assert calls == 35880 and accepted == 469


def test_explicit_prime_validated():
    spec = build("c3", 6, 2, [(2, 4)], prime=257)
    assert spec.field.p == 257
    with pytest.raises(ParameterError):
        build("c3", 6, 2, [(2, 4)], prime=11)  # below s_m*n+1 = 13
    with pytest.raises(ParameterError):
        build("c3", 6, 2, [(2, 4)], prime=15)  # not prime


def test_lam_examples():
    spec = build("c3", 6, 2, [(2, 4)])
    assert spec.lam == tuple((2 * i + 1, 2 * i + 2) for i in range(6))
    assert np.array_equal(spec.lam_array(), spec.lam)
    assert spec.lam_array().dtype == np.int64
    assert build("c4", 4, 1, [(3, 1)]).lam == ((1,), (2,), (3,), (4,))  # s_m = 1


# ---------------------------------------------------------------------------
# encode / reconstruct
# ---------------------------------------------------------------------------

def test_encode_zero_data():
    spec = build("c3", 6, 2, [(2, 4)])
    cw = encode(spec, np.zeros((2, spec.ell), dtype=np.int64))
    assert not cw.columns.any()


def test_encode_known_plane_parity():
    # C1(n=4, k=2, d=[3]): p=11, plane a=(0,0,0,0), b=0 on points (1,3,5,7)
    spec = build("c1", 4, 2, [(1, 3)])
    assert spec.ell == 16 and spec.field.p == 11
    data = np.zeros((2, 16), dtype=np.int64)
    data[0, 0] = 1
    cw = encode(spec, data)
    assert cw.columns[:, 0].tolist() == [1, 0, 8, 2]
    # direct syndrome evaluation of that plane
    for t in range(2):
        assert sum(pow(x, t, 11) * int(v)
                   for x, v in zip((1, 3, 5, 7), cw.columns[:, 0])) % 11 == 0


def test_every_plane_has_zero_syndromes():
    spec = build("c1", 4, 2, [(1, 3)])
    rng = np.random.default_rng(0)
    cw = encode(spec, random_data(spec, rng))
    lam, s_m = spec.lam_array(), spec.s_m
    for tau in range(spec.ell):
        a = tau % spec.s_m**spec.n
        for t in range(spec.r):
            acc = sum(pow(int(lam[j - 1, (a // s_m**(j - 1)) % s_m]), t, spec.field.p)
                      * int(cw.columns[j - 1, tau]) for j in range(1, 5))
            assert acc % spec.field.p == 0
    assert verify_planes(spec, cw.columns)


def test_encode_dimension_check():
    spec = build("c3", 6, 2, [(2, 4)])
    with pytest.raises(ParameterError):
        encode(spec, np.zeros((3, spec.ell), dtype=np.int64))
    with pytest.raises(ParameterError):
        encode(spec, np.zeros((2, spec.ell + 1), dtype=np.int64))


def test_reconstruct_from_parity_pair():
    spec = build("c1", 4, 2, [(1, 3)])
    data = np.zeros((2, 16), dtype=np.int64)
    data[0, 0] = 1
    cw = encode(spec, data)
    rec = mds_reconstruct(spec, (3, 4), cw.columns[[2, 3]])
    assert np.array_equal(rec.columns, cw.columns)
    assert rec.columns[0, 0] == 1 and rec.columns[1, 0] == 0


def test_reconstruct_identity_on_data_nodes():
    spec = build("c3", 6, 2, [(2, 4)])
    rng = np.random.default_rng(1)
    cw = encode(spec, random_data(spec, rng))
    rec = mds_reconstruct(spec, (1, 2), cw.columns[[0, 1]])
    assert np.array_equal(rec.columns, cw.columns)


def test_mds_every_k_subset_small_spec():
    spec = build("c1", 4, 2, [(1, 3)])
    rng = np.random.default_rng(2)
    cw = encode(spec, random_data(spec, rng))
    for nodes in itertools.combinations(range(1, 5), 2):
        rec = mds_reconstruct(spec, nodes, cw.columns[[j - 1 for j in nodes]])
        assert np.array_equal(rec.columns, cw.columns)


@pytest.mark.parametrize("family,n,k,pats", [
    ("c1", 5, 2, [(1, 3), (1, 4)]),
    ("c2", 6, 2, [(1, 3), (2, 4)]),
    ("c3", 6, 2, [(2, 4)]),
    ("c4", 6, 3, [(2, 3), (1, 3)]),
    ("hadamard", 6, 2, [(3, 3)]),
])
def test_mds_property_sampled(family, n, k, pats):
    spec = build(family, n, k, pats)
    rng = np.random.default_rng(3)
    cw = encode(spec, random_data(spec, rng))
    subsets = list(itertools.combinations(range(1, n + 1), k))
    for nodes in subsets:
        rec = mds_reconstruct(spec, nodes, cw.columns[[j - 1 for j in nodes]])
        assert np.array_equal(rec.columns, cw.columns)


def test_encode_blocks_batched_matches_single():
    spec = build("c3", 6, 2, [(2, 4)])
    rng = np.random.default_rng(4)
    data = random_data(spec, rng, blocks=3)
    batched = encode_blocks(spec, data)
    for b in range(3):
        single = encode(spec, data[b])
        assert np.array_equal(batched[b], single.columns)


def _unreduced(x, p):
    """Copies of residues x congruent to them mod p but outside [0, p):
    negative, x + k*p, and u64 values >= 2^63."""
    high = 2**63 // p + 1  # high * p >= 2^63, and high * p + p - 1 < 2^64
    return {"negative": x - p, "plus-k-p": x + 12345 * p,
            "u64-high": x.astype(np.uint64) + np.uint64(high * p)}


@pytest.mark.parametrize("family, n, k, pats, prime", [
    ("c3", 6, 2, [(2, 4)], 257),
    ("c1", 5, 2, [(1, 3), (1, 4)], None),
    ("c4", 6, 2, [(1, 3), (2, 4), (3, 3)], None),
])
def test_unreduced_inputs_encode_as_their_residues(family, n, k, pats, prime):
    spec = build(family, n, k, pats, prime=prime)
    p = spec.field.p
    data = random_data(spec, np.random.default_rng(9), blocks=2)
    cols = encode_blocks(spec, data)
    nodes = list(range(n - k + 1, n + 1))   # the last k nodes: a real decode
    for name, x in _unreduced(data, p).items():
        assert np.array_equal(encode_blocks(spec, x), cols), name
        assert np.array_equal(encode(spec, x[1]).columns, cols[1]), name
    for name, x in _unreduced(cols[0, [j - 1 for j in nodes]], p).items():
        assert np.array_equal(mds_reconstruct(spec, nodes, x).columns, cols[0]), name
    # one element raised by a multiple of p past 2^63: a u64 read as int64
    # would turn negative and leave a residue off by 2^64 mod p
    one = data.astype(np.uint64)
    one[0, 0, 0] += np.uint64((2**63 // p + 1) * p)
    assert np.array_equal(encode_blocks(spec, one), cols)


def _laid_out(spec, table):
    """The (s_m^e, e, m*s_m) table in erasure_table's layout:
    entry [u, i, t*s_m + c] = table[t, u, i*s_m + c]."""
    rows, e, width = table.shape
    out = np.empty((e, width // spec.s_m, rows * spec.s_m), dtype=table.dtype)
    for t, u, col in itertools.product(range(rows), range(e), range(width)):
        i, c = divmod(col, spec.s_m)
        out[u, i, t * spec.s_m + c] = table[t, u, col]
    return out


def _fancy_operator(spec, table, slot_digits, known_digits):
    """The operator read as a 2-D fancy index over the (s_m^e, e, m*s_m) table."""
    _, e, width = table.shape
    row = sum(dig * spec.s_m**u for u, dig in enumerate(slot_digits))
    cols = np.arange(0, width, spec.s_m)[:, None] + np.stack(known_digits)
    return np.moveaxis(table, 1, 0).reshape(e, -1)[:, row * width + cols]


@pytest.mark.parametrize("family, n, k, pats", [
    ("c3", 6, 2, [(2, 4)]),              # s_m = 2
    ("c1", 5, 2, [(1, 3), (1, 4)]),      # s_m = 3
    ("c2", 8, 2, [(1, 5)]),              # s_m = 4
])
def test_erasure_operator_matches_a_fancy_index_read(family, n, k, pats):
    # apply_operator reads each word's operator from the laid-out table at
    # rows[i] = sum_u slot digit_u * s_m^(u+1) + known digit i
    spec = build(family, n, k, pats)
    p, rng = spec.field.p, np.random.default_rng(10)
    for e in (1, 2, 3):
        m = n - e
        table = rng.integers(0, p, size=(spec.s_m**e, e, m * spec.s_m))
        slot_digits = list(rng.integers(0, spec.s_m, size=(e, 40)))
        known_digits = list(rng.integers(0, spec.s_m, size=(m, 40)))
        values = rng.integers(0, p, size=(m, 2, 3, 40))
        row = sum(dig * spec.s_m ** (u + 1) for u, dig in enumerate(slot_digits))
        out = np.empty((e, 2, 3, 40), dtype=np.int64)
        apply_operator(p, _laid_out(spec, table), [row + dig for dig in known_digits],
                       list(values), out)
        op = _fancy_operator(spec, table, slot_digits, known_digits)
        assert np.array_equal(out, np.einsum("uiw,ibcw->ubcw", op, values) % p), e


def test_a_row_index_past_255_reads_uint8_digits_as_int64():
    # digit tables are uint8; an encode of c2(8,2,[(1,5)]) erases q = 6 nodes
    # at s_m = 4, so its row index reaches 4^7 - 1, and so does a decode from
    # nodes 7 and 8: apply_table must build that index in int64
    spec = build("c2", 8, 2, [(1, 5)])
    assert spec.s_m ** (spec.r + 1) - 1 > 255
    data = random_data(spec, np.random.default_rng(11))
    cw = encode(spec, data)
    assert verify_planes(spec, cw.columns)
    assert np.array_equal(mds_reconstruct(spec, (7, 8), cw.columns[[6, 7]]).columns,
                          cw.columns)


def test_reconstruct_rejects_a_node_out_of_range():
    spec = build("c3", 6, 2, [(2, 4)])
    cw = encode(spec, random_data(spec, np.random.default_rng(5)))
    for nodes in ((0, 1), (1, 7)):
        with pytest.raises(ParameterError, match="node index out of range"):
            mds_reconstruct(spec, nodes, cw.columns[:2])


def test_verify_planes_rejects_a_shape_mismatch():
    spec = build("c3", 6, 2, [(2, 4)])
    cw = encode(spec, random_data(spec, np.random.default_rng(5)))
    for bad in (cw.columns[:5], cw.columns[:, :-1], cw.columns[None, :, :, None]):
        with pytest.raises(ParameterError, match="column array shape mismatch"):
            verify_planes(spec, bad)


def test_reconstruct_requires_exactly_k():
    spec = build("c3", 6, 2, [(2, 4)])
    rng = np.random.default_rng(5)
    cw = encode(spec, random_data(spec, rng))
    with pytest.raises(ParameterError):
        mds_reconstruct(spec, (1, 2, 3), cw.columns[[0, 1, 2]])
    with pytest.raises(ParameterError):
        mds_reconstruct(spec, (1,), cw.columns[[0]])


# ---------------------------------------------------------------------------
# sub-packetization identities
# ---------------------------------------------------------------------------

def test_ell_matches_table_rows():
    spec = build("c3", 12, 6, [(2, 8)])
    rows = {r.source: r.ell for r in audit.table1_report(12, 6, 2, 8)}
    assert spec.ell == rows["thm3"] == 2 * 2**12

    had = build("hadamard", 8, 4, [(3, 5)])
    rows = {r.source: r.ell for r in audit.table1_report(8, 4, 3, 5)}
    assert had.ell == rows["thm4"] == 256


def test_remark2_single_pattern_c2_degenerates():
    # with one divisible pattern, ell = ((d-k+h)/h)^n (no extra block factor)
    spec = build("c2", 6, 2, [(2, 4)])
    assert spec.s == 1 and spec.ell == 2**6
    rows = {r.source: r.ell for r in audit.table1_report(6, 2, 2, 4)}
    assert spec.ell == rows["li"]


def test_c4_all_patterns_matches_corollary_row():
    for n, k in [(5, 2), (6, 2), (6, 3), (7, 3), (8, 4)]:
        spec = build("c4", n, k, all_patterns(n, k))
        r = n - k
        assert spec.ell == math.lcm(*range(1, r + 1)) * r**n


def test_envelope_s_and_sm_bounds():
    # for every valid pattern list at n <= 8: s | lcm(1..r) and s_m <= r
    for n in range(4, 9):
        for k in range(1, n - 1):
            r = n - k
            spec4 = build("c4", n, k, all_patterns(n, k))
            assert math.lcm(*range(1, r + 1)) % spec4.s == 0
            assert spec4.s_m <= r
            spec2 = build("c2", n, k, divisible_patterns(n, k))
            assert math.lcm(*range(1, r + 1)) % spec2.s == 0
            assert spec2.s_m <= r
            # all-pattern families stay within the lcm(1..r) * r^n envelope
            assert spec2.ell <= math.lcm(*range(1, r + 1)) * r**n
            assert spec4.ell <= math.lcm(*range(1, r + 1)) * r**n


def test_lambda_table_invariants():
    for family, n, k, pats in [("c2", 6, 2, [(1, 3), (2, 4)]),
                               ("hadamard", 8, 4, [(3, 5)])]:
        spec = build(family, n, k, pats)
        flat = [v for row in spec.lam for v in row]
        assert len(set(flat)) == len(flat)
        assert all(0 < v < spec.field.p for v in flat)
        assert spec.ell == spec.s * spec.s_m**spec.n


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def test_manifest_roundtrip():
    spec = build("c2", 6, 2, [(1, 3), (2, 4)])
    m = manifest_dict(spec)
    again = spec_from_manifest(m)
    assert again == spec


def test_manifest_rejects_wrong_ell():
    spec = build("c3", 6, 2, [(2, 4)])
    m = manifest_dict(spec)
    m["ell"] = 64
    with pytest.raises(ParameterError):
        spec_from_manifest(m)


@pytest.mark.parametrize("key, value", [("format", "msr-manifest/2"),
                                        ("lambda_rule", "row-consecutive-v2")])
def test_manifest_rejects_an_unknown_format_or_lambda_rule(key, value):
    m = manifest_dict(build("c3", 6, 2, [(2, 4)]))
    m[key] = value
    with pytest.raises(ParameterError, match=f"unknown .*{value!r}"):
        spec_from_manifest(m)


def test_manifest_preserves_caller_pattern_order():
    spec = build("c2", 6, 2, [(2, 4), (1, 3)])
    m = manifest_dict(spec)
    assert m["patterns"] == [[2, 4], [1, 3]]
    assert [pi.s for pi in spec.sorted_patterns] == [2, 2]
    assert spec.sorted_patterns[0].h == 2  # stable sort keeps caller order on ties
