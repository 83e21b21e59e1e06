"""Acceptance suite: one test per criterion, exact-equality assertions, each
printing a [ACCEPTANCE] pass/fail line (run with `pytest -s` to see them live).

Every expected number is either computed here by an independent route
(brute-force enumeration, closed-form big-int arithmetic) or is a frozen
integer checked against that route.
"""

import hashlib
import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from msrcodes import audit, storage
from msrcodes.constructions import (build, encode, mds_reconstruct,
                                    random_data)
from msrcodes.field import PrimeField
from msrcodes.grs import solve_vandermonde, syndrome_rhs
from msrcodes.hamming import syndromes
from msrcodes.repair import plan, repair_from_codeword


@contextmanager
def criterion(num: int, desc: str, limit_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[ACCEPTANCE] criterion {num} FAIL: {desc}")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < limit_s
    print(f"\n[ACCEPTANCE] criterion {num} {'PASS' if ok else 'FAIL'}: "
          f"{desc} ({elapsed:.2f}s, limit {limit_s:.0f}s)")
    assert ok, f"runtime {elapsed:.2f}s exceeded the {limit_s}s limit"


def sample_hr_pairs(n, h, d, count, rng):
    """All valid (H, R) pairs when few exist, else `count` sampled distinct ones."""
    combos = []
    for H in itertools.combinations(range(1, n + 1), h):
        rest = [j for j in range(1, n + 1) if j not in H]
        for R in itertools.combinations(rest, d):
            combos.append((H, R))
    if len(combos) <= count:
        return combos
    idx = rng.choice(len(combos), size=count, replace=False)
    return [combos[i] for i in idx]


def run_and_check(spec, cw, H, R, pattern):
    h, d = pattern
    pl = plan(spec, H, R, pattern)
    restored, t = repair_from_codeword(pl, cw.columns)
    beta = h * spec.ell // (d - spec.k + h)
    assert t.total == d * beta, (pattern, t.total, d * beta)
    assert all(c == beta for c in t.per_helper.values())
    for j in H:
        assert np.array_equal(restored[j], cw.column(j)), (pattern, H, R, j)


def test_criterion_1_c1_thm1():
    with criterion(1, "C1 (1,d)-optimal repair for d in {3,4}, every (e,R)", 30):
        spec = build("c1", 5, 2, [(1, 3), (1, 4)])
        assert spec.ell == 486
        assert spec.field.p == 17  # smallest prime >= s_m*n+1 = 16
        rng = np.random.default_rng(101)
        cw = encode(spec, random_data(spec, rng))
        for e in range(1, 6):
            rest = [j for j in range(1, 6) if j != e]
            # d = 4: the only helper set
            pl = plan(spec, [e], rest, (1, 4))
            restored, t = repair_from_codeword(pl, cw.columns)
            assert t.total == 648 == 4 * 486 // 3
            assert np.array_equal(restored[e], cw.column(e))
            # d = 3: every 3-subset of the survivors
            for R in itertools.combinations(rest, 3):
                pl = plan(spec, [e], R, (1, 3))
                restored, t = repair_from_codeword(pl, cw.columns)
                assert t.total == 729 == 3 * 486 // 2
                assert all(c == 243 for c in t.per_helper.values())
                assert np.array_equal(restored[e], cw.column(e))


def test_criterion_2_c2_corollary1():
    with criterion(2, "C2 patterns {(1,3),(1,4),(1,5),(2,4)} at n=6,k=2", 120):
        spec = build("c2", 6, 2, [(1, 3), (1, 4), (1, 5), (2, 4)])
        assert spec.s_m == 4 and spec.s == 6 and spec.ell == 24576
        rng = np.random.default_rng(202)
        for h, d in spec.patterns:
            cw = encode(spec, random_data(spec, rng))
            for H, R in sample_hr_pairs(6, h, d, 20, rng):
                run_and_check(spec, cw, H, R, (h, d))


def test_criterion_3_c3_thm3():
    with criterion(3, "C3 (2,4) at n=6 exhaustive; (4,4) at n=7 formula equalities", 60):
        spec = build("c3", 6, 2, [(2, 4)])
        assert spec.ell == 128
        rng = np.random.default_rng(303)
        cw = encode(spec, random_data(spec, rng))
        count = 0
        for H in itertools.combinations(range(1, 7), 2):
            R = tuple(j for j in range(1, 7) if j not in H)
            pl = plan(spec, H, R, (2, 4))
            restored, t = repair_from_codeword(pl, cw.columns)
            assert t.total == 256 and all(c == 64 for c in t.per_helper.values())
            for j in H:
                assert np.array_equal(restored[j], cw.column(j))
            count += 1
        assert count == 15  # exhaustive over all (H, R)

        # (n=7, k=2, h=4, d=4): h + d = 8 > n = 7, so no disjoint (H, R)
        # exists and no repair can run; the criterion's stated equalities are
        # formula-level and verified by independent big-int evaluation.
        n, k, h, d = 7, 2, 4, 4
        delta = math.gcd(h, d - k)
        assert delta == 2
        ell = ((d - k + h) // delta) * ((d - k + delta) // delta) ** n
        assert ell == 3 * 2**7 == 384
        beta, gamma = audit.cut_set(h, d, k, ell)
        assert gamma == 4 * 4 * 384 // 6 == 1024 and beta == 256
        assert h + d > n  # documents why the sweep clause is vacuous here


def test_criterion_4_hadamard_thm4():
    with criterion(4, "Hadamard (3,5) at n=8,k=4 plus coset partitions w<=4", 30):
        spec = build("hadamard", 8, 4, [(3, 5)])
        assert spec.ell == 256
        rng = np.random.default_rng(404)
        cw = encode(spec, random_data(spec, rng))
        for H in itertools.combinations(range(1, 9), 3):
            R = tuple(j for j in range(1, 9) if j not in H)
            pl = plan(spec, H, R, (3, 5))
            restored, t = repair_from_codeword(pl, cw.columns)
            assert t.total == 960 and all(c == 192 for c in t.per_helper.values())
            for j in H:
                assert np.array_equal(restored[j], cw.column(j))
        for w in (2, 3, 4):
            N = (1 << w) - 1
            syn = syndromes(N)
            # reference: a GF(2) parity-check matrix whose column c is c in binary
            check = np.array([[(c >> b) & 1 for c in range(1, N + 1)] for b in range(w)])
            Y = np.array([[(y >> i) & 1 for i in range(N)] for y in range(1 << N)])
            assert np.array_equal(syn, (Y @ check.T % 2) @ (1 << np.arange(w)))
            counts = np.zeros(1 << N, dtype=int)
            for i in range(N + 1):
                cosets = np.flatnonzero(syn == i)
                assert len(cosets) == (1 << N) // (N + 1)
                counts[cosets] += 1
            assert np.all(counts == 1)  # exact tiling of {0,1}^N


def test_criterion_5_c4_corollary2():
    with criterion(5, "C4 all patterns at n=6,k=2: bandwidth + restoration", 300):
        # all valid (h, d): 1 <= h <= 4, k <= d <= 6-h
        pats = [(h, d) for h in range(1, 5) for d in range(2, 6 - h + 1)]
        spec = build("c4", 6, 2, pats)
        assert spec.ell <= math.lcm(1, 2, 3, 4) * 4**6 == 49152
        rng = np.random.default_rng(505)
        for h, d in pats:
            cw = encode(spec, random_data(spec, rng))
            for H, R in sample_hr_pairs(6, h, d, 10, rng):
                run_and_check(spec, cw, H, R, (h, d))


def test_criterion_6_mds_property():
    with criterion(6, "MDS: every k-subset reconstructs (exhaustive, <=100 each)", 120):
        cases = [
            build("c1", 5, 2, [(1, 3), (1, 4)]),
            build("c2", 6, 2, [(1, 3), (1, 4), (1, 5), (2, 4)]),
            build("c3", 6, 2, [(2, 4)]),
            build("hadamard", 8, 4, [(3, 5)]),
            build("c4", 6, 2, [(h, d) for h in range(1, 5) for d in range(2, 6 - h + 1)]),
        ]
        rng = np.random.default_rng(606)
        for spec in cases:
            subsets = list(itertools.combinations(range(1, spec.n + 1), spec.k))
            assert len(subsets) <= 100  # exhaustive per the criterion
            cw = encode(spec, random_data(spec, rng))
            for nodes in subsets:
                rec = mds_reconstruct(spec, nodes, cw.columns[[j - 1 for j in nodes]])
                assert np.array_equal(rec.columns, cw.columns), (spec.family, nodes)


def test_criterion_7_grs_oracle():
    with criterion(7, "GRS decode vs brute-force enumeration over GF(5)", 1):
        p, points, r = 5, (1, 2, 3, 4), 2
        f = PrimeField(p)
        words = [c for c in itertools.product(range(p), repeat=4)
                 if all(sum(pow(x, t, p) * v for x, v in zip(points, c)) % p == 0
                        for t in range(r))]
        assert len(words) == 25
        patterns = ([()] + [(i,) for i in range(4)]
                    + list(itertools.combinations(range(4), 2)))
        # the code on two point orders (G = 2), every codeword a right-hand side (R = 25)
        pts = np.array([points, points[::-1]])
        vals = np.stack([np.array(words).T, np.array(words).T[::-1]])
        for erased in patterns:
            for w in words:
                matches = [c for c in words
                           if all(c[i] == w[i] for i in range(4) if i not in erased)]
                assert len(matches) == 1 and matches[0] == w  # unique completion
            kept = [i for i in range(4) if i not in erased]
            rhs = syndrome_rhs(f, pts[:, kept], vals[:, kept], r)
            x = solve_vandermonde(f, pts[:, list(erased)], rhs[:, :len(erased)])
            assert np.array_equal(x, vals[:, list(erased)]), erased


def test_criterion_8_table1_comparator():
    with criterion(8, "Table-1 values for (n=12,k=6,h=2,d=8), big-int exact", 1):
        # independent evaluations
        ye_barg = math.lcm(3, 4) ** 12
        ye2020 = (8 - 6 + 2) * (8 - 6 + 1) ** 12
        delta = math.gcd(2, 8 - 6)
        thm3 = ((8 - 6 + 2) // delta) * ((8 - 6 + delta) // delta) ** 12
        assert ye_barg == 12**12
        assert ye2020 == 4 * 3**12
        assert thm3 == 2 * 2**12 == 8192
        rows = {r.source: r.ell for r in audit.table1_report(12, 6, 2, 8)}
        assert rows["ye-barg"] == ye_barg
        assert rows["ye2020"] == ye2020
        assert rows["thm3"] == thm3
        csv_text = audit.table1_csv(audit.table1_report(12, 6, 2, 8))
        for value in (ye_barg, ye2020, thm3):
            assert str(value) in csv_text


def test_criterion_9_end_to_end_simulator(tmp_path):
    with criterion(9, "1 MiB payload through C3(6,2,(2,4)): digests + read ledger", 120):
        rng = np.random.default_rng(909)
        payload = rng.integers(0, 256, size=1 << 20, dtype=np.uint8).tobytes()
        spec = build("c3", 6, 2, [(2, 4)], min_prime=257)
        state = storage.ingest(payload, spec, tmp_path / "cluster")
        assert state.blocks == (1 << 20) // 256 == 4096
        before = {j: state.shard_path(j).read_bytes() for j in (1, 2)}
        storage.fail_nodes(state, [1, 2])
        state, t = storage.run_repair(state, [1, 2], [3, 4, 5, 6], (2, 4))
        # restored shards byte-identical (digest check also ran inside)
        for j in (1, 2):
            blob = state.shard_path(j).read_bytes()
            assert blob == before[j]
            assert hashlib.sha256(blob).hexdigest() == \
                state.manifest["shards"][str(j)]["digest"]
        assert t.total == 4096 * 256 == 1048576
        # instrumented center reads == transcript count x element size
        assert state.access_log.total("download") == t.total * storage.ELEMENT_SIZE
        assert storage.extract(state) == payload
