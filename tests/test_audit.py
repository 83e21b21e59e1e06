import math

import numpy as np
import pytest

from msrcodes import audit
from msrcodes.constructions import build, encode, random_data
from msrcodes.errors import ParameterError
from msrcodes.repair import plan, repair_from_codeword


def test_cut_set_examples():
    assert audit.cut_set(2, 4, 2, 128) == (64, 256)
    assert audit.cut_set(3, 5, 4, 256) == (192, 960)
    # degenerate full download at d = k
    for ell in (16, 128):
        assert audit.cut_set(1, 3, 3, ell) == (ell, 3 * ell)


def test_cut_set_non_integer_rejected():
    with pytest.raises(ParameterError):
        audit.cut_set(2, 4, 2, 127)  # 254/4 not an integer
    with pytest.raises(ParameterError):
        audit.cut_set(0, 4, 2, 128)
    with pytest.raises(ParameterError):
        audit.cut_set(2, 1, 2, 128)  # d < k


def test_divisibility_holds_for_built_specs():
    cases = [("c1", 5, 2, [(1, 3), (1, 4)]),
             ("c2", 6, 2, [(1, 3), (1, 4), (1, 5), (2, 4)]),
             ("c3", 6, 2, [(2, 4)]),
             ("hadamard", 8, 4, [(3, 5)])]
    for family, n, k, pats in cases:
        spec = build(family, n, k, pats)
        for h, d in spec.patterns:
            assert (h * spec.ell) % (d - k + h) == 0


def test_verify_transcript_from_repair():
    spec = build("c3", 6, 2, [(2, 4)])
    rng = np.random.default_rng(0)
    cw = encode(spec, random_data(spec, rng))
    pl = plan(spec, [1, 2], [3, 4, 5, 6], (2, 4))
    _, t = repair_from_codeword(pl, cw.columns)
    rep = audit.verify_transcript(t, spec)
    assert rep.beta == 64 and rep.gamma == 256
    assert rep.optimal and rep.uniform and rep.conforming
    # the JSON form verifies identically
    rep2 = audit.verify_transcript(t.to_json(), spec)
    assert rep2.optimal and rep2.conforming


def test_verify_transcript_returns_one_record_for_both_forms():
    spec = build("c4", 6, 2, [(1, 3), (2, 4), (3, 3)])
    rng = np.random.default_rng(3)
    cw = encode(spec, random_data(spec, rng))
    pl = plan(spec, [1, 3, 5], [2, 4, 6], (3, 3))
    _, t = repair_from_codeword(pl, cw.columns)
    rep = audit.verify_transcript(t, spec)
    assert isinstance(rep, audit.RepairTranscript) and rep == t
    assert audit.verify_transcript(t.to_json(), spec) == rep
    # the verdict follows the counts: nothing stored can contradict them
    j = t.to_json()
    j["bound_beta"], j["bound_gamma"], j["optimal"] = 1, 3, False
    assert audit.verify_transcript(j, spec) == rep and rep.conforming
    assert rep.bound_report() == {
        "pattern": [3, 3], "ell": spec.ell, "bound_beta": rep.beta,
        "bound_gamma": rep.gamma, "per_helper": {"2": rep.beta, "4": rep.beta, "6": rep.beta},
        "total": rep.gamma, "uniform": True, "optimal": True, "conforming": True}


def test_verify_transcript_extra_symbol_not_optimal():
    spec = build("c3", 6, 2, [(2, 4)])
    rng = np.random.default_rng(1)
    cw = encode(spec, random_data(spec, rng))
    pl = plan(spec, [1, 2], [3, 4, 5, 6], (2, 4))
    _, t = repair_from_codeword(pl, cw.columns)
    j = t.to_json()
    j["per_helper"]["3"] += 1
    j["total"] += 1
    rep = audit.verify_transcript(j, spec)
    assert not rep.optimal and not rep.uniform and not rep.conforming


def test_verify_transcript_nonuniform_flagged():
    spec = build("c3", 6, 2, [(2, 4)])
    rng = np.random.default_rng(2)
    cw = encode(spec, random_data(spec, rng))
    pl = plan(spec, [1, 2], [3, 4, 5, 6], (2, 4))
    _, t = repair_from_codeword(pl, cw.columns)
    j = t.to_json()
    j["per_helper"]["3"] += 1
    j["per_helper"]["4"] -= 1  # total still optimal
    rep = audit.verify_transcript(j, spec)
    assert rep.optimal and not rep.uniform and not rep.conforming


def test_verify_transcript_malformed():
    spec = build("c3", 6, 2, [(2, 4)])
    with pytest.raises(ParameterError):
        audit.verify_transcript({"pattern": [2, 4], "helpers": [3, 4, 5],
                                 "per_helper": {"3": 1, "4": 1, "5": 1},
                                 "total": 3, "ell": 128}, spec)
    consistent = {"pattern": [2, 4], "helpers": [3, 4, 5, 6],
                  "per_helper": {"3": 1, "4": 1, "5": 1, "6": 1}, "total": 4, "ell": 128}
    with pytest.raises(ParameterError, match="missing failed, groups"):
        audit.verify_transcript(consistent, spec)
    whole = {**consistent, "failed": [1, 2], "groups": []}
    with pytest.raises(ParameterError, match="helper set inconsistent"):
        audit.verify_transcript({**whole, "helpers": [3, 4, 5, 7]}, spec)
    with pytest.raises(ParameterError, match="do not sum to total"):
        audit.verify_transcript({**whole, "total": 5}, spec)


def test_table1_values_n12():
    rows = {r.source: r for r in audit.table1_report(12, 6, 2, 8)}
    assert rows["ye-barg"].ell == 12**12
    assert rows["ye2020"].ell == 4 * 3**12
    assert rows["thm3"].ell == 2 * 2**12
    assert rows["li"].applicable and rows["li"].ell == 2**12
    assert rows["thm4"].applicable and rows["thm4"].ell == 2**12
    assert rows["ye-barg-all"].ell == math.lcm(*range(1, 7)) ** 12
    assert rows["cor2"].ell == math.lcm(*range(1, 7)) * 6**12


def test_table1_corollary_row_example():
    rows = {r.source: r for r in audit.table1_report(6, 2, 2, 4)}
    assert rows["cor2"].ell == math.lcm(1, 2, 3, 4) * 4**6 == 49152


def test_table1_hadamard_applicability():
    rows = {r.source: r for r in audit.table1_report(8, 4, 3, 5)}
    assert rows["thm4"].applicable and rows["thm4"].ell == 256
    rows = {r.source: r for r in audit.table1_report(8, 4, 2, 5)}
    assert not rows["thm4"].applicable  # h/(d-k)+1 = 3
    assert not rows["li"].applicable    # 1 % 2 != 0
    assert not rows["cor1"].applicable


def test_table1_parameter_validation():
    with pytest.raises(ParameterError):
        audit.table1_report(6, 2, 1, 4)   # h < 2
    with pytest.raises(ParameterError):
        audit.table1_report(6, 2, 2, 5)   # d > n-h


def test_table1_rows_are_the_closed_forms():
    # table1_report reads this paper's rows from build(); the paper's closed
    # forms are the oracle, over every (n <= 9, k, h >= 2, d) it accepts
    cases, cor1_above = 0, []
    for n in range(2, 10):
        for k in range(1, n):
            r = n - k
            c2_all = [(hi, di) for hi in range(1, r + 1) for di in range(k, n - hi + 1)
                      if (di - k) % hi == 0]
            for h in range(2, r + 1):
                for d in range(k, n - h + 1):
                    rows = {row.source: row for row in audit.table1_report(n, k, h, d)}
                    cases += 1
                    delta = math.gcd(h, d - k)
                    thm3 = ((d - k + h) // delta) * ((d - k + delta) // delta) ** n
                    assert rows["thm3"].ell == thm3
                    assert rows["thm3"].note == f"delta={delta}"
                    li_ok = (d - k) % h == 0
                    assert rows["li"].applicable is li_ok and rows["cor1"].applicable is li_ok
                    assert rows["li"].ell == (((d - k + h) // h) ** n if li_ok else None)
                    t4_ok = (d > k and h % (d - k) == 0
                             and h // (d - k) + 1 in {2**i for i in range(1, n + 1)})
                    assert rows["thm4"].applicable is t4_ok
                    assert rows["thm4"].ell == (2**n if t4_ok else None)
                    assert rows["cor2"].ell == math.lcm(*range(1, r + 1)) * r**n
                    if li_ok:
                        built = build("c2", n, k, c2_all).ell
                        assert rows["cor1"].ell >= built
                        cor1_above.append(rows["cor1"].ell > built)
    assert cases == 210
    # cor1 is an upper bound only: the pinned largest pattern leaves s
    assert (cor1_above.count(True), cor1_above.count(False)) == (89, 24)


def test_thm3_never_exceeds_ye2020():
    for n in range(4, 15):
        for k in range(1, n - 1):
            for h in range(2, n - k + 1):
                for d in range(k, n - h + 1):
                    rows = {r.source: r for r in audit.table1_report(n, k, h, d)}
                    t3, y20 = rows["thm3"].ell, rows["ye2020"].ell
                    assert t3 <= y20
                    delta = math.gcd(h, d - k) if d > k else h
                    if delta == 1:
                        assert t3 == y20
                    else:
                        assert t3 < y20


def test_csv_and_text_rendering():
    rows = audit.table1_report(12, 6, 2, 8)
    csv_text = audit.table1_csv(rows)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("source,")
    assert len(lines) == 1 + len(rows)
    assert str(12**12) in csv_text
    table = audit.table1_text(rows)
    assert "ye-barg" in table and str(2 * 2**12) in table
    j = audit.table1_json(rows)
    assert {row["source"] for row in j} >= {"ye-barg", "ye2020", "thm3"}
