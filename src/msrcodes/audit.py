"""Repair-bandwidth auditing: cut-set bounds, the one repair record
(RepairTranscript, whose verdict is derived from its counts, never stored),
its check, and the sub-packetization comparison table (Table 1), whose rows
for this paper's codes are read from constructions.build.

All arithmetic is exact Python-int arithmetic; the table values overflow
64 bits almost immediately (lcm(1..6)^12 has 22 digits).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .constructions import build
from .errors import ParameterError


def cut_set(h: int, d: int, k: int, ell: int) -> Tuple[int, int]:
    """Exact per-helper and total download floors (beta, gamma) for repairing
    h nodes from d helpers: beta = h*ell/(d-k+h), gamma = d*beta.

    Raises if the bound is not an integer (the pattern is then unsupported by
    an ell-symbol code claiming optimal repair).
    """
    if h < 1 or k < 1 or d < k or ell < 1:
        raise ParameterError(f"invalid bound parameters (h={h}, d={d}, k={k}, ell={ell})")
    num = h * ell
    den = d - k + h
    if num % den:
        raise ParameterError(f"cut-set bound h*ell/(d-k+h) = {num}/{den} is not an integer")
    beta = num // den
    return beta, d * beta


@dataclass
class RepairTranscript:
    """A centralized repair's downloads in field elements, with the cut-set
    floors beta and gamma for its pattern and ell."""

    pattern: tuple
    failed: tuple
    helpers: tuple
    ell: int                  # per-node symbol count the bounds refer to
    per_helper: Dict[int, int]
    total: int
    beta: int
    gamma: int
    group_families: list      # dicts: family, members, count, width, erasures_per_group

    @property
    def uniform(self) -> bool:  # every helper sent exactly beta
        return all(c == self.beta for c in self.per_helper.values())

    @property
    def optimal(self) -> bool:  # the total equals gamma
        return self.total == self.gamma

    @property
    def conforming(self) -> bool:
        return self.uniform and self.optimal

    def to_json(self) -> dict:
        return {
            "pattern": list(self.pattern),
            "failed": list(self.failed),
            "helpers": list(self.helpers),
            "ell": self.ell,
            "per_helper": {str(j): c for j, c in self.per_helper.items()},
            "total": self.total,
            "bound_beta": self.beta,
            "bound_gamma": self.gamma,
            "optimal": self.optimal,
            "uniform": self.uniform,
            "groups": self.group_families,
        }

    def bound_report(self) -> dict:
        """The cut-set verdict alone, as `msrcodes repair --report` writes it."""
        j = self.to_json()
        keys = ("pattern", "ell", "bound_beta", "bound_gamma", "per_helper", "total")
        return {**{key: j[key] for key in keys}, "uniform": self.uniform,
                "optimal": self.optimal, "conforming": self.conforming}


def verify_transcript(transcript, spec) -> RepairTranscript:
    """Check a RepairTranscript, or its JSON dict, against the cut-set bound.

    Returns the record with beta and gamma recomputed from its pattern,
    spec.k and ell, so the verdicts are the audit's, not the transcript's.
    """
    j = transcript if isinstance(transcript, dict) else transcript.to_json()
    missing = [key for key in ("pattern", "failed", "helpers", "ell", "per_helper",
                               "total", "groups") if key not in j]
    if missing:
        raise ParameterError(f"malformed transcript: missing {', '.join(missing)}")
    h, d = (int(x) for x in j["pattern"])
    helpers = tuple(int(x) for x in j["helpers"])
    per_helper = {int(x): int(c) for x, c in j["per_helper"].items()}
    if len(helpers) != d or set(per_helper) != set(helpers):
        raise ParameterError("malformed transcript: helper set inconsistent")
    if sum(per_helper.values()) != int(j["total"]):
        raise ParameterError("malformed transcript: per-helper counts do not sum to total")
    beta, gamma = cut_set(h, d, spec.k, int(j["ell"]))
    return RepairTranscript(pattern=(h, d), failed=tuple(int(x) for x in j["failed"]),
                            helpers=helpers, ell=int(j["ell"]), per_helper=per_helper,
                            total=int(j["total"]), beta=beta, gamma=gamma,
                            group_families=j["groups"])


# ---------------------------------------------------------------------------
# sub-packetization comparison (Table 1)
# ---------------------------------------------------------------------------

@dataclass
class TableRow:
    source: str      # construction identifier
    scope: str       # which repair patterns the construction covers
    applicable: bool
    ell: Optional[int]
    note: str = ""


def _built_ell(family: str, n: int, k: int, patterns) -> Optional[int]:
    """ell of the code build() makes, or None where the family rejects the patterns."""
    try:
        return build(family, n, k, patterns).ell
    except ParameterError:
        return None


def table1_report(n: int, k: int, h: int, d: int) -> List[TableRow]:
    """Every known construction's exact sub-packetization for pattern (h, d).

    li, thm3, thm4 and cor2 are the ell of the codes build() makes; cor1 is
    the paper's stated upper bound.  Rows whose constraints the pattern does
    not meet are returned with applicable=False and no value.
    """
    if h < 2:
        raise ParameterError(f"need 2 <= h <= n-k, got h={h} (n={n}, k={k})")
    thm3 = build("c4", n, k, [(h, d)])
    li = _built_ell("c2", n, k, [(h, d)])
    thm4 = _built_ell("hadamard", n, k, [(h, d)])
    r = n - k
    every = [(hi, di) for hi in range(1, r + 1) for di in range(k, n - hi + 1)]
    lcm_r = math.lcm(*range(1, r + 1))
    rows: List[TableRow] = []

    rows.append(TableRow("ye-barg", "single (h,d)", True,
                         math.lcm(*range(d - k + 1, d - k + h + 1)) ** n))
    rows.append(TableRow("ye2020", "single (h,d)", True,
                         (d - k + h) * (d - k + 1) ** n))
    rows.append(TableRow("li", "single (h,d), h | (d-k)", bool(li), li,
                         "" if li else "requires h | (d-k)"))
    rows.append(TableRow("thm3", "single (h,d)", True, thm3.ell,
                         f"delta={thm3.sorted_patterns[0].delta}"))
    rows.append(TableRow("thm4", "single (h,d), (d-k) | h, h/(d-k)+1 | 2^n", bool(thm4),
                         thm4, "" if thm4 else "divisibility/power-of-two constraint unmet"))
    rows.append(TableRow("ye-barg-all", "all (h,d)", True, lcm_r ** n))
    rows.append(TableRow("cor1", "all (h,d) with h | (d-k)", bool(li),
                         lcm_r * r ** n if li else None,
                         "" if li else "pattern outside the covered set"))
    rows.append(TableRow("cor2", "all (h,d)", True, build("c4", n, k, every).ell))
    return rows


def table1_csv(rows: List[TableRow]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["source", "scope", "applicable", "ell", "note"])
    for row in rows:
        w.writerow([row.source, row.scope, row.applicable,
                    "" if row.ell is None else row.ell, row.note])
    return buf.getvalue()


def table1_text(rows: List[TableRow]) -> str:
    headers = ("source", "applicable", "ell", "scope")
    cells = [(r.source, "yes" if r.applicable else "no",
              "-" if r.ell is None else str(r.ell), r.scope) for r in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for c in cells:
        lines.append("  ".join(c[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def table1_json(rows: List[TableRow]) -> list:
    return [{"source": r.source, "scope": r.scope, "applicable": r.applicable,
             "ell": r.ell, "note": r.note} for r in rows]
