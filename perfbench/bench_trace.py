"""Runtime span tracer for the perfbench harness.

The tracer replaces, for the duration of a traced pass, the module-level
names through which msrcodes' layers call each other (for example
`msrcodes.repair.solve_vandermonde`, the name `repair_columns` resolves at
call time).  Every wrapped call inside an operation records a span (name,
start, end, parent span, op id) and bumps counters computed from its
arguments or result at the call boundary.  Outside an operation (the
benchmark's correctness gates) wrapped calls pass straight through.  Nothing
under `src/` is edited; `installed()` restores every binding on exit.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from msrcodes import constructions, repair, storage

# op span name -> op kind; cluster ops wrap the storage API, memory ops the
# library calls the benchmark composes itself
OP_KINDS = {
    "storage.ingest": "ingest", "storage.run_repair": "repair", "storage.extract": "extract",
    "memory.ingest": "ingest", "memory.repair": "repair", "memory.extract": "extract",
}


def _arg(args, kwargs, i: int, name: str):
    """Argument i of a call, passed by position or by name."""
    return args[i] if len(args) > i else kwargs[name]


def syndrome_mulmods(args, kwargs, result) -> int:
    """Modular products syndrome_rhs(field, points, values, r) performs:
    r*G*m*R for the weighted sums plus (r-1)*G*m power updates."""
    points, values = _arg(args, kwargs, 1, "points"), _arg(args, kwargs, 2, "values")
    r = _arg(args, kwargs, 3, "r")
    G, m = points.shape
    R = values.shape[2] if values.ndim == 3 else 1
    return r * G * m * R + max(r - 1, 0) * G * m


def solve_mulmods(args, kwargs, result) -> int:
    """Modular products solve_vandermonde(field, points, rhs) performs:
    e(e-1) for the power matrix, sum_{u<=e} u^2 for the eliminations on it,
    and e^2 per right-hand side (pivot inversions excluded)."""
    points, rhs = _arg(args, kwargs, 1, "points"), _arg(args, kwargs, 2, "rhs")
    G, e = points.shape
    R = rhs.shape[2] if rhs.ndim == 3 else 1
    return G * (e * (e - 1) + e * (e + 1) * (2 * e + 1) // 6 + R * e * e)


def _shard_bytes(elements: int) -> int:
    return storage.HEADER_SIZE + elements * storage.ELEMENT_SIZE


# (module, attribute, span name, (counter, hook(args, kwargs, result) -> int) or None).
# Hooks run outside the span but inside the op; read_elements runs ~16k times
# per cluster repair, so they stay cheap.
BINDINGS = [
    (repair, "plan", "repair.plan", ("repair.plan.groups", lambda a, k, res: res.group_count)),
    (repair, "helper_aggregate", "repair.helper_aggregate", None),
    (repair, "repair_columns", "repair.repair_columns", None),
    (repair, "syndrome_rhs", "grs.syndrome_rhs", ("grs.syndrome_rhs.mulmods", syndrome_mulmods)),
    (repair, "solve_vandermonde", "grs.solve_vandermonde",
     ("grs.solve_vandermonde.mulmods", solve_mulmods)),
    (constructions, "syndrome_rhs", "grs.syndrome_rhs",
     ("grs.syndrome_rhs.mulmods", syndrome_mulmods)),
    (constructions, "solve_vandermonde", "grs.solve_vandermonde",
     ("grs.solve_vandermonde.mulmods", solve_mulmods)),
    (constructions, "complete_columns", "constructions.complete_columns", None),
    (constructions, "encode_blocks", "constructions.encode_blocks", None),
    (storage, "encode_blocks", "constructions.encode_blocks", None),
    (storage, "complete_columns", "constructions.complete_columns", None),
    (storage, "read_elements", "storage.read_elements",
     ("storage.shard_access_bytes",
      lambda a, k, res: len(_arg(a, k, 1, "indices")) * storage.ELEMENT_SIZE)),
    (storage, "read_shard", "storage.read_shard",
     ("storage.read_shard.bytes", lambda a, k, res: _shard_bytes(res[1].size))),
    (storage, "write_shard", "storage.write_shard",
     ("storage.write_shard.bytes", lambda a, k, res: _shard_bytes(_arg(a, k, 3, "elements").size))),
]


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list = []    # [name, start, end, parent index or -1, op id]
        self.counts: Counter = Counter()
        self.ops: list = []      # {"id", "span", "kind", "detail"}
        self._stack: list = []
        self._op = None

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"
        key, hook = counter if counter is not None else (None, None)

        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            rec = [name, perf_counter(), None, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = perf_counter()
            counts[calls] += 1
            if hook is not None:
                counts[key] += hook(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every binding in BINDINGS; restore the originals on exit."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in BINDINGS]
        try:
            for (mod, attr, name, counter), (_, _, fn) in zip(BINDINGS, saved):
                setattr(mod, attr, self._wrap(name, fn, counter))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    @contextmanager
    def op(self, name: str, detail=None):
        """Span one benchmark operation; layer spans inside it get its id."""
        op_id = len(self.ops)
        rec = [name, perf_counter(), None, -1, op_id]
        self.ops.append({"id": op_id, "span": len(self.spans), "kind": OP_KINDS[name],
                         "detail": detail})
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self._op = op_id
        try:
            yield
        finally:
            self._op = None
            self._stack.pop()
            rec[2] = perf_counter()

    # -- analysis ----------------------------------------------------------

    def _child_time(self) -> list:
        """Per span, the time its direct children cover (children never overlap)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return child

    def layer_metrics(self) -> dict:
        """Per-layer times, self times, counts and op coverage."""
        child = self._child_time()
        kind_of_op = {op["id"]: op["kind"] for op in self.ops}
        total, self_t = defaultdict(float), defaultdict(float)
        decode_total = decode_self = 0.0
        for i, (name, t0, t1, _, op_id) in enumerate(self.spans):
            dur = t1 - t0
            total[name] += dur
            self_t[name] += dur - child[i]
            if name == "constructions.complete_columns" and kind_of_op[op_id] == "extract":
                decode_total += dur
                decode_self += dur - child[i]
        cover = {"ingest": [], "repair": [], "extract": []}
        for op in self.ops:
            name, t0, t1, _, _ = self.spans[op["span"]]
            cover[op["kind"]].append(child[op["span"]] / (t1 - t0))

        m = {
            "repair.plan.s": total["repair.plan"],
            "repair.plan.calls": self.counts["repair.plan.calls"],
            "repair.plan.groups": self.counts["repair.plan.groups"],
            "repair.helper_aggregate.s": total["repair.helper_aggregate"],
            "repair.repair_columns.s": total["repair.repair_columns"],
            "repair.repair_columns.self_s": self_t["repair.repair_columns"],
            "constructions.encode_blocks.s": total["constructions.encode_blocks"],
            # the extract decode only; encode's own complete_columns sits under encode_blocks
            "constructions.complete_columns.s": decode_total,
            "constructions.complete_columns.self_s": decode_self,
            "storage.read_elements.s": total["storage.read_elements"],
            "storage.read_elements.calls": self.counts["storage.read_elements.calls"],
            "storage.shard_access_bytes": self.counts["storage.shard_access_bytes"],
            "storage.read_shard.s": total["storage.read_shard"],
            "storage.read_shard.bytes": self.counts["storage.read_shard.bytes"],
            "storage.write_shard.s": total["storage.write_shard"],
            "storage.write_shard.bytes": self.counts["storage.write_shard.bytes"],
            "storage.ingest.self_s": self_t["storage.ingest"],
            "storage.run_repair.self_s": self_t["storage.run_repair"],
            "storage.extract.self_s": self_t["storage.extract"],
        }
        for kernel in ("grs.syndrome_rhs", "grs.solve_vandermonde"):
            m[kernel + ".s"] = total[kernel]
            m[kernel + ".calls"] = self.counts[kernel + ".calls"]
            m[kernel + ".mulmods"] = self.counts[kernel + ".mulmods"]
        for kind, shares in cover.items():
            m["span_cover." + kind] = min(shares) if shares else None
        return m

    def write(self, path: Path, **header):
        """Write ops and spans (times relative to the first span) as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(header, ops=self.ops,
                   span_fields=["name", "start_s", "end_s", "parent", "op"],
                   spans=[[n, round(a - t0, 9), round(b - t0, 9), p, o]
                          for n, a, b, p, o in self.spans])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
