"""Workloads, correctness gates and the closed-loop runner of perfbench.

One client drives the public msrcodes API one operation at a time.  Each run
is: set-up (spec build + seeded payload), ingest, whole cycles of seeded
fail/repair rounds until the run's time has passed, then extract.  Set-up is
timed again after every op and, for workloads where they are cheap next to
a round, extract and ingest follow every round; their samples then spread
over the whole run, so one slow stretch of a shared host does not skew
them.  Every
operation's output passes a correctness gate before its time counts; a
failed gate or an exception counts the operation as failed and ends the run.
Only the msrcodes call itself is timed.
"""

from __future__ import annotations

import hashlib
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from msrcodes import audit, build, constructions, repair, storage

from bench_trace import Tracer

MIB = 1 << 20
SETUP_REPS = 3   # before the first op; one more follows every op

# metric name -> unit, in print order
END_TO_END = {
    "setup_s": "s", "ingest_mibps": "MiB/s", "repair_mibps": "MiB/s",
    "extract_mibps": "MiB/s", "download_bytes_per_restored_byte": "B/B",
    "stored_bytes_per_payload_byte": "B/B", "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "repair.plan.s": "s", "repair.plan.calls": "count", "repair.plan.groups": "count",
    "repair.helper_aggregate.s": "s", "repair.repair_columns.s": "s",
    "repair.repair_columns.self_s": "s",
    "grs.syndrome_rhs.s": "s", "grs.syndrome_rhs.calls": "count",
    "grs.syndrome_rhs.mulmods": "count",
    "grs.solve_vandermonde.s": "s", "grs.solve_vandermonde.calls": "count",
    "grs.solve_vandermonde.mulmods": "count",
    "constructions.encode_blocks.s": "s", "constructions.complete_columns.s": "s",
    "constructions.complete_columns.self_s": "s",
    "storage.read_elements.s": "s", "storage.read_elements.calls": "count",
    "storage.shard_access_bytes": "B", "storage.read_shard.s": "s",
    "storage.read_shard.bytes": "B", "storage.write_shard.s": "s",
    "storage.write_shard.bytes": "B", "storage.download_bytes": "B",
    "storage.ingest.self_s": "s", "storage.run_repair.self_s": "s",
    "storage.extract.self_s": "s",
    "span_cover.ingest": "fraction", "span_cover.repair": "fraction",
    "span_cover.extract": "fraction",
    "trace_overhead.ingest_mibps": "MiB/s", "trace_overhead.repair_mibps": "MiB/s",
    "trace_overhead.extract_mibps": "MiB/s",
    "failed_op_share": "fraction",
}
UNITS = {**END_TO_END, **PER_LAYER}


@dataclass(frozen=True)
class Workload:
    """One benchmark input set.

    cycle: the round mix, one (pattern, slots) entry per round; each slot
    character picks one failed node from the systematic nodes ("s"), the
    parity nodes ("p") or any node ("*").  Every cycle runs each entry once
    in a seeded order with seeded nodes and helpers, so the mix of a run
    never depends on how many cycles fit in its time.
    """

    name: str
    kind: str          # "cluster" (file-backed storage API) or "memory"
    family: str
    n: int
    k: int
    patterns: tuple
    cycle: tuple
    payload_bytes: int = 0   # cluster: payload size; memory: one block of k*ell bytes
    side_ops: bool = False   # extract and re-ingest after every round


WORKLOADS = {w.name: w for w in (
    # storage does ~89% of repair (per-element helper reads); one repair
    # family and no step-2 peel, so the no-change case for plan/peel work
    Workload("cluster-c3", "cluster", "c3", 6, 2, ((2, 4),),
             cycle=(((2, 4), "ss"), ((2, 4), "sp"), ((2, 4), "pp")),
             payload_bytes=MIB, side_ops=True),
    # h=1,2,3 rounds, singles most common; h=3,d=3 runs three member
    # families plus the download-free peel
    Workload("cluster-c4-mixed", "cluster", "c4", 6, 2, ((1, 3), (2, 4), (3, 3)),
             cycle=(((1, 3), "*"), ((1, 3), "*"), ((2, 4), "**"), ((3, 3), "***")),
             payload_bytes=MIB, side_ops=True),
    # ell = 3,145,728 in memory: plan and helper_aggregate are a real share
    # of repair; covers both C1 plan paths (pinned for (1,9), mu for (1,8))
    Workload("memory-c1-large-ell", "memory", "c1", 10, 6, ((1, 8), (1, 9)),
             cycle=(((1, 9), "*"), ((1, 8), "*"))),
)}


class GateError(Exception):
    """An operation's output failed the benchmark's correctness gate."""


def gamma(h: int, d: int, k: int, ell: int) -> int:
    """Cut-set total d*h*ell/(d-k+h), computed independently of msrcodes."""
    num, den = d * h * ell, d - k + h
    if num % den:
        raise GateError(f"gamma {num}/{den} is not an integer")
    return num // den


def make_payload(w: Workload, spec, seed: int) -> bytes:
    size = w.payload_bytes if w.kind == "cluster" else spec.k * spec.ell
    rng = np.random.default_rng([seed, 0])
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def make_rounds(w: Workload, rng: np.random.Generator) -> list:
    """One cycle: [(failed, helpers, pattern)] in seeded order."""
    pools = {"s": range(1, w.k + 1), "p": range(w.k + 1, w.n + 1), "*": range(1, w.n + 1)}
    rounds = []
    for i in rng.permutation(len(w.cycle)):
        pattern, slots = w.cycle[i]
        failed = []
        for c in slots:
            free = [j for j in pools[c] if j not in failed]
            failed.append(int(rng.choice(free)))
        rest = [j for j in range(1, w.n + 1) if j not in failed]
        helpers = sorted(int(j) for j in rng.choice(rest, size=pattern[1], replace=False))
        rounds.append((tuple(sorted(failed)), tuple(helpers), tuple(pattern)))
    return rounds


def _check(cond: bool, what: str):
    if not cond:
        raise GateError(what)


def _check_transcript(tr, spec, h: int, d: int, ell_total: int):
    _check(tr.total == gamma(h, d, spec.k, ell_total),
           f"transcript total {tr.total} != gamma")
    _check(audit.verify_transcript(tr, spec).conforming, "transcript not conforming")


def planes_vanish(spec, cols: np.ndarray, chunk: int = 1 << 16) -> bool:
    """True iff every plane of (B, n, ell) columns is a codeword.

    Symbol tau = b*A + a of node j sits on point lambda[j][a_j]; a plane is a
    codeword iff sum_j point_j^t * symbol_j = 0 (mod p) for t < r.  Checked
    here in chunks of tau, apart from msrcodes' kernels, so the gate neither
    trusts the code under test nor raises the run's peak memory.
    """
    p, s_m, A = spec.field.p, spec.s_m, spec.s_m ** spec.n
    lam = spec.lam_array()
    for start in range(0, spec.ell, chunk):
        a = np.arange(start, min(start + chunk, spec.ell)) % A
        acc = np.zeros((spec.r, cols.shape[0], a.size), dtype=np.int64)
        for j in range(spec.n):
            point = lam[j, (a // s_m ** j) % s_m]
            power = np.ones_like(point)
            for t in range(spec.r):
                acc[t] = (acc[t] + power * cols[:, j, start:start + a.size]) % p
                power = power * point % p
        if acc.any():
            return False
    return True


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@contextmanager
def center_logs():
    """Collect the AccessLog objects run_repair creates for its data center.

    ClusterState logs are built by their dataclass default factory, so only
    logs made through the module-level name during a repair land here.
    """
    made = []
    original = storage.AccessLog

    class Recorded(original):
        def __init__(self):
            super().__init__()
            made.append(self)

    storage.AccessLog = Recorded
    try:
        yield made
    finally:
        storage.AccessLog = original


class ClusterTarget:
    """Cluster workloads through msrcodes.storage: ingest, run_repair, extract."""

    def __init__(self, spec, payload: bytes, root: Path, logs: list):
        self.spec, self.payload, self.root, self.logs = spec, payload, root, logs
        self.state = None
        self.reference = None   # shard digests of the first ingest, once verified

    def ingest(self, trace):
        with trace("storage.ingest"):
            t0 = perf_counter()
            state = storage.ingest(self.payload, self.spec, self.root)
            dt = perf_counter() - t0
        self.state = state
        paths = [state.shard_path(j) for j in range(1, self.spec.n + 1)]
        digests = [_sha(p) for p in paths]
        _check(digests == [state.manifest["shards"][str(j)]["digest"]
                           for j in range(1, self.spec.n + 1)], "shard digest != manifest")
        if self.reference is None:
            self._verify_content(state)
            self.reference = digests
        _check(digests == self.reference, "ingest is not reproducible")
        stored = sum(p.stat().st_size for p in paths)
        return {"s": dt, "bytes": len(self.payload), "stored": stored}

    def _verify_content(self, state):
        spec, B = self.spec, state.blocks
        cols = []
        for j in range(1, spec.n + 1):
            node, elems = storage.read_shard(state.shard_path(j))
            _check(node == j, f"shard {j} claims node {node}")
            cols.append(elems.reshape(B, spec.ell))
        cols = np.stack(cols, axis=1)   # (B, n, ell)
        data = np.frombuffer(self.payload, dtype=np.uint8)
        systematic = cols[:, :spec.k].reshape(-1)
        _check(np.array_equal(systematic[:data.size], data)
               and not systematic[data.size:].any(), "systematic shards != payload")
        _check(planes_vanish(spec, cols), "parity shards fail the plane checks")

    def repair(self, trace, failed, helpers, pattern):
        state, spec = self.state, self.spec
        storage.fail_nodes(state, failed)
        before = state.access_log.total("download")
        start = len(self.logs)
        with trace("storage.run_repair", {"failed": failed, "helpers": helpers,
                                          "pattern": pattern}):
            t0 = perf_counter()
            state, tr = storage.run_repair(state, failed, helpers, pattern)
            dt = perf_counter() - t0
        self.state = state
        ell_total = spec.ell * state.blocks
        _check_transcript(tr, spec, pattern[0], pattern[1], ell_total)
        want = tr.total * state.manifest["element_size"]
        downloaded = state.access_log.total("download") - before
        _check(downloaded == want, f"download ledger {downloaded} != {want}")
        center = self.logs[start:]
        _check(len(center) == 1 and center[0].total("download") == want,
               "center log does not match the transcript")
        _check(not any(p.endswith(".shard") for p in center[0].by_path),
               "data center touched a shard file")
        for j in failed:
            _check(state.status(j) == storage.ALIVE, f"node {j} not alive after repair")
            _check(_sha(state.shard_path(j)) == self.reference[j - 1],
                   f"restored node {j} != original")
        return {"s": dt, "bytes": len(failed) * ell_total, "download": downloaded}

    def extract(self, trace):
        with trace("storage.extract"):
            t0 = perf_counter()
            out = storage.extract(self.state)
            dt = perf_counter() - t0
        _check(out == self.payload, "extracted payload != payload")
        return {"s": dt, "bytes": len(self.payload)}


class MemoryTarget:
    """In-memory workloads through encode_blocks, plan/helper_aggregate/
    center_repair and mds_reconstruct; no disk."""

    def __init__(self, spec, payload: bytes):
        self.spec, self.payload = spec, payload
        self.columns = None     # (n, ell) codeword of the verified first ingest
        self.digest = None

    def ingest(self, trace):
        spec = self.spec
        with trace("memory.ingest"):
            t0 = perf_counter()
            data = np.frombuffer(self.payload, dtype=np.uint8).astype(np.int64)
            encoded = constructions.encode_blocks(spec, data.reshape(1, spec.k, spec.ell))
            self.digest = hashlib.sha256(self.payload).hexdigest()
            dt = perf_counter() - t0
        cols = encoded[0]
        if self.columns is None:
            _check(np.array_equal(cols[:spec.k].reshape(-1), data), "systematic != payload")
            _check(planes_vanish(spec, encoded), "parity fails the plane checks")
            self.columns = cols
        _check(np.array_equal(cols, self.columns), "ingest is not reproducible")
        return {"s": dt, "bytes": len(self.payload), "stored": encoded.nbytes}

    def repair(self, trace, failed, helpers, pattern):
        spec, cols = self.spec, self.columns
        with trace("memory.repair", {"failed": failed, "helpers": helpers,
                                     "pattern": pattern}):
            t0 = perf_counter()
            pl = repair.plan(spec, failed, helpers, pattern)
            payloads = [repair.helper_aggregate(pl, j, cols[j - 1]) for j in helpers]
            restored, tr = repair.center_repair(pl, payloads)
            dt = perf_counter() - t0
        _check_transcript(tr, spec, pattern[0], pattern[1], spec.ell)
        downloaded = sum(p.values.nbytes for p in payloads)
        _check(downloaded == tr.total * cols.itemsize, "download bytes != transcript")
        for j in failed:
            _check(np.array_equal(restored[j], cols[j - 1]), f"restored node {j} != original")
        return {"s": dt, "bytes": len(failed) * spec.ell, "download": downloaded}

    def extract(self, trace):
        spec = self.spec
        nodes = list(range(spec.n - spec.k + 1, spec.n + 1))   # the last k: decode uses parity
        with trace("memory.extract"):
            t0 = perf_counter()
            cw = constructions.mds_reconstruct(spec, nodes, self.columns[[j - 1 for j in nodes]])
            out = cw.columns[:spec.k].astype(np.uint8).tobytes()
            ok = hashlib.sha256(out).hexdigest() == self.digest
            dt = perf_counter() - t0
        _check(ok and out == self.payload, "extracted payload != payload")
        return {"s": dt, "bytes": len(self.payload)}


@contextmanager
def _untraced(name, detail=None):
    yield


class Pass:
    """Records one pass's operations; stops at the first failure."""

    def __init__(self, target, trace):
        self.target, self.trace = target, trace
        self.records = {"ingest": [], "repair": [], "extract": []}
        self.setup_times: list = []
        self.attempted = self.failed = 0

    def do(self, kind: str, *args) -> bool:
        self.attempted += 1
        try:
            rec = getattr(self.target, kind)(self.trace, *args)
        except Exception:   # any failure is a failed op, reported, never a number
            self.failed += 1
            print(f"FAILED {kind}{args}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return False
        self.records[kind].append(rec)
        return True

    def e2e(self) -> dict:
        """End-to-end numbers from the recorded ops (None where none succeeded)."""
        r = self.records
        ing = [x["bytes"] / x["s"] / MIB for x in r["ingest"]]
        ext = [x["bytes"] / x["s"] / MIB for x in r["extract"]]
        restored = sum(x["bytes"] for x in r["repair"])
        return {
            "setup_s": statistics.median(self.setup_times),
            "ingest_mibps": statistics.median(ing) if ing else None,
            "repair_mibps": (restored / sum(x["s"] for x in r["repair"]) / MIB
                             if r["repair"] else None),
            "extract_mibps": statistics.median(ext) if ext else None,
            "download_bytes_per_restored_byte": (
                sum(x["download"] for x in r["repair"]) / restored if restored else None),
            "stored_bytes_per_payload_byte": (
                r["ingest"][0]["stored"] / r["ingest"][0]["bytes"] if r["ingest"] else None),
        }


def set_up(w: Workload, seed: int):
    """Build the spec and generate the seeded payload: (spec, payload, seconds)."""
    t0 = perf_counter()
    spec = build(w.family, w.n, w.k, list(w.patterns), min_prime=257)
    payload = make_payload(w, spec, seed)
    return spec, payload, perf_counter() - t0


def run_pass(w: Workload, target, seed: int, seconds: float, trace=_untraced,
             max_cycles=None) -> Pass:
    """Ingest, whole round cycles until `seconds` have passed, extract."""
    run = Pass(target, trace)
    run.setup_times = [set_up(w, seed)[2] for _ in range(SETUP_REPS)]

    def do(kind, *args) -> bool:
        ok = run.do(kind, *args)
        run.setup_times.append(set_up(w, seed)[2])
        return ok

    rng = np.random.default_rng([seed, 1])
    t_start = perf_counter()
    if not do("ingest"):
        return run
    cycles = 0
    while True:
        for failed, helpers, pattern in make_rounds(w, rng):
            if not do("repair", failed, helpers, pattern):
                return run
            if w.side_ops and not (do("extract") and do("ingest")):
                return run
        cycles += 1
        if cycles == max_cycles or perf_counter() - t_start >= seconds:
            break
    do("extract")
    return run


def run_workload(w: Workload, seed: int, seconds: float, traced: bool, workdir: Path,
                 trace_path=None) -> dict:
    """One benchmark run; returns {correct, attempted, failed, metrics}.

    Untraced: time-bounded pass, end-to-end metrics.  Traced: one untraced
    and one traced pass of exactly one cycle each with the same inputs, so
    counts repeat exactly; per-layer metrics plus the tracing overhead.
    """
    spec, payload, _ = set_up(w, seed)
    root = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=workdir))
    try:
        with center_logs() as logs:
            target = (ClusterTarget(spec, payload, root, logs) if w.kind == "cluster"
                      else MemoryTarget(spec, payload))
            if not traced:
                passes = [run_pass(w, target, seed, seconds)]
            else:
                # warm-up ingest: one-off caches (e.g. the digit matrix) must
                # not count against the untraced pass the overhead compares with
                warm = Pass(target, _untraced)
                warm.do("ingest")
                plain = run_pass(w, target, seed, seconds, max_cycles=1)
                tracer = Tracer()
                with tracer.installed():
                    traced_pass = run_pass(w, target, seed, seconds, trace=tracer.op,
                                           max_cycles=1)
                passes = [warm, plain, traced_pass]
    finally:
        shutil.rmtree(root, ignore_errors=True)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if not traced:
        e2e = passes[0].e2e()
        metrics = {**e2e,
                   "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    else:
        metrics = tracer.layer_metrics()
        u, t = plain.e2e(), traced_pass.e2e()
        for name in ("ingest_mibps", "repair_mibps", "extract_mibps"):
            metrics["trace_overhead." + name] = (
                t[name] - u[name] if t[name] is not None and u[name] is not None else None)
        metrics["storage.download_bytes"] = sum(
            x["download"] for x in traced_pass.records["repair"]) if w.kind == "cluster" else 0
        metrics["failed_op_share"] = failed / attempted
        if trace_path is not None:
            tracer.write(trace_path, workload=w.name, seed=seed)
    metrics = {name: metrics[name] for name in (PER_LAYER if traced else END_TO_END)}
    correct = failed == 0 and all(v is not None for v in metrics.values())
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
