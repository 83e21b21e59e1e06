"""Paired A/B runs of the benchmark: a base revision against the working tree.

    python3 tools/abbench.py --base HEAD~1 --workload memory-c1-large-ell \\
        --pairs 10 --seconds 20 --label NAME [--seed 1 --seed 7]

The base revision is exported with `git archive` into a temporary directory.
`perfbench/run.py --trace 0` runs unchanged there (side "parent") and in the
working tree (side "change"), one run at a time. Pairs alternate which side
runs first (ABBA), seed by seed, every workload in turn within a pair.
BENCH_<NAME>.json at the repository root gets every run and, per workload
and end-to-end metric of BENCHMARK.json, both sides' medians, quartiles and
ranges, the pairs the change won and a verdict (see `verdict`).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
GAIN_SHARE = 0.9  # share of pairs the better side must win


def schedule(seeds, pairs: int, workloads):
    """(seed, pair, workload, side) in run order: seed-major; the parent runs
    first on even pairs and second on odd ones."""
    for seed in seeds:
        for pair in range(pairs):
            for workload in workloads:
                for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                    yield seed, pair, workload, side


def quartiles(values):
    """(Q1, median, Q3), statistics.quantiles(n=4, method='inclusive')."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _value(run, name: str):
    """A run's value of metric name; None when the run or the value is missing."""
    metrics = ((run or {}).get("result") or {}).get("metrics", {})
    return metrics.get(name, {}).get("value")


def verdict(stats: dict, better: str, bound: float) -> str:
    """In order: 'no data' without a complete pair; 'regression' when the
    change's median is worse than the parent's by more than the metric's
    bound; 'unresolved' when the parent's IQR is wider than the bound, unless
    every change run beats every parent run; 'gain' when the change is better
    in at least GAIN_SHARE of all pairs run (a pair missing a side counts
    against it) and the medians differ by more than the parent's IQR, but
    'unresolved' when the change side has more failed ops or more runs
    without a result than the parent; 'loss' when the change is worse in
    GAIN_SHARE of the complete pairs by such a gap; else 'no change'."""
    pairs = stats["pairs"]
    if not pairs:
        return "no data"
    sign = 1 if better == "higher" else -1
    gap = sign * (stats["change_median"] - stats["parent_median"])
    if gap < -bound * abs(stats["parent_median"]):
        return "regression"
    if (stats["parent_iqr"] > bound * abs(stats["parent_median"])
            and not stats["change_beats_every_parent_run"]):
        return "unresolved"
    if stats["pairs_change_better"] >= GAIN_SHARE * stats["pairs_run"] and gap > stats["parent_iqr"]:
        return "unresolved" if stats["gain_blocked"] else "gain"
    if stats["pairs_change_worse"] >= GAIN_SHARE * pairs and -gap > stats["parent_iqr"]:
        return "loss"
    return "no change"


def metric_stats(pairs, better: str, bound: float, pairs_run=None,
                 gain_blocked: bool = False) -> dict:
    """Summary of one metric over (parent, change) value pairs.  pairs_run
    (default len(pairs)) also counts the pairs that lack a side's value;
    gain_blocked is set when the change side failed more (see summarize)."""
    sign = 1 if better == "higher" else -1
    stats = {"better": better, "bound": bound, "pairs": len(pairs),
             "pairs_run": len(pairs) if pairs_run is None else pairs_run,
             "gain_blocked": gain_blocked}
    if pairs:
        for i, side in enumerate(SIDES):
            vals = [pr[i] for pr in pairs]
            q1, med, q3 = quartiles(vals)
            stats.update({f"{side}_median": round(med, 6), f"{side}_iqr": round(q3 - q1, 6),
                          f"{side}_range": [round(min(vals), 6), round(max(vals), 6)]})
        stats["change_over_parent"] = (round(stats["change_median"] / stats["parent_median"], 4)
                                       if stats["parent_median"] else None)
        stats["pairs_change_better"] = sum(sign * (c - p) > 0 for p, c in pairs)
        stats["pairs_change_worse"] = sum(sign * (c - p) < 0 for p, c in pairs)
        stats["change_beats_every_parent_run"] = (min(sign * c for _, c in pairs)
                                                  > max(sign * p for p, _ in pairs))
    stats["verdict"] = verdict(stats, better, bound)
    return stats


def summarize(runs, end_to_end) -> dict:
    """Per workload: run health and metric_stats for every end-to-end metric
    (end_to_end: BENCHMARK.json's list).  A pair's values count for a metric
    when both of its runs report one; every pair run counts toward a gain.
    No metric reads 'gain' when the change side has more failed ops, or more
    runs without a result, than the parent ('gain_blocked')."""
    by_key = {(r["seed"], r["pair"], r["workload"], r["side"]): r for r in runs}
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        entry = {side: {"runs": sum(r["side"] == side for r in mine),
                        "failed_ops": sum((r["result"] or {}).get("failed", 0)
                                          for r in mine if r["side"] == side),
                        "all_correct": all((r["result"] or {}).get("correct") is True
                                           for r in mine if r["side"] == side)}
                 for side in SIDES}
        no_result = {side: sum(not r["result"] for r in mine if r["side"] == side)
                     for side in SIDES}
        entry["gain_blocked"] = (entry["change"]["failed_ops"] > entry["parent"]["failed_ops"]
                                 or no_result["change"] > no_result["parent"])
        entry["metrics"] = {}
        keys = sorted({(r["seed"], r["pair"]) for r in mine})
        for m in end_to_end:
            pairs = []
            for seed, pair in keys:
                vals = [_value(by_key.get((seed, pair, workload, side)), m["name"])
                        for side in SIDES]
                if None not in vals:
                    pairs.append(tuple(vals))
            entry["metrics"][m["name"]] = metric_stats(pairs, m["better"], m["bound"],
                                                       len(keys), entry["gain_blocked"])
        out[workload] = entry
    return out


def run_once(root: Path, workload: str, seed: int, seconds: float):
    """One untraced perfbench run in checkout root: (record, stdout)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    wall = round(time.perf_counter() - t0, 1)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        print(proc.stderr[-2000:], file=sys.stderr)
    return {"returncode": proc.returncode, "wall_s": wall, "started": started,
            "result": result}, proc.stdout


def src_digest(root: Path) -> str:
    """SHA-256 over root/src/**/*.py (relative path and bytes): which code ran."""
    h = hashlib.sha256()
    for f in sorted((root / "src").rglob("*.py")):
        h.update(str(f.relative_to(root)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision of the parent side")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload of BENCHMARK.json; repeat for more")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--seed", type=int, action="append",
                    help="perfbench seed; repeat for more (default 1)")
    args = ap.parse_args(argv)
    seeds = args.seed or [1]
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    unknown = set(args.workload) - {w["name"] for w in bench["workloads"]}
    if unknown:
        ap.error(f"unknown workload(s) {sorted(unknown)}")

    base_commit = _git("rev-parse", "--verify", args.base + "^{commit}")
    runs, machine = [], None
    with tempfile.TemporaryDirectory(prefix="abbench-") as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", base_commit], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(tmp, filter="data")
            else:
                tar.extractall(tmp)
        roots = {"parent": Path(tmp), "change": ROOT}
        digests = {side: src_digest(root) for side, root in roots.items()}
        for seed, pair, workload, side in schedule(seeds, args.pairs, args.workload):
            record, stdout = run_once(roots[side], workload, seed, args.seconds)
            machine = machine or next((ln[2:] for ln in stdout.splitlines()
                                       if ln.startswith("# machine:")), None)
            runs.append({"run": len(runs), "workload": workload, "seed": seed, "pair": pair,
                         "side": side, "first": SIDES[pair % 2], **record})
            print(f"[{len(runs)}] seed {seed} pair {pair} {workload} {side}: "
                  f"rc={record['returncode']} {record['wall_s']} s "
                  f"repair_mibps={_value(record, 'repair_mibps')}", flush=True)

    e2e = bench["end_to_end"]
    report = {
        "what": f"perfbench end-to-end metrics, untraced: the working tree (change) "
                f"against {args.base} (parent)",
        "parent_commit": base_commit,
        "change_head": _git("rev-parse", "HEAD"),
        "src_sha256": digests,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0, in a git-archive export of the parent and in the working tree",
        "machine": machine,
        "order": "seed-major; per seed, pairs in turn; per pair every workload in turn, "
                 "parent then change on even pairs and change then parent on odd pairs; "
                 "'run' is the global run index",
        "seeds": seeds,
        "quartiles": "statistics.quantiles(n=4, method='inclusive'); iqr = Q3 - Q1",
        "verdict_rule": " ".join(verdict.__doc__.split()),
        "summary": summarize(runs, e2e),
        "summary_by_seed": {str(s): summarize([r for r in runs if r["seed"] == s], e2e)
                            for s in seeds},
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["summary"].items():
        for name, st in entry["metrics"].items():
            print(f"{workload:22s} {name:34s} {st.get('change_over_parent')!s:>8s} "
                  f"won {st.get('pairs_change_better')}/{st['pairs_run']} {st['verdict']}")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
