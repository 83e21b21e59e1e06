"""Command-line interface.

Exit codes: 0 success, 1 validation error, 2 integrity/optimality failure.
Node indices are 1-based, matching the construction's numbering.  Randomized
commands take --seed (fallback: MSR_SEED env var, then 0) and echo the seed
they used.  cmd_* handlers return (payload, text, code); main alone prints.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import audit, repair, storage
from .constructions import (Family, build, encode, mds_reconstruct, random_data,
                            spec_from_manifest, LAMBDA_RULE)
from .errors import CorruptionError, MsrError, ParameterError
from .field import PrimeField
from .grs import solve_vandermonde, syndrome_rhs
from .hamming import syndromes


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _ints(text: str, flag: str) -> list:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError as exc:  # int() names the entry
        raise ParameterError(f"{flag}: {exc}") from None


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    try:
        return int(os.environ.get("MSR_SEED", "0"))
    except ValueError as exc:  # int() names the value
        raise ParameterError(f"MSR_SEED: {exc}") from None


def _parse_pattern_args(args) -> list:
    if args.patterns is not None:
        if args.h is not None or args.d is not None:
            raise ParameterError("--patterns excludes --h and --d")
        pairs = [entry.split(":") for entry in args.patterns.split(",")]
        for pair in pairs:
            if len(pair) != 2 or not all(x.strip().isdecimal() for x in pair):
                raise ParameterError(f"--patterns entry {':'.join(pair)!r} is not h:d")
        return [(int(h), int(d)) for h, d in pairs]
    if args.d is None:
        raise ParameterError("--d is required")
    ds = _ints(args.d, "--d")
    if args.h is None:
        if args.family == Family.C1.value:
            hs = [1] * len(ds)
        else:
            raise ParameterError(f"--h is required for family {args.family}")
    else:
        hs = _ints(args.h, "--h")
        if len(hs) == 1 and len(ds) > 1:
            hs = hs * len(ds)
    if len(hs) != len(ds):
        raise ParameterError("--h and --d lists differ in length")
    return list(zip(hs, ds))


def _build_spec(args, min_prime: int = 0):
    return build(args.family, args.n, args.k, _parse_pattern_args(args),
                 prime=args.prime, min_prime=min_prime)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_params(args) -> tuple:
    spec = _build_spec(args)
    bounds = []
    for h, d in spec.patterns:
        beta, gamma = audit.cut_set(h, d, spec.k, spec.ell)
        bounds.append({"h": h, "d": d, "beta": beta, "gamma": gamma})
    info = {
        "family": spec.family.value, "n": spec.n, "k": spec.k, "r": spec.r,
        "patterns": [list(p) for p in spec.patterns],
        "s_m": spec.s_m, "s": spec.s, "ell": spec.ell,
        "prime": spec.field.p, "lambda_rule": LAMBDA_RULE, "bounds": bounds,
    }
    lines = [f"family={spec.family.value} n={spec.n} k={spec.k} r={spec.r}",
             f"ell={spec.ell} (s={spec.s}, s_m={spec.s_m})",
             f"prime={spec.field.p} lambda_rule={LAMBDA_RULE}"]
    for b in bounds:
        lines.append(f"pattern (h={b['h']}, d={b['d']}): beta={b['beta']} gamma={b['gamma']}")
    return info, "\n".join(lines), 0


def cmd_encode(args) -> tuple:
    seed = _seed(args)
    payload = None
    if args.payload:
        payload = Path(args.payload).read_bytes()
    elif args.random_bytes is not None:
        if args.random_bytes < 0:
            raise ParameterError(f"--random-bytes must be at least 0, got {args.random_bytes}")
        rng = np.random.default_rng(seed)
        payload = rng.integers(0, 256, size=args.random_bytes, dtype=np.uint8).tobytes()
    spec = _build_spec(args, min_prime=257 if payload is not None else 0)
    state = storage.ingest(payload, spec, args.cluster, seed=seed,
                           blocks=1 if args.blocks is None else args.blocks)
    info = {"cluster": str(args.cluster), "seed": seed, "blocks": state.blocks,
            "ell": spec.ell, "prime": spec.field.p,
            "digest": state.manifest["digest"], "padding": state.manifest["padding"]}
    return info, (f"ingested into {args.cluster}: blocks={state.blocks} ell={spec.ell} "
                  f"p={spec.field.p} seed={seed}\ndigest={state.manifest['digest']}"), 0


def cmd_fail(args) -> tuple:
    state = storage.load_cluster(args.cluster)
    storage.fail_nodes(state, _ints(args.nodes, "--nodes"))
    failed = state.failed_nodes()
    return {"failed": failed}, f"failed nodes: {failed}", 0


def cmd_repair(args) -> tuple:
    nodes, helpers = _ints(args.nodes, "--nodes"), _ints(args.helpers, "--helpers")
    out_path = args.report
    # checked before the repair, which a report that cannot be written must not follow
    if out_path and (out_path.is_dir() or not out_path.parent.is_dir()
                     or not os.access(out_path.parent, os.W_OK)):
        raise ParameterError(f"--report {str(out_path)!r} is a directory, or not in a writable one")
    state = storage.load_cluster(args.cluster)
    if not nodes:
        return {"total": 0, "optimal": True}, "nothing to repair", 0
    state, transcript = storage.run_repair(state, nodes, helpers, (args.h, args.d))
    report = audit.verify_transcript(transcript, state.spec)
    out = {"transcript": transcript.to_json(), "bound_report": report.bound_report()}
    if args.report:
        Path(args.report).write_text(json.dumps(out, indent=2))
    return out, (f"repaired {list(transcript.failed)} from {list(transcript.helpers)}: "
                 f"total={transcript.total} bound={report.gamma} optimal={report.optimal} "
                 f"uniform={report.uniform}"), 0 if report.conforming else 2


def cmd_verify_mds(args) -> tuple:
    if args.samples < 1:
        raise ParameterError(f"--samples must be at least 1, got {args.samples}")
    seed = _seed(args)
    manifest = json.loads(Path(args.manifest).read_text())
    spec = spec_from_manifest(manifest)
    rng = np.random.default_rng(seed)
    subsets = list(itertools.combinations(range(1, spec.n + 1), spec.k))
    if len(subsets) > args.samples:
        idx = rng.choice(len(subsets), size=args.samples, replace=False)
        subsets = [subsets[i] for i in idx]
    failures = 0
    for nodes in subsets:
        cw = encode(spec, random_data(spec, rng))
        rec = mds_reconstruct(spec, nodes, cw.columns[[j - 1 for j in nodes]])
        if not np.array_equal(rec.columns, cw.columns):
            failures += 1
    ok = failures == 0
    return ({"subsets": len(subsets), "failures": failures, "seed": seed, "ok": ok},
            f"verified {len(subsets)} k-subsets, failures={failures}, seed={seed}",
            0 if ok else 2)


def cmd_table(args) -> tuple:
    rows = audit.table1_report(args.n, args.k, args.h, args.d)
    if args.csv:
        Path(args.csv).write_text(audit.table1_csv(rows))
    return audit.table1_json(rows), audit.table1_text(rows), 0


def cmd_selftest(args) -> tuple:
    seed = _seed(args)
    rng = np.random.default_rng(seed)
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:
            checks.append((name, False, str(exc)))

    def field_axioms():
        f = PrimeField(17)
        for _ in range(1000):
            x, y, z = (int(v) for v in rng.integers(0, 17, size=3))
            assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))

    def grs_oracle():
        f = PrimeField(5)
        pts = (1, 2, 3, 4)
        words = np.array([c for c in itertools.product(range(5), repeat=4)
                          if all(sum(pow(x, t, 5) * v for x, v in zip(pts, c)) % 5 == 0
                                 for t in range(2))]).T
        assert words.shape == (4, 25)
        # one word per erasure pair, the 25 codewords as its right-hand sides
        x = np.array([pts])
        for erased in map(list, itertools.combinations(range(4), 2)):
            kept = [i for i in range(4) if i not in erased]
            rhs = syndrome_rhs(f, x[:, kept], words[None, kept], 2)
            dec = solve_vandermonde(f, x[:, erased], rhs)[0]
            assert np.array_equal(dec, words[erased])

    def c3_roundtrip():
        spec = build("c3", 6, 2, [(2, 4)])
        cw = encode(spec, random_data(spec, rng))
        pl = repair.plan(spec, [1, 2], [3, 4, 5, 6], (2, 4))
        restored, t = repair.repair_from_codeword(pl, cw.columns)
        assert t.total == 256
        assert all(np.array_equal(restored[j], cw.column(j)) for j in (1, 2))

    def c1_cross_degree():
        spec = build("c1", 5, 2, [(1, 3), (1, 4)])
        cw = encode(spec, random_data(spec, rng))
        for pat, helpers in (((1, 4), [2, 3, 4, 5]), ((1, 3), [2, 3, 4])):
            pl = repair.plan(spec, [1], helpers, pat)
            restored, _ = repair.repair_from_codeword(pl, cw.columns)
            assert np.array_equal(restored[1], cw.column(1))

    def hamming_partition():
        # V_0..V_N tile {0,1}^N, each with 2^N / (N+1) members
        for N in (1, 3, 7):
            counts = np.bincount(syndromes(N), minlength=N + 1)
            assert np.array_equal(counts, np.full(N + 1, (1 << N) // (N + 1)))

    def table_values():
        rows = {r.source: r.ell for r in audit.table1_report(12, 6, 2, 8)}
        assert rows["ye-barg"] == 12**12 and rows["ye2020"] == 4 * 3**12
        assert rows["thm3"] == 2 * 2**12

    check("field axioms", field_axioms)
    check("grs brute-force oracle", grs_oracle)
    check("c3 repair round-trip", c3_roundtrip)
    check("c1 multi-degree repair", c1_cross_degree)
    check("hamming coset partition", hamming_partition)
    check("table-1 values", table_values)

    payload = {"seed": seed, "checks": [{"name": n, "pass": p, "error": e}
                                        for n, p, e in checks]}
    lines = [f"[{'PASS' if p else 'FAIL'}] {n}{(': ' + e) if e else ''}" for n, p, e in checks]
    return payload, "\n".join(lines + [f"seed={seed}"]), 0 if all(p for _, p, _ in checks) else 2


# ---------------------------------------------------------------------------

def make_parser() -> _Parser:
    p = _Parser(prog="msrcodes",
                description="Centralized MSR codes: build, encode, repair, audit.")
    sub = p.add_subparsers(dest="command", required=True)

    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--family", required=True, choices=[f.value for f in Family])
    spec.add_argument("--n", type=int, required=True)
    spec.add_argument("--k", type=int, required=True)
    spec.add_argument("--h", type=str, default=None,
                      help="comma list of h values (scalar for c3/hadamard)")
    spec.add_argument("--d", type=str, default=None, help="comma list of d values")
    spec.add_argument("--patterns", type=str, default=None,
                      help="explicit h:d pairs, e.g. 1:3,2:4")
    spec.add_argument("--prime", type=int, default=None)
    cluster = argparse.ArgumentParser(add_help=False)
    cluster.add_argument("--cluster", type=Path, required=True)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None)

    def command(name, fn, help, *parents):
        sp = sub.add_parser(name, help=help, parents=parents)
        sp.add_argument("--json", action="store_true")
        sp.set_defaults(fn=fn)
        return sp

    command("params", cmd_params, "derive and print code parameters", spec)

    sp = command("encode", cmd_encode, "ingest a payload into a cluster directory",
                 spec, cluster, seed)
    source = sp.add_mutually_exclusive_group()
    source.add_argument("--payload", type=Path, default=None)
    source.add_argument("--random-bytes", type=int, default=None)
    source.add_argument("--blocks", type=int, default=None,
                        help="synthetic-symbol block count (default 1)")

    sp = command("fail", cmd_fail, "erase node shards", cluster)
    sp.add_argument("--nodes", type=str, required=True)

    sp = command("repair", cmd_repair, "centralized repair of failed nodes", cluster)
    sp.add_argument("--nodes", type=str, required=True)
    sp.add_argument("--helpers", type=str, required=True)
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--report", type=Path, default=None)

    sp = command("verify-mds", cmd_verify_mds, "random k-subset reconstruction check", seed)
    sp.add_argument("--manifest", type=Path, required=True)
    sp.add_argument("--samples", type=int, default=100)

    sp = command("table", cmd_table, "sub-packetization comparison table")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--csv", type=Path, default=None)

    command("selftest", cmd_selftest, "built-in sanity checks", seed)
    return p


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        payload, text, code = args.fn(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    except (MsrError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, CorruptionError) else 1
    print(json.dumps(payload, indent=2) if args.json else text)
    return code


if __name__ == "__main__":
    sys.exit(main())
