"""Tests of the perfbench harness itself, on tiny configs of each workload."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from msrcodes import build, encode_blocks, repair, storage, verify_planes

import bench_workloads as bw

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = {
    "cluster-c3": dict(payload_bytes=4096),
    "cluster-c4-mixed": dict(payload_bytes=8192),
    # same kind and cycle shape as the large-ell case, with ell = 486
    "memory-c1-large-ell": dict(n=5, k=2, patterns=((1, 3), (1, 4)),
                                cycle=(((1, 4), "*"), ((1, 3), "*"))),
}


def tiny(name):
    return dataclasses.replace(bw.WORKLOADS[name], **TINY[name])


def run(name, tmp_path, traced=False, seed=3):
    return bw.run_workload(tiny(name), seed, 0, traced, tmp_path)


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(bw.WORKLOADS)
    for group, table in (("end_to_end", bw.END_TO_END), ("per_layer", bw.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in SPEC[group]} == table


@pytest.mark.parametrize("name", list(bw.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_every_workload_emits_every_metric(name, traced, tmp_path):
    result = run(name, tmp_path, traced)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = [m["name"] for m in SPEC["per_layer" if traced else "end_to_end"]]
    assert list(result["metrics"]) == wanted
    assert all(isinstance(v, (int, float)) for v in result["metrics"].values())
    assert list(tmp_path.iterdir()) == []   # the cluster directory is removed


def _flip_byte(path: Path, offset: int):
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0x01
    path.write_bytes(bytes(blob))


def _corrupt_shard_then_extract(real):
    def extract(state):
        _flip_byte(state.shard_path(1), storage.HEADER_SIZE + 8 * 5)
        return real(state)
    return extract


def _extract_silently_wrong(real):
    def extract(state):
        out = bytearray(real(state))
        out[-1] ^= 0x01
        return bytes(out)
    return extract


def _repair_silently_wrong(real):
    def run_repair(state, failed, helpers, pattern):
        state, tr = real(state, failed, helpers, pattern)
        _flip_byte(state.shard_path(min(failed)), storage.HEADER_SIZE)
        return state, tr
    return run_repair


@pytest.mark.parametrize("attr, fault", [
    ("extract", _corrupt_shard_then_extract),   # the program's own digest check fires
    ("extract", _extract_silently_wrong),       # only the benchmark's gate can see these
    ("run_repair", _repair_silently_wrong),
])
def test_gate_records_a_failed_op_not_a_number(attr, fault, tmp_path, monkeypatch):
    monkeypatch.setattr(storage, attr, fault(getattr(storage, attr)))
    result = run("cluster-c3", tmp_path)
    assert not result["correct"] and result["failed"] == 1
    metric = "extract_mibps" if attr == "extract" else "repair_mibps"
    assert result["metrics"][metric] is None


@pytest.mark.parametrize("name", ["cluster-c4-mixed", "memory-c1-large-ell"])
def test_traced_counts_repeat_exactly(name, tmp_path):
    original = repair.plan
    first, second = (run(name, tmp_path, traced=True)["metrics"] for _ in range(2))
    exact = [m for m in first if m.endswith((".calls", ".bytes", ".groups", ".mulmods"))
             or m in ("storage.shard_access_bytes", "storage.download_bytes")]
    assert len(exact) == 11
    assert {m: first[m] for m in exact} == {m: second[m] for m in exact}
    assert first["repair.plan.calls"] > 0 and first["grs.solve_vandermonde.mulmods"] > 0
    assert repair.plan is original   # every wrapped binding is restored


@pytest.mark.parametrize("family, n, k, patterns", [
    ("c3", 6, 2, [(2, 4)]), ("c4", 6, 2, [(1, 3), (2, 4), (3, 3)]),
    ("c1", 5, 2, [(1, 3), (1, 4)]), ("hadamard", 8, 4, [(3, 5)]),
])
def test_plane_gate_agrees_with_verify_planes(family, n, k, patterns):
    spec = build(family, n, k, patterns, min_prime=257)
    cols = encode_blocks(spec, np.random.default_rng(0).integers(0, 256, (3, k, spec.ell)))
    assert bw.planes_vanish(spec, cols) and bw.planes_vanish(spec, cols, chunk=7)
    cols[2, n - 1, spec.ell - 1] = (cols[2, n - 1, spec.ell - 1] + 1) % spec.field.p
    assert not bw.planes_vanish(spec, cols) and not verify_planes(spec, cols)


def test_rounds_are_seeded_and_keep_the_mix():
    w = bw.WORKLOADS["cluster-c4-mixed"]
    a = bw.make_rounds(w, np.random.default_rng([5, 1]))
    assert a == bw.make_rounds(w, np.random.default_rng([5, 1]))
    assert sorted(pattern for _, _, pattern in a) == [(1, 3), (1, 3), (2, 4), (3, 3)]
    for failed, helpers, (h, d) in a:
        assert len(failed) == h and len(helpers) == d and not set(failed) & set(helpers)


def test_run_without_msrcodes_source_exits_without_result(tmp_path):
    bare = tmp_path / "perfbench"
    bare.mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, bare)
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cluster-c3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "correct" not in proc.stdout
