import hashlib
import json
import struct

import numpy as np
import pytest

from msrcodes import storage
from msrcodes.constructions import build
from msrcodes import repair as repair_mod
from msrcodes.errors import CorruptionError, DataLossError, ParameterError, ScenarioError
from msrcodes.storage import (ELEMENT_SIZE, HEADER_SIZE, extract, fail_nodes,
                              ingest, load_cluster, run_repair, run_scenario)


def c3_spec(min_prime=257):
    return build("c3", 6, 2, [(2, 4)], min_prime=min_prime)


def test_ingest_empty_payload(tmp_path):
    state = ingest(b"", c3_spec(), tmp_path / "c")
    assert state.blocks == 1
    assert state.manifest["digest"] == hashlib.sha256(b"").hexdigest()
    assert state.manifest["padding"] == 2 * 128
    _, elements = storage.read_shard(state.shard_path(1))
    assert elements.size == 128 and not elements.any()


def test_ingest_100_bytes_padding(tmp_path):
    payload = bytes(range(100))
    state = ingest(payload, c3_spec(), tmp_path / "c")
    assert state.blocks == 1
    assert state.manifest["padding"] == 256 - 100
    assert extract(state) == payload


def test_ingest_requires_byte_capable_prime(tmp_path):
    with pytest.raises(ParameterError):
        ingest(b"abc", c3_spec(min_prime=0), tmp_path / "c")  # p = 13


def test_ingest_deterministic(tmp_path):
    payload = bytes(range(200)) * 3
    s1 = ingest(payload, c3_spec(), tmp_path / "a")
    s2 = ingest(payload, c3_spec(), tmp_path / "b")
    for j in range(1, 7):
        assert s1.shard_path(j).read_bytes() == s2.shard_path(j).read_bytes()
    s3 = ingest(None, c3_spec(min_prime=0), tmp_path / "s1", seed=5, blocks=2)
    s4 = ingest(None, c3_spec(min_prime=0), tmp_path / "s2", seed=5, blocks=2)
    assert s3.manifest["digest"] == s4.manifest["digest"]
    assert s3.shard_path(2).read_bytes() == s4.shard_path(2).read_bytes()


def test_shard_header_bytes_exact(tmp_path):
    spec = c3_spec()
    state = ingest(b"\x01\x02", spec, tmp_path / "c")
    blob = state.shard_path(3).read_bytes()
    magic, version, node, n, k, tag, count, prime = struct.unpack(
        "<4sHHHHBQQ", blob[:HEADER_SIZE])
    assert magic == b"MSR1" and version == 1
    assert node == 3 and n == 6 and k == 2
    assert tag == 3  # c3
    assert count == 128 and prime == 257
    assert len(blob) == HEADER_SIZE + count * ELEMENT_SIZE


def test_manifest_file_contents(tmp_path):
    state = ingest(bytes(10), c3_spec(), tmp_path / "c")
    m = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert m["family"] == "c3" and m["ell"] == 128 and m["prime"] == 257
    assert m["patterns"] == [[2, 4]]
    assert set(m["statuses"].values()) == {"ALIVE"}
    again = load_cluster(tmp_path / "c")
    assert again.spec == state.spec


def test_fail_nodes(tmp_path):
    state = ingest(bytes(10), c3_spec(), tmp_path / "c")
    fail_nodes(state, [])
    assert state.failed_nodes() == []
    fail_nodes(state, [1, 2])
    assert state.failed_nodes() == [1, 2]
    assert not state.shard_path(1).exists()
    with pytest.raises(DataLossError):
        fail_nodes(state, [3, 4, 5])  # would exceed r = 4
    with pytest.raises(ParameterError):
        fail_nodes(state, [7])


def test_repair_roundtrip_and_ledger(tmp_path):
    payload = np.random.default_rng(0).integers(0, 256, size=5000,
                                                dtype=np.uint8).tobytes()
    state = ingest(payload, c3_spec(), tmp_path / "c")
    before = {j: state.shard_path(j).read_bytes() for j in (1, 2)}
    fail_nodes(state, [1, 2])
    state, t = run_repair(state, [1, 2], [3, 4, 5, 6], (2, 4))
    for j in (1, 2):
        assert state.shard_path(j).read_bytes() == before[j]
    assert state.failed_nodes() == []
    # ledger: downloaded bytes == transcript count * element size
    assert state.access_log.total("download") == t.total * ELEMENT_SIZE
    assert state.access_log.total() == (state.access_log.total("shard")
                                        + state.access_log.total("download"))
    assert extract(state) == payload


def test_repair_verifies_every_shard_before_writing(tmp_path, monkeypatch):
    state = ingest(bytes(range(200)), c3_spec(), tmp_path / "c")
    fail_nodes(state, [1, 2])
    real = repair_mod.repair_columns

    def corrupt_last_node(plan_, matrix):
        restored = real(plan_, matrix)
        restored[-1, 0, 0] = (restored[-1, 0, 0] + 1) % plan_.spec.field.p
        return restored

    monkeypatch.setattr(repair_mod, "repair_columns", corrupt_last_node)
    with pytest.raises(CorruptionError):
        run_repair(state, [1, 2], [3, 4, 5, 6], (2, 4))
    on_disk = load_cluster(tmp_path / "c")
    for j in (1, 2):
        assert not state.shard_path(j).exists()
        assert state.status(j) == "FAILED" and on_disk.status(j) == "FAILED"


def test_repair_empty_set_is_noop(tmp_path):
    state = ingest(bytes(100), c3_spec(), tmp_path / "c")
    state, t = run_repair(state, [], [3, 4, 5, 6], (2, 4))
    assert t.total == 0 and t.optimal


def test_repair_validates_statuses(tmp_path):
    state = ingest(bytes(100), c3_spec(), tmp_path / "c")
    with pytest.raises(ParameterError):
        run_repair(state, [1, 2], [3, 4, 5, 6], (2, 4))  # nodes not failed
    fail_nodes(state, [1, 2])
    with pytest.raises(ParameterError):
        run_repair(state, [1, 2], [2, 3, 4, 5], (2, 4))  # helper 2 not alive


def test_c1_repair_same_shard_under_both_degrees(tmp_path):
    spec = build("c1", 5, 2, [(1, 3), (1, 4)], min_prime=257)
    payload = bytes(range(256)) * 4
    state = ingest(payload, spec, tmp_path / "c")
    original = state.shard_path(1).read_bytes()
    fail_nodes(state, [1])
    state, t3 = run_repair(state, [1], [2, 3, 4], (1, 3))
    assert state.shard_path(1).read_bytes() == original
    fail_nodes(state, [1])
    state, t4 = run_repair(state, [1], [2, 3, 4, 5], (1, 4))
    assert state.shard_path(1).read_bytes() == original
    assert t3.total == 729 * state.blocks and t4.total == 648 * state.blocks


def test_symbols_mode_roundtrip(tmp_path):
    spec = c3_spec(min_prime=0)  # p = 13, synthetic symbols
    state = ingest(None, spec, tmp_path / "c", seed=11, blocks=3)
    fail_nodes(state, [4, 5])
    state, t = run_repair(state, [4, 5], [1, 2, 3, 6], (2, 4))
    assert t.total == 256 * 3
    extract(state)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def test_scenario_empty_steps():
    assert run_scenario({"steps": []}) == {"steps": [], "ok": True}


def test_scenario_corollary_sweep(tmp_path):
    steps = [{"op": "ingest"}]
    for h, d in [(1, 3), (1, 4), (1, 5), (2, 4)]:
        nodes = list(range(1, h + 1))
        helpers = list(range(h + 1, h + 1 + d))
        steps += [{"op": "fail", "nodes": nodes},
                  {"op": "repair", "nodes": nodes, "helpers": helpers, "h": h, "d": d},
                  {"op": "verify"}]
    cfg = {"family": "c2", "n": 6, "k": 2,
           "patterns": [[1, 3], [1, 4], [1, 5], [2, 4]],
           "seed": 1, "blocks": 1, "steps": steps}
    report = run_scenario(cfg, root=tmp_path / "c")
    assert report["ok"]
    repairs = [s for s in report["steps"] if s["op"] == "repair"]
    assert len(repairs) == 4 and all(s["optimal"] for s in repairs)


def test_scenario_helper_count_mismatch_aborts_with_index(tmp_path):
    cfg = {"family": "c3", "n": 6, "k": 2, "patterns": [[2, 4]], "seed": 0,
           "steps": [{"op": "ingest"},
                     {"op": "fail", "nodes": [1, 2]},
                     {"op": "repair", "nodes": [1, 2], "helpers": [3, 4, 5],
                      "h": 2, "d": 4}]}
    with pytest.raises(ScenarioError) as exc:
        run_scenario(cfg, root=tmp_path / "c")
    assert exc.value.step == 2
    assert exc.value.report["steps"][-1]["op"] == "fail"


def test_scenario_unknown_op(tmp_path):
    with pytest.raises(ScenarioError) as exc:
        run_scenario({"family": "c3", "n": 6, "k": 2, "patterns": [[2, 4]],
                      "steps": [{"op": "frobnicate"}]}, root=tmp_path / "c")
    assert exc.value.step == 0
