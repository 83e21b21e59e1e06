import errno
import hashlib
import json
import os
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from msrcodes import grs, storage
from msrcodes.constructions import build
from msrcodes import audit, repair as repair_mod
from msrcodes.errors import CorruptionError, DataLossError, ParameterError
from msrcodes.storage import (ELEMENT_SIZE, HEADER_SIZE, extract, fail_nodes,
                              ingest, load_cluster, run_repair)


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


def test_ingest_rejects_zero_blocks_before_writing(tmp_path):
    root = tmp_path / "c"
    for blocks in (0, -1):
        with pytest.raises(ParameterError, match="blocks"):
            ingest(None, c3_spec(min_prime=0), root, blocks=blocks)
        assert not root.exists()


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


def test_a_crash_in_fail_nodes_leaves_no_alive_node_without_its_shard(tmp_path, monkeypatch):
    payload = bytes(range(200))
    ingest(payload, c3_spec(), tmp_path / "c")

    def crash(self):
        raise OSError("crash before the manifest is saved")

    monkeypatch.setattr(storage.ClusterState, "save", crash)
    with pytest.raises(OSError, match="crash"):
        fail_nodes(load_cluster(tmp_path / "c"), [1])
    monkeypatch.undo()
    state = load_cluster(tmp_path / "c")
    assert state.alive_nodes() == list(range(1, 7))
    assert all(state.shard_path(j).exists() for j in state.alive_nodes())
    assert extract(state) == payload
    fail_nodes(state, [1, 2])
    run_repair(state, [1, 2], [3, 4, 5, 6], (2, 4))
    assert extract(load_cluster(tmp_path / "c")) == payload


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
    assert state.access_log.total("shard") == sum(
        state.shard_path(j).stat().st_size for j in (3, 4, 5, 6))
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


def _flip_element_byte(blob: bytes) -> bytes:
    out = bytearray(blob)
    out[HEADER_SIZE + 8 * 5] ^= 0x01
    return bytes(out)


def _repack_header(blob: bytes, **fields) -> bytes:
    names = ("magic", "version", "node", "n", "k", "tag", "count", "prime")
    values = dict(zip(names, storage.HEADER.unpack(blob[:HEADER_SIZE])))
    values.update(fields)
    return storage.HEADER.pack(*(values[f] for f in names)) + blob[HEADER_SIZE:]


@pytest.mark.parametrize("fault", [
    lambda blob, node4: _flip_element_byte(blob),
    lambda blob, node4: blob[:-ELEMENT_SIZE],
    lambda blob, node4: _repack_header(blob, prime=263),
    lambda blob, node4: _repack_header(blob, node=5),
    lambda blob, node4: node4,
], ids=["element-byte", "truncated", "wrong-prime", "wrong-node", "node-4-copy"])
def test_repair_rejects_a_damaged_helper_shard(fault, tmp_path):
    state = ingest(bytes(range(200)) * 3, c3_spec(), tmp_path / "c")
    fail_nodes(state, [1, 2])
    helper = state.shard_path(3)
    helper.write_bytes(fault(helper.read_bytes(), state.shard_path(4).read_bytes()))
    with pytest.raises(CorruptionError, match="node_03.shard"):
        run_repair(state, [1, 2], [3, 4, 5, 6], (2, 4))
    on_disk = load_cluster(tmp_path / "c")
    for j in (1, 2):
        assert not state.shard_path(j).exists()
        assert state.status(j) == "FAILED" and on_disk.status(j) == "FAILED"


def test_extract_names_a_corrupt_shard(tmp_path):
    state = ingest(bytes(range(200)), c3_spec(), tmp_path / "c")
    path = state.shard_path(1)
    path.write_bytes(_flip_element_byte(path.read_bytes()))
    with pytest.raises(CorruptionError, match="node_01.shard"):
        extract(state)


def test_extract_names_a_missing_shard(tmp_path):
    state = ingest(bytes(range(200)), c3_spec(), tmp_path / "c")
    state.shard_path(1).unlink()
    with pytest.raises(CorruptionError, match="node_01.shard: shard file is missing"):
        extract(state)


def test_extract_reads_the_systematic_shards_without_decoding(tmp_path, monkeypatch):
    # one worker, so that the shard reads, each() units, run in unit order
    monkeypatch.setattr(grs, "WORKERS", 1)
    payload = bytes(range(256)) * 3
    state = ingest(payload, c3_spec(), tmp_path / "c")
    read = []
    real_read = storage._read

    def _read(path, buf, digest=None):
        read.append((path.name, digest))
        return real_read(path, buf, digest)

    def complete_columns(*args):
        raise AssertionError("extract decoded with every systematic shard alive")

    monkeypatch.setattr(storage, "_read", _read)
    monkeypatch.setattr(storage, "complete_columns", complete_columns)
    assert extract(state) == payload
    assert read == [("node_01.shard", state.shard_digest(1)),
                    ("node_02.shard", state.shard_digest(2))]


@pytest.mark.parametrize("failed", [[1], [2], [1, 2], [1, 3, 5]])
def test_extract_decodes_without_a_systematic_shard(failed, tmp_path):
    payload = bytes(range(256)) * 3
    state = ingest(payload, c3_spec(), tmp_path / "c")
    fail_nodes(state, failed)
    assert extract(state) == payload
    symbols = ingest(None, c3_spec(min_prime=0), tmp_path / "s", seed=3, blocks=4)
    fail_nodes(symbols, failed)
    extract(symbols)   # raises unless the payload digest matches


@pytest.mark.parametrize("blob", [b"", b"MSR1\x01\x00"], ids=["empty", "partial-header"])
def test_read_shard_names_a_file_shorter_than_the_header(blob, tmp_path):
    path = tmp_path / "node_01.shard"
    path.write_bytes(blob)
    with pytest.raises(CorruptionError, match="node_01.shard: shard is shorter than"):
        storage.read_shard(path)


@pytest.mark.parametrize("cut", range(1, 9))
def test_read_shard_names_a_truncated_shard(cut, tmp_path):
    # without a digest, so the length check itself has to catch it
    state = ingest(bytes(range(200)), c3_spec(), tmp_path / "c")
    path = state.shard_path(3)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(CorruptionError, match="node_03.shard: element count mismatch"):
        storage.read_shard(path)


def test_read_shard_rejects_an_element_at_or_above_2_to_the_63(tmp_path):
    # as int64 such an element reads negative, hence below p
    state = ingest(bytes(range(200)), c3_spec(), tmp_path / "c")
    path = state.shard_path(3)
    blob = bytearray(path.read_bytes())
    blob[HEADER_SIZE + 8 * 5 + 7] = 0xFF   # top byte of element 5
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptionError, match="node_03.shard: element >= p"):
        storage.read_shard(path)


def test_repair_hashes_each_shard_once(tmp_path, monkeypatch):
    # d helper shards checked on read, h restored blobs checked and written as they are
    payload = bytes(range(256)) * 5
    state = ingest(payload, c3_spec(), tmp_path / "c")
    before = {j: state.shard_path(j).read_bytes() for j in (1, 2)}
    fail_nodes(state, [1, 2])
    calls = []
    real = storage.hashlib.sha256

    def sha256(*args):
        calls.append(len(args[0]) if args else 0)
        return real(*args)

    monkeypatch.setattr(storage.hashlib, "sha256", sha256)
    run_repair(state, [1, 2], [3, 4, 5, 6], (2, 4))
    monkeypatch.undo()
    assert len(calls) == 4 + 2
    assert all(state.shard_path(j).read_bytes() == before[j] for j in (1, 2))
    assert extract(state) == payload


def test_repair_empty_set_is_noop(tmp_path):
    state = ingest(bytes(100), c3_spec(), tmp_path / "c")
    with pytest.raises(ParameterError, match="h=2 failed nodes, got 0"):
        run_repair(state, [], [3, 4, 5, 6], (2, 4))


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


def test_scenario_corollary_sweep(tmp_path):
    """One c2 cluster repaired under every pattern it supports, in turn."""
    patterns = [(1, 3), (1, 4), (1, 5), (2, 4)]
    state = ingest(None, build("c2", 6, 2, patterns), tmp_path / "c", seed=1)
    for h, d in patterns:
        nodes = list(range(1, h + 1))
        fail_nodes(state, nodes)
        state, t = run_repair(state, nodes, list(range(h + 1, h + 1 + d)), (h, d))
        assert audit.verify_transcript(t, state.spec).conforming
        extract(state)


def _reference_blob(spec, node: int, elements) -> bytes:
    """The shard bytes as the codec wrote them before it cast into one buffer."""
    flat = np.ascontiguousarray(elements, dtype=np.int64).ravel()
    return storage.HEADER.pack(b"MSR1", 1, node, spec.n, spec.k, 3, flat.size,
                               spec.field.p) + flat.astype("<u8").tobytes()


@pytest.mark.parametrize("case", ["int64", "uint64", "strided", "empty"])
def test_the_shard_codec_writes_and_reads_the_reference_bytes(case, tmp_path):
    spec = c3_spec()
    p = spec.field.p
    encoded = np.random.default_rng(4).integers(0, p, size=(3, spec.n, spec.ell), dtype=np.int64)
    encoded[:, :, 0] = p - 1
    elements = {"int64": np.ascontiguousarray(encoded[:, 1]),
                "uint64": encoded[:, 1].astype(np.uint64),
                "strided": encoded[:, 1, :],   # as ingest passes it
                "empty": np.zeros((0, spec.ell), dtype=np.int64)}[case]
    assert elements.flags.c_contiguous == (case != "strided")
    want = _reference_blob(spec, 2, elements)
    assert storage._shard_blob(spec, 2, elements).tobytes() == want
    path = tmp_path / "node_02.shard"
    digest = storage.write_shard(path, spec, 2, elements)
    assert digest == hashlib.sha256(want).hexdigest()
    assert path.read_bytes() == want

    node, got = storage.read_shard(path, digest=digest)
    assert node == 2
    assert got.dtype == np.int64 and got.flags.aligned and got.flags.writeable
    assert np.array_equal(got, np.frombuffer(want[HEADER_SIZE:], "<u8").astype(np.int64))


@pytest.mark.parametrize("bad", ["negative", "p", "2^63"])
def test_the_shard_codec_rejects_an_element_outside_the_field(bad, tmp_path):
    spec = c3_spec()
    elements = np.zeros((2, spec.ell), dtype=np.uint64 if bad == "2^63" else np.int64)
    elements[1, 7] = {"negative": -1, "p": spec.field.p, "2^63": 2**63}[bad]
    with pytest.raises(ParameterError, match=r"element outside \[0, p\)"):
        storage._shard_blob(spec, 1, elements)
    with pytest.raises(ParameterError, match=r"element outside \[0, p\)"):
        storage.write_shard(tmp_path / "node_01.shard", spec, 1, elements)
    assert not any(tmp_path.iterdir())


def test_read_shard_checks_the_digest_before_the_length(tmp_path):
    state = ingest(bytes(range(200)), c3_spec(), tmp_path / "c")
    path = state.shard_path(3)
    path.write_bytes(_flip_element_byte(path.read_bytes())[:-3])
    with pytest.raises(CorruptionError, match="node_03.shard: shard digest does not match"):
        storage.read_shard(path, digest=state.shard_digest(3))


def _cluster_cycle(root):
    """Ingest, an h=2 repair and a plain and a decoding extract: (shard
    files, manifest digests, extracted payloads)."""
    payload = np.random.default_rng(9).integers(0, 256, 5000, dtype=np.uint8).tobytes()
    state = ingest(payload, c3_spec(), root)
    fail_nodes(state, [1, 2])
    run_repair(state, [1, 2], [3, 4, 5, 6], (2, 4))
    payloads = [extract(state)]
    fail_nodes(state, [1])
    payloads.append(extract(state))
    files = {j: state.shard_path(j).read_bytes() for j in range(2, 7)}
    digests = (state.manifest["digest"],
               {j: state.shard_digest(j) for j in range(1, 7)})
    return files, digests, payloads, payload


def test_storage_is_schedule_independent(monkeypatch, tmp_path):
    monkeypatch.setattr(grs, "WORKERS", 1)
    one = _cluster_cycle(tmp_path / "one")
    monkeypatch.setattr(grs, "WORKERS", 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        three = _cluster_cycle(tmp_path / "three")
    finally:
        sys.setswitchinterval(interval)
    assert one == three
    assert one[2] == [one[3], one[3]]


@pytest.mark.parametrize("workers", [1, 3])
def test_a_failed_shard_write_reaches_the_caller_and_records_no_digest(workers, monkeypatch,
                                                                       tmp_path):
    monkeypatch.setattr(grs, "WORKERS", workers)
    payload = bytes(range(256)) * 3
    real = os.replace

    def replace(src, dst):
        if Path(dst).name == "node_02.shard":
            raise OSError(errno.ENOSPC, "no space left", str(dst))
        return real(src, dst)

    state = ingest(payload, c3_spec(), tmp_path / "c")
    fail_nodes(state, [1, 2])
    monkeypatch.setattr(storage.os, "replace", replace)
    with pytest.raises(OSError) as raised:
        ingest(payload, c3_spec(), tmp_path / "d")
    assert raised.value.errno == errno.ENOSPC
    assert not (tmp_path / "d" / "manifest.json").exists()
    assert not (tmp_path / "d" / "shards" / "node_02.shard").exists()
    assert list((tmp_path / "d").rglob("*.tmp")) == []

    digests = dict(state.manifest["shards"])
    with pytest.raises(OSError) as raised:
        run_repair(state, [1, 2], [3, 4, 5, 6], (2, 4))
    assert raised.value.errno == errno.ENOSPC
    monkeypatch.undo()
    on_disk = load_cluster(tmp_path / "c")
    assert state.manifest["shards"] == digests == on_disk.manifest["shards"]
    assert state.failed_nodes() == on_disk.failed_nodes() == [1, 2]
    assert not state.shard_path(2).exists()
    assert list((tmp_path / "c").rglob("*.tmp")) == []


@pytest.fixture(params=[1, 3], ids=["1-worker", "3-workers"])
def workers(request, monkeypatch):
    """grs.WORKERS at 1, then at 3 with a short switch interval, so that the
    shard units interleave."""
    monkeypatch.setattr(grs, "WORKERS", request.param)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)


def test_repair_names_the_first_of_two_damaged_helpers(workers, tmp_path):
    state = ingest(bytes(range(200)) * 3, c3_spec(), tmp_path / "c")
    fail_nodes(state, [1, 2])
    for j in (3, 5):
        path = state.shard_path(j)
        path.write_bytes(_flip_element_byte(path.read_bytes()))
    with pytest.raises(CorruptionError, match="node_03.shard"):
        run_repair(state, [1, 2], [3, 4, 5, 6], (2, 4))
    on_disk = load_cluster(tmp_path / "c")
    for j in (1, 2):
        assert not state.shard_path(j).exists()
        assert state.status(j) == "FAILED" and on_disk.status(j) == "FAILED"


def test_extract_names_the_first_of_two_corrupt_shards(workers, tmp_path):
    state = ingest(bytes(range(200)), c3_spec(), tmp_path / "c")
    for j in (1, 2):
        path = state.shard_path(j)
        path.write_bytes(_flip_element_byte(path.read_bytes()))
    with pytest.raises(CorruptionError, match="node_01.shard"):
        extract(state)


def test_repair_logs_each_helper_read_once(workers, tmp_path):
    payload = bytes(range(256)) * 5
    state = ingest(payload, c3_spec(), tmp_path / "c")
    fail_nodes(state, [1, 2])
    helpers = [3, 4, 5, 6]
    run_repair(state, [1, 2], helpers, (2, 4))
    size = state.shard_path(3).stat().st_size
    assert state.access_log.total("shard") == len(helpers) * size
    assert {path: n for path, n in state.access_log.by_path.items()
            if path.endswith(".shard")} == {str(state.shard_path(j)): size for j in helpers}
    assert extract(state) == payload
