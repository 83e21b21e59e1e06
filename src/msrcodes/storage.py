"""File-backed cluster simulation: shard a payload across n node files, inject
failures, and run centralized repair with physically measurable downloads.

Shard file layout (little-endian, all offsets fixed):

    magic "MSR1"       4 bytes
    format version     u16
    node index         u16   (1-based)
    n, k               u16 each
    family tag         u8    (c1=1 c2=2 c3=3 c4=4 hadamard=5)
    element count      u64   (= ell * block count)
    prime p            u64
    elements           u64 each, value < p

Elements are stored block-major: element index b*ell + tau holds symbol tau of
block b.  During repair each helper reads its whole shard once, checked
against the manifest digest (logged as local I/O), and writes the plan's
per-group sums from repair.helper_aggregate to a transfer file; the data
center reads *only* those transfer files, through an access log, so
downloaded bytes are exactly transcript count x 8.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import repair as repair_mod
from .constructions import (CodeSpec, Family, encode_blocks, complete_columns,
                            manifest_dict, spec_from_manifest)
from .errors import CorruptionError, DataLossError, ParameterError

MAGIC = b"MSR1"
VERSION = 1
HEADER = struct.Struct("<4sHHHHBQQ")
HEADER_SIZE = HEADER.size  # 29
ELEMENT_SIZE = 8

FAMILY_TAGS = {Family.C1: 1, Family.C2: 2, Family.C3: 3, Family.C4: 4, Family.HADAMARD: 5}

ALIVE, FAILED = "ALIVE", "FAILED"


class AccessLog:
    """Byte counter per file path, split by category."""

    def __init__(self):
        self.by_path: Dict[str, int] = {}
        self.by_category: Dict[str, int] = {}

    def record(self, path, nbytes: int, category: str):
        key = str(path)
        self.by_path[key] = self.by_path.get(key, 0) + nbytes
        self.by_category[category] = self.by_category.get(category, 0) + nbytes

    def total(self, category: Optional[str] = None) -> int:
        if category is None:
            return sum(self.by_path.values())
        return self.by_category.get(category, 0)


def _atomic_write(path: Path, payload: bytes):
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def _shard_blob(spec: CodeSpec, node: int, elements: np.ndarray) -> bytes:
    """The exact bytes of node's shard file."""
    flat = np.ascontiguousarray(elements, dtype=np.int64).ravel()
    if np.any((flat < 0) | (flat >= spec.field.p)):
        raise ParameterError("element outside [0, p)")
    header = HEADER.pack(MAGIC, VERSION, node, spec.n, spec.k,
                         FAMILY_TAGS[spec.family], flat.size, spec.field.p)
    return header + flat.astype("<u8").tobytes()


def write_shard(path: Path, spec: CodeSpec, node: int, elements: np.ndarray) -> str:
    """Write one node's elements; returns the file's SHA-256 hex digest.
    Ingest writes through here; run_repair writes its verified blobs itself."""
    blob = _shard_blob(spec, node, elements)
    _atomic_write(path, blob)
    return hashlib.sha256(blob).hexdigest()


def read_shard(path: Path, log: Optional[AccessLog] = None,
               digest: Optional[str] = None) -> tuple:
    """(node, element array); validates magic/version/prime.

    When digest is given (the manifest's SHA-256 of the file) it is checked
    first, so any damaged, truncated or misplaced shard is rejected by path.
    """
    try:
        blob = Path(path).read_bytes()
    except FileNotFoundError:
        raise CorruptionError(f"{path}: shard file is missing") from None
    if log is not None:
        log.record(path, len(blob), "shard")
    if digest is not None and hashlib.sha256(blob).hexdigest() != digest:
        raise CorruptionError(f"{path}: shard digest does not match the manifest")
    if len(blob) < HEADER_SIZE:
        raise CorruptionError(f"{path}: shard is shorter than its {HEADER_SIZE}-byte header")
    magic, version, node, n, k, tag, count, p = HEADER.unpack(blob[:HEADER_SIZE])
    if magic != MAGIC or version != VERSION:
        raise CorruptionError(f"{path}: bad shard magic/version")
    if len(blob) != HEADER_SIZE + count * ELEMENT_SIZE:
        raise CorruptionError(f"{path}: element count mismatch")
    raw = np.frombuffer(blob[HEADER_SIZE:], dtype="<u8")
    if np.any(raw >= p):  # on the u64 values: as int64, one >= 2^63 reads negative
        raise CorruptionError(f"{path}: element >= p")
    return node, raw.astype(np.int64)


def read_elements(path: Path, indices: np.ndarray, log: Optional[AccessLog] = None) -> np.ndarray:
    """The elements at the given indices, gathered from one whole-shard read."""
    return read_shard(path, log=log)[1][np.asarray(indices)]


@dataclass
class ClusterState:
    root: Path
    spec: CodeSpec
    manifest: dict
    access_log: AccessLog = dc_field(default_factory=AccessLog)

    @property
    def blocks(self) -> int:
        return self.manifest["blocks"]

    def shard_path(self, node: int) -> Path:
        return self.root / "shards" / f"node_{node:02d}.shard"

    def shard_digest(self, node: int) -> str:
        return self.manifest["shards"][str(node)]["digest"]

    def status(self, node: int) -> str:
        return self.manifest["statuses"][str(node)]

    def alive_nodes(self) -> List[int]:
        return [j for j in range(1, self.spec.n + 1) if self.status(j) == ALIVE]

    def failed_nodes(self) -> List[int]:
        return [j for j in range(1, self.spec.n + 1) if self.status(j) == FAILED]

    def save(self):
        _atomic_write(self.root / "manifest.json",
                      json.dumps(self.manifest, indent=2).encode())


def _data_digest(data: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(data, dtype=np.int64)
                          .astype("<u8").tobytes()).hexdigest()


def ingest(payload: Optional[bytes], spec: CodeSpec, root,
           seed: int = 0, blocks: int = 1) -> ClusterState:
    """Shard a payload (or seeded synthetic symbols) across n node files.

    Byte payloads map one byte per field element, so they require p >= 257;
    synthetic mode draws uniform symbols below whatever prime the spec chose.
    """
    root = Path(root)
    block_syms = spec.k * spec.ell
    if payload is not None:
        if spec.field.p < 257:
            raise ParameterError(
                f"byte payloads need p >= 257, spec has p={spec.field.p} "
                "(build with min_prime=257)")
        nblocks = max(1, math.ceil(len(payload) / block_syms))
        padding = nblocks * block_syms - len(payload)
        data = np.frombuffer(payload + b"\x00" * padding, dtype=np.uint8)
        data = data.astype(np.int64).reshape(nblocks, spec.k, spec.ell)
        digest = hashlib.sha256(payload).hexdigest()
        mode, payload_len = "bytes", len(payload)
    else:
        if blocks < 1:
            raise ParameterError(f"blocks must be at least 1, got {blocks}")
        rng = np.random.default_rng(seed)
        nblocks = blocks
        data = rng.integers(0, spec.field.p, size=(nblocks, spec.k, spec.ell),
                            dtype=np.int64)
        digest = _data_digest(data)
        mode, padding, payload_len = "symbols", 0, nblocks * block_syms

    encoded = encode_blocks(spec, data)  # (B, n, ell)
    (root / "shards").mkdir(parents=True, exist_ok=True)
    (root / "transfer").mkdir(parents=True, exist_ok=True)
    state = ClusterState(root=root, spec=spec, manifest={})
    shards = {}
    for j in range(1, spec.n + 1):
        path = state.shard_path(j)
        shards[str(j)] = {"path": str(path.relative_to(root)),
                          "digest": write_shard(path, spec, j, encoded[:, j - 1, :])}
    state.manifest = manifest_dict(
        spec, digest=digest, padding=padding, blocks=nblocks, mode=mode,
        seed=seed, payload_len=payload_len, element_size=ELEMENT_SIZE,
        shards=shards,
        statuses={str(j): ALIVE for j in range(1, spec.n + 1)})
    state.save()
    return state


def load_cluster(root) -> ClusterState:
    root = Path(root)
    manifest = json.loads((root / "manifest.json").read_text())
    return ClusterState(root=root, spec=spec_from_manifest(manifest), manifest=manifest)


def fail_nodes(state: ClusterState, nodes: Sequence[int]) -> ClusterState:
    """Erase the given nodes' shards; rejects exceeding the erasure budget r."""
    nodes = [int(j) for j in nodes]
    if any(not 1 <= j <= state.spec.n for j in nodes):
        raise ParameterError("node index out of range")
    would_fail = set(state.failed_nodes()) | set(nodes)
    if len(would_fail) > state.spec.r:
        raise DataLossError(
            f"failing {sorted(would_fail)} exceeds tolerance r={state.spec.r}")
    for j in nodes:
        state.manifest["statuses"][str(j)] = FAILED
    # statuses first: a FAILED node with its file left is harmless, an ALIVE
    # node without one is not
    state.save()
    for j in nodes:
        state.shard_path(j).unlink(missing_ok=True)
    return state


def _helper_transfer(state: ClusterState, plan_, helper: int) -> Path:
    """Helper-side routine: one verified whole-shard read, logged as local I/O
    ("shard" category), then the plan's payload written to a transfer file."""
    _, elements = read_shard(state.shard_path(helper), log=state.access_log,
                             digest=state.shard_digest(helper))
    payload = repair_mod.helper_aggregate(
        plan_, helper, elements.reshape(state.blocks, state.spec.ell))
    tpath = state.root / "transfer" / f"helper_{helper:02d}.payload"
    _atomic_write(tpath, payload.values.astype("<u8").tobytes())
    return tpath


def run_repair(state: ClusterState, failed: Sequence[int], helpers: Sequence[int],
               pattern) -> tuple:
    """Centralized repair: returns (state, transcript).

    The returned transcript carries the download accounting.  Every restored
    shard is checked against its pre-failure manifest digest in memory before
    any shard is written, so a mismatch leaves the failed nodes untouched.
    """
    failed = sorted(int(j) for j in failed)
    helpers = sorted(int(j) for j in helpers)
    for j in failed:
        if state.status(j) != FAILED:
            raise ParameterError(f"node {j} is not failed")
    for j in helpers:
        if state.status(j) != ALIVE:
            raise ParameterError(f"helper {j} is not alive")
    spec, B = state.spec, state.blocks
    plan_ = repair_mod.plan(spec, failed, helpers, pattern)

    transfer_paths = {j: _helper_transfer(state, plan_, j) for j in helpers}

    # data center: read transfer files only, through the instrumented log
    center_log = AccessLog()
    payloads = []
    for j in helpers:
        blob = transfer_paths[j].read_bytes()
        center_log.record(transfer_paths[j], len(blob), "download")
        payloads.append(repair_mod.HelperPayload(
            j, np.frombuffer(blob, "<u8").reshape(B, plan_.per_helper)))
    restored, transcript = repair_mod.center_repair(plan_, payloads)  # {node: (B, ell)}
    downloaded = center_log.total("download")
    if downloaded != transcript.total * ELEMENT_SIZE:
        raise CorruptionError(
            f"download ledger mismatch: read {downloaded} bytes, "
            f"transcript says {transcript.total * ELEMENT_SIZE}")
    if any(p.endswith(".shard") for p in center_log.by_path):
        raise CorruptionError("data center touched a shard file directly")

    # verify every restored shard in memory before any of them reaches disk,
    # then write the very blobs that were hashed
    blobs = {j: _shard_blob(spec, j, restored[j]) for j in failed}
    for j, blob in blobs.items():
        if hashlib.sha256(blob).hexdigest() != state.shard_digest(j):
            raise CorruptionError(f"restored shard for node {j} does not match "
                                  "its pre-failure digest")
    for j, blob in blobs.items():
        _atomic_write(state.shard_path(j), blob)
        state.manifest["statuses"][str(j)] = ALIVE
    state.manifest.setdefault("repairs", []).append(transcript.to_json())
    state.save()
    for path, nbytes in center_log.by_path.items():
        state.access_log.record(path, nbytes, "download")
    return state, transcript


def extract(state: ClusterState) -> bytes:
    """Decode the original payload from the first k alive shards, each checked
    against its manifest digest, and verify the payload digest.  Shards 1..k
    hold the data as it is; only without one of them is anything decoded."""
    spec = state.spec
    alive = state.alive_nodes()
    if len(alive) < spec.k:
        raise DataLossError(f"only {len(alive)} alive nodes, need {spec.k}")
    use = alive[:spec.k]
    data = np.stack([read_shard(state.shard_path(j), digest=state.shard_digest(j))[1]
                     .reshape(state.blocks, spec.ell) for j in use], axis=1)  # (B, k, ell)
    if use != list(range(1, spec.k + 1)):  # decode the systematic nodes 1..k
        data = complete_columns(spec, use, data)[:, :spec.k]
    if state.manifest["mode"] == "bytes":
        raw = data.reshape(-1).astype(np.uint8).tobytes()
        payload = raw[:state.manifest["payload_len"]]
        digest = hashlib.sha256(payload).hexdigest()
    else:
        payload = data.astype("<u8").tobytes()
        digest = _data_digest(data)
    if digest != state.manifest["digest"]:
        raise CorruptionError("extracted payload digest mismatch")
    return payload
