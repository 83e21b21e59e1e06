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
block b.  In memory an element is int64; only _pack and _read spell the u64
of the file.  During repair each helper reads its whole shard once, checked
against the manifest digest (logged as local I/O), and writes the plan's
per-group sums from repair.helper_aggregate, as int64, to a transfer file;
the data center reads *only* those transfer files, through an access log, so
downloaded bytes are exactly transcript count x 8, and reads each back as
int64, with no copy.

A shard file is one buffer: its elements are cast straight into it after the
header.  A read fills one buffer whose elements start 8-byte aligned, checks
the digest, the header, the length and element < p, and returns the elements
as an int64 view of that buffer.  Shard reads, casts, SHA-256 digests and
file writes run as grs.each units (numpy, hashlib and file I/O release the
GIL): ingest hashes each shard while it writes it; run_repair reads its
helpers in waves of grs.WORKERS, aggregates each wave on the calling thread
and writes its transfer files as units, then casts and hashes every restored
shard before any is written; extract reads its k shards in one each call.
Every buffer is allocated on the calling thread, the access log is written
there, and the first bad shard in node order is the one named.
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

from . import grs, repair as repair_mod
from .constructions import (CodeSpec, Family, encode_blocks, complete_columns,
                            manifest_dict, random_data, spec_from_manifest)
from .errors import CorruptionError, DataLossError, ParameterError
from .grs import each

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


def _atomic_write(path: Path, payload):
    """Write a bytes-like payload to a tmp file, then move it over path; the
    tmp file is removed if either step raises."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _sha256(blob) -> str:
    return hashlib.sha256(blob).hexdigest()


def _run(fn, *args):
    return fn(*args)


def _file_buffer(nbytes: int) -> np.ndarray:
    """An uninitialised uint8 buffer of nbytes for a shard file, placed so
    that its byte HEADER_SIZE, where the elements start, is 8-byte aligned."""
    raw = np.empty(nbytes + ELEMENT_SIZE - 1, dtype=np.uint8)
    pad = -(raw.ctypes.data + HEADER_SIZE) % ELEMENT_SIZE
    return raw[pad:pad + nbytes]


def _shard_size(count: int) -> int:
    """Bytes of a shard file that holds count elements."""
    return HEADER_SIZE + count * ELEMENT_SIZE


def _pack(blob: np.ndarray, spec: CodeSpec, node: int, x: np.ndarray) -> np.ndarray:
    """Fill blob, a _file_buffer of the shard's size, with node's shard file:
    the header, then the elements of x (int64, any strides) cast straight
    into it."""
    # one pass: read as uint64, a negative int64 lies at or above 2^63 > p
    if x.size and x.view(np.uint64).max() >= spec.field.p:
        raise ParameterError("element outside [0, p)")
    HEADER.pack_into(blob, 0, MAGIC, VERSION, node, spec.n, spec.k,
                     FAMILY_TAGS[spec.family], x.size, spec.field.p)
    blob[HEADER_SIZE:].view("<u8").reshape(x.shape)[...] = x
    return blob


def _pack_and_hash(blob: np.ndarray, spec: CodeSpec, node: int, x: np.ndarray) -> str:
    """_pack, then the SHA-256 hex digest of the filled blob: one each() unit."""
    return _sha256(_pack(blob, spec, node, x))


def write_shard(path: Path, spec: CodeSpec, node: int, elements: np.ndarray) -> str:
    """Write one node's elements; returns the file's SHA-256 hex digest, which
    is computed while the file is written (two each() units).  Ingest writes
    through here; run_repair writes its verified blobs itself.  elements may
    have any integer dtype and strides; it is copied only to become int64."""
    x = np.asarray(elements).astype(np.int64, copy=False)
    blob = _pack(_file_buffer(_shard_size(x.size)), spec, node, x)
    digest, _ = each(_run, [(_sha256, blob), (_atomic_write, path, blob)])
    return digest


def _read(path: Path, buf: np.ndarray, digest: Optional[str] = None) -> tuple:
    """(node, element array) of the shard file at path, read with one
    readinto into buf: a _file_buffer with room for at least one byte more
    than the file should hold, so that a longer file reads as too long.

    The digest, when given, is checked first, then the magic, version,
    length and element < p.  The elements come back as a writeable int64
    view of buf.  Every shard read runs here; it may run as an each() unit.
    """
    try:
        f = open(path, "rb")
    except FileNotFoundError:
        raise CorruptionError(f"{path}: shard file is missing") from None
    with f:
        buf = buf[:f.readinto(buf)]
    if digest is not None and _sha256(buf) != digest:
        raise CorruptionError(f"{path}: shard digest does not match the manifest")
    if buf.size < HEADER_SIZE:
        raise CorruptionError(f"{path}: shard is shorter than its {HEADER_SIZE}-byte header")
    magic, version, node, n, k, tag, count, p = HEADER.unpack_from(buf)
    if magic != MAGIC or version != VERSION:
        raise CorruptionError(f"{path}: bad shard magic/version")
    if buf.size != _shard_size(count):
        raise CorruptionError(f"{path}: element count mismatch")
    raw = buf[HEADER_SIZE:].view("<u8")
    if count and raw.max() >= p:  # on the u64 values: as int64, one >= 2^63 reads negative
        raise CorruptionError(f"{path}: element >= p")
    return node, raw.view("<i8")


def _read_into(path: Path, buf: np.ndarray, digest: str, out: np.ndarray):
    """_read, then the elements cast into out (blocks, ell): one each() unit."""
    out[...] = _read(path, buf, digest)[1].reshape(out.shape)


def read_shard(path: Path, digest: Optional[str] = None) -> tuple:
    """(node, element array) of the shard file at path, read once into a
    buffer whose elements start 8-byte aligned; the elements are a writeable
    int64 view of it.  The digest, when given (the manifest's SHA-256 of the
    file), is checked first, so any damaged, truncated or misplaced shard is
    rejected by path; then the magic, the version and the length, and that
    every element is below the header's own p.
    """
    try:
        size = os.stat(path).st_size
    except FileNotFoundError:
        size = 0   # _read names the missing file
    return _read(path, _file_buffer(size + 1), digest)


def read_elements(path: Path, indices: np.ndarray) -> np.ndarray:
    """The elements at the given indices, gathered from one whole-shard read."""
    return read_shard(path)[1][np.asarray(indices)]


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


def ingest(payload: Optional[bytes], spec: CodeSpec, root,
           seed: int = 0, blocks: int = 1) -> ClusterState:
    """Shard a payload (or seeded synthetic symbols) across n node files.

    Byte payloads map one byte per field element, so they require p >= 257;
    synthetic mode draws uniform symbols below whatever prime the spec chose.
    """
    root = Path(root)
    block_syms = spec.k * spec.ell
    if payload is not None:
        if blocks != 1:
            raise ParameterError(f"a payload sets its own block count, got blocks={blocks}")
        if spec.field.p < 257:
            raise ParameterError(
                f"byte payloads need p >= 257, spec has p={spec.field.p} "
                "(build with min_prime=257)")
        nblocks = max(1, math.ceil(len(payload) / block_syms))
        padding = nblocks * block_syms - len(payload)
        data = np.zeros((nblocks, spec.k, spec.ell), dtype=np.int64)
        data.reshape(-1)[:len(payload)] = np.frombuffer(payload, dtype=np.uint8)
        digest = _sha256(payload)
        mode, payload_len = "bytes", len(payload)
    else:
        if blocks < 1:
            raise ParameterError(f"blocks must be at least 1, got {blocks}")
        nblocks = blocks
        data = random_data(spec, np.random.default_rng(seed), nblocks)
        digest = _sha256(data.astype("<i8", copy=False))  # the symbols' <u8 bytes
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


def run_repair(state: ClusterState, failed: Sequence[int], helpers: Sequence[int],
               pattern) -> tuple:
    """Centralized repair: returns (state, transcript).

    The returned transcript carries the download accounting.  Every restored
    shard is checked against its pre-failure manifest digest in memory before
    any shard is written, so a mismatch leaves the failed nodes untouched.
    """
    spec, B = state.spec, state.blocks
    # the plan checks the node ids before any status is looked up by them
    plan_ = repair_mod.plan(spec, failed, helpers, pattern)
    failed, helpers = plan_.failed, plan_.helpers
    for j in failed:
        if state.status(j) != FAILED:
            raise ParameterError(f"node {j} is not failed")
    for j in helpers:
        if state.status(j) != ALIVE:
            raise ParameterError(f"helper {j} is not alive")

    # helpers: verified whole-shard reads, WORKERS at a time into reused
    # buffers, logged as local I/O ("shard"); each wave's sums go to its
    # transfer files
    bufs = [_file_buffer(_shard_size(B * spec.ell) + 1)
            for _ in range(min(grs.WORKERS, len(helpers)))]
    transfer_paths = {}
    for w in range(0, len(helpers), len(bufs)):
        wave = helpers[w:w + len(bufs)]
        paths = [state.shard_path(j) for j in wave]
        read = each(_read, [(path, buf, state.shard_digest(j))
                            for path, buf, j in zip(paths, bufs, wave)])
        writes = []
        for j, path, (_, elements) in zip(wave, paths, read):
            state.access_log.record(path, _shard_size(elements.size), "shard")
            payload = repair_mod.helper_aggregate(plan_, j, elements.reshape(B, spec.ell))
            transfer_paths[j] = state.root / "transfer" / f"helper_{j:02d}.payload"
            writes.append((transfer_paths[j],
                           np.ascontiguousarray(payload.values, dtype="<i8")))
        each(_atomic_write, writes)

    # data center: read transfer files only, through the instrumented log,
    # as the <i8 their helpers wrote: each payload enters the solve uncopied
    center_log = AccessLog()
    payloads = []
    for j in helpers:
        blob = transfer_paths[j].read_bytes()
        center_log.record(transfer_paths[j], len(blob), "download")
        payloads.append(repair_mod.HelperPayload(
            j, np.frombuffer(blob, "<i8").reshape(B, plan_.per_helper)))
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
    blobs = [_file_buffer(_shard_size(restored[j].size)) for j in failed]
    digests = each(_pack_and_hash, [(blob, spec, j, restored[j])
                                    for blob, j in zip(blobs, failed)])
    for j, digest in zip(failed, digests):
        if digest != state.shard_digest(j):
            raise CorruptionError(f"restored shard for node {j} does not match "
                                  "its pre-failure digest")
    each(_atomic_write, [(state.shard_path(j), blob) for j, blob in zip(failed, blobs)])
    for j in failed:
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
    B, ell = state.blocks, spec.ell
    systematic = use == list(range(1, spec.k + 1))
    as_bytes = state.manifest["mode"] == "bytes"

    # one unit per shard casts it into its column: straight to its payload
    # bytes when shards 1..k hold them as they are
    data = np.empty((B, spec.k, ell), dtype=np.uint8 if systematic and as_bytes else np.int64)
    size = _shard_size(B * ell) + 1
    each(_read_into, [(state.shard_path(j), _file_buffer(size), state.shard_digest(j), data[:, i])
                      for i, j in enumerate(use)])
    if not systematic:  # decode the systematic nodes 1..k
        data = complete_columns(spec, use, data)[:, :spec.k]
    if as_bytes:
        payload = data.reshape(-1)[:state.manifest["payload_len"]]
        payload = payload.astype(np.uint8, copy=False).tobytes()
    else:
        payload = data.astype("<i8", copy=False).tobytes()
    if _sha256(payload) != state.manifest["digest"]:
        raise CorruptionError("extracted payload digest mismatch")
    return payload
