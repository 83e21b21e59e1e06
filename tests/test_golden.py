"""Golden layouts: repair-group coordinates, evaluation points and shard bytes.

Each digest pins the exact bytes a plan or an ingest produces, so any
rewrite of the family builders, the digit arithmetic or the encoder must
reproduce them bit for bit.  One plan per repair scheme: the pinned and the
non-largest C1/C2 patterns, C3, C4 at h = 1, 2, 3, and Hadamard.
"""

import hashlib

import numpy as np
import pytest

from msrcodes.constructions import build
from msrcodes.repair import plan
from msrcodes.storage import ingest

C4_PATTERNS = [(1, 3), (2, 4), (3, 3)]

# name -> (family, n, k, patterns, failed, helpers, pattern, agg_tau digest, points digest)
GOLDEN_PLANS = {
    "c1-pinned": ("c1", 5, 2, [(1, 3), (1, 4)], [3], [1, 2, 4, 5], (1, 4),
                  "11f0ecdcf7aa2b4207204b5597edf3ae9e59b85bed59adcfc65cb00762b1fba0",
                  "e296d07581624c03d3845b3f6c4efb4fcfa3f5ee26d9f4e63e3c882c32f80925"),
    "c1-nonlargest": ("c1", 5, 2, [(1, 3), (1, 4)], [2], [1, 4, 5], (1, 3),
                      "bc5e7ab7c670a891b9d24d396d20ac043313076f852f07ad1fe4efa75f101319",
                      "6d122cd9db75be92a1d2a2410d055ec8777fa5f8a7b5b762c0ed95dc79aa91d9"),
    "c2-pinned-h2": ("c2", 6, 2, [(1, 3), (2, 4)], [1, 4], [2, 3, 5, 6], (2, 4),
                     "3519f919daf5137c269acb2447e4a1ee18726fe52704708490ecc51e50624493",
                     "d1e2826f2efe3f4518d4cc5142ce25c0a97cc176d9a1fe2d75e3a8bf9241e522"),
    "c2-nonlargest-h2": ("c2", 6, 2, [(2, 4), (1, 4)], [2, 5], [1, 3, 4, 6], (2, 4),
                         "cb5a80ba9265c9012d7ad1b3b9e9aeb4eeef6beba1fb0e882b6e332596b8e6a3",
                         "aea8c9028c4947b4d69b26bb0108afdcbbc3a5debbc115a8604a144727c83b4d"),
    "c3": ("c3", 6, 2, [(2, 4)], [1, 2], [3, 4, 5, 6], (2, 4),
           "f6778a5a777599a02c068bfeb55448a1d7757344217d99296319a058453a8fe4",
           "7c407a089406c896fde881d399d13740dabf136efda2880107a9b6e3553c0ae4"),
    "c4-h1": ("c4", 6, 2, C4_PATTERNS, [4], [1, 2, 6], (1, 3),
              "a659978463adce881fb357f6214cd4775eeb4f572f065c2ca5bfa16e92d9a0ea",
              "b9042937c41a41946888b3b3a2575f29f59036a1786a80d2557c9322b4af66a1"),
    "c4-h2": ("c4", 6, 2, C4_PATTERNS, [3, 6], [1, 2, 4, 5], (2, 4),
              "bd52e8dd9fb5ce83f10679bf4ef7722c2796155ff42c853f8e14bc4e43234960",
              "22168c5ba945afc7d7f070c17aa533c24c420bfd6ea878159b9f3ec96c540e61"),
    "c4-h3": ("c4", 6, 2, C4_PATTERNS, [1, 3, 5], [2, 4, 6], (3, 3),
              "ab75074e701ea4ace6b4df4343bd1e17457a297efcbc1024596b878d34363db7",
              "81df23d89779824d6ac57e30ea5dd120571b4dd614e0ebe17d90446e7b71b94b"),
    "hadamard": ("hadamard", 8, 4, [(3, 5)], [2, 5, 7], [1, 3, 4, 6, 8], (3, 5),
                 "168d750d67bb134cb81ec9d2d4ef70ff0c08fe4131b99e742084d90313a554d2",
                 "7506a873e0f7c82cd7941b52452d9ca2876a5ed8f59542a70b92cd04c4cdb082"),
}

# node -> SHA-256 of the shard file
GOLDEN_C3_SYMBOL_SHARDS = {  # c3(6,2,(2,4)), p = 13, seed 7, 2 blocks
    "1": "06466328b948047ef6f24054df618fa98d14bd3e22236248318ebf62f487a8ba",
    "2": "10884b80808ca1f187807189fe2c7866f624337f8bd8e87a21255b21dee00bd5",
    "3": "fd152936f7ce846fb2b0433f9782ac7eebf83086346bec9d136f860d3fe975d0",
    "4": "d1c9acddd8b5437b5260e598db8da687a661d05b8f1afa55a46e8a95ae3ad221",
    "5": "3610e687d1cf19f73f3779e64875b386b3e832f782f22a529f8f41b52560c315",
    "6": "9f085f7c8502c30802d0ef74928f39842d65e8eedda1854e47a167c6d4968ca1",
}
GOLDEN_C4_BYTE_SHARDS = {  # c4(6,2,C4_PATTERNS), p = 257, 3000 seeded bytes
    "1": "e7d56f628dcc330799ab6cf87ecb6e275bcb10291edd287c8b64f2df3e7b033d",
    "2": "ccd42a2e756627e6a6fd9349fe21e05858b8adf4a63c9ca0e1206649bdfa1cdd",
    "3": "da4b6c01ea37c965e37e2dfa443a8aca61c67374dfd382ba2707ec60df0e34a6",
    "4": "5a890b02c5134a77b700d21ff6a9691885ce1c342d02e5e1bca269dc88180406",
    "5": "eb6dc13b69e9f76e99a98e48f542fb0accd9c5a927912dd6ccae8e767aa1f598",
    "6": "8723d255387d15de8a4dbcef0eb85d4ea7b0644b4991497afdd6f505edcff648",
}


def _layout_digest(arrays) -> str:
    """SHA-256 over the per-array digests (shape + little-endian int64 bytes)."""
    outer = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(arr, dtype="<i8")
        outer.update(hashlib.sha256(str(a.shape).encode() + a.tobytes()).hexdigest().encode())
    return outer.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
def test_plan_layout_is_pinned(name):
    family, n, k, patterns, failed, helpers, pattern, tau_digest, pts_digest = GOLDEN_PLANS[name]
    pl = plan(build(family, n, k, patterns), failed, helpers, pattern)
    assert _layout_digest(f.agg_tau for f in pl.families) == tau_digest
    assert _layout_digest(f.points for f in pl.families) == pts_digest


def test_seeded_symbol_ingest_shards_are_pinned(tmp_path):
    state = ingest(None, build("c3", 6, 2, [(2, 4)]), tmp_path / "c", seed=7, blocks=2)
    assert {j: s["digest"] for j, s in state.manifest["shards"].items()} == GOLDEN_C3_SYMBOL_SHARDS
    for j, digest in GOLDEN_C3_SYMBOL_SHARDS.items():
        assert hashlib.sha256(state.shard_path(int(j)).read_bytes()).hexdigest() == digest


def test_seeded_byte_ingest_shards_are_pinned(tmp_path):
    payload = np.random.default_rng(3).integers(0, 256, size=3000, dtype=np.uint8).tobytes()
    spec = build("c4", 6, 2, C4_PATTERNS, min_prime=257)
    state = ingest(payload, spec, tmp_path / "c")
    assert state.blocks == 6
    assert {j: s["digest"] for j, s in state.manifest["shards"].items()} == GOLDEN_C4_BYTE_SHARDS
