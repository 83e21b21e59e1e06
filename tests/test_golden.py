"""Golden layouts: repair-group coordinates, evaluation points, shard bytes,
helper transfer payloads, the repair records a cluster writes and the CLI's
stdout.

Each digest pins the exact bytes a plan, an ingest or a cluster repair
produces, so any rewrite of the family builders, the digit arithmetic, the
encoder or the helper aggregation must reproduce them bit for bit.  One plan
per repair scheme: the pinned and the non-largest C1/C2 patterns, C3, C4 at
h = 1, 2, 3, and Hadamard.
"""

import hashlib
import json

import numpy as np
import pytest

from msrcodes.cli import main
from msrcodes.constructions import build, node_points
from msrcodes.repair import plan
from msrcodes.storage import fail_nodes, ingest, run_repair

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

# name -> (spec args, seeded byte count (0: seeded symbols), seed, blocks,
#          failed, helpers, pattern, helper -> SHA-256 of transfer/helper_XX.payload)
GOLDEN_TRANSFERS = {
    "c3": (("c3", 6, 2, [(2, 4)]), 0, 7, 2, [1, 2], [3, 4, 5, 6], (2, 4), {
        3: "55911da9e2dd6cf62998e86b752ef26894e4dfc5c8e9949d794a68e6d1af42a9",
        4: "831f70bc65d963ce2ae72e765b13f9fbabd325772a9485dd99b73046a0ce5de7",
        5: "e02fb80fcc8946a13729489b370261166572dfa6f3a317ffe6b860f8460b6fc5",
        6: "b1df05bf070d0b2cc4a15fcc6419a6bfd678d83ac7794a0814424d5e94cb594c"}),
    "c4-h3": (("c4", 6, 2, C4_PATTERNS), 3000, 3, 1, [1, 3, 5], [2, 4, 6], (3, 3), {
        2: "8c2a015f5d19b4ea16f1f8eb775514e29f8ca98acb1976dd121f450901501eb8",
        4: "09bbf2564731ed2653454157b4c2279efa86ad0668b8db6e39cc8a2904e658f7",
        6: "bde2ec0ad72a9b081f26309a95e33f0109454dab278385a85c3898eca58e3904"}),
    "hadamard": (("hadamard", 8, 4, [(3, 5)]), 0, 11, 1, [2, 5, 7], [1, 3, 4, 6, 8], (3, 5), {
        1: "2118fb389ea79b7b9541ffb25691849380ae9bb89077b0d76c3d2047350a2c32",
        3: "d0e3c8191d8c43f67f8840e7e95d7d1f40047a7206df47a0df8328a709a63108",
        4: "3c36f790214e16e9d3b5753e8869013208998f83eca2cbfe5ff528618ee4911e",
        6: "926871903f5a535f1b921e937314a956dc47efa9c9651ad7b5ede0860d8a6bc8",
        8: "c88a571fa474c4ba13bc74dd5eec570d6a3c77f4233f189bccbde060f7efbe3a"}),
}

# SHA-256 of json.dumps(entry), key order included, for the manifest's last
# `repairs` entry and the `bound_report` of `msrcodes repair --report`
GOLDEN_C3_REPAIR_ENTRY = "9750316da8a9ef2f7b5884ad71457bed7792d4ffc73eee9666310547d57c8107"
GOLDEN_C3_BOUND_REPORT = "d10d70498a45e982c975cdc8a1d04388f46c6694cb1f02191522c97be8867907"
GOLDEN_C4_H3_REPAIR_ENTRY = "2ecf467ef8ed17bb7b987d75a8da65a5b530559b7029b160e5866a227845b2ee"

# One pass over every sub-command, in order, on a relative cluster path so
# that no absolute path reaches stdout.
CLI_CYCLE = {
    "params": ["params", "--family", "c2", "--n", "6", "--k", "2",
               "--patterns", "1:3,1:4,1:5,2:4"],
    "encode": ["encode", "--family", "c3", "--n", "6", "--k", "2", "--h", "2", "--d", "4",
               "--cluster", "cl", "--random-bytes", "1000", "--seed", "3"],
    "fail": ["fail", "--cluster", "cl", "--nodes", "1,2"],
    "repair": ["repair", "--cluster", "cl", "--nodes", "1,2", "--helpers", "3,4,5,6",
               "--h", "2", "--d", "4"],
    "verify-mds": ["verify-mds", "--manifest", "cl/manifest.json", "--seed", "2"],
    "table": ["table", "--n", "12", "--k", "6", "--h", "2", "--d", "8"],
    "selftest": ["selftest", "--seed", "1"],
}
# command -> (SHA-256 of its text stdout, SHA-256 of its --json stdout)
GOLDEN_CLI_STDOUT = {
    "params": ("dd843547a67f43a56717cc7264f5082e1ba4faee87109da4683208bea428cc54",
               "96210e8ca18575884061ca630aff9a8113e80f8ca565db0e4d70162f84c46447"),
    "encode": ("328aefb937f4d62125d80a9281eedc5cbbdde0af3c6720cac77301fa7e2e2b8b",
               "59c8aeedf7b38c50f29ed2aca99cd1c48890deb7d960e9536cbc41ff6e6858af"),
    "fail": ("eb24e4aa931351190350aac0b50abaa85bf72961a2ba43f1cbc1cf1865efa320",
             "f1d20a0120b9c103bcb1746b4d19a7dc07dd9c1466cc7ce6dd80013804fdd5bb"),
    "repair": ("0fe926ac515a983b101cc300cf1179a08660e5faf8f7d5e682f74136a3180dfd",
               "c2e56533e24875f8efdd47599f2ecddf3232068cd3dfcbcd13191d5d2590303b"),
    "verify-mds": ("601f5efb2662a705bf04bb73a90b11590ba464314b931c13d15ba40f1d3b80e0",
                   "49fdc525787ebcd3af05705b934eef13c5c8f036a18bd0c6ab491e837f016119"),
    "table": ("6f78e1521e52cfb50b98de81ff67e9b54680d98463e6fd31dee24e6e076e82e5",
              "4246bc514e0d2ae4b21955cba903cc3bc2e0008c156bd140005f5980f439fffa"),
    "selftest": ("5aa5920c6b93de9932317b5dddfd6567d39a6df6f711c13249928cae408c2526",
                 "5af32bf971a02ba2034bc4c01db6adb6c4d362bf28fa6de348f20075f0fd245b"),
}


def _json_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _layout_digest(arrays) -> str:
    """SHA-256 over the per-array digests (shape + little-endian int64 bytes)."""
    outer = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(arr, dtype="<i8")
        outer.update(hashlib.sha256(str(a.shape).encode() + a.tobytes()).hexdigest().encode())
    return outer.hexdigest()


def _slot_points(spec, fam) -> np.ndarray:
    """(G, d+r) evaluation points in slot order: the members' width slots,
    then the nodes outside the member set, ascending."""
    a = fam.agg_tau.T % spec.s_m**spec.n
    members = node_points(spec, fam.members, a).reshape(-1, fam.group_count)
    return np.concatenate([members, node_points(spec, fam.others, a[0])]).T


@pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
def test_plan_layout_is_pinned(name):
    family, n, k, patterns, failed, helpers, pattern, tau_digest, pts_digest = GOLDEN_PLANS[name]
    pl = plan(build(family, n, k, patterns), failed, helpers, pattern)
    assert _layout_digest(f.agg_tau for f in pl.families) == tau_digest
    assert _layout_digest(_slot_points(pl.spec, f) for f in pl.families) == pts_digest


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


@pytest.mark.parametrize("name", sorted(GOLDEN_TRANSFERS))
def test_seeded_cluster_transfer_payloads_are_pinned(name, tmp_path):
    spec_args, nbytes, seed, blocks, failed, helpers, pattern, digests = GOLDEN_TRANSFERS[name]
    if nbytes:
        payload = np.random.default_rng(seed).integers(0, 256, size=nbytes,
                                                       dtype=np.uint8).tobytes()
        state = ingest(payload, build(*spec_args, min_prime=257), tmp_path / "c")
    else:
        state = ingest(None, build(*spec_args), tmp_path / "c", seed=seed, blocks=blocks)
    fail_nodes(state, failed)
    run_repair(state, failed, helpers, pattern)
    got = {j: hashlib.sha256((tmp_path / "c" / "transfer" / f"helper_{j:02d}.payload")
                             .read_bytes()).hexdigest() for j in helpers}
    assert got == digests


def test_seeded_c3_repair_records_are_pinned(tmp_path, capsys):
    cluster, report = tmp_path / "c", tmp_path / "r.json"
    assert main(["encode", "--family", "c3", "--n", "6", "--k", "2", "--h", "2", "--d", "4",
                 "--cluster", str(cluster), "--seed", "7", "--blocks", "2"]) == 0
    assert main(["fail", "--cluster", str(cluster), "--nodes", "1,2"]) == 0
    assert main(["repair", "--cluster", str(cluster), "--nodes", "1,2", "--helpers", "3,4,5,6",
                 "--h", "2", "--d", "4", "--report", str(report)]) == 0
    entry = json.loads((cluster / "manifest.json").read_text())["repairs"][-1]
    out = json.loads(report.read_text())
    assert _json_digest(entry) == _json_digest(out["transcript"]) == GOLDEN_C3_REPAIR_ENTRY
    assert _json_digest(out["bound_report"]) == GOLDEN_C3_BOUND_REPORT


def test_seeded_c4_h3_repair_entry_is_pinned(tmp_path):
    payload = np.random.default_rng(3).integers(0, 256, size=3000, dtype=np.uint8).tobytes()
    state = ingest(payload, build("c4", 6, 2, C4_PATTERNS, min_prime=257), tmp_path / "c")
    fail_nodes(state, [1, 3, 5])
    run_repair(state, [1, 3, 5], [2, 4, 6], (3, 3))
    entry = json.loads((tmp_path / "c" / "manifest.json").read_text())["repairs"][-1]
    assert _json_digest(entry) == GOLDEN_C4_H3_REPAIR_ENTRY


def test_cli_stdout_is_pinned(tmp_path, monkeypatch, capsys):
    got = {name: [] for name in CLI_CYCLE}
    for mode in ("text", "json"):
        (tmp_path / mode).mkdir()
        monkeypatch.chdir(tmp_path / mode)
        for name, argv in CLI_CYCLE.items():
            assert main(argv + (["--json"] if mode == "json" else [])) == 0, name
            got[name].append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert {name: tuple(d) for name, d in got.items()} == GOLDEN_CLI_STDOUT
