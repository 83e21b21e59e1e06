"""Property tests over all five families.

The cluster round trip ingests a random byte payload, fails a random set H of
h nodes, repairs it from a random helper set R of d nodes and extracts the
payload.  The MDS test rebuilds a random codeword from a random k-subset.
"""

import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from msrcodes.audit import cut_set
from msrcodes.constructions import build, encode, mds_reconstruct, verify_planes
from msrcodes.storage import ELEMENT_SIZE, extract, fail_nodes, ingest, run_repair

SPECS = [  # (family, n, k, patterns), small ell so each example stays fast
    ("c1", 4, 2, [(1, 3)]),
    ("c1", 5, 2, [(1, 3), (1, 4)]),
    ("c2", 6, 2, [(1, 3), (2, 4)]),
    ("c3", 6, 2, [(2, 4)]),
    ("c4", 5, 2, [(1, 3), (2, 3)]),
    ("c4", 6, 2, [(1, 3), (2, 4), (3, 3)]),
    ("hadamard", 5, 2, [(1, 3)]),
    ("hadamard", 8, 4, [(3, 5)]),
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_cluster_round_trip(data):
    family, n, k, patterns = data.draw(st.sampled_from(SPECS))
    h, d = data.draw(st.sampled_from(patterns))
    nodes = data.draw(st.permutations(range(1, n + 1)))
    failed, helpers = sorted(nodes[:h]), sorted(nodes[h:h + d])
    size, seed = data.draw(st.integers(0, 3000)), data.draw(st.integers(0, 2**32 - 1))
    payload = np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8).tobytes()
    spec = build(family, n, k, patterns, min_prime=257)
    with tempfile.TemporaryDirectory() as root:
        state = ingest(payload, spec, root)
        before = {j: state.shard_path(j).read_bytes() for j in failed}
        fail_nodes(state, failed)
        state, t = run_repair(state, failed, helpers, (h, d))
        for j in failed:
            assert state.shard_path(j).read_bytes() == before[j]
        assert t.total == cut_set(h, d, k, spec.ell)[1] * state.blocks
        assert state.access_log.total("download") == t.total * ELEMENT_SIZE
        assert extract(state) == payload


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_k_subset_reconstructs(data):
    family, n, k, patterns = data.draw(st.sampled_from(SPECS))
    spec = build(family, n, k, patterns)
    seed = data.draw(st.integers(0, 2**32 - 1))
    cw = encode(spec, np.random.default_rng(seed).integers(0, spec.field.p, (k, spec.ell)))
    nodes = sorted(data.draw(st.permutations(range(1, n + 1)))[:k])
    rec = mds_reconstruct(spec, nodes, cw.columns[[j - 1 for j in nodes]])
    assert np.array_equal(rec.columns, cw.columns)
    assert verify_planes(spec, rec.columns)
