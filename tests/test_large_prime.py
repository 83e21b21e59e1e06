"""A whole cluster cycle at p = 2^31 - 1, the largest prime GF(p) accepts.

There a product of two residues is close to 2^62, so a sum of three of them
overflows int64: grs.apply_operator must reduce every 2 terms.  With k = 2
and d = 3 both the encoder (2 terms) and the d = 3 repairs (3 terms) sit at
that edge.  Every plane is checked with Python ints, outside numpy, and
verify_planes, whose checks sum n such products, must accept a codeword
there and reject it with one symbol changed.
"""

import hashlib

import numpy as np
import pytest

from msrcodes import storage
from msrcodes.constructions import build, encode_blocks, verify_planes
from msrcodes.grs import apply_operator

P = 2147483647
BLOCKS = 5

CASES = {  # name: (family, patterns, [(failed, helpers, pattern)])
    "c3": ("c3", [(2, 4)], [((1, 2), (3, 4, 5, 6), (2, 4)), ((3, 6), (1, 2, 4, 5), (2, 4))]),
    "c4": ("c4", [(1, 3), (2, 4), (3, 3)],
           [((2,), (1, 4, 6), (1, 3)), ((1, 5), (2, 3, 4, 6), (2, 4)),
            ((2, 3, 6), (1, 4, 5), (3, 3)), ((1, 4, 5), (2, 3, 6), (3, 3))]),
}


def _columns(state) -> np.ndarray:
    spec = state.spec
    return np.stack([storage.read_shard(state.shard_path(j))[1].reshape(state.blocks, spec.ell)
                     for j in range(1, spec.n + 1)], axis=1)   # (B, n, ell)


def _planes_vanish(spec, cols) -> bool:
    """sum_j lambda_{j, a_j}^t * c_j = 0 (mod p) for t < r on every plane, in Python ints."""
    A = spec.s_m**spec.n
    for tau in range(spec.ell):
        a = tau % A
        points = [spec.lam[j][a // spec.s_m**j % spec.s_m] for j in range(spec.n)]
        for block in cols[:, :, tau].tolist():
            for t in range(spec.r):
                if sum(pow(x, t, P) * c for x, c in zip(points, block)) % P:
                    return False
    return True


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cluster_cycle_at_the_largest_prime(name, tmp_path):
    family, patterns, rounds = CASES[name]
    spec = build(family, 6, 2, patterns, prime=P)
    assert spec.field.p == P
    state = storage.ingest(None, spec, tmp_path / "c", seed=7, blocks=BLOCKS)
    data = np.random.default_rng(7).integers(0, P, size=(BLOCKS, spec.k, spec.ell), dtype=np.int64)
    cols = _columns(state)
    assert np.array_equal(cols[:, :spec.k], data)
    assert cols.max() > P // 2   # residues large enough to overflow an unreduced sum
    assert _planes_vanish(spec, cols)
    bad = cols.copy()
    bad[-1, -1, -1] = (bad[-1, -1, -1] + 1) % P
    assert not _planes_vanish(spec, bad)

    for failed, helpers, pattern in rounds:
        storage.fail_nodes(state, failed)
        state, transcript = storage.run_repair(state, failed, helpers, pattern)
        assert transcript.total == transcript.gamma
        for j in failed:
            assert _sha(state.shard_path(j)) == state.shard_digest(j)
        assert np.array_equal(_columns(state), cols)

    storage.fail_nodes(state, [1])   # a systematic node: extract decodes
    payload = storage.extract(state)
    assert hashlib.sha256(payload).hexdigest() == state.manifest["digest"]
    assert payload == data.astype("<u8").tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_planes_at_the_largest_prime(name):
    family, patterns, _ = CASES[name]
    spec = build(family, 6, 2, patterns, prime=P)
    data = np.random.default_rng(7).integers(0, P, size=(BLOCKS, spec.k, spec.ell), dtype=np.int64)
    cols = encode_blocks(spec, data)
    assert cols.max() > P // 2   # each check sums n products close to 2^62
    assert verify_planes(spec, cols)
    bad = cols.copy()
    bad[-1, -1, -1] = (bad[-1, -1, -1] + 1) % P
    assert not verify_planes(spec, bad)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_apply_operator_on_maximal_residues(m):
    # fold = 2 at this prime: every operator entry and value is p - 1 or
    # next to it, so each product is near 2^62 and the sums must be reduced
    # every 2 terms; Python ints give the exact residues
    assert (2**63 - P) // (P - 1) ** 2 == 2
    e, L = 2, 4
    table = P - 1 - np.arange(e * m * 3).reshape(e, m, 3) % 2
    rows = [np.arange(L) % 3 for _ in range(m)]
    values = [P - 1 - np.arange(2 * L).reshape(2, L) % 3 for _ in range(m)]
    out = np.empty((e, 2, L), dtype=np.int64)
    apply_operator(P, table, rows, values, out)
    want = [[[sum(int(table[u, i, rows[i][g]]) * int(values[i][c, g]) for i in range(m)) % P
              for g in range(L)] for c in range(2)] for u in range(e)]
    assert out.tolist() == want
