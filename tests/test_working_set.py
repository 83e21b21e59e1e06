"""The batched GRS kernels run over plane and group slices (grs.slices).

Slicing must not change a single output bit, wherever the slice boundaries
fall, and it must keep the kernels' temporaries near grs.SLICE_BUDGET
elements instead of growing with ell.
"""

import tracemalloc

import numpy as np
import pytest

from msrcodes import grs
from msrcodes.constructions import build, encode_blocks, mds_reconstruct, random_data, verify_planes
from msrcodes.repair import center_repair, helper_aggregate, plan

SPECS = {  # name: (family, n, k, patterns)
    "c1": ("c1", 5, 2, [(1, 3), (1, 4)]),
    "c2": ("c2", 6, 2, [(1, 3), (2, 4)]),
    "c3": ("c3", 6, 2, [(2, 4)]),
    "c4": ("c4", 6, 2, [(1, 3), (2, 4), (3, 3)]),
    "hadamard": ("hadamard", 8, 4, [(3, 5)]),
}

REPAIRS = [  # (spec name, failed, helpers, pattern)
    ("c1", [2], [1, 3, 5], (1, 3)),       # block scheme
    ("c1", [4], [1, 2, 3, 5], (1, 4)),    # pinned scheme
    ("c2", [1, 6], [2, 3, 4, 5], (2, 4)),
    ("c3", [1, 2], [3, 4, 5, 6], (2, 4)),
    ("c4", [1, 3, 5], [2, 4, 6], (3, 3)),  # three families and the step-2 peel
    ("c4", [2, 5], [1, 3, 4, 6], (2, 4)),
    ("hadamard", [2, 5, 7], [1, 3, 4, 6, 8], (3, 5)),
]

BLOCKS = 3


def _plane_budgets(spec, blocks):
    """Budgets giving slices of one plane and of s_m+1 planes, which never
    divides A = s_m^n; a plane holds n*blocks*s kernel elements."""
    per_plane = spec.n * blocks * spec.s
    return [1, (spec.s_m + 1) * per_plane]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_plane_slices_do_not_change_codewords(monkeypatch, name):
    spec = build(*SPECS[name])
    data = random_data(spec, np.random.default_rng(5), blocks=BLOCKS)
    encoded = encode_blocks(spec, data)
    parity = list(range(spec.n - spec.k + 1, spec.n + 1))
    rebuilt = mds_reconstruct(spec, parity, encoded[0, [j - 1 for j in parity]]).columns
    assert np.array_equal(rebuilt, encoded[0])
    bad = encoded.copy()
    bad[-1, -1, -1] = (bad[-1, -1, -1] + 1) % spec.field.p  # last plane of the last block
    assert verify_planes(spec, encoded) and not verify_planes(spec, bad)

    for budget in _plane_budgets(spec, BLOCKS):
        monkeypatch.setattr(grs, "SLICE_BUDGET", budget)
        assert np.array_equal(encode_blocks(spec, data), encoded)
        assert np.array_equal(
            mds_reconstruct(spec, parity, encoded[0, [j - 1 for j in parity]]).columns, rebuilt)
        assert verify_planes(spec, encoded) and not verify_planes(spec, bad)


@pytest.mark.parametrize("name, failed, helpers, pattern", REPAIRS)
def test_group_slices_do_not_change_repairs(monkeypatch, name, failed, helpers, pattern):
    spec = build(*SPECS[name])
    columns = encode_blocks(spec, random_data(spec, np.random.default_rng(9), blocks=BLOCKS))
    pl = plan(spec, failed, helpers, pattern)
    payloads = [helper_aggregate(pl, j, columns[:, j - 1]) for j in pl.helpers]
    restored, transcript = center_repair(pl, payloads)
    for j in failed:
        assert np.array_equal(restored[j], columns[:, j - 1])

    # one group per slice, then a step that divides no family's group count;
    # a group holds (d+r)*blocks kernel elements
    per_group = pl.families[0].word_length * BLOCKS
    step = next(s for s in range(2, 100) if all(fam.group_count % s for fam in pl.families))
    for budget in (1, step * per_group):
        monkeypatch.setattr(grs, "SLICE_BUDGET", budget)
        again, record = center_repair(pl, payloads)
        assert all(np.array_equal(again[j], restored[j]) for j in failed)
        assert record.to_json() == transcript.to_json()


def test_slices_cover_the_range_in_budget_sized_steps(monkeypatch):
    monkeypatch.setattr(grs, "SLICE_BUDGET", 10)
    assert list(grs.slices(7, 3)) == [(0, 3), (3, 6), (6, 7)]
    assert list(grs.slices(3, 11)) == [(0, 1), (1, 2), (2, 3)]  # at least one item
    assert list(grs.slices(0, 3)) == []


def test_encode_working_set_stays_near_the_slice_budget():
    spec = build("c1", 8, 4, [(1, 6), (1, 7)])  # ell = 196,608: a 12 MiB output
    data = random_data(spec, np.random.default_rng(0))
    tracemalloc.start()
    try:
        out = encode_blocks(spec, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # unsliced kernels peaked 37.5 MiB above the output here
    assert peak - out.nbytes <= 8 * grs.SLICE_BUDGET * out.itemsize
