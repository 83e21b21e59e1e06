"""The batched GRS kernels run over plane and group slices (grs.units).

Slicing must not change a single output bit, wherever the slice boundaries
fall, and it must keep the kernels' temporaries near grs.SLICE_BUDGET
elements instead of growing with ell.  The cluster ops' peaks stay within
written formulas in shard bytes.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from msrcodes import constructions, grs, repair, storage
from msrcodes.constructions import (build, complete_columns, encode_blocks, mds_reconstruct,
                                    random_data, verify_planes)
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
    ("c4", [6], [1, 2, 3], (1, 3)),       # two block copies of each base plane
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
    per_group = (len(helpers) + spec.r) * BLOCKS
    step = next(s for s in range(2, 100) if all(fam.group_count % s for fam in pl.families))
    for budget in (1, step * per_group):
        monkeypatch.setattr(grs, "SLICE_BUDGET", budget)
        again, record = center_repair(pl, payloads)
        assert all(np.array_equal(again[j], restored[j]) for j in failed)
        assert record.to_json() == transcript.to_json()


def _all_budgets(spec, blocks):
    """The default budget, the plane-slice budgets, and one that slices whole
    blocks two at a time (a block holds A*n*s elements and A*r*k operator
    elements)."""
    A = spec.s_m**spec.n
    whole_blocks = A * (2 * spec.n * spec.s + spec.r * spec.k)
    return [grs.SLICE_BUDGET, whole_blocks] + _plane_budgets(spec, blocks)


def _count_solves(monkeypatch, module):
    calls = []
    real = module.solve_vandermonde

    def solve_vandermonde(*args):
        calls.append(args[1].shape)
        return real(*args)

    monkeypatch.setattr(module, "solve_vandermonde", solve_vandermonde)
    return calls


@pytest.mark.parametrize("name", sorted(SPECS))
def test_every_k_subset_decodes_to_the_codeword(name):
    """The erasure operator from every k-subset, so the erased nodes sit on
    low, high and mixed digits, against the encoder's codewords."""
    spec = build(*SPECS[name])
    data = random_data(spec, np.random.default_rng(2), blocks=BLOCKS)
    encoded = encode_blocks(spec, data)
    assert np.array_equal(encoded[:, :spec.k], data) and verify_planes(spec, encoded)
    for kept in itertools.combinations(range(1, spec.n + 1), spec.k):
        rows = [j - 1 for j in kept]
        assert np.array_equal(complete_columns(spec, kept, encoded[:, rows]), encoded), kept
        assert np.array_equal(mds_reconstruct(spec, kept, encoded[-1, rows]).columns, encoded[-1])


@pytest.mark.parametrize("name", sorted(SPECS))
def test_complete_columns_solves_once_per_call(monkeypatch, name):
    spec = build(*SPECS[name])
    n, k = spec.n, spec.k
    encoded = encode_blocks(spec, random_data(spec, np.random.default_rng(4), blocks=BLOCKS))
    calls = _count_solves(monkeypatch, constructions)
    for budget in _all_budgets(spec, BLOCKS):
        monkeypatch.setattr(grs, "SLICE_BUDGET", budget)
        for kept in (range(1, k + 1), range(n - k + 1, n + 1), range(1, 2 * k, 2)):
            calls.clear()
            rows = [j - 1 for j in kept]
            assert np.array_equal(complete_columns(spec, kept, encoded[:, rows]), encoded)
            assert len(calls) == 1, (budget, list(kept))
            assert calls[0][0] <= spec.s_m**spec.r   # one table row per erased-digit tuple


@pytest.mark.parametrize("name, failed, helpers, pattern", REPAIRS)
def test_repair_solves_once_per_family(monkeypatch, name, failed, helpers, pattern):
    spec = build(*SPECS[name])
    columns = encode_blocks(spec, random_data(spec, np.random.default_rng(6), blocks=BLOCKS))
    pl = plan(spec, failed, helpers, pattern)
    payloads = [helper_aggregate(pl, j, columns[:, j - 1]) for j in pl.helpers]
    calls = _count_solves(monkeypatch, constructions)   # erasure_table's kernel call
    for budget in (grs.SLICE_BUDGET, 1, 3 * (len(helpers) + spec.r) * BLOCKS):
        monkeypatch.setattr(grs, "SLICE_BUDGET", budget)
        calls.clear()
        restored, _ = center_repair(pl, payloads)
        assert all(np.array_equal(restored[j], columns[:, j - 1]) for j in failed)
        assert len(calls) == len(pl.families), budget
        # one row per digit tuple of the q distinct erased nodes: the members
        # and the other non-helpers
        erased = [len(f.members) + len(set(f.others) - set(helpers)) for f in pl.families]
        assert [rows for rows, _ in calls] == [spec.s_m**q for q in erased], budget


@pytest.mark.parametrize("name, failed, helpers, pattern", REPAIRS)
def test_repair_builds_one_operator_per_base_plane(monkeypatch, name, failed, helpers, pattern):
    # a group's operator depends only on its base plane, so a family reads
    # group_count / copies words' operators from its table, each applied
    # to its U block copies, whatever the units (one block: one kernel call
    # per word range)
    spec = build(*SPECS[name])
    columns = encode_blocks(spec, random_data(spec, np.random.default_rng(6), blocks=1))
    pl = plan(spec, failed, helpers, pattern)
    payloads = [helper_aggregate(pl, j, columns[:, j - 1]) for j in pl.helpers]
    words, real_table, real_kernel = [], repair.erasure_table, constructions.apply_operator

    def erasure_table(*args):
        words.append(0)   # one table per family
        return real_table(*args)

    def apply_operator(p, table, rows, values, out):
        fam = pl.families[len(words) - 1]
        assert values[0].shape[1:] == (fam.copies, len(rows[0]))
        words[-1] += len(rows[0])
        return real_kernel(p, table, rows, values, out)

    monkeypatch.setattr(repair, "erasure_table", erasure_table)
    monkeypatch.setattr(constructions, "apply_operator", apply_operator)
    monkeypatch.setattr(grs, "WORKERS", 1)   # units run one at a time
    for budget in (grs.SLICE_BUDGET, 1, 3 * (len(helpers) + spec.r)):
        monkeypatch.setattr(grs, "SLICE_BUDGET", budget)
        words.clear()
        restored, _ = center_repair(pl, payloads)
        assert all(np.array_equal(restored[j], columns[:, j - 1]) for j in failed)
        assert words == [f.group_count // f.copies for f in pl.families], budget


@pytest.mark.parametrize("name, failed, helpers, pattern", REPAIRS)
def test_one_engine_applies_every_table(monkeypatch, name, failed, helpers, pattern):
    # encode, decode, verify_planes and each repair family read and apply
    # their operators in one constructions.apply_table call each
    spec = build(*SPECS[name])
    data = random_data(spec, np.random.default_rng(8), blocks=BLOCKS)
    calls, real = [], constructions.apply_table

    def apply_table(*args):
        calls.append(args[3])   # the known nodes
        return real(*args)

    for module in (constructions, repair):   # every module that binds the name
        monkeypatch.setattr(module, "apply_table", apply_table)
    encoded = encode_blocks(spec, data)
    assert calls == [list(range(1, spec.k + 1))]
    kept = [j for j in range(1, spec.n + 1) if j not in failed][:spec.k]
    calls.clear()
    assert np.array_equal(complete_columns(spec, kept, encoded[:, [j - 1 for j in kept]]), encoded)
    assert calls == [kept]
    bad = encoded.copy()
    bad[-1, -1, -1] = (bad[-1, -1, -1] + 1) % spec.field.p
    for columns, good in ((encoded, True), (bad, False)):
        calls.clear()
        assert verify_planes(spec, columns) is good
        assert len(calls) == 1
    pl = plan(spec, failed, helpers, pattern)
    payloads = [helper_aggregate(pl, j, encoded[:, j - 1]) for j in pl.helpers]
    calls.clear()
    restored, _ = center_repair(pl, payloads)
    assert all(np.array_equal(restored[j], encoded[:, j - 1]) for j in failed)
    assert calls == [pl.helpers] * len(pl.families)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_units_cover_every_pair_once_within_the_budget(monkeypatch, workers):
    budget = 40
    monkeypatch.setattr(grs, "SLICE_BUDGET", budget)
    monkeypatch.setattr(grs, "WORKERS", workers)
    grid = itertools.product([0, 1, 2, 3, 7, 16], [0, 1, 2, 5, 13], [1, 3, 11], [0, 2, 9])
    for blocks, count, per, op in grid:
        case = (blocks, count, per, op)
        got = grs.units(blocks, count, per, op)
        pairs = [(w, b) for (w0, w1), ranges in got for b0, b1 in ranges
                 for w in range(w0, w1) for b in range(b0, b1)]
        assert sorted(pairs) == list(itertools.product(range(count), range(blocks))), case
        if not blocks or not count:
            assert got == [], case
            continue
        if per + op <= budget:   # one item fits
            for (w0, w1), ranges in got:
                assert all((w1 - w0) * (op + (b1 - b0) * per) <= budget for b0, b1 in ranges), case
        whole = count * (per + op) <= budget
        items = blocks if whole else count
        sizes = [b1 - b0 for _, ((b0, b1),) in got] if whole else [w1 - w0 for (w0, w1), _ in got]
        assert max(sizes) - min(sizes) <= 1, case   # near-equal
        # a multiple of WORKERS, unless every unit already holds one item
        assert len(got) % workers == 0 or len(got) == items, case


def test_units_split_a_1_mib_cluster_evenly_over_two_workers(monkeypatch):
    monkeypatch.setattr(grs, "WORKERS", 2)
    # c3(6,2,(2,4)) encode: 4096 blocks of 64 planes, n*s = 12 elements each;
    # the budget alone gives 1365 / 1365 / 1365 / 1 blocks
    assert grs.units(4096, 64, 12) == [((0, 64), [(b, b + 1024)]) for b in range(0, 4096, 1024)]
    assert grs.units(4096, 64, 12, 8) == grs.units(4096, 64, 12)
    # c4(6,2,{(1,3),(2,4),(3,3)}) encode: 2048 blocks, n*s = 24, r*k = 8
    assert grs.units(2048, 64, 24, 8) == [((0, 64), [(b, b + 512)]) for b in range(0, 2048, 512)]


def test_encode_working_set_stays_near_the_slice_budget():
    spec = build("c1", 8, 4, [(1, 6), (1, 7)])  # ell = 196,608: a 12 MiB output
    data = random_data(spec, np.random.default_rng(0), blocks=1)
    tracemalloc.start()
    try:
        out = encode_blocks(spec, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # unsliced kernels peaked 37.5 MiB above the output here
    assert peak - out.nbytes <= 8 * grs.SLICE_BUDGET * out.itemsize
    # and an absolute ceiling, the bound above at SLICE_BUDGET = 2^18: with
    # WORKERS units in flight it measured 9.6 MiB at 2^20 on 2 CPUs
    assert peak - out.nbytes <= 16 << 20


@pytest.mark.parametrize("pattern", [(1, 7), (1, 6)])  # pinned and block schemes
def test_plan_keeps_only_its_aggregation_coordinates(pattern):
    spec = build("c1", 8, 4, [(1, 6), (1, 7)])  # ell = 196,608
    helpers = list(range(2, pattern[1] + 2))
    tracemalloc.start()
    try:
        pl = plan(spec, [1], helpers, pattern)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # a (G, d+r) point table per family added 4-5 MiB here
    assert live <= sum(f.agg_tau.nbytes for f in pl.families) + (64 << 10)


@pytest.mark.parametrize("name, failed, helpers, pattern", REPAIRS)
def test_every_slot_of_agg_tau_is_contiguous(name, failed, helpers, pattern):
    pl = plan(build(*SPECS[name]), failed, helpers, pattern)
    for fam in pl.families:
        assert all(fam.agg_tau[:, w].flags.c_contiguous for w in range(fam.width))


@pytest.mark.parametrize("pattern", [(1, 7), (1, 6)])  # pinned and block schemes
def test_helper_aggregate_takes_one_slot_at_a_time(pattern):
    spec = build("c1", 8, 4, [(1, 6), (1, 7)])  # ell = 196,608
    helpers = list(range(2, pattern[1] + 2))
    pl = plan(spec, [1], helpers, pattern)
    column = np.random.default_rng(3).integers(0, spec.field.p, size=spec.ell)
    tracemalloc.start()
    try:
        payload = helper_aggregate(pl, helpers[0], column)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a reduced copy of the column plus a (groups, width) gather added 2.6 MiB here
    one_take = max(f.group_count for f in pl.families) * column.itemsize
    assert peak <= payload.values.nbytes + one_take + (16 << 10)


@pytest.mark.parametrize("pattern", [(1, 7), (1, 6)])  # pinned and block schemes
def test_center_repair_reads_the_payloads_in_place(monkeypatch, pattern):
    spec = build("c1", 8, 4, [(1, 6), (1, 7)])  # ell = 196,608
    helpers = list(range(2, pattern[1] + 2))
    columns = encode_blocks(spec, random_data(spec, np.random.default_rng(7), blocks=4))
    pl = plan(spec, [1], helpers, pattern)
    payloads = [helper_aggregate(pl, j, columns[:, j - 1]) for j in helpers]
    # one unit at a time, each small, so that what remains is what does not
    # scale with the budget: the output, the tables and the payloads
    monkeypatch.setattr(grs, "WORKERS", 1)
    monkeypatch.setattr(grs, "SLICE_BUDGET", 1 << 14)
    tracemalloc.start()
    try:
        restored, _ = center_repair(pl, payloads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(restored[1], columns[:, 0])
    # a (d, B, per_helper) copy of the payloads, 10.5-12 MiB, took the peak
    # 14-14.5 MiB above the output here; without it, 2.5-3.4 MiB
    assert peak - restored[1].nbytes <= sum(pay.values.nbytes for pay in payloads) // 2


# ---------------------------------------------------------------------------
# cluster ops: each peak is a written formula in shard bytes S
# ---------------------------------------------------------------------------

def _traced(fn):
    """fn()'s result and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mib", [1, 4])
def test_cluster_ops_stay_within_their_shard_budgets(monkeypatch, tmp_path, workers, mib):
    monkeypatch.setattr(grs, "WORKERS", workers)
    spec = build("c3", 6, 2, [(2, 4)], min_prime=257)
    n, k, (h, d) = spec.n, spec.k, spec.patterns[0]
    payload = np.random.default_rng(mib).integers(0, 256, mib << 20, dtype=np.uint8).tobytes()
    peaks = {}
    state, peaks["ingest"] = _traced(lambda: storage.ingest(payload, spec, tmp_path))
    S = state.shard_path(1).stat().st_size
    storage.fail_nodes(state, [1, 2])
    _, peaks["run_repair"] = _traced(lambda: storage.run_repair(state, [1, 2], [3, 4, 5, 6], (h, d)))
    _, peaks["extract"] = _traced(lambda: storage.extract(state))
    storage.fail_nodes(state, [1])
    _, peaks["extract, node 1 failed"] = _traced(lambda: storage.extract(state))

    w, b = min(grs.WORKERS, d), h / (d - k + h)  # b = beta / ell
    bounds = {
        # the (B, k, ell) int64 data, the (B, n, ell) codeword, one shard file
        "ingest": (k + n + 1) * S,
        # w helper read buffers and one wave's sums, the d transfer files the
        # center reads, the h restored columns and their h shard files
        "run_repair": w * (1 + b) * S + d * b * S + 2 * h * S,
        # k read buffers, all in one each() call, and the (B, k, ell) payload bytes
        "extract": k * S + k * S / 8,
        # the decoded codeword, a contiguous copy of its k systematic columns,
        # their u8 cast and the payload bytes
        "extract, node 1 failed": (n + k) * S + k * S / 4,
    }
    # kernel units' temporaries (the decode peaks 0.4 MiB over its formula at
    # 1 MiB with two workers) and bookkeeping
    slack = 1 << 20
    for op, bound in bounds.items():
        assert peaks[op] <= bound + slack, (op, peaks[op] / S, bound / S)
