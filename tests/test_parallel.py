"""grs.each runs the kernels' slice units on a pool of grs.WORKERS threads.

The outputs must not depend on the worker count or on the schedule, an
exception raised in a unit must reach the caller with its own type, and no
name the perfbench tracer rebinds may run off the main thread (its span
stack and counters are not thread-safe).
"""

import importlib.util
import multiprocessing
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from msrcodes import constructions, grs, repair, storage
from msrcodes.constructions import (build, complete_columns, encode_blocks, random_data,
                                    verify_planes)
from msrcodes.repair import center_repair, helper_aggregate, plan

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = 4

SPECS = {  # name: (family, n, k, patterns)
    "c1": ("c1", 5, 2, [(1, 3), (1, 4)]),
    "c4": ("c4", 6, 2, [(1, 3), (2, 4), (3, 3)]),
    "hadamard": ("hadamard", 8, 4, [(3, 5)]),
}

REPAIRS = [  # (spec name, failed, helpers, pattern)
    ("c1", [4], [1, 2, 3, 5], (1, 4)),         # pinned scheme
    ("c4", [1, 3, 5], [2, 4, 6], (3, 3)),      # three families and the step-2 peel
    ("hadamard", [2, 5, 7], [1, 3, 4, 6, 8], (3, 5)),
]


@pytest.fixture(autouse=True)
def many_units(monkeypatch):
    """A budget small enough that every kernel call here has several units."""
    monkeypatch.setattr(grs, "SLICE_BUDGET", 64)


def _one_and_three(monkeypatch, fn):
    """fn() with one worker, then with three (more than this host's cores
    may be) and a short switch interval, so that units interleave."""
    monkeypatch.setattr(grs, "WORKERS", 1)
    one = fn()
    monkeypatch.setattr(grs, "WORKERS", 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        three = fn()
    finally:
        sys.setswitchinterval(interval)
    return one, three


def _codewords(name, seed):
    spec = build(*SPECS[name])
    return spec, encode_blocks(spec, random_data(spec, np.random.default_rng(seed), blocks=BLOCKS))


def test_workers_are_the_cpus_this_process_may_use():
    if hasattr(os, "sched_getaffinity"):
        assert grs.WORKERS == len(os.sched_getaffinity(0))
    assert grs.WORKERS >= 1


@pytest.mark.parametrize("name", ["c1", "c4"])
def test_complete_columns_is_schedule_independent(monkeypatch, name):
    spec, encoded = _codewords(name, 1)
    data = encoded[:, :spec.k]
    kept = list(range(spec.n - spec.k + 1, spec.n + 1))   # a decode from parity nodes
    for fn in (lambda: encode_blocks(spec, data),
               lambda: complete_columns(spec, kept, encoded[:, [j - 1 for j in kept]])):
        one, three = _one_and_three(monkeypatch, fn)
        assert np.array_equal(one, encoded) and np.array_equal(three, encoded)


@pytest.mark.parametrize("blocks", [None, 2, BLOCKS])  # 1-D; B below and at least WORKERS
@pytest.mark.parametrize("name, failed, helpers, pattern", REPAIRS)
def test_helper_aggregate_is_schedule_independent(monkeypatch, name, failed, helpers, pattern,
                                                  blocks):
    spec, encoded = _codewords(name, 2)
    pl = plan(spec, failed, helpers, pattern)
    column = encoded[0, helpers[0] - 1] if blocks is None else encoded[:blocks, helpers[0] - 1]
    one, three = _one_and_three(monkeypatch, lambda: helper_aggregate(pl, helpers[0], column).values)
    assert one.shape == column.shape[:-1] + (pl.per_helper,)
    assert np.array_equal(one, three)


@pytest.mark.parametrize("name, failed, helpers, pattern", REPAIRS)
def test_repair_columns_is_schedule_independent(monkeypatch, name, failed, helpers, pattern):
    spec, encoded = _codewords(name, 3)
    pl = plan(spec, failed, helpers, pattern)
    payloads = [helper_aggregate(pl, j, encoded[:, j - 1]) for j in helpers]
    one, three = _one_and_three(monkeypatch, lambda: center_repair(pl, payloads)[0])
    for j in failed:
        assert np.array_equal(one[j], encoded[:, j - 1])
        assert np.array_equal(three[j], encoded[:, j - 1])


@pytest.mark.parametrize("name", sorted(SPECS))
def test_verify_planes_is_schedule_independent(monkeypatch, name):
    spec, encoded = _codewords(name, 4)
    bad = encoded.copy()
    bad[0, -1, 0] = (bad[0, -1, 0] + 1) % spec.field.p  # the first plane of the first block
    assert _one_and_three(monkeypatch, lambda: verify_planes(spec, encoded)) == (True, True)
    assert _one_and_three(monkeypatch, lambda: verify_planes(spec, bad)) == (False, False)


def test_each_keeps_unit_order_and_runs_every_unit(monkeypatch):
    monkeypatch.setattr(grs, "WORKERS", 3)
    assert grs.each(lambda a, b: a * b, [(i, 2) for i in range(10)]) == list(range(0, 20, 2))
    assert grs.each(lambda a: a, []) == []


class UnitError(Exception):
    pass


def test_an_exception_in_a_unit_reaches_the_caller_with_its_type(monkeypatch):
    monkeypatch.setattr(grs, "WORKERS", 3)
    done = []

    def unit(i):
        if i == 2:
            raise UnitError(i)
        done.append(i)

    with pytest.raises(UnitError):
        grs.each(unit, [(i,) for i in range(8)])
    assert sorted(done) == [0, 1, 3, 4, 5, 6, 7]   # every other unit finished first


def test_a_kernel_raises_a_unit_exception_with_its_type(monkeypatch):
    monkeypatch.setattr(grs, "WORKERS", 3)
    spec, encoded = _codewords("c1", 5)

    def apply_operator(*args):
        raise UnitError("from a worker")

    monkeypatch.setattr(constructions, "apply_operator", apply_operator)
    with pytest.raises(UnitError):
        encode_blocks(spec, encoded[:, :spec.k])


def _encode_into(conn, spec, data):
    conn.send(encode_blocks(spec, data))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_runs_units_on_its_own_pool(monkeypatch):
    monkeypatch.setattr(grs, "WORKERS", 3)
    spec, encoded = _codewords("c1", 8)   # the parent's pool exists from here on
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_encode_into, args=(sender, spec, encoded[:, :spec.k]))
    child.start()
    try:
        assert receiver.poll(30), "the child's encode never finished"
        assert np.array_equal(receiver.recv(), encoded)
        child.join(10)
        assert not child.is_alive()
    finally:
        if child.is_alive():
            child.kill()
            child.join(10)


def _tracer_bindings():
    path = ROOT / "perfbench" / "bench_trace.py"
    spec = importlib.util.spec_from_file_location("bench_trace_bindings", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _, _ in module.BINDINGS]


def test_no_traced_name_runs_off_the_main_thread(monkeypatch, tmp_path):
    """Every name the tracer rebinds, and the access log, asserts that it runs
    on the main thread, while a cluster ingest, an h=2 repair, a decoding
    extract and an in-memory c1 repair run their units on three workers."""
    monkeypatch.setattr(grs, "WORKERS", 3)
    for mod, attr in _tracer_bindings() + [(storage.AccessLog, "record")]:
        def on_main(*args, _fn=getattr(mod, attr), _name=attr, **kwargs):
            assert threading.current_thread() is threading.main_thread(), _name
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, attr, on_main)
    shard_threads = set()   # threads that ran a shard read or hash
    for attr in ("_read", "_sha256"):
        def seen_shard(*args, _fn=getattr(storage, attr)):
            shard_threads.add(threading.current_thread())
            return _fn(*args)
        monkeypatch.setattr(storage, attr, seen_shard)
    unit_threads = set()   # threads that ran a unit's arithmetic
    for mod, attr in ((constructions, "apply_operator"), (repair, "mod_p")):
        def seen(*args, _fn=getattr(mod, attr)):
            unit_threads.add(threading.current_thread())
            return _fn(*args)
        monkeypatch.setattr(mod, attr, seen)

    payload = np.random.default_rng(6).integers(0, 256, 5000, dtype=np.uint8).tobytes()
    state = storage.ingest(payload, build("c3", 6, 2, [(2, 4)], min_prime=257), tmp_path / "c")
    storage.fail_nodes(state, [1, 2])
    storage.run_repair(state, [1, 2], [3, 4, 5, 6], (2, 4))
    storage.fail_nodes(state, [1])   # extract decodes from nodes 2 and 3
    assert storage.extract(state) == payload

    spec, encoded = _codewords("c1", 7)
    pl = repair.plan(spec, [4], [1, 2, 3, 5], (1, 4))
    restored, _ = repair.center_repair(
        pl, [repair.helper_aggregate(pl, j, encoded[:, j - 1]) for j in pl.helpers])
    assert np.array_equal(restored[4], encoded[:, 3])
    assert any(t is not threading.main_thread() for t in unit_threads)
    assert any(t is not threading.main_thread() for t in shard_threads)
