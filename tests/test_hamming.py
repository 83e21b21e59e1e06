import pytest

from msrcodes.errors import ParameterError
from msrcodes.hamming import build_partition, syndrome_of


def bits(value, n):
    return tuple((value >> i) & 1 for i in range(n))


def test_w1_degenerate():
    part = build_partition(1)
    assert part.N == 1
    assert part.cosets[0] == frozenset({0})
    assert part.cosets[1] == frozenset({1})


def test_w2_explicit_sets():
    # brute-force kernel of the parity check, then flips of each position
    part = build_partition(2)
    assert part.N == 3
    kernel = {y for y in range(8) if syndrome_of(y) == 0}
    assert kernel == {0b000, 0b111}
    assert part.cosets[0] == frozenset(kernel)
    for i in range(1, 4):
        flipped = frozenset(y ^ (1 << (i - 1)) for y in kernel)
        assert part.cosets[i] == flipped
    # written as (y1,y2,y3) tuples, matching the stated sets
    assert part.members(0, as_tuples=True) == {(0, 0, 0), (1, 1, 1)}
    assert part.members(1, as_tuples=True) == {(1, 0, 0), (0, 1, 1)}
    assert part.members(2, as_tuples=True) == {(0, 1, 0), (1, 0, 1)}
    assert part.members(3, as_tuples=True) == {(0, 0, 1), (1, 1, 0)}


def test_w2_sizes():
    part = build_partition(2)
    for i in range(4):
        assert len(part.cosets[i]) == 2  # 2^3 / 4


def test_classify_examples():
    part = build_partition(2)
    assert part.classify((0, 0, 0)) == 0
    assert part.classify((0, 1, 1)) == 1  # flip position 1 of 111
    assert part.classify((1, 0, 1)) == 2
    with pytest.raises(ParameterError):
        part.classify((0, 1))  # wrong length


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_partition_exhaustive(w):
    part = build_partition(w)
    N = part.N
    seen = {}
    for y in range(1 << N):
        owners = [i for i in range(N + 1) if y in part.cosets[i]]
        assert len(owners) == 1
        assert owners[0] == part.classify(y)
        seen[y] = owners[0]
    assert len(seen) == 1 << N
    for i in range(N + 1):
        assert len(part.cosets[i]) == (1 << N) // (N + 1)


def test_coset_definition_matches_flip_construction():
    # V_i = { y with bit i flipped : y in V_0 }
    for w in (2, 3):
        part = build_partition(w)
        for i in range(1, part.N + 1):
            flipped = {y ^ (1 << (i - 1)) for y in part.cosets[0]}
            assert part.cosets[i] == frozenset(flipped)


def test_class_table_matches_classify():
    part = build_partition(3)
    table = part.class_table()
    for y in range(1 << part.N):
        assert table[y] == part.classify(y)


def test_classify_vector_and_int_agree():
    part = build_partition(2)
    for y in range(8):
        assert part.classify(bits(y, 3)) == part.classify(y)
