import numpy as np
import pytest

from msrcodes.errors import ParameterError
from msrcodes.hamming import syndromes


def parity_check_syndromes(N):
    """The reference: syndromes from an explicit GF(2) parity-check matrix
    whose column c is c in binary, read as an integer (LSB first)."""
    w = N.bit_length()
    H = np.array([[(c >> b) & 1 for c in range(1, N + 1)] for b in range(w)])
    Y = np.array([[(y >> i) & 1 for i in range(N)] for y in range(1 << N)])
    return (Y @ H.T % 2) @ (1 << np.arange(w))


def members(syn, i, N):
    """V_i = {y : syn[y] == i} as (y1, ..., yN) tuples."""
    return {tuple(int(y >> b) & 1 for b in range(N)) for y in np.flatnonzero(syn == i)}


def test_w1_degenerate():
    assert syndromes(1).tolist() == [0, 1]  # V_0 = {0}, V_1 = {1}


def test_w2_explicit_sets():
    syn = syndromes(3)
    assert set(np.flatnonzero(syn == 0)) == {0b000, 0b111}
    # written as (y1,y2,y3) tuples, matching the stated sets
    assert members(syn, 0, 3) == {(0, 0, 0), (1, 1, 1)}
    assert members(syn, 1, 3) == {(1, 0, 0), (0, 1, 1)}
    assert members(syn, 2, 3) == {(0, 1, 0), (1, 0, 1)}
    assert members(syn, 3, 3) == {(0, 0, 1), (1, 1, 0)}


def test_w2_sizes():
    assert np.bincount(syndromes(3)).tolist() == [2, 2, 2, 2]  # 2^3 / 4


def test_classify_examples():
    syn = syndromes(3)
    assert syn[0b000] == 0
    assert syn[0b110] == 1  # (0,1,1): flip position 1 of 111
    assert syn[0b101] == 2  # (1,0,1)
    for N in (0, 2, 4, 6, -1):  # not 2^w - 1
        with pytest.raises(ParameterError):
            syndromes(N)


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_partition_exhaustive(w):
    N = (1 << w) - 1
    syn = syndromes(N)
    assert syn.dtype == np.int64 and syn.shape == (1 << N,)
    assert syn.min() == 0 and syn.max() == N  # every y in exactly one V_i, i in [0, N]
    assert np.bincount(syn).tolist() == [(1 << N) // (N + 1)] * (N + 1)


def test_coset_definition_matches_flip_construction():
    # V_i = { y with bit i flipped : y in V_0 }
    for N in (3, 7):
        syn = syndromes(N)
        code = np.flatnonzero(syn == 0)
        for i in range(1, N + 1):
            assert np.array_equal(np.sort(code ^ (1 << (i - 1))), np.flatnonzero(syn == i))


def test_syndromes_match_the_parity_check_matrix():
    for N in (1, 3, 7, 15):
        assert np.array_equal(syndromes(N), parity_check_syndromes(N))
