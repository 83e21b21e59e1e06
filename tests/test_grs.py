import itertools

import numpy as np
import pytest

from msrcodes.errors import CorruptionError, ParameterError
from msrcodes.field import PrimeField
from msrcodes.grs import (ERASED, GrsWord, erasure_decode, solve_vandermonde,
                          syndromes, systematic_extend)


def brute_force_codewords(p, points, r):
    """Every word with vanishing parity sums, by exhaustive enumeration."""
    words = []
    for cand in itertools.product(range(p), repeat=len(points)):
        if all(sum(pow(x, t, p) * v for x, v in zip(points, cand)) % p == 0
               for t in range(r)):
            words.append(cand)
    return words


def test_syndromes_examples():
    f7 = PrimeField(7)
    w = GrsWord(f7, (1, 2, 3, 4), [1, 0, 4, 2], r=2)
    assert syndromes(w) == [0, 0]
    assert syndromes(GrsWord(f7, (1, 2, 3, 4), [0, 0, 0, 0], r=2)) == [0, 0]
    assert syndromes(GrsWord(f7, (1, 2), [1, 1], r=1)) == [2]


def test_syndromes_match_scalar_sums():
    """The batched syndromes equal the plain sum over x^t * v, up to p = 2^31 - 1."""
    rng = np.random.default_rng(5)
    for p in (7, 257, 2**31 - 1):
        f = PrimeField(p)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            r = int(rng.integers(0, n + 1))
            points = (rng.choice(p - 1, size=n, replace=False) + 1).tolist()
            values = rng.integers(0, p, size=n).tolist()
            expect = [sum(pow(x, t, p) * v for x, v in zip(points, values)) % p
                      for t in range(r)]
            assert syndromes(GrsWord(f, points, values, r)) == expect


def test_syndromes_rejects_erasures():
    f7 = PrimeField(7)
    with pytest.raises(ParameterError):
        syndromes(GrsWord(f7, (1, 2, 3), [1, ERASED, 0], r=1))


def test_systematic_extend_examples():
    f7 = PrimeField(7)
    w = systematic_extend(f7, (1, 2, 3, 4), r=2, data=(1, 0), data_positions=(1, 2))
    assert w.values == [1, 0, 4, 2]
    assert syndromes(w) == [0, 0]

    zero = systematic_extend(f7, (1, 2, 3, 4), r=2, data=(0, 0), data_positions=(1, 2))
    assert zero.values == [0, 0, 0, 0]

    f11 = PrimeField(11)
    w = systematic_extend(f11, (1, 3, 5, 7), r=2, data=(1, 0), data_positions=(1, 2))
    assert w.values == [1, 0, 8, 2]
    assert syndromes(w) == [0, 0]


def test_erasure_decode_examples():
    f7 = PrimeField(7)
    w = erasure_decode(GrsWord(f7, (1, 2, 3, 4), [1, 0, ERASED, ERASED], r=2))
    assert w.values == [1, 0, 4, 2]

    intact = GrsWord(f7, (1, 2, 3, 4), [1, 0, 4, 2], r=2)
    assert erasure_decode(intact).values == [1, 0, 4, 2]

    f11 = PrimeField(11)
    w = erasure_decode(GrsWord(f11, (1, 3, 5, 7), [ERASED, ERASED, 8, 2], r=2))
    assert w.values == [1, 0, 8, 2]


def test_too_many_erasures_rejected():
    f7 = PrimeField(7)
    with pytest.raises(ParameterError):
        GrsWord(f7, (1, 2, 3, 4), [ERASED, ERASED, ERASED, 2], r=2)


def test_duplicate_points_rejected():
    f7 = PrimeField(7)
    with pytest.raises(ParameterError):
        GrsWord(f7, (1, 1, 3), [0, 0, 0], r=1)


def test_corruption_detected_with_spare_checks():
    # one erasure, two checks: flipping a known symbol leaves a residual
    f7 = PrimeField(7)
    good = systematic_extend(f7, (1, 2, 3, 4), r=2, data=(3, 5), data_positions=(1, 2))
    vals = list(good.values)
    vals[0] = (vals[0] + 1) % 7
    vals[3] = ERASED
    with pytest.raises(CorruptionError):
        erasure_decode(GrsWord(f7, (1, 2, 3, 4), vals, r=2))


def test_roundtrip_random():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        p = int(rng.choice([7, 11, 13, 17]))
        f = PrimeField(p)
        n = int(rng.integers(3, min(p, 8)))
        r = int(rng.integers(1, n))
        points = rng.choice(np.arange(p), size=n, replace=False).tolist()
        k = n - r
        data = rng.integers(0, p, size=k).tolist()
        word = systematic_extend(f, points, r, data, list(range(1, k + 1)))
        e = int(rng.integers(0, r + 1))
        erased = rng.choice(np.arange(n), size=e, replace=False).tolist()
        vals = [ERASED if i in erased else v for i, v in enumerate(word.values)]
        dec = erasure_decode(GrsWord(f, points, vals, r))
        assert dec.values == word.values


def test_brute_force_oracle_gf5():
    """Every erasure pattern of size <= 2 on every GF(5) codeword decodes to the
    unique brute-force completion."""
    p, points, r = 5, (1, 2, 3, 4), 2
    f = PrimeField(p)
    words = brute_force_codewords(p, points, r)
    assert len(words) == 25
    patterns = [()] + [(i,) for i in range(4)] + list(itertools.combinations(range(4), 2))
    for w in words:
        for erased in patterns:
            vals = [ERASED if i in erased else w[i] for i in range(4)]
            matches = [c for c in words
                       if all(c[i] == w[i] for i in range(4) if i not in erased)]
            assert len(matches) == 1 and matches[0] == w
            dec = erasure_decode(GrsWord(f, points, vals, r))
            assert tuple(dec.values) == w


def test_square_vandermonde_solved_exactly():
    rng = np.random.default_rng(7)
    f = PrimeField(101)
    for _ in range(100):
        e = int(rng.integers(1, 7))
        pts = rng.choice(np.arange(101), size=e, replace=False)[None, :]
        x_true = rng.integers(0, 101, size=(1, e))
        rhs = np.zeros((1, e), dtype=np.int64)
        for t in range(e):
            rhs[0, t] = sum(pow(int(pts[0, i]), t, 101) * int(x_true[0, i])
                            for i in range(e)) % 101
        x = solve_vandermonde(f, pts, rhs)
        assert np.array_equal(x, x_true % 101)


def test_solve_vandermonde_batched_multi_rhs():
    f = PrimeField(13)
    rng = np.random.default_rng(8)
    G, e, R = 50, 3, 4
    pts = np.stack([rng.choice(np.arange(1, 13), size=e, replace=False)
                    for _ in range(G)])
    x_true = rng.integers(0, 13, size=(G, e, R))
    rhs = np.zeros((G, e, R), dtype=np.int64)
    for t in range(e):
        rhs[:, t, :] = ((pts ** t % 13)[:, :, None] * x_true).sum(axis=1) % 13
    x = solve_vandermonde(f, pts, rhs)
    assert np.array_equal(x, x_true)
