import itertools

import numpy as np
import pytest

from msrcodes.errors import ParameterError
from msrcodes.field import PrimeField
from msrcodes.grs import mod_p, solve_vandermonde, syndrome_rhs


def brute_force_codewords(p, points, r):
    """Every word with vanishing parity sums, by exhaustive enumeration."""
    words = []
    for cand in itertools.product(range(p), repeat=len(points)):
        if all(sum(pow(x, t, p) * v for x, v in zip(points, cand)) % p == 0
               for t in range(r)):
            words.append(cand)
    return words


def syndromes(f, points, values, r):
    """The parity sums sum_i x_i^t * v_i, shape (G, r, R): the kernel's rhs negated."""
    return (-syndrome_rhs(f, np.asarray(points), np.asarray(values), r)) % f.p


def decode(f, points, values, erased, r):
    """values (G, L, R) on points (G, L) with the entries at `erased` replaced by
    the kernels' solution from the first len(erased) checks."""
    points, out, erased = np.asarray(points), np.array(values), list(erased)
    kept = [i for i in range(points.shape[1]) if i not in erased]
    rhs = syndrome_rhs(f, points[:, kept], out[:, kept], r)
    out[:, erased] = solve_vandermonde(f, points[:, erased], rhs[:, :len(erased)])
    return out


def test_syndromes_examples():
    f7 = PrimeField(7)
    # one codeword on two point orders (G = 2); the zero word is the second rhs
    pts = np.array([[1, 2, 3, 4], [4, 3, 2, 1]])
    words = np.array([[1, 0, 4, 2], [2, 4, 0, 1]])
    vals = np.stack([words, np.zeros_like(words)], axis=2)
    assert syndromes(f7, pts, vals, 2).tolist() == [[[0, 0], [0, 0]]] * 2
    # sum_i v_i and sum_i x_i * v_i, per word and rhs
    vals = np.array([[[1, 2], [1, 0]], [[1, 1], [0, 1]]])
    assert syndromes(f7, [[1, 2], [3, 5]], vals, 1).tolist() == [[[2, 2]], [[1, 2]]]
    assert syndromes(f7, [[1, 2], [3, 5]], vals, 2).tolist() == [[[2, 2], [3, 2]],
                                                                 [[1, 2], [3, 1]]]


def test_syndromes_match_scalar_sums():
    """The batched syndromes equal the plain sum over x^t * v, up to p = 2^31 - 1."""
    rng = np.random.default_rng(5)
    for p in (7, 257, 2**31 - 1):
        f = PrimeField(p)
        for _ in range(50):
            G, R = (int(v) for v in rng.integers(2, 5, size=2))
            m = int(rng.integers(1, min(p - 1, 6) + 1))
            r = int(rng.integers(0, m + 1))
            points = np.stack([rng.choice(p - 1, size=m, replace=False) + 1 for _ in range(G)])
            values = rng.integers(0, p, size=(G, m, R))
            expect = [[[sum(pow(int(x), t, p) * int(v)
                            for x, v in zip(points[g], values[g, :, c])) % p
                        for c in range(R)] for t in range(r)] for g in range(G)]
            assert syndromes(f, points, values, r).tolist() == expect


EXAMPLES = [(7, (1, 2, 3, 4), (1, 0, 4, 2)), (11, (1, 3, 5, 7), (1, 0, 8, 2))]


def example_batch(points, word):
    """The word on its points and reversed on reversed points (G = 2), with the
    zero word as a second right-hand side (R = 2)."""
    words = np.array([word, word[::-1]])
    return np.array([points, points[::-1]]), np.stack([words, np.zeros_like(words)], axis=2)


def erase(vals, erased, junk):
    """A copy of vals with junk at the erased entries: decode must not read them."""
    damaged = vals.copy()
    damaged[:, list(erased)] = junk
    return damaged


def test_systematic_extend_examples():
    for p, points, word in EXAMPLES:
        f = PrimeField(p)
        pts, vals = example_batch(points, word)
        ext = decode(f, pts, erase(vals, (2, 3), p - 1), (2, 3), 2)
        assert np.array_equal(ext, vals) and not syndromes(f, pts, ext, 2).any()


def test_erasure_decode_examples():
    for p, points, word in EXAMPLES:
        f = PrimeField(p)
        pts, vals = example_batch(points, word)
        for erased in [(), (3,), (0, 1), (0, 2), (1, 3)]:
            assert np.array_equal(decode(f, pts, erase(vals, erased, p - 1), erased, 2),
                                  vals), (p, erased)


def test_solve_vandermonde_rejects_other_shapes():
    f7 = PrimeField(7)
    pts = np.array([[1, 2], [3, 4]])
    for rhs in (np.zeros((2, 2)), np.zeros((2, 3, 1)), np.zeros((3, 2, 1)), np.zeros((2,))):
        with pytest.raises(ParameterError):
            solve_vandermonde(f7, pts, rhs.astype(np.int64))


def test_roundtrip_random():
    rng = np.random.default_rng(42)
    for _ in range(300):
        p = int(rng.choice([7, 11, 13, 17]))
        f = PrimeField(p)
        n = int(rng.integers(3, min(p, 8)))
        r = int(rng.integers(1, n))
        G, R = (int(v) for v in rng.integers(2, 5, size=2))
        points = np.stack([rng.choice(p, size=n, replace=False) for _ in range(G)])
        data = rng.integers(0, p, size=(G, n, R))
        word = decode(f, points, data, range(n - r, n), r)  # systematic extension
        assert not syndromes(f, points, word, r).any()
        e = int(rng.integers(0, r + 1))
        erased = rng.choice(n, size=e, replace=False).tolist()
        damaged = word.copy()
        damaged[:, erased] = rng.integers(0, p, size=(G, e, R))
        assert np.array_equal(decode(f, points, damaged, erased, r), word)


def test_brute_force_oracle_gf5():
    """Every erasure pattern of size <= 2 on every GF(5) codeword decodes to the
    unique brute-force completion: the code on two point orders (G = 2), its 25
    codewords as right-hand sides (R = 25)."""
    p, points, r = 5, (1, 2, 3, 4), 2
    f = PrimeField(p)
    words = brute_force_codewords(p, points, r)
    assert len(words) == 25
    pts = np.array([points, points[::-1]])
    vals = np.stack([np.array(words).T, np.array(words).T[::-1]])  # (2, 4, 25)
    patterns = [()] + [(i,) for i in range(4)] + list(itertools.combinations(range(4), 2))
    for erased in patterns:
        for w in words:
            matches = [c for c in words
                       if all(c[i] == w[i] for i in range(4) if i not in erased)]
            assert len(matches) == 1 and matches[0] == w
        assert np.array_equal(decode(f, pts, erase(vals, erased, 0), erased, r), vals), erased


def test_square_vandermonde_solved_exactly():
    rng = np.random.default_rng(7)
    f = PrimeField(101)
    G, R = 3, 2
    for _ in range(100):
        e = int(rng.integers(1, 7))
        pts = np.stack([rng.choice(101, size=e, replace=False) for _ in range(G)])
        x_true = rng.integers(0, 101, size=(G, e, R))
        rhs = np.zeros((G, e, R), dtype=np.int64)
        for g, t, c in itertools.product(range(G), range(e), range(R)):
            rhs[g, t, c] = sum(pow(int(pts[g, i]), t, 101) * int(x_true[g, i, c])
                               for i in range(e)) % 101
        x = solve_vandermonde(f, pts, rhs)
        assert np.array_equal(x, x_true)


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


@pytest.mark.parametrize("p", [2, 3, 257, 65537, 2**31 - 1])
def test_mod_p_matches_remainder(p):
    rng = np.random.default_rng(p)
    edges = [-2**63, 2**63 - 1, (p - 1)**2, -(p - 1)**2, 0, p - 1, p, -1, -p]
    for acc in (np.array(edges, dtype=np.int64),
                rng.integers(-2**63, 2**63 - 1, size=1000, dtype=np.int64, endpoint=True),
                rng.integers(-(p - 1)**2, (p - 1)**2, size=(7, 50), endpoint=True)):
        want = np.remainder(acc, p)
        got = acc.copy()
        assert mod_p(got, p, np.empty_like(got)) is got
        assert np.array_equal(got, want)
