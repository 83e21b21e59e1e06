"""GRS words on Vandermonde parity checks: encode, erase, decode.

The library's two batched kernels do the decoding: syndrome_rhs moves the
known entries to the right-hand side and solve_vandermonde fills the erased
ones.  Includes a brute-force cross-check over GF(5): enumerate all codewords
and confirm the decoder lands on the unique completion.
"""

import itertools

import numpy as np

from msrcodes.field import PrimeField
from msrcodes.grs import solve_vandermonde, syndrome_rhs


def decode(f, points, words, erased, r):
    """Fill the erased positions of every row of words, all on the same points."""
    pts, words, erased = np.array(points), np.array(words), list(erased)
    known = [i for i in range(len(pts)) if i not in erased]
    # one word, one right-hand side per row of words: points (1, m), values (1, m, rows)
    rhs = syndrome_rhs(f, pts[None, known], words.T[None, known], r)
    words[:, erased] = solve_vandermonde(f, pts[None, erased], rhs[:, :len(erased)])[0].T
    return words


def syndromes(f, points, word, r):
    """The r parity sums of one fully known word."""
    return (-syndrome_rhs(f, np.array([points]), np.array(word)[None, :, None], r) % f.p)[0, :, 0]


## Systematic extension: pick data symbols, solve for the rest
f = PrimeField(11)
word = decode(f, (1, 3, 5, 7), [[1, 0, 0, 0]], (2, 3), r=2)[0]
print("extended word:", word.tolist(), "syndromes:", syndromes(f, (1, 3, 5, 7), word, 2).tolist())

## Erase any two entries and decode them back
damaged = [0, 0, 0, word[3]]  # entries 0 and 2 erased
print("decoded:", decode(f, (1, 3, 5, 7), [damaged], (0, 2), r=2)[0].tolist())

## Brute-force oracle over GF(5)
p, pts, r = 5, (1, 2, 3, 4), 2
f5 = PrimeField(p)
codewords = [c for c in itertools.product(range(p), repeat=4)
             if all(sum(pow(x, t, p) * v for x, v in zip(pts, c)) % p == 0
                    for t in range(r))]
print(f"\nGF(5) code on points {pts} with r={r}: {len(codewords)} codewords")

mismatches = 0
for erased in itertools.combinations(range(4), 2):
    dec = decode(f5, pts, codewords, erased, r)  # reads only the kept entries
    mismatches += int(np.any(dec != codewords, axis=1).sum())
print("decoder vs brute force mismatches:", mismatches)
