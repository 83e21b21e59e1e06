"""GRS words on Vandermonde parity checks: encode, erase, decode.

Includes a brute-force cross-check over GF(5): enumerate all codewords and
confirm the decoder lands on the unique completion.
"""

import itertools

from msrcodes.field import PrimeField
from msrcodes.grs import ERASED, GrsWord, erasure_decode, syndromes

## Systematic extension: pick data symbols, solve for the rest
f = PrimeField(11)
word = erasure_decode(GrsWord(f, (1, 3, 5, 7), [1, 0, ERASED, ERASED], r=2))
print("extended word:", word.values, "syndromes:", syndromes(word))

## Erase any two entries and decode them back
damaged = GrsWord(f, (1, 3, 5, 7), [ERASED, 0, ERASED, word.values[3]], r=2)
print("decoded:", erasure_decode(damaged).values)

## Brute-force oracle over GF(5)
p, pts, r = 5, (1, 2, 3, 4), 2
f5 = PrimeField(p)
codewords = [c for c in itertools.product(range(p), repeat=4)
             if all(sum(pow(x, t, p) * v for x, v in zip(pts, c)) % p == 0
                    for t in range(r))]
print(f"\nGF(5) code on points {pts} with r={r}: {len(codewords)} codewords")

mismatches = 0
for c in codewords:
    for erased in itertools.combinations(range(4), 2):
        vals = [ERASED if i in erased else c[i] for i in range(4)]
        dec = erasure_decode(GrsWord(f5, pts, vals, r))
        mismatches += tuple(dec.values) != c
print("decoder vs brute force mismatches:", mismatches)
