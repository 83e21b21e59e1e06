"""The binary-digit code and its Hamming-coset repair groups.

With ell = 2^n there is no room for a block coordinate; instead the repair
groups for three simultaneous failures are indexed by the cosets of a
Hamming code on the failed nodes' digit positions.
"""

import numpy as np

from msrcodes.constructions import build, encode, random_data
from msrcodes.hamming import syndromes
from msrcodes.repair import plan, repair_from_codeword

## the coset partition on {0,1}^3 that drives the grouping: V_i = {y : syn[y] == i}
syn = syndromes(3)
print("Ham(2,2) cosets of {0,1}^3 (as y1 y2 y3 strings):")
for i in range(4):
    strs = sorted("".join(str((y >> b) & 1) for b in range(3)) for y in np.flatnonzero(syn == i))
    print(f"  V_{i}: {strs}")

spec = build("hadamard", 8, 4, [(3, 5)])
print(f"\ncode: n=8 k=4, pattern (3,5), ell=2^8={spec.ell}, p={spec.field.p}")

H, R = [2, 5, 8], [1, 3, 4, 6, 7]
pl = plan(spec, H, R, (3, 5))
print(f"failed {H}; digit positions classifying planes: M={pl.extras['M']}")
print(f"groups per failed node: {[f.group_count for f in pl.families]} "
      f"-> per-helper download {pl.per_helper} (= 3*256/4)")

rng = np.random.default_rng(17)
cw = encode(spec, random_data(spec, rng))
restored, t = repair_from_codeword(pl, cw.columns)
ok = all(np.array_equal(restored[j], cw.column(j)) for j in H)
print(f"restored exactly: {ok}; total download {t.total} = bound {pl.gamma}")
