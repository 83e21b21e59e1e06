"""Prime fields and the plane structure of an MDS array code.

Every symbol of a codeword lives in some plane (a, b); across the n nodes,
each plane is a small Reed-Solomon-style word whose evaluation points depend
on the digits of a.
"""

import numpy as np

from msrcodes.constructions import build, encode, node_points, random_data
from msrcodes.field import PrimeField
from msrcodes.mixedradix import digit_table

## A field is just arithmetic mod a prime
f = PrimeField(17)
print("GF(17):", f"12+9={f.add(12, 9)}", f"12*9={f.mul(12, 9)}",
      f"inv(12)={f.inv(12)}", f"12^5={f.pow(12, 5)}")

## Build a small code: 4 nodes, 2 data nodes, single-failure repair degree 3
spec = build("c1", 4, 2, [(1, 3)])
print(f"\ncode: n={spec.n} k={spec.k} ell={spec.ell} over GF({spec.field.p})")
print("evaluation points lambda[i][j]:", spec.lam)

rng = np.random.default_rng(7)
cw = encode(spec, random_data(spec, rng))

## Check one plane by hand: its n symbols satisfy sum lambda^(t-1) c = 0
pts = node_points(spec, range(1, spec.n + 1), np.arange(spec.s_m**spec.n))
tau = 5
b, a = divmod(tau, spec.s_m**spec.n)
digits = tuple(digit_table(spec.s_m, spec.n)[:, a].tolist())
print(f"\nplane tau={tau} -> (a={a}, b={b}), digits of a: {digits}")
for t in range(spec.r):
    acc = sum(pow(int(pts[j, a]), t, spec.field.p) * int(cw.columns[j, tau])
              for j in range(spec.n)) % spec.field.p
    print(f"  parity check t={t + 1}: {acc}")
