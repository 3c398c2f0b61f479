#!/usr/bin/env python3
"""Where the real spectrum breaks: sweeping V2 across |V2| = V1 + 1/4.

For V = -V1 sech^2 x - i V2 sech x tanh x all bound eigenvalues stay real
while |V2| <= V1 + 1/4.  Crossing the boundary makes two levels coalesce and
branch into a complex-conjugate pair.  Note that potentials generated from
the (A, B) parameterization can never cross: their margin is a perfect
square.  Exits 1 when some V2 inside the boundary gives a bound level with
|Im| above 1e-6, or when V2 = 3.0 gives no conjugate pair.
"""

import sys

import numpy as np

import etaqm as q
from etaqm import eigen

V1, L, N, IM_TOL = 2.0, 16.0, 800, 1e-6

print(f"V1 = {V1}, reality boundary at |V2| = {V1 + 0.25}")
print(f"{'V2':>5} {'ok?':>4} {'max |Im|':>10} {'real':>5} {'pairs':>6}")
bound, failures = {}, []
for v2 in (0.0, 0.5, 1.0, 1.5, 2.0, 2.25, 2.5, 3.0):
    vals = bound[v2] = eigen.bound_levels(q.ScarfII(V1, v2), L, N)[1].values
    tags, _ = eigen.classify_spectrum(vals, IM_TOL)
    max_im = np.max(np.abs(vals.imag)) if len(vals) else 0.0
    ok = q.reality_condition(V1, v2).ok
    print(f"{v2:5.2f} {str(ok):>4} {max_im:10.2e} {tags.count('real'):5d} "
          f"{tags.count('pair-member') // 2:6d}")
    if ok and max_im > IM_TOL:
        failures.append(f"V2 = {v2} inside the boundary has max |Im| {max_im:.2e}")
    if v2 == 3.0 and tags.count("pair-member") < 2:
        failures.append("V2 = 3.0 gives no conjugate pair")

print("\nconjugate pair at V2 = 3.0:")
for v in bound[3.0]:
    print(f"  {v.real:+.6f} {v.imag:+.6f}i")
print("(exactly at the boundary the coalescing pair is grid-sensitive and is"
      "\n dropped by the two-resolution stability filter: reported, not certified)")
if failures:
    sys.exit("; ".join(failures))
