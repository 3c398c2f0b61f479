#!/usr/bin/env python3
"""Where the real spectrum breaks: sweeping V2 across |V2| = V1 + 1/4.

For V = -V1 sech^2 x - i V2 sech x tanh x all bound eigenvalues stay real
while |V2| <= V1 + 1/4.  Crossing the boundary makes two levels coalesce and
branch into a complex-conjugate pair.  Note that potentials generated from
the (A, B) parameterization can never cross: their margin is a perfect
square.
"""

import numpy as np

import etaqm as q
from etaqm import eigen

V1, L, N = 2.0, 16.0, 800


def bound(v2):
    pot = q.ScarfII(V1, v2)
    coarse = eigen.eig(q.build_hamiltonian(q.make_grid(L, N // 2), pot)).eigenvalues
    fine = eigen.eig(q.build_hamiltonian(q.make_grid(L, N), pot)).eigenvalues
    return eigen.converged_bound_states(coarse, fine).values


print(f"V1 = {V1}, reality boundary at |V2| = {V1 + 0.25}")
print(f"{'V2':>5} {'ok?':>4} {'max |Im|':>10} {'real':>5} {'pairs':>6}")
for v2 in (0.0, 0.5, 1.0, 1.5, 2.0, 2.25, 2.5, 3.0):
    vals = bound(v2)
    tags, _ = eigen.classify_spectrum(vals, 1e-6)
    max_im = np.max(np.abs(vals.imag)) if len(vals) else 0.0
    ok = q.reality_condition(V1, v2).ok
    print(f"{v2:5.2f} {str(ok):>4} {max_im:10.2e} {tags.count('real'):5d} "
          f"{tags.count('pair-member') // 2:6d}")

print("\nconjugate pair at V2 = 3.0:")
for v in bound(3.0):
    print(f"  {v.real:+.6f} {v.imag:+.6f}i")
print("(exactly at the boundary the coalescing pair is grid-sensitive and is"
      "\n dropped by the two-resolution stability filter: reported, not certified)")
