#!/usr/bin/env python3
"""Complex Scarf II spectrum vs the analytic level formulas.

Builds H = -d^2/dx^2 - (A^2+A+1) sech^2 x + i (2A+1) sech x tanh x on a
Dirichlet box at accuracy 4, keeps the Re < 0 levels that converge between
two grid resolutions (`eigen.bound_levels`), and compares them with the
closed-form energies.  The complexified potential carries one extra level
(-1/4) on top of the -(A-n)^2 series: the level doubling.  Exits 1 when the bound count is not
|series1| + 1.
"""

import sys

import numpy as np

import etaqm as q
from etaqm import eigen

A, L, N, ACCURACY = 2.0, 16.0, 800, 4

levels = q.scarf2_levels(A, 1.0)
print(f"analytic series1 {levels.series1}  series2 {levels.series2}")

bound = eigen.bound_levels(q.scarf2_potential(A, 1.0), L, N, ACCURACY)[1]

print(f"\nconverged bound states at N={N} (movement vs N={N // 2}):")
for v, m in zip(bound.values, bound.movement):
    print(f"  {v.real:+.6f} {v.imag:+.1e}i   moved {m:.2e}")

expected = len(levels.series1) + 1
print(f"\nbound count {len(bound.values)}, |series1| + 1 = {expected}"
      "  <- doubling relative to the real Scarf II well")
for e in levels.all_levels():
    dev = np.min(np.abs(bound.values - e))
    print(f"  level {e:+.4f}: nearest numerical value off by {dev:.2e}")
if len(bound.values) != expected:
    sys.exit(f"bound count {len(bound.values)} != |series1| + 1 = {expected}")
