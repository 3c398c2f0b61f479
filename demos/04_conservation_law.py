#!/usr/bin/env python3
"""The generalized conservation law under the gauged Hamiltonian.

H_beta = [p + i beta nu(x)]^2 + V(x) with nu odd and V PT-symmetric conserves

    Q(t) = integral  w(x) psi*(-x,t) psi(x,t) dx,   w = exp[-2 beta int_0^x nu],

not the PT form with w = 1.  Evolving a Gaussian packet under Crank-Nicolson
shows the contrast directly: the gauge-weight Q is flat to integrator
accuracy while the unit-weight Q swings by orders of magnitude.  Using the
plain PT normalization for H_beta is therefore wrong; the gauge weight is
the one the dynamics actually preserves.

Beside each drift stands the largest defect of the per-step continuity law
dP/dt = sum of bond fluxes.  It is the asymmetry of W H: small for the gauge
weight (sech x differs from the exact metric exp(-2 beta F) of the grid
H_beta = G H G^-1 by the O(h^4) error of the grid antiderivative F), large
for the unit weight, and rounding for the Hermitian well.

The demo exits 1 unless the drifts meet acceptance criterion 7: at most
1e-5 under the gauge weight, at least 1e-2 under the unit weight and at
most 1e-8 for the Hermitian well.
"""

import sys

import numpy as np

import etaqm as q
from etaqm import evolve, expr, inner

L, N, T, dt = 16.0, 1600, 5.0, 1e-3
beta = 0.5

g = q.make_grid(L, N)
gauge = q.GaugeSpec(beta, expr.parse("tanh(x)"))
Hb = q.build_hamiltonian(g, q.scarf2_potential(2.0, 1.0), gauge, accuracy=4)
w_gauge = 1.0 / np.cosh(g.points)   # exp[-2 beta ln cosh x] for nu = tanh
w_unit = np.ones(N)

psi = evolve.gaussian_state(g, 0.0, 1.0)


def drift(tr):
    return np.max(np.abs(tr.Q - tr.Q[0])) / abs(tr.Q[0])


print(f"Gaussian packet under H_beta (beta={beta}), T={T}, dt={dt}")
drifts = []
for label, w in (("gauge weight sech x", w_gauge), ("unit (PT) weight", w_unit)):
    psi0, _ = inner.pseudo_normalize(g, w, psi)
    tr = evolve.run(Hb, g, w, psi0, T, dt)
    drifts.append(drift(tr))
    print(f"  {label:22s} max |Q(t)-Q(0)|/|Q(0)| = {drifts[-1]:.3e}, "
          f"max continuity defect {tr.continuity_residual.max():.3e}")

print("\nHermitian baseline (beta=0, real well): unitary Crank-Nicolson")
Hh = q.build_hamiltonian(g, q.CustomPotential(expr.parse("-2*sech(x)^2")))
psi0, _ = inner.pseudo_normalize(g, w_unit, psi)
tr = evolve.run(Hh, g, w_unit, psi0, T, dt)
drifts.append(drift(tr))
print(f"  drift {drifts[-1]:.3e}, "
      f"max continuity defect {tr.continuity_residual.max():.3e}")

gauged, unit, hermitian = drifts
failures = [message for ok, message in (
    (gauged <= 1e-5, f"gauge-weight drift {gauged:.3e} > 1e-5"),
    (unit >= 1e-2, f"unit-weight drift {unit:.3e} < 1e-2"),
    (hermitian <= 1e-8, f"Hermitian-well drift {hermitian:.3e} > 1e-8")) if not ok]
if failures:
    sys.exit("; ".join(failures))
