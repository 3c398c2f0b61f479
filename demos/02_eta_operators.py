#!/usr/bin/env python3
"""Metric operators that intertwine a non-Hermitian H with its adjoint.

The same Hamiltonian admits several eta operators with eta H = H^dag eta:
parity (Hermitian), a first-order differential eta (anti-Hermitian for even
g), and a second-order Hermitian eta that factorizes as -O^dag O.  Residuals
are probe-based: Gaussian bumps well inside the box, so Dirichlet boundary
rows cannot pollute the measurement.
"""

import etaqm as q
from etaqm import expr
from etaqm import operators as ops

L, N = 16.0, 1600
g = q.make_grid(L, N)
probes = ops.gaussian_probes(g)

# --- parity on the PT-symmetric Scarf II potential -------------------------
H = q.build_hamiltonian(g, q.scarf2_potential(2.0, 1.0))
P = q.build_eta(g, q.ParityEta())
print(f"parity residual on PT fixture:        {ops.intertwining_residual(P, H, probes).max():.2e}")

# --- first-order eta = d/dx + 2i sech x on its partner potential ------------
Hf = q.build_hamiltonian(g, q.first_order_potential(d=2.0))
eta1 = q.build_eta(g, q.FirstOrderEta(expr.parse("2*sech(x)")))
herm, anti = ops.hermiticity_indicators(eta1, probes)
print(f"first-order residual:                 {ops.intertwining_residual(eta1, Hf, probes).max():.2e}")
print(f"  (anti-Hermitian: ||eta+eta^dag|| indicator {anti:.1e}, Hermitian defect {herm:.1e})")

# --- strict + weak decomposition: eta = P + eta1 both halves intertwine -----
plus, minus = ops.eta_plus_minus(P + eta1)
print(f"eta+eta^dag residual (strict part):   {ops.intertwining_residual(plus, Hf, probes).max():.2e}")
print(f"eta-eta^dag residual (weak part):     {ops.intertwining_residual(minus, Hf, probes).max():.2e}")

# --- second-order Hermitian eta with its -O^dag O factorization -------------
pot = q.scarf2_potential(2.0, 1.0)
a = expr.parse("-2.5*sech(x)")      # -(1/2) B (2A+1) sech x
eta2 = q.build_eta(g, q.SecondOrderEta(a, delta=0.25, V=pot))
Hs = q.build_hamiltonian(g, pot)
print(f"second-order residual:                {ops.intertwining_residual(eta2, Hs, probes).max():.2e}")
rep = ops.verify_factorization(g, a, 0.0, expr.parse("tanh(x)/2"), eta2, probes)
print(f"factorization with r = tanh(x)/2:     probe {rep.probe_residual:.2e}, "
      f"Riccati defect {rep.riccati_defect:.2e}")
rep_bad = ops.verify_factorization(g, a, 0.0, expr.parse("tanh(x)"), eta2, probes)
print(f"wrong candidate r = tanh(x):          Riccati defect {rep_bad.riccati_defect:.2f}")

# --- the SUSY reading of the first-order family ------------------------------
V, Vp = ops.susy_pair(expr.parse("2*sech(x)"), k=0.0)
print(f"\nimaginary superpotential W = 2i sech x gives V = {expr.to_source(V.V)}")
print("its SUSY partner is the complex conjugate potential")
