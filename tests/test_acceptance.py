"""Acceptance suite: every headline behavior at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``); an
assertion failure marks the corresponding criterion red.  Heavy spectra are
shared with the module tests through the cached builders in conftest.
"""

import json
import subprocess
import sys
import time
from functools import lru_cache

import numpy as np

import conftest as shared
import etaqm as q
from etaqm import eigen, evolve, expr, inner
from etaqm import operators as ops


def _report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _cli(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "etaqm.cli", *args],
        capture_output=True, text=True, timeout=timeout, env=shared.subprocess_env(),
    )


@lru_cache(maxsize=1)
def _scarf2_reference_run():
    """Timed full-size CLI spectrum run for the B = 1, A = 2 fixture."""
    t0 = time.time()
    r = _cli("spectrum", "--family", "scarf2", "--A", "2", "--B", "1",
             "--L", "16", "--N", "1600")
    elapsed = time.time() - t0
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout), elapsed


def test_criterion_1_scarf2_b1_spectrum():
    out, elapsed = _scarf2_reference_run()
    devs = out["deviation"]
    ok = max(devs) <= 1e-3 and elapsed <= 60.0
    _report("scarf2-B1-spectrum", ok,
            f"deviations {['%.2e' % d for d in devs]} (tol 1e-3), runtime {elapsed:.1f}s (limit 60s)")


def test_criterion_2_level_doubling():
    out, _ = _scarf2_reference_run()
    n_bound = out["bound"]["count"]
    n_series1 = len(out["analytic"]["series1"])
    ok = n_bound == n_series1 + 1 == 3
    _report("level-doubling", ok, f"bound count {n_bound} == |series1| + 1 == {n_series1 + 1}")


def test_criterion_3_first_order_family():
    devs = {}
    for d, N in ((1.0, 1600), (2.5, 1600), (4.0, 3200)):
        analytic = q.first_order_levels(d, 0.0).all_levels()
        b = shared.bound_states("first-order", d, 0.0, N)
        devs[d] = max(float(np.min(np.abs(b.values - e))) for e in analytic)
    rejected = False
    try:
        q.first_order_levels(0.4, 0.0)
    except q.ConstraintError:
        rejected = True
    d25 = shared.bound_states("first-order", 2.5, 0.0, 1600)
    two_levels = len(d25.values) == 2
    ok = max(devs.values()) <= 1e-3 and rejected and two_levels
    _report("first-order-family", ok,
            f"oracle devs {dict((k, '%.2e' % v) for k, v in devs.items())} (tol 1e-3), "
            f"d=0.4 rejected {rejected}, d=2.5 level count ok {two_levels}")


def test_criterion_4_reality_boundary():
    max_im_inside = 0.0
    for v2 in np.arange(0.0, 2.25 + 1e-9, 0.25):
        b = shared.bound_states("scarf2-raw", 2.0, float(v2), 800)
        if len(b.values):
            max_im_inside = max(max_im_inside, float(np.max(np.abs(b.values.imag))))
    b3 = shared.bound_states("scarf2-raw", 2.0, 3.0, 800)
    tags, _ = eigen.classify_spectrum(b3.values, 1e-6)
    pair_found = tags.count("pair-member") >= 2
    beyond_im = float(np.max(np.abs(b3.values.imag))) if len(b3.values) else 0.0
    ok = max_im_inside <= 1e-6 and pair_found and beyond_im >= 1e-3
    _report("reality-boundary", ok,
            f"max |Im| over V2 in [0, 2.25]: {max_im_inside:.2e} (tol 1e-6); "
            f"V2=3.0 pair found {pair_found} with |Im| {beyond_im:.3f} (measured, >= 1e-3)")


def test_criterion_5_intertwining_residuals():
    g = shared.grid(1600)
    probes = ops.gaussian_probes(g)

    P = q.build_eta(g, q.ParityEta())
    r_parity = ops.intertwining_residual(
        P, shared.hamiltonian("special-b1", 2.0, 0.0, 1600), probes).max()

    eta1 = q.build_eta(g, q.FirstOrderEta(expr.parse("2*sech(x)")))
    r_first = ops.intertwining_residual(
        eta1, shared.hamiltonian("first-order", 2.0, 0.0, 1600), probes).max()
    g2 = shared.grid(3200)
    eta1_2 = q.build_eta(g2, q.FirstOrderEta(expr.parse("2*sech(x)")))
    r_first_2 = ops.intertwining_residual(
        eta1_2, shared.hamiltonian("first-order", 2.0, 0.0, 3200), ops.gaussian_probes(g2)).max()

    pot = q.scarf2_potential(2.0, 1.0)
    a = expr.parse("-2.5*sech(x)")
    eta2 = q.build_eta(g, q.SecondOrderEta(a, 0.25, pot))
    r_second = ops.intertwining_residual(
        eta2, shared.hamiltonian("scarf2", 2.0, 1.0, 1600), probes).max()
    fact = ops.verify_factorization(g, a, 0.0, expr.parse("tanh(x)/2"), eta2, probes)

    reduction = r_first / max(r_first_2, 1e-300)
    ok = (r_parity <= 1e-8 and r_first <= 1e-6 and reduction >= 3.0
          and r_second <= 1e-6 and fact.riccati_defect <= 1e-10)
    _report("intertwining-residuals", ok,
            f"parity {r_parity:.2e} (1e-8), first-order {r_first:.2e} (1e-6) "
            f"shrinking {reduction:.0f}x at 2N (>= 4x expected), "
            f"second-order {r_second:.2e} (1e-6), factorization defect "
            f"{fact.riccati_defect:.2e} (1e-10)")


def test_criterion_6_eta_plus_minus_complementarity():
    g = shared.grid(1600)
    H = shared.hamiltonian("first-order", 2.0, 0.0, 1600)
    eta = q.build_eta(g, q.ParityEta()) + q.build_eta(g, q.FirstOrderEta(expr.parse("2*sech(x)")))
    plus, minus = ops.eta_plus_minus(eta)
    probes = ops.gaussian_probes(g)
    r_plus = ops.intertwining_residual(plus, H, probes).max()
    r_minus = ops.intertwining_residual(minus, H, probes).max()
    ok = r_plus <= 1e-6 and r_minus <= 1e-6
    _report("eta-plus-minus", ok,
            f"strict part {r_plus:.2e}, weak part {r_minus:.2e} (both vs 1e-6)")


def test_criterion_7_conservation_law():
    N = 1600
    g = shared.grid(N)
    Hb = shared.hamiltonian("special-b1", 2.0, 0.0, N, beta=shared.GAUGE_BETA, accuracy=4)
    w = shared.exact_gauge_weight(N)

    u0 = shared.bound_vectors("special-b1", 2.0, 0.0, N, (-4.0,),
                              beta=shared.GAUGE_BETA, accuracy=4)[0]
    u0, _ = inner.pseudo_normalize(g, w, u0)
    tr_ground = evolve.run(Hb, g, w, u0, 5.0, 1e-3)
    drift_ground = float(np.max(np.abs(tr_ground.Q - tr_ground.Q[0])) / abs(tr_ground.Q[0]))

    psi = evolve.gaussian_state(g, 0.0, 1.0)
    psi_g, _ = inner.pseudo_normalize(g, w, psi)
    tr_mix = evolve.run(Hb, g, w, psi_g, 5.0, 1e-3)
    drift_mix = float(np.max(np.abs(tr_mix.Q - tr_mix.Q[0])) / abs(tr_mix.Q[0]))

    Hh = q.build_hamiltonian(g, q.CustomPotential(expr.parse("-2*sech(x)^2")))
    ones = np.ones(N)
    psi_h, _ = inner.pseudo_normalize(g, ones, psi)
    tr_h = evolve.run(Hh, g, ones, psi_h, 5.0, 1e-3)
    drift_h = float(np.max(np.abs(tr_h.Q - tr_h.Q[0])) / abs(tr_h.Q[0]))

    psi_1, _ = inner.pseudo_normalize(g, ones, psi)
    tr_bad = evolve.run(Hb, g, ones, psi_1, 5.0, 1e-3)
    drift_bad = float(np.max(np.abs(tr_bad.Q - tr_bad.Q[0])) / abs(tr_bad.Q[0]))

    # the per-step flux law: rounding for the Hermitian well, order one for
    # the unit weight, whose W H is not symmetric
    defect_ground, defect_mix, defect_h, defect_bad = (
        float(tr.continuity_residual.max()) for tr in (tr_ground, tr_mix, tr_h, tr_bad))

    ok = (drift_ground <= 1e-5 and drift_mix <= 1e-5
          and drift_h <= 1e-8 and drift_bad >= 1e-2
          and defect_h <= 1e-10 and defect_bad >= 1e-2)
    _report("conservation-law", ok,
            f"gauge weight: ground {drift_ground:.2e}, packet {drift_mix:.2e} (tol 1e-5), "
            f"defect {defect_ground:.2e} and {defect_mix:.2e} (reported); "
            f"hermitian baseline {drift_h:.2e} (tol 1e-8), defect {defect_h:.2e} (tol 1e-10); "
            f"mismatched unit weight {drift_bad:.2e} (must exceed 1e-2), "
            f"defect {defect_bad:.2e} (must exceed 1e-2)")


def test_criterion_8_eta_orthogonality_contrast():
    N = 1600
    g = shared.grid(N)
    vecs = shared.bound_vectors("special-b1", 2.0, 0.0, N, (-4.0, -1.0, -0.25),
                                beta=shared.GAUGE_BETA, accuracy=4)
    G = inner.gram(g, shared.exact_gauge_weight(N), vecs)
    off = float(np.max(np.abs(G - np.diag(np.diag(G)))))
    Gpt = inner.gram(g, np.ones(N), vecs)
    offpt = float(np.max(np.abs(Gpt - np.diag(np.diag(Gpt)))))
    ok = off <= 1e-6 and offpt >= 1e-2
    _report("eta-orthogonality", ok,
            f"gauge-weight Gram offdiag {off:.2e} (tol 1e-6); "
            f"PT-weight offdiag {offpt:.2f} (order one, reported)")


def test_criterion_9_gauge_identity():
    g = shared.grid(1600)
    F = ops.gauge_antiderivative(g, expr.parse("tanh(x)"))
    beta = shared.GAUGE_BETA
    rng = np.random.default_rng(123)
    rel = 0.0
    for _ in range(5):
        u1 = rng.normal(size=g.N) + 1j * rng.normal(size=g.N)
        u2 = rng.normal(size=g.N) + 1j * rng.normal(size=g.N)
        lhs = inner.weighted_inner(g, np.exp(-2 * beta * F), u1, u2)
        gf = np.exp(-beta * F)
        rhs = inner.weighted_inner(g, np.ones(g.N), gf * u1, gf * u2)
        rel = max(rel, abs(lhs - rhs) / abs(lhs))
    ok = rel <= 1e-12
    _report("gauge-identity", ok, f"relative defect {rel:.2e} (tol 1e-12)")


def test_criterion_10_property_suites():
    # parser derivative vs centered differences
    rng = np.random.default_rng(9)
    d_ok = True
    for src in ("sech(x)^2", "ln(cosh(x))", "exp(i*x)*tanh(x)"):
        e = expr.parse(src)
        de = expr.derive(e)
        for x in rng.uniform(-5, 5, size=100):
            sym = expr.evaluate(de, x)
            fd = (expr.evaluate(e, x + 1e-5) - expr.evaluate(e, x - 1e-5)) / 2e-5
            d_ok = d_ok and abs(sym - fd) <= 1e-6 * (1 + abs(sym))

    # difference-matrix convergence orders
    ratios = {}
    for acc in (2, 4):
        errs = []
        for N in (400, 800):
            gg = q.make_grid(8.0, N)
            x = gg.points
            f = np.exp(-x * x)
            D2 = q.diff_matrix(gg, 2, acc)
            errs.append(np.max(np.abs((D2 @ f).real - (4 * x * x - 2) * f)[4:-4]))
        ratios[acc] = errs[0] / errs[1]
    conv_ok = 3.0 <= ratios[2] <= 5.0 and 10.0 <= ratios[4] <= 22.0

    # trace equals eigenvalue sum
    M = shared.hamiltonian("scarf2", 2.0, 1.0, 800).toarray()
    vals = shared.eig_values("scarf2", 2.0, 1.0, 800)
    trace_ok = abs(vals.sum() - np.trace(M)) <= 1e-8 * abs(np.trace(M))

    # byte-identical CLI output across reruns and --jobs
    args = ("sweep", "--axis", "V2", "--start", "0", "--stop", "1.0", "--step", "0.5",
            "--V1", "2", "--L", "10", "--N", "160")
    a, b = _cli(*args), _cli(*args, "--jobs", "2")
    s1, s2 = _cli("spectrum", "--V", "0", "--L", "8", "--N", "200"), \
        _cli("spectrum", "--V", "0", "--L", "8", "--N", "200")
    det_ok = (a.returncode == b.returncode == 0 and a.stdout == b.stdout
              and s1.stdout == s2.stdout)

    ok = d_ok and conv_ok and trace_ok and det_ok
    _report("property-suites", ok,
            f"derivative-vs-FD {d_ok}, stencil order ratios {ratios[2]:.1f}x/{ratios[4]:.1f}x, "
            f"trace-vs-sum {trace_ok}, deterministic CLI {det_ok}")
