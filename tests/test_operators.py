"""Hamiltonian/eta builders, intertwining residuals, SUSY pairs, factorization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest as shared
import etaqm as q
from etaqm import cli, eigen, expr
from etaqm import operators as ops
from etaqm.errors import DimensionError, OddFunctionError, ParameterError, PoleError


TANH = expr.parse("tanh(x)")


# ---------------------------------------------------------------------------
# build_hamiltonian
# ---------------------------------------------------------------------------

def test_gauged_expansion_matches_symbolic_form():
    # H_beta must act like -(d/dx - beta nu)^2 + V on smooth states
    g = q.make_grid(12.0, 600)
    beta = 0.7
    V = expr.parse("-3*sech(x)^2")
    Hb = q.build_hamiltonian(g, q.CustomPotential(V), q.GaugeSpec(beta, TANH))

    u = expr.parse("exp(-(x/2)^2)")
    bn = expr.mul(expr.const(beta), TANH)
    inner_op = expr.sub(expr.derive(u), expr.mul(bn, u))           # (d/dx - b nu) u
    outer = expr.sub(expr.derive(inner_op), expr.mul(bn, inner_op))  # applied twice
    expected = expr.add(expr.neg(outer), expr.mul(V, u))
    lhs = Hb @ expr.evaluate_on(u, g.points)
    rhs = expr.evaluate_on(expected, g.points)
    assert np.max(np.abs(lhs - rhs)[4:-4]) <= 5.0 * g.h**2


def test_free_particle_box_ground_level():
    g = q.make_grid(8.0, 400)
    H = q.build_hamiltonian(g, q.CustomPotential(expr.parse("0")))
    vals = eigen.eig(H).eigenvalues
    assert vals[0].real == pytest.approx((np.pi / 16) ** 2, rel=1e-4)
    assert abs(vals[0].imag) < 1e-12


def test_special_b1_diagonal_entries():
    g = q.make_grid(6.0, 41)
    H = q.build_hamiltonian(g, ops.ScarfII(*q.scarf2_strengths(2.0, 1.0))).toarray()
    x = g.points
    sech, tanh = 1 / np.cosh(x), np.tanh(x)
    expected = -7.0 * sech**2 + 5j * sech * tanh
    D2 = q.diff_matrix(g, 2, 2).toarray()
    np.testing.assert_allclose(np.diag(H), np.diag(-D2) + expected, atol=1e-13)


def test_sparse_builders_repeat_the_dense_arithmetic():
    # CSR assembly must not change a single entry of H_beta or of eta_2
    g = q.make_grid(10.0, 101)
    x, b = g.points, 0.7
    pot = q.scarf2_potential(2.0, 1.0)
    V = ops.potential_on_grid(g, pot)
    F = ops.gauge_antiderivative(g, TANH)
    a_expr = expr.parse("-2.5*sech(x)")
    a = expr.evaluate_on(a_expr, x).real
    ap = expr.evaluate_on(expr.derive(a_expr), x).real
    for acc in (2, 4):
        D1, D2 = (q.diff_matrix(g, k, acc).toarray() for k in (1, 2))
        Hb = (-D2 + np.diag(V)) * np.exp(b * (F[:, None] - F[None, :]))
        H = q.build_hamiltonian(g, pot, q.GaugeSpec(b, TANH), acc)
        assert H.format == "csr"
        np.testing.assert_array_equal(H.toarray(), Hb)
        eta2 = D2 + (-2j * a)[:, None] * D1 + np.diag(-V + 1j * ap - 2.0 * a * a - 0.25)
        eta = q.build_eta(g, q.SecondOrderEta(a_expr, 0.25, pot), acc)
        np.testing.assert_array_equal(eta.toarray(), eta2)


def test_gauge_requires_odd_real_nu():
    g = q.make_grid(4.0, 32)
    with pytest.raises(OddFunctionError):
        q.build_hamiltonian(g, q.scarf2_potential(1.0, 1.0), q.GaugeSpec(0.5, expr.parse("cosh(x)")))
    with pytest.raises(OddFunctionError):
        q.build_hamiltonian(g, q.scarf2_potential(1.0, 1.0), q.GaugeSpec(0.5, expr.parse("i*x")))


def test_gauged_spectrum_equals_ungauged_spectrum():
    # H_beta = G H G^-1 on the grid itself: the levels agree to rounding at
    # both resolutions (measured: 7e-14)
    targets = (-4.0, -1.0, -0.25)
    for N in (400, 800):
        e0 = shared.eig_values("special-b1", 2.0, 0.0, N)
        eb = shared.eig_values("special-b1", 2.0, 0.0, N, beta=shared.GAUGE_BETA)
        gap = max(abs(e0[np.argmin(np.abs(e0 - t))] - eb[np.argmin(np.abs(eb - t))])
                  for t in targets)
        assert gap <= 1e-10


def test_gauge_conjugation_identity():
    # D^-1 H D = H_beta for D = diag(exp[-beta int_0^x nu]), to rounding
    # (measured: 6.9e-14 at N = 400, 2.6e-13 at N = 800)
    for N in (400, 800):
        g = shared.grid(N)
        H0 = shared.hamiltonian("special-b1", 2.0, 0.0, N)
        Hb = shared.hamiltonian("special-b1", 2.0, 0.0, N, beta=shared.GAUGE_BETA)
        F = ops.gauge_antiderivative(g, TANH)
        D = np.exp(-shared.GAUGE_BETA * F)
        probes = ops.gaussian_probes(g)
        worst = max(
            np.linalg.norm((((H0 * D[None, :]) / D[:, None]) @ w - Hb @ w)[8:-8])
            / np.linalg.norm(Hb @ w)
            for w in probes
        )
        assert worst <= 1e-12


_ODD_NU = {
    "tanh(cx)": lambda c: expr.call("tanh", expr.mul(expr.const(c), expr.var())),
    "x exp(-(cx)^2)": lambda c: expr.mul(expr.var(), expr.call(
        "exp", expr.neg(expr.power(expr.mul(expr.const(c), expr.var()), 2)))),
}

# Over 400 random draws of the test below, the largest entry of the defect
# was 1.9 eps (1 + |beta| max|F|) times its entry of eta H; the bound leaves
# an 8x margin.  The factor holds the rounding of exp(-2 beta F).
_GAUGE_METRIC_TOL = 16 * np.finfo(float).eps


@settings(max_examples=60, deadline=None)
@given(
    beta=st.floats(-3.0, 3.0),
    nu=st.sampled_from(sorted(_ODD_NU)),
    c=st.floats(0.2, 2.0),
    L=st.floats(2.0, 16.0),
    N=st.integers(5, 160),
    accuracy=st.sampled_from([2, 4]),
    V1=st.floats(0.0, 4.0),
    V2=st.floats(-4.0, 4.0),
    real=st.booleans(),
)
def test_the_gauged_h_is_pseudo_hermitian_under_its_metric_entry_by_entry(
        beta, nu, c, L, N, accuracy, V1, V2, real):
    # H_beta^dag (P w) = (P w) H_beta for a PT-symmetric V, and W H_beta =
    # H_beta^dag W for a real one, with w = exp(-2 beta F) from the same F
    g = q.make_grid(L, N)
    nu = _ODD_NU[nu](c)
    pot = ops.ScarfII(V1, 0.0 if real else V2)
    H = q.build_hamiltonian(g, pot, q.GaugeSpec(beta, nu), accuracy)
    eta = q.build_eta(g, q.MultiplicativeEta(beta, nu, pot), accuracy)
    lhs, rhs = (ops.adjoint(H) @ eta).toarray(), (eta @ H).toarray()
    F = ops.gauge_antiderivative(g, nu)
    bound = _GAUGE_METRIC_TOL * (1.0 + abs(beta) * np.abs(F).max()) * np.abs(rhs)
    assert np.all(np.abs(lhs - rhs) <= bound)


def test_a_gauged_level_at_the_wall_converges_at_fourth_order():
    # the level near -0.0191 of A = 1.146 reaches the wall of L = 16; the
    # gauged eigenvectors are G times the ungauged ones, which meet the wall
    # with psi'' = 0.  Errors against the ungauged N = 6400 level (measured:
    # 2.7e-7, 1.7e-8, 1.1e-9; ratios 15.9 and 15.6)
    pot = ops.ScarfII(*q.scarf2_strengths(1.146, 1.0))

    def level(N, gauge):
        H = q.build_hamiltonian(q.make_grid(16.0, N), pot, gauge, 4)
        vals = eigen.eig_below(H, 0.0).eigenvalues
        return vals[np.argmin(np.abs(vals + 0.0191))]

    ref = level(6400, None)
    err = [abs(level(N, q.GaugeSpec(shared.GAUGE_BETA, TANH)) - ref) for N in (400, 800, 1600)]
    assert err[0] / err[1] >= 12
    assert err[1] / err[2] >= 12


# ---------------------------------------------------------------------------
# build_eta
# ---------------------------------------------------------------------------

def test_multiplicative_weight_matches_closed_form():
    # int_0^x tanh = ln cosh, so the beta = 1/2 weight is sech x up to C h^2;
    # for a real V the metric is the weight itself
    well = q.CustomPotential(expr.parse("-2*sech(x)^2"))
    for N in (400, 800):
        g = shared.grid(N)
        w = np.diag(q.build_eta(g, q.MultiplicativeEta(0.5, TANH, well)).toarray()).real
        err = np.max(np.abs(w - 1 / np.cosh(g.points)))
        assert err <= 0.2 * g.h**2



def test_an_overflowing_gauge_weight_raises_naming_beta_and_the_antiderivative():
    # int_0^x tanh = ln cosh reaches 15.14 at the wall of L = 16, so beta = -30
    # asks for exp(908), past the largest float
    g = shared.grid(200)
    with np.errstate(all="raise"):  # no floating-point warning on the way
        with pytest.raises(ParameterError, match=r"beta=-30\.0, max\|int nu\|=15\.14"):
            ops.gauge_weight(g, -30.0, TANH)
        with pytest.raises(ParameterError, match="beta=-30"):
            q.build_eta(g, q.MultiplicativeEta(-30.0, TANH, q.scarf2_potential(2.0, 1.0)))
    assert np.all(np.isfinite(ops.gauge_weight(g, -20.0, TANH)))  # exp(606) is still finite


def test_an_underflowing_gauge_weight_raises_naming_beta_and_the_antiderivative():
    # beta = 30 asks for exp(-908) at the wall, which underflows to 0
    g = shared.grid(200)
    with np.errstate(all="raise"):
        with pytest.raises(ParameterError, match=r"beta=30\.0, max\|int nu\|=15\.14"):
            ops.gauge_weight(g, 30.0, TANH)
        assert np.all(ops.gauge_weight(g, 20.0, TANH) > 0)  # exp(-606) is a normal float

@pytest.mark.parametrize("accuracy", [2, 4])
@pytest.mark.parametrize("potential", [["--family", "special-b1", "--A", "2"],
                                       ["--V=-2*sech(x)^2"]], ids=["special-b1", "real-well"])
def test_the_multiplicative_metric_intertwines_to_rounding(capsys, potential, accuracy):
    # P W for the complex PT-symmetric V, W alone for the real one; both are
    # exactly Hermitian because w is exactly even (measured: 3.0e-16 to
    # 3.7e-16 at N = 1200)
    argv = ["verify-eta", "--eta", "multiplicative", *potential, "--beta", "0.5",
            "--accuracy", str(accuracy), "--N", "1200"]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["residual"] <= 1e-12
    assert out["hermitian_defect"] == 0


def test_parity_squares_to_identity():
    g = q.make_grid(3.0, 24)
    P = q.build_eta(g, q.ParityEta()).toarray()
    np.testing.assert_array_equal(P @ P, np.eye(24))
    assert np.array_equal(P, P.conj().T)


def test_first_order_eta_anti_hermitian_for_even_g():
    g = shared.grid(1600)
    eta = q.build_eta(g, q.FirstOrderEta(expr.parse("2*sech(x)")))
    probes = ops.gaussian_probes(g)
    herm, anti = ops.hermiticity_indicators(eta, probes)
    assert anti <= 1e-10   # ||eta + eta^dag|| indicator
    assert herm > 1e-3     # and it is far from Hermitian


def test_second_order_eta_hermitian_on_probes():
    g = shared.grid(1600)
    pot = q.scarf2_potential(2.0, 1.0)
    eta = q.build_eta(g, q.SecondOrderEta(expr.parse("-2.5*sech(x)"), 0.25, pot))
    probes = ops.gaussian_probes(g)
    herm, anti = ops.hermiticity_indicators(eta, probes)
    assert herm <= 1e-6
    assert anti > 1e-4


def test_identity_eta_is_identity():
    g = q.make_grid(2.0, 11)
    np.testing.assert_array_equal(q.build_eta(g, q.IdentityEta()).toarray(), np.eye(11))


# ---------------------------------------------------------------------------
# intertwining residuals
# ---------------------------------------------------------------------------

def test_hermitian_case_identity_metric():
    g = shared.grid(400)
    H = q.build_hamiltonian(g, q.CustomPotential(expr.parse("-2*sech(x)^2")))
    eta = np.eye(g.N, dtype=complex)
    assert ops.intertwining_residual(eta, H, ops.gaussian_probes(g)).max() <= 1e-12


def test_parity_intertwines_pt_symmetric_hamiltonian():
    g = shared.grid(1600)
    H = shared.hamiltonian("special-b1", 2.0, 0.0, 1600)
    P = q.build_eta(g, q.ParityEta())
    assert ops.intertwining_residual(P, H, ops.gaussian_probes(g)).max() <= 1e-8


def test_first_order_eta_intertwines_its_family():
    residuals = {}
    for N in (1600, 3200):
        g = shared.grid(N)
        H = shared.hamiltonian("first-order", 2.0, 0.0, N)
        eta = q.build_eta(g, q.FirstOrderEta(expr.parse("2*sech(x)")))
        residuals[N] = ops.intertwining_residual(eta, H, ops.gaussian_probes(g)).max()
    assert residuals[1600] <= 1e-6
    # at least stencil-order improvement under refinement
    assert residuals[3200] <= residuals[1600] / 3.0


def test_second_order_eta_intertwines_scarf2():
    g = shared.grid(1600)
    pot = q.scarf2_potential(2.0, 1.0)
    H = shared.hamiltonian("scarf2", 2.0, 1.0, 1600)
    eta = q.build_eta(g, q.SecondOrderEta(expr.parse("-2.5*sech(x)"), 0.25, pot))
    assert ops.intertwining_residual(eta, H, ops.gaussian_probes(g)).max() <= 1e-6


def test_residual_requires_matching_shapes():
    g = q.make_grid(2.0, 16)
    H = q.build_hamiltonian(g, q.CustomPotential(expr.parse("0")))
    with pytest.raises(DimensionError):
        ops.intertwining_residual(np.eye(8, dtype=complex), H, [np.ones(16)])


def test_residuals_agree_for_dense_and_sparse_operands():
    g = q.make_grid(12.0, 300)
    H = q.build_hamiltonian(g, q.first_order_potential(2.0), accuracy=4)
    eta = q.build_eta(g, q.FirstOrderEta(expr.parse("2*sech(x)")), accuracy=4)
    probes = ops.gaussian_probes(g)
    sparse = (ops.intertwining_residual(eta, H, probes).max(),
              *ops.hermiticity_indicators(eta, probes))
    dense = (ops.intertwining_residual(eta.toarray(), H.toarray(), probes).max(),
             *ops.hermiticity_indicators(eta.toarray(), probes))
    np.testing.assert_allclose(sparse, dense, rtol=1e-9, atol=1e-15)


def test_zero_scale_gives_zero_for_zero_defect_and_inf_otherwise():
    g = q.make_grid(8.0, 120)
    probes = ops.gaussian_probes(g)
    minus = ops.eta_plus_minus(q.build_eta(g, q.ParityEta()))[1]  # the zero matrix
    H = q.build_hamiltonian(g, q.scarf2_potential(2.0, 1.0))
    with np.errstate(all="raise"):
        assert ops.intertwining_residual(minus, H, probes).max() == 0.0
        assert ops.hermiticity_indicators(minus, probes) == (0.0, 0.0)
        rep = ops.verify_factorization(g, expr.parse("-2.5*sech(x)"), 0.0,
                                       expr.parse("tanh(x)/2"), minus, probes)
    assert rep.probe_residual == np.inf


def test_an_infinite_eta_entry_gives_nan_defects_not_zero():
    # delta = inf puts -inf on the diagonal: eta - eta^dag holds inf - inf
    g = q.make_grid(8.0, 120)
    pot = q.scarf2_potential(2.0, 1.0)
    with np.errstate(invalid="ignore"):
        eta = q.build_eta(g, q.SecondOrderEta(expr.parse("-2.5*sech(x)"), np.inf, pot))
        herm, anti = ops.hermiticity_indicators(eta, ops.gaussian_probes(g))
    assert np.isnan(herm) and np.isnan(anti)


def _probe_residual_per_vector(defect_apply, scale, probes, margin=ops._PROBE_MARGIN):
    """max over the probes, one vector at a time: the reference for the block form."""
    worst = 0.0
    for w in probes:
        num = np.linalg.norm(defect_apply(w)[margin:-margin])
        if num == 0.0:
            continue
        den = scale * np.linalg.norm(w)
        worst = np.maximum(worst, num / den if den != 0 else np.inf)  # NaN propagates
    return float(worst)


def _verify_eta_per_vector(argv):
    """The verify-eta residual fields, each probe applied as its own vector."""
    args = cli.build_parser().parse_args(argv)
    potential = cli.potential_from_args(args)
    g = q.make_grid(args.L, args.N)
    H = ops.build_hamiltonian(g, potential, cli.gauge_from_args(args), args.accuracy)
    eta = ops.build_eta(g, cli.eta_from_args(args, potential), args.accuracy)
    probes = ops.gaussian_probes(g)
    Hd, ed = H.conj().T, eta.conj().T

    def intertwining(e, ws):
        scale = np.linalg.norm((e @ H).data) / np.sqrt(g.N)
        return _probe_residual_per_vector(lambda w: e @ (H @ w) - Hd @ (e @ w), scale, ws)

    scale = np.linalg.norm(eta.data) / np.sqrt(g.N)
    per_probe = [intertwining(eta, [w]) for w in probes]
    fields = {
        "residual": max(per_probe),
        "residual_per_probe": per_probe,
        "hermitian_defect": _probe_residual_per_vector(lambda w: eta @ w - ed @ w, scale, probes),
        "anti_hermitian_defect": _probe_residual_per_vector(lambda w: eta @ w + ed @ w, scale,
                                                            probes),
        "eta_plus_residual": intertwining(eta + ed, probes),
        "eta_minus_residual": intertwining(eta - ed, probes),
    }
    if args.factor_r:
        rv = expr.evaluate_on(expr.parse(args.factor_r), g.points).real
        av = expr.evaluate_on(expr.parse(args.a), g.points).real
        D1 = q.diff_matrix(g, 1, args.accuracy)
        O, Od = D1 + ops._diag(rv - 1j * av), -D1 + ops._diag(rv + 1j * av)
        fields["factorization"] = _probe_residual_per_vector(
            lambda w: eta @ w + Od @ (O @ w), scale, probes)
    return fields


_VERIFY_FAMILIES = {
    "identity": ["--eta", "identity", "--V=-2.5*sech(x)^2"],
    "parity": ["--eta", "parity", "--family", "special-b1", "--A", "2.3"],
    "multiplicative": ["--eta", "multiplicative", "--family", "special-b1", "--A", "1.7",
                       "--beta", "0.5"],
    "first-order": ["--eta", "first-order", "--g", "2.6*sech(x)", "--family", "first-order",
                    "--d", "2.6", "--accuracy", "4"],
    "second-order": ["--eta", "second-order", "--a=-2.5*sech(x)", "--gamma", "0",
                     "--delta", "0.25", "--factor-r", "tanh(x)/2",
                     "--family", "scarf2", "--A", "2", "--B", "1"],
}


@pytest.mark.parametrize("N", [200, 401, 800])
@pytest.mark.parametrize("family", sorted(_VERIFY_FAMILIES))
def test_verify_eta_block_residuals_match_the_per_vector_loop_bit_for_bit(capsys, family, N):
    argv = ["verify-eta", *_VERIFY_FAMILIES[family], "--L", "16", "--N", str(N)]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    ref = _verify_eta_per_vector(argv)
    if "factorization" in ref:
        assert out.pop("factorization")["probe_residual"] == ref.pop("factorization")
    assert {k: out[k] for k in ref} == ref


class _CountingH:
    """Wraps H and counts the products eta @ H, which scipy hands to __rmatmul__."""

    def __init__(self, H):
        self.H, self.shape, self.eta_products = H, H.shape, 0

    def conj(self):
        return self.H.conj()

    def __matmul__(self, W):
        return self.H @ W

    def __rmatmul__(self, eta):
        self.eta_products += 1
        return eta @ self.H


@pytest.mark.parametrize("family", sorted(_VERIFY_FAMILIES))
def test_verify_eta_forms_each_adjoint_and_eta_h_once_per_check(monkeypatch, capsys, family):
    # one intertwining check each for eta, eta+ and eta-, one hermiticity
    # check and one eta +- eta^dagger split: 5 adjoints and 3 products eta H
    adjoints, hamiltonians = [], []
    adjoint, build = ops.adjoint, ops.build_hamiltonian
    monkeypatch.setattr(ops, "adjoint", lambda M: adjoints.append(1) or adjoint(M))
    monkeypatch.setattr(ops, "build_hamiltonian",
                        lambda *a: hamiltonians.append(_CountingH(build(*a))) or hamiltonians[-1])
    assert cli.main(["verify-eta", *_VERIFY_FAMILIES[family], "--L", "16", "--N", "200"]) == 0
    capsys.readouterr()
    assert len(adjoints) <= 5
    assert [H.eta_products for H in hamiltonians] == [3]


@pytest.mark.parametrize("spec,pt", [
    (q.CustomPotential(expr.parse("-2*sech(x)^2")), True),
    (q.ScarfII(2.0, 3.0), True),  # past the reality boundary, still PT-symmetric
    (q.scarf2_potential(2.0, 1.0), True),
    (q.first_order_potential(2.0, 0.3), True),
    (q.CustomPotential(expr.parse("-2*sech(x)^2 + 0.5*i*sech(x)^2")), False),
    (q.CustomPotential(expr.parse("-2*sech(x)^2 + 0.1*tanh(x)")), False),
])
def test_pt_symmetry_of_potentials(spec, pt):
    for N in (200, 201):
        assert ops.is_pt_symmetric(q.make_grid(16.0, N), spec) is pt


# ---------------------------------------------------------------------------
# eta decomposition
# ---------------------------------------------------------------------------

def test_eta_plus_minus_of_identity():
    plus, minus = ops.eta_plus_minus(np.eye(5, dtype=complex))
    np.testing.assert_array_equal(plus, 2 * np.eye(5))
    np.testing.assert_array_equal(minus, np.zeros((5, 5)))


def test_eta_plus_minus_exact_hermiticity_and_reconstruction():
    rng = np.random.default_rng(11)
    eta = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    plus, minus = ops.eta_plus_minus(eta)
    assert np.max(np.abs(plus - plus.conj().T)) <= 1e-12
    assert np.max(np.abs(minus + minus.conj().T)) <= 1e-12
    np.testing.assert_allclose(plus + minus, 2 * eta, atol=1e-13)


def test_anti_hermitian_input_goes_to_minus_part():
    g = shared.grid(800)
    eta = q.build_eta(g, q.FirstOrderEta(expr.parse("1.5*sech(x)"))).toarray()
    plus, minus = ops.eta_plus_minus(eta)
    assert np.max(np.abs(plus)) <= 1e-12        # eta+ ~ 0
    np.testing.assert_allclose(minus, 2 * eta, atol=1e-12)


def test_parity_plus_first_order_decomposition_both_intertwine():
    # eta = P + (D1 + i g): both eta + eta^dag and eta - eta^dag intertwine
    N = 1600
    g = shared.grid(N)
    H = shared.hamiltonian("first-order", 2.0, 0.0, N)
    eta = q.build_eta(g, q.ParityEta()) + q.build_eta(g, q.FirstOrderEta(expr.parse("2*sech(x)")))
    plus, minus = ops.eta_plus_minus(eta)
    probes = ops.gaussian_probes(g)
    assert ops.intertwining_residual(plus, H, probes).max() <= 1e-6
    assert ops.intertwining_residual(minus, H, probes).max() <= 1e-6


# ---------------------------------------------------------------------------
# SUSY pairs
# ---------------------------------------------------------------------------

def _sample(potential: q.CustomPotential, xs: np.ndarray) -> np.ndarray:
    return expr.evaluate_on(potential.V, xs)


def test_susy_pair_sech_superpotential():
    d, k = 2.0, 0.3
    V, Vp = ops.susy_pair(expr.parse("2*sech(x)"), k)
    xs = np.linspace(-4, 4, 41)
    sech, tanh = 1 / np.cosh(xs), np.tanh(xs)
    expected = -d * d * sech**2 + k + 1j * d * sech * tanh
    np.testing.assert_allclose(_sample(V, xs), expected, atol=1e-12)
    np.testing.assert_allclose(_sample(Vp, xs), np.conj(expected), atol=1e-12)


def test_susy_pair_zero_superpotential():
    V, Vp = ops.susy_pair(expr.parse("0"), 1.7)
    xs = np.linspace(-2, 2, 7)
    np.testing.assert_allclose(_sample(V, xs), 1.7 * np.ones(7), atol=1e-14)
    np.testing.assert_allclose(_sample(Vp, xs), 1.7 * np.ones(7), atol=1e-14)


def test_susy_pair_tanh_superpotential():
    V, Vp = ops.susy_pair(TANH, 1.0)
    xs = np.linspace(-3, 3, 31)
    sech2 = 1 / np.cosh(xs) ** 2
    expected = -np.tanh(xs) ** 2 + 1.0 - 1j * sech2
    np.testing.assert_allclose(_sample(V, xs), expected, atol=1e-12)
    np.testing.assert_allclose(_sample(Vp, xs), np.conj(_sample(V, xs)), atol=1e-12)


def test_susy_partner_potentials_are_exact_conjugates():
    V, Vp = ops.susy_pair(expr.parse("sech(2*x)*tanh(x)"), -0.4)
    xs = np.linspace(-5, 5, 101)
    np.testing.assert_array_equal(_sample(Vp, xs), np.conj(_sample(V, xs)))


# ---------------------------------------------------------------------------
# factorization of the second-order eta
# ---------------------------------------------------------------------------

def test_factorization_sech_profile():
    g = shared.grid(1600)
    pot = q.scarf2_potential(2.0, 1.0)
    a = expr.parse("-2.5*sech(x)")
    eta = q.build_eta(g, q.SecondOrderEta(a, 0.25, pot))
    rep = ops.verify_factorization(g, a, 0.0, expr.parse("tanh(x)/2"), eta)
    assert rep.riccati_defect <= 1e-10
    assert rep.probe_residual <= 1e-6


def test_factorization_constant_profile():
    # constant a: all coefficient derivatives vanish, r = 0 solves exactly
    g = q.make_grid(8.0, 800)
    c = 0.8
    a = expr.const(c)
    V = q.CustomPotential(expr.const(-c * c - 0.25))  # V = -a^2 - delta here
    eta = q.build_eta(g, q.SecondOrderEta(a, 0.25, V))
    rep = ops.verify_factorization(g, a, 0.0, expr.const(0.0), eta)
    assert rep.riccati_defect <= 1e-14
    assert rep.probe_residual <= 1e-4  # D2 vs D1^2 stencil mismatch only


def test_factorization_flags_wrong_candidate():
    g = shared.grid(800)
    pot = q.scarf2_potential(2.0, 1.0)
    a = expr.parse("-2.5*sech(x)")
    eta = q.build_eta(g, q.SecondOrderEta(a, 0.25, pot))
    rep = ops.verify_factorization(g, a, 0.0, TANH, eta)
    assert rep.riccati_defect >= 0.1
    # the defect formula near x = 0 is |3/4 tanh^2 - sech^2/2| ~ 1/2
    x0 = g.points[g.N // 2]
    assert abs(x0) < g.h  # node adjacent to the origin
    s, t = 1 / np.cosh(x0), np.tanh(x0)
    assert abs(0.75 * t * t - 0.5 * s * s) >= 0.1


def test_factorization_pole_error():
    g = q.make_grid(4.0, 33)  # odd N: tanh vanishes at the origin node
    pot = q.scarf2_potential(2.0, 1.0)
    eta = q.build_eta(g, q.SecondOrderEta(TANH, 0.25, pot))
    with pytest.raises(PoleError):
        ops.verify_factorization(g, TANH, 1.0, expr.const(0.0), eta)


# ---------------------------------------------------------------------------
# misc contracts
# ---------------------------------------------------------------------------

def test_adjoint_is_involutive():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    np.testing.assert_array_equal(ops.adjoint(ops.adjoint(M)), M)


def test_probe_centers_restricted_to_inner_half():
    g = q.make_grid(10.0, 64)
    with pytest.raises(q.ParameterError):
        ops.gaussian_probes(g, centers=[9.0])
