"""Crank-Nicolson stepping, conservation law, continuity diagnostics."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest as shared
import etaqm as q
from etaqm import evolve, expr, inner, operators
from etaqm.errors import DimensionError, NanAbortError, ParameterError, SingularSystemError


def test_hermitian_step_preserves_norm():
    g = q.make_grid(8.0, 200)
    H = q.build_hamiltonian(g, q.CustomPotential(expr.parse("-2*sech(x)^2")))
    psi = evolve.gaussian_state(g, 0.5, 0.8, 1.0)
    out = evolve._CrankNicolson(H, 1e-3).step(psi)
    assert abs(np.linalg.norm(out) - np.linalg.norm(psi)) <= 1e-12 * np.linalg.norm(psi)


def test_diagonal_hamiltonian_gives_cayley_phase():
    E = 2.0
    dt = 1e-2
    H = np.diag([E, -1.0]).astype(complex)
    psi = np.array([1.0, 0.0], dtype=complex)
    out = evolve._CrankNicolson(H, dt).step(psi)
    expected = (1 - 1j * dt * E / 2) / (1 + 1j * dt * E / 2)
    assert out[0] == pytest.approx(expected, rel=1e-14)
    assert out[1] == 0


# Over 20,000 random draws of the test below, the largest difference was
# 6.4 eps kappa(A) (1 + ||zH||_2) max|psi|; the bound leaves a 10x margin.
_CAYLEY_TOL = 64 * np.finfo(float).eps


@settings(max_examples=200, deadline=None)
@given(
    N=st.integers(3, 64),
    bandwidth=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-2.0, 4.0),
    log_dt=st.floats(-4.0, 0.0),
    sign=st.sampled_from([1.0, -1.0]),
    columns=st.sampled_from([None, 2]),
)
def test_cayley_step_matches_the_b_form_solve(N, bandwidth, seed, log_scale, log_dt, sign,
                                              columns):
    # the step 2 A^-1 psi - psi against solve(I + zH, (I - zH) psi), z = i dt/2
    rng = np.random.default_rng(seed)
    offsets = [o for o in range(-bandwidth, bandwidth + 1) if abs(o) < N]
    bands = [rng.normal(size=N - abs(o)) + 1j * rng.normal(size=N - abs(o)) for o in offsets]
    H = sp.diags(bands, offsets, format="csr") * 10.0**log_scale
    shape = (N,) if columns is None else (N, columns)
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    dt = sign * 10.0**log_dt
    zH = 0.5j * dt * H.toarray()
    eye = np.eye(N)
    kappa = np.linalg.cond(eye + zH)
    out = evolve._CrankNicolson(H, dt).step(psi)
    ref = scipy.linalg.solve(eye + zH, (eye - zH) @ psi)
    assert out.shape == psi.shape
    bound = _CAYLEY_TOL * kappa * (1 + np.linalg.norm(zH, 2)) * np.max(np.abs(psi))
    assert np.max(np.abs(out - ref)) <= bound



@pytest.mark.parametrize("N, bandwidth", [(60, 2), (50, 49)])
def test_banded_step_matches_a_dense_solve_when_superlu_pivots(N, bandwidth):
    # |dt H| >> 1 on random complex bands: SuperLU swaps rows, and in the
    # banded case the swaps widen L past the band of A; (50, 49) is dense
    rng = np.random.default_rng(3)
    offsets = range(-bandwidth, bandwidth + 1)
    H = sp.diags([rng.normal(size=N - abs(o)) + 1j * rng.normal(size=N - abs(o)) for o in offsets],
                 offsets, format="csr") * 1e4
    dt = 0.1
    prop = evolve._CrankNicolson(H, dt)
    assert not np.array_equal(prop.gather, np.arange(N))
    if bandwidth < N - 1:
        assert prop.kl > bandwidth
    psi = rng.normal(size=(N, 2)) + 1j * rng.normal(size=(N, 2))
    zH = 0.5j * dt * H.toarray()
    eye = np.eye(N)
    ref = scipy.linalg.solve(eye + zH, (eye - zH) @ psi)
    bound = (_CAYLEY_TOL * np.linalg.cond(eye + zH) * (1 + np.linalg.norm(zH, 2))
             * np.max(np.abs(psi)))
    out = prop.step(psi)
    assert np.max(np.abs(out - ref)) <= bound
    assert np.array_equal(prop.step(psi[:, 1]), out[:, 1])  # columns are solved one by one

def test_phase_error_is_second_order_in_dt():
    E = 2.0
    H = np.diag([E]).astype(complex)
    errs = []
    for dt in (1e-2, 5e-3):
        prop = evolve._CrankNicolson(H, dt)
        psi = np.array([1.0 + 0j])
        for _ in range(int(round(1.0 / dt))):
            psi = prop.step(psi)
        errs.append(abs(np.angle(psi[0]) + E * 1.0))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_singular_implicit_system_detected():
    dt = 1e-2
    H = (2j / dt) * np.eye(3)  # makes I + i dt/2 H exactly zero
    psi = np.ones(3, dtype=complex)
    with pytest.raises(SingularSystemError):
        evolve.run(H, q.make_grid(1.0, 3), np.ones(3), psi, psi, dt, dt)


def test_phi_reduction_matches_forward_field():
    # stepping phi = conj(psi2(-x)) at -dt equals flipping the forward psi2
    g = q.make_grid(12.0, 300)
    Hb = q.build_hamiltonian(g, q.scarf2_potential(2.0, 1.0), q.GaugeSpec(0.5, expr.parse("tanh(x)")))
    forward, backward = evolve._CrankNicolson(Hb, 1e-3), evolve._CrankNicolson(Hb, -1e-3)
    psi2 = evolve.gaussian_state(g, 1.0, 1.2, 0.5)
    phi = np.conj(psi2[::-1])
    for _ in range(40):
        psi2 = forward.step(psi2)
        phi = backward.step(phi)
    agree = np.linalg.norm(phi - np.conj(psi2[::-1])) / np.linalg.norm(phi)
    assert agree <= 1e-12


def test_run_propagates_psi2_forward_for_non_pt_hamiltonian():
    # V = -2 sech^2 x + 0.5 i sech^2 x is not PT-symmetric, so phi may not be
    # stepped at -dt; run must agree with psi2 propagated forward directly
    g = q.make_grid(16.0, 200)
    H = q.build_hamiltonian(g, q.CustomPotential(expr.parse("-2*sech(x)^2 + 0.5*i*sech(x)^2")))
    w = np.ones(g.N)
    psi, _ = inner.pseudo_normalize(g, w, evolve.gaussian_state(g, 0.0, 1.0))
    tr = evolve.run(H, g, w, psi, psi, 1.0, 1e-3)
    prop = evolve._CrankNicolson(H, 1e-3)
    psi2 = psi
    for _ in range(1000):
        psi2 = prop.step(psi2)
    Q_direct = g.h * np.sum(w * np.conj(psi2[::-1]) * psi2)
    assert tr.Q[-1] == pytest.approx(Q_direct, rel=1e-10)
    np.testing.assert_allclose(tr.final_states[1], psi2, rtol=0, atol=1e-10 * np.abs(psi2).max())


def _reference_run(H, grid, w, psi1, psi2, T, dt):
    """Q and the per-step defect from B-form steps, A psi' = B psi, and the
    flux law in dense form: dP/dt - i [(S mphi) mpsi - mphi (S mpsi)] with
    S = (W H + (W H)^T)/2 and mpsi, mphi the step midpoints."""
    Hd = H.toarray()
    eye = np.eye(grid.N)
    lu = scipy.linalg.lu_factor(eye + 0.5j * dt * Hd)
    B = eye - 0.5j * dt * Hd
    WH = w[:, None] * Hd
    S = 0.5 * (WH + WH.T)
    steps = round(T / dt)
    Q, defect = np.empty(steps + 1, dtype=complex), np.zeros(steps + 1)
    for k in range(steps + 1):
        phi = np.conj(psi2[::-1])
        P = w * phi * psi1
        Q[k] = grid.h * P.sum()
        if k:
            mpsi, mphi = 0.5 * (old1 + psi1), 0.5 * (old_phi + phi)
            law = (P - old_P) / dt - 1j * ((S @ mphi) * mpsi - mphi * (S @ mpsi))
            defect[k] = np.abs(law).max()
        old1, old_phi, old_P = psi1, phi, P
        if k < steps:
            psi1 = scipy.linalg.lu_solve(lu, B @ psi1)
            psi2 = scipy.linalg.lu_solve(lu, B @ psi2)
    return Q, defect


# Measured on this grid over eight packets (the one below and seven drawn
# with x0 in [-2, 2], sigma in [0.5, 1.5], k in [-2, 2]): Q within 1.4e-12 of
# the reference, every defect within 2.7e-10 (gauged) and 9.2e-14 (non-PT)
# of the largest; the bounds leave a 10x margin.
_REFERENCE_DEFECT_TOL = {"gauged-accuracy-4": 3e-9, "non-pt": 1e-12}


@pytest.mark.parametrize("case", ["gauged-accuracy-4", "non-pt"])
def test_run_matches_the_b_form_reference(case):
    g = q.make_grid(8.0, 128)
    if case == "gauged-accuracy-4":
        gauge = q.GaugeSpec(shared.GAUGE_BETA, expr.parse("tanh(x)"))
        H = q.build_hamiltonian(g, q.scarf2_potential(2.0, 1.0), gauge, 4)
        w = operators.gauge_weight(g, gauge.beta, gauge.nu)
    else:
        H = q.build_hamiltonian(g, q.CustomPotential(expr.parse("-2*sech(x)^2 + 0.5*i*sech(x)^2")))
        w = np.ones(g.N)
    psi, _ = inner.pseudo_normalize(g, w, evolve.gaussian_state(g, 0.7, 0.8, 1.0))
    tr = evolve.run(H, g, w, psi, psi, 2.0, 1e-2)
    Q, defect = _reference_run(H, g, w, psi, psi, 2.0, 1e-2)
    assert tr.continuity_residual[0] == defect[0] == 0
    np.testing.assert_allclose(tr.Q, Q, rtol=0, atol=1e-11 * np.max(np.abs(Q)))
    np.testing.assert_allclose(tr.continuity_residual, defect, rtol=0,
                               atol=_REFERENCE_DEFECT_TOL[case] * defect.max())


# Over 20,000 random draws of the test below, the largest defect was
# 7.3 eps max(w) M^2 (1 + ||dt H / 2||_2) / dt, with M the largest field
# entry along the trace; the bound leaves a 10x margin.
_FLUX_TOL = 80 * np.finfo(float).eps


@settings(max_examples=200, deadline=None)
@given(
    N=st.integers(3, 64),
    width=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-2.0, 4.0),
    log_dt=st.floats(-4.0, 0.0),
    log_w=st.floats(0.0, 3.0),
    same=st.booleans(),
)
def test_flux_law_is_exact_when_the_weight_symmetrizes_h(N, width, seed, log_scale, log_dt,
                                                         log_w, same):
    # H = W^-1 S with S complex symmetric and PT-symmetric: real bands that
    # are mirror images of themselves and a diagonal with d(-x) = conj d(x)
    rng = np.random.default_rng(seed)
    offsets = [o for o in range(1, width + 1) if o < N]
    bands = [rng.normal(size=N - o) * 10.0**log_scale for o in offsets]
    bands = [0.5 * (b + b[::-1]) for b in bands]
    d = (rng.normal(size=N) + 1j * rng.normal(size=N)) * 10.0**log_scale
    d = 0.5 * (d + np.conj(d[::-1]))
    lw = rng.uniform(-log_w, log_w, size=N)
    w = np.exp(0.5 * (lw + lw[::-1]))
    H = sp.diags([d, *(b / w[:-o] for o, b in zip(offsets, bands)),
                  *(b / w[o:] for o, b in zip(offsets, bands))],
                 [0, *offsets, *(-o for o in offsets)], format="csr")
    psi1 = rng.normal(size=N) + 1j * rng.normal(size=N)
    psi2 = psi1.copy() if same else rng.normal(size=N) + 1j * rng.normal(size=N)
    dt, steps = 10.0**log_dt, 3
    tr = evolve.run(H, q.make_grid(1.0, N), w, psi1, psi2, steps * dt, dt)
    prop = evolve._CrankNicolson(H, dt)
    psi = np.column_stack([psi1, psi2])
    M = np.abs(psi).max()
    for _ in range(steps):
        psi = prop.step(psi)
        M = max(M, np.abs(psi).max())
    zH = np.linalg.norm(0.5 * dt * H.toarray(), 2)
    assert tr.continuity_residual[0] == 0
    assert tr.continuity_residual.max() <= _FLUX_TOL * w.max() * M**2 * (1 + zH) / dt


def _per_step_run(H, grid, w, psi1_0, psi2_0, T, dt, two_columns=False):
    """The record of evolve.run taken one step at a time, as it was before
    blocks: Q, the per-step defect and both final states, with the same
    NanAbortError guard.  psi1 and psi2 step as one column when they are
    equal bit for bit, unless two_columns is set."""
    steps = round(T / dt)
    prop = evolve._CrankNicolson(H, dt)
    bonds = [(o, 0.25j * dt * s) for o, s in evolve._bonds(H, w)]
    same = not two_columns and psi1_0.tobytes() == psi2_0.tobytes()
    psi = np.column_stack([psi1_0] if same else [psi1_0, psi2_0]).astype(complex)
    Q = np.empty(steps + 1, dtype=complex)
    defect_max = np.zeros(steps + 1)

    def density(k):
        P = w * np.conj(psi[::-1, -1]) * psi[:, 0]
        Q[k] = grid.h * P.sum()
        return P

    with np.errstate(over="ignore", invalid="ignore"):
        P_old = density(0)
        for k in range(1, steps + 1):
            old, psi = psi, prop.step(psi)
            P = density(k)
            mid = old + psi
            mpsi, mphi = mid[:, 0], np.conj(mid[::-1, -1])
            r = P - P_old
            for o, c in bonds:
                F = mpsi[:-o] * mphi[o:]
                F -= mphi[:-o] * mpsi[o:]
                F *= c
                r[:-o] -= F
                r[o:] += F
            defect_max[k] = np.max(np.abs(r)) / dt
            P_old = P
            if not np.isfinite(Q[k]):
                raise NanAbortError(last_valid_step=k - 1)
    return Q, defect_max, psi[:, 0], psi[:, -1]


def _identity_case(case):
    """(H, grid, weight, psi1_0, psi2_0, T) for the bit-identity test."""
    gauge = q.GaugeSpec(shared.GAUGE_BETA, expr.parse("tanh(x)"))
    if case == "distinct-levels":  # the fields of test_orthogonality_decay_between_distinct_levels
        N = 1600
        g = shared.grid(N)
        H = shared.hamiltonian("special-b1", 2.0, 0.0, N, beta=shared.GAUGE_BETA, accuracy=4)
        w = shared.exact_gauge_weight(N)
        u0, u1 = shared.bound_vectors("special-b1", 2.0, 0.0, N, (-4.0, -1.0),
                                      beta=shared.GAUGE_BETA, accuracy=4)
        return H, g, w, inner.pseudo_normalize(g, w, u0)[0], inner.pseudo_normalize(g, w, u1)[0], 0.2
    if case == "non-pt-odd-N":
        g = q.make_grid(12.0, 301)
        H = q.build_hamiltonian(g, q.CustomPotential(expr.parse("-2*sech(x)^2 + 0.5*i*sech(x)^2")))
        w = np.ones(g.N)
    else:
        g = q.make_grid(12.0, 400)
        accuracy = 4 if case == "gauged-accuracy-4" else 2
        H = q.build_hamiltonian(g, q.scarf2_potential(2.0, 1.0), gauge, accuracy)
        w = operators.gauge_weight(g, gauge.beta, gauge.nu)
    psi1 = evolve.gaussian_state(g, 0.7, 0.8, 1.0)
    psi2 = evolve.gaussian_state(g, -1.1, 1.3, -0.6) if case == "distinct-packets" else psi1
    return H, g, w, psi1, psi2, 1.0


@pytest.mark.parametrize(
    "case", ["equal-fields", "distinct-packets", "distinct-levels", "gauged-accuracy-4",
             "non-pt-odd-N"])
def test_run_is_bit_identical_to_the_two_column_record(case):
    H, g, w, psi1, psi2, T = _identity_case(case)
    tr = evolve.run(H, g, w, psi1, psi2, T, 1e-3)
    Q, defect, final1, final2 = _per_step_run(H, g, w, psi1, psi2, T, 1e-3, two_columns=True)
    assert np.array_equal(tr.Q, Q)
    assert np.array_equal(tr.continuity_residual, defect)
    assert np.array_equal(tr.final_states[0], final1)
    assert np.array_equal(tr.final_states[1], final2)


_K = evolve._BLOCK


@pytest.mark.parametrize("steps", sorted({1, _K - 1, _K, _K + 1, 3 * _K + 2} - {0}))
@pytest.mark.parametrize("fields", [1, 2])
@pytest.mark.parametrize("accuracy", [2, 4])
def test_block_record_is_bit_identical_to_the_per_step_record(steps, fields, accuracy):
    g = q.make_grid(8.0, 200)
    gauge = q.GaugeSpec(shared.GAUGE_BETA, expr.parse("tanh(x)"))
    H = q.build_hamiltonian(g, q.scarf2_potential(2.0, 1.0), gauge, accuracy)
    w = operators.gauge_weight(g, gauge.beta, gauge.nu)
    # packets at the walls, where a bond that wraps from one row of a block
    # into the next would carry flux if its weight were not 0
    psi1 = evolve.gaussian_state(g, -6.5, 0.8, 1.0)
    psi2 = psi1.copy() if fields == 1 else evolve.gaussian_state(g, 6.0, 1.3, -0.6)
    dt = 1e-2
    tr = evolve.run(H, g, w, psi1, psi2, steps * dt, dt)
    Q, defect, final1, final2 = _per_step_run(H, g, w, psi1, psi2, steps * dt, dt)
    assert len(tr.Q) == steps + 1
    assert np.array_equal(tr.Q, Q)
    assert np.array_equal(tr.continuity_residual, defect)
    assert np.array_equal(tr.final_states[0], final1)
    assert np.array_equal(tr.final_states[1], final2)


# under this gain the field grows by 2e5 a step and Q by 4e10, so a field
# scaled to Q(0) = max float / 4e10^(k - 1/2) first overflows Q at step k
_GAIN_PER_STEP = 1.99999 / 1e-5


@pytest.mark.parametrize("first_bad", [2 * _K + 2, 2 * _K, 2 * _K + 1],
                         ids=["mid-block", "last-step-of-a-block", "first-step-of-a-block"])
def test_block_record_aborts_at_the_per_step_last_valid_step(first_bad):
    g = q.make_grid(4.0, 30)
    dt = 1e-2
    H = (1.99998j / dt) * np.eye(g.N, dtype=complex)
    psi = evolve.gaussian_state(g, 0.0, 0.5)  # Q(0) = 1
    psi *= np.sqrt(np.finfo(float).max) / _GAIN_PER_STEP ** (first_bad - 0.5)
    w = np.ones(g.N)
    with pytest.raises(NanAbortError) as ref:
        _per_step_run(H, g, w, psi, psi, 1.0, dt)
    assert ref.value.last_valid_step == first_bad - 1  # the scale put it there
    with pytest.raises(NanAbortError) as exc:
        evolve.run(H, g, w, psi, psi, 1.0, dt)
    assert exc.value.last_valid_step == first_bad - 1


def test_run_memory_stays_within_a_few_blocks():
    # 3000 steps at N = 1600: beyond its trace arrays, run holds the factor,
    # the tiled bond weights, the (K + 1, N) state blocks and the record's
    # workspace, never a row per step.  Measured at K = 4: 53 rows of N
    # complex with one field and 62 with two.
    g = shared.grid(1600)
    H = shared.hamiltonian("special-b1", 2.0, 0.0, 1600, beta=shared.GAUGE_BETA, accuracy=4)
    w = shared.exact_gauge_weight(1600)
    psi1, _ = inner.pseudo_normalize(g, w, evolve.gaussian_state(g, 0.3, 1.1, 0.4))
    psi2, _ = inner.pseudo_normalize(g, w, evolve.gaussian_state(g, -0.3, 1.1, 0.4))
    evolve.run(H, g, w, psi1, psi2, 0.01, 1e-3)  # imports and first-call caches
    row = g.N * np.dtype(complex).itemsize
    for psi2_0 in (psi1, psi2):
        tracemalloc.start()
        try:
            tr = evolve.run(H, g, w, psi1, psi2_0, 3.0, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        trace = tr.times.nbytes + tr.Q.nbytes + tr.continuity_residual.nbytes
        assert peak - trace <= (24 + 16 * evolve._BLOCK) * row


def test_run_rejects_a_non_finite_weight():
    g = q.make_grid(4.0, 30)
    H = q.build_hamiltonian(g, q.CustomPotential(expr.parse("0")))
    psi = evolve.gaussian_state(g, 0.0, 0.5)
    for bad in (np.inf, np.nan):
        w = np.ones(g.N)
        w[-1] = bad
        with pytest.raises(ParameterError, match="weight"):
            evolve.run(H, g, w, psi, psi, 0.1, 1e-2)

def test_equal_fields_step_one_column(monkeypatch):
    g = q.make_grid(6.0, 60)
    H = q.build_hamiltonian(g, q.CustomPotential(expr.parse("-2*sech(x)^2")))
    psi = evolve.gaussian_state(g, 0.0, 0.8)
    psi[0] = 0.0
    signed = psi.copy()
    signed[0] = complex(-0.0, 0.0)  # equal in value, not in bits
    widths = []
    step = evolve._CrankNicolson.step

    def spy(self, stack):
        widths.append(stack.shape[1])
        return step(self, stack)

    monkeypatch.setattr(evolve._CrankNicolson, "step", spy)
    for psi2, width in ((psi.copy(), 1), (evolve.gaussian_state(g, 1.0, 0.8), 2), (signed, 2)):
        widths.clear()
        tr = evolve.run(H, g, np.ones(g.N), psi, psi2, 0.05, 1e-2)
        assert widths == [width] * 5
        assert tr.final_states[0] is not tr.final_states[1]


def test_run_rejects_initial_states_off_the_grid():
    g = q.make_grid(4.0, 50)
    H = q.build_hamiltonian(g, q.CustomPotential(expr.parse("0")))
    psi = evolve.gaussian_state(g, 0.0, 0.5)
    short = psi[:49]
    for psi1, psi2 in ((short, psi), (psi, short), (psi, np.column_stack([psi, psi]))):
        with pytest.raises(DimensionError):
            evolve.run(H, g, np.ones(g.N), psi1, psi2, 0.1, 1e-2)


def test_hermitian_run_conserves_q():
    g = shared.grid(800)
    H = q.build_hamiltonian(g, q.CustomPotential(expr.parse("-2*sech(x)^2")))
    w = np.ones(g.N)
    psi = evolve.gaussian_state(g, 0.0, 1.0)
    psi, _ = inner.pseudo_normalize(g, w, psi)
    tr = evolve.run(H, g, w, psi, psi, 5.0, 1e-3)
    drift = np.max(np.abs(tr.Q - tr.Q[0])) / abs(tr.Q[0])
    assert drift <= 1e-8
    assert np.max(np.abs(tr.Q.imag)) <= 1e-10  # Q stays real here


def test_trace_bookkeeping():
    g = q.make_grid(6.0, 100)
    H = q.build_hamiltonian(g, q.CustomPotential(expr.parse("0")))
    psi = evolve.gaussian_state(g, 0.0, 0.8)
    tr = evolve.run(H, g, np.ones(g.N), psi, psi, 0.05, 1e-2)
    assert len(tr.times) == len(tr.Q) == len(tr.continuity_residual) == 6
    np.testing.assert_allclose(np.diff(tr.times), 1e-2)
    assert tr.final_states[0].shape == (g.N,)
    # identical initial fields + real symmetric H keep the two fields equal
    assert np.array_equal(tr.final_states[0], tr.final_states[1])


def test_stationary_state_q_constant_under_pt_weight():
    # ungauged PT fixture, ground eigenvector, eta == 1
    g = shared.grid(800)
    H = shared.hamiltonian("special-b1", 2.0, 0.0, 800)
    vec = shared.bound_vectors("special-b1", 2.0, 0.0, 800, (-4.0,))[0]
    w = np.ones(g.N)
    psi, _ = inner.pseudo_normalize(g, w, vec)
    tr = evolve.run(H, g, w, psi, psi, 5.0, 1e-3)
    assert np.max(np.abs(tr.Q - tr.Q[0])) / abs(tr.Q[0]) <= 1e-6


def test_gauged_conservation_and_weight_contrast():
    # conserved with the gauge weight; order-one drift with the PT weight
    N = 1600
    g = shared.grid(N)
    Hb = shared.hamiltonian("special-b1", 2.0, 0.0, N, beta=shared.GAUGE_BETA, accuracy=4)
    w = shared.exact_gauge_weight(N)
    psi = evolve.gaussian_state(g, 0.0, 1.0)
    psi_g, _ = inner.pseudo_normalize(g, w, psi)
    tr = evolve.run(Hb, g, w, psi_g, psi_g, 5.0, 1e-3)
    drift = np.max(np.abs(tr.Q - tr.Q[0])) / abs(tr.Q[0])
    assert drift <= 1e-5

    ones = np.ones(N)
    psi_1, _ = inner.pseudo_normalize(g, ones, psi)
    tr_bad = evolve.run(Hb, g, ones, psi_1, psi_1, 5.0, 1e-3)
    drift_bad = np.max(np.abs(tr_bad.Q - tr_bad.Q[0])) / abs(tr_bad.Q[0])
    assert drift_bad >= 1e-2


def test_eigenstate_q_insensitive_to_weight():
    # an exact eigenvector keeps Q constant for any weight: the conjugate
    # phases of the two fields cancel identically, so the metric mismatch
    # is only visible on superposition states
    N = 800
    g = shared.grid(N)
    Hb = shared.hamiltonian("special-b1", 2.0, 0.0, N, beta=shared.GAUGE_BETA)
    vec = shared.bound_vectors("special-b1", 2.0, 0.0, N, (-4.0,), beta=shared.GAUGE_BETA)[0]
    ones = np.ones(N)
    psi, _ = inner.pseudo_normalize(g, ones, vec)
    tr = evolve.run(Hb, g, ones, psi, psi, 2.0, 1e-3)
    assert np.max(np.abs(tr.Q - tr.Q[0])) / abs(tr.Q[0]) <= 1e-8


def test_orthogonality_decay_between_distinct_levels():
    # Q(t) built from two distinct real levels stays negligible
    N = 1600
    g = shared.grid(N)
    Hb = shared.hamiltonian("special-b1", 2.0, 0.0, N, beta=shared.GAUGE_BETA, accuracy=4)
    w = shared.exact_gauge_weight(N)
    u0, u1 = shared.bound_vectors("special-b1", 2.0, 0.0, N, (-4.0, -1.0),
                                  beta=shared.GAUGE_BETA, accuracy=4)
    u0, _ = inner.pseudo_normalize(g, w, u0)
    u1, _ = inner.pseudo_normalize(g, w, u1)
    tr = evolve.run(Hb, g, w, u0, u1, 2.0, 1e-3)
    assert abs(tr.Q[0]) <= 1e-6
    assert np.max(np.abs(tr.Q)) <= 1e-6


def test_stationary_real_state_carries_no_current():
    # a real even eigenstate only turns its phase: P stands still and every
    # bond flux vanishes, so Q is constant and the defect is rounding
    g = q.make_grid(10.0, 400)
    H = q.build_hamiltonian(g, q.CustomPotential(expr.parse("-2*sech(x)^2")))
    _, vecs = np.linalg.eigh(H.toarray().real)
    u = vecs[:, 0] / np.sqrt(g.h)
    tr = evolve.run(H, g, np.ones(g.N), u, u, 0.5, 1e-3)
    assert np.max(np.abs(tr.Q - tr.Q[0])) <= 1e-12 * abs(tr.Q[0])
    assert tr.continuity_residual.max() <= 1e-12


def test_free_packet_obeys_the_flux_law_to_rounding():
    # V = 0 with w = 1: the law holds exactly; the centred d_t P + D1 J it
    # replaces read 1.3e-3 and 3.2e-4 here
    for N, dt in ((400, 2e-3), (800, 1e-3)):
        g = q.make_grid(16.0, N)
        H = q.build_hamiltonian(g, q.CustomPotential(expr.parse("0")))
        psi = evolve.gaussian_state(g, -4.0, 1.0, 1.0)
        tr = evolve.run(H, g, np.ones(g.N), psi, psi, 0.5, dt)
        assert tr.continuity_residual.max() <= 1e-12


def test_gauged_fixture_defect_small_for_stationary_data():
    N = 1600
    g = shared.grid(N)
    Hb = shared.hamiltonian("special-b1", 2.0, 0.0, N, beta=shared.GAUGE_BETA)
    w = shared.exact_gauge_weight(N)
    u0 = shared.bound_vectors("special-b1", 2.0, 0.0, N, (-4.0,), beta=shared.GAUGE_BETA)[0]
    u0, _ = inner.pseudo_normalize(g, w, u0)
    tr = evolve.run(Hb, g, w, u0, u0, 1.0, 1e-3)
    assert tr.continuity_residual[1:-1].max() <= 1e-4


def test_nan_guard_reports_last_step():
    # a pure-gain Hamiltonian amplifies ~2e5 per step and overflows mid-run
    g = q.make_grid(4.0, 30)
    dt = 1e-2
    H = (1.99998j / dt) * np.eye(g.N, dtype=complex)
    psi = evolve.gaussian_state(g, 0.0, 0.5)
    with pytest.raises(NanAbortError) as exc:
        evolve.run(H, g, np.ones(g.N), psi, psi, 1.0, dt)
    assert 0 < exc.value.last_valid_step < 100


def test_nan_guard_fires_when_the_field_overflows_under_a_finite_q():
    # under the smallest normal weight, w conj(psi2) psi1 stays finite until
    # psi itself overflows (at weight 1e-300 Q still overflows a step first),
    # so the Q test alone must stop the run at the field's first non-finite step
    g = q.make_grid(4.0, 30)
    dt = 1e-2
    H = (1.99998j / dt) * np.eye(g.N, dtype=complex)
    psi0 = evolve.gaussian_state(g, 0.0, 0.5)
    prop, psi, k = evolve._CrankNicolson(H, dt), psi0[:, None], 0
    with np.errstate(over="ignore", invalid="ignore"):
        while np.all(np.isfinite(psi)):
            psi, k = prop.step(psi), k + 1
    with pytest.raises(NanAbortError) as exc:
        evolve.run(H, g, np.full(g.N, np.finfo(float).tiny), psi0, psi0, 1.0, dt)
    assert exc.value.last_valid_step == k - 1


def test_run_rejects_non_finite_initial_state():
    g = q.make_grid(4.0, 30)
    H = q.build_hamiltonian(g, q.CustomPotential(expr.parse("0")))
    psi = evolve.gaussian_state(g, 0.0, 0.5)
    psi[3] = np.nan
    with pytest.raises(ParameterError):
        evolve.run(H, g, np.ones(g.N), psi, psi, 0.1, 1e-2)


def test_run_rejects_bad_spans():
    g = q.make_grid(4.0, 30)
    H = q.build_hamiltonian(g, q.CustomPotential(expr.parse("0")))
    psi = evolve.gaussian_state(g, 0.0, 0.5)
    with pytest.raises(ParameterError):
        evolve.run(H, g, np.ones(g.N), psi, psi, -1.0, 1e-2)
    with pytest.raises(ParameterError):  # T/dt = 5.25 is not a whole number of steps
        evolve.run(H, g, np.ones(g.N), psi, psi, 0.0105, 2e-3)
