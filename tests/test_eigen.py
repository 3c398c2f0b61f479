"""Eigensolver contract and spectrum classification."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse as sp
from hypothesis import event, given, settings
from hypothesis import strategies as st

import conftest as shared
from etaqm import eigen, expr, models
from etaqm import operators as ops
from etaqm.errors import ParameterError, SolverError
from etaqm.grid import diff_matrix, make_grid


def test_two_by_two_symmetric():
    rep = eigen.eig(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    np.testing.assert_allclose(rep.eigenvalues, [-1.0, 1.0], atol=1e-14)
    assert rep.classification == ("real", "real")


def test_rotation_generator_gives_conjugate_pair():
    rep = eigen.eig(np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex))
    got = sorted(rep.eigenvalues, key=lambda z: z.imag)
    np.testing.assert_allclose(got, [-1j, 1j], atol=1e-14)
    assert rep.classification == ("pair-member", "pair-member")
    assert rep.pairing == {0: 1, 1: 0}


def test_diagonal_mixed_spectrum():
    rep = eigen.eig(np.diag([3.0, 2.0 + 1.0j, 2.0 - 1.0j]))
    assert sorted(rep.classification) == ["pair-member", "pair-member", "real"]
    # eigenvalues sorted by (Re, Im)
    np.testing.assert_allclose(rep.eigenvalues, [2.0 - 1.0j, 2.0 + 1.0j, 3.0])


def test_eigenvector_backward_error_contract():
    rng = np.random.default_rng(8)
    M = rng.normal(size=(300, 300)) + 1j * rng.normal(size=(300, 300))
    rep = eigen.eig(M, want_vectors=True)
    bound = 1e-10 * np.linalg.norm(M, "fro")
    for j in range(300):
        v = rep.vectors[:, j]
        res = np.linalg.norm(M @ v - rep.eigenvalues[j] * v)
        assert res <= bound * np.linalg.norm(v)


def test_pt_eigenvector_backward_error_contract():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(300, 300)) + 1j * rng.normal(size=(300, 300))
    M = 0.5 * (A + np.conj(A[::-1, ::-1]))  # commutes with PT
    rep = eigen.eig(M, want_vectors=True)
    assert rep.solver == "real-pt"
    bound = 1e-10 * np.linalg.norm(M, "fro")
    for j in range(300):
        v = rep.vectors[:, j]
        res = np.linalg.norm(M @ v - rep.eigenvalues[j] * v)
        assert res <= bound * np.linalg.norm(v)


@pytest.mark.parametrize("pt", [True, False])
def test_backward_error_check_raises_solver_error(monkeypatch, pt):
    M = shared.hamiltonian("scarf2", 2.0, 1.0, 40)
    if not pt:
        M = M + sp.diags_array(np.linspace(0.0, 1j, 40))
    monkeypatch.setattr(eigen, "_BACKWARD_TOL", 0.0)
    with pytest.raises(SolverError) as err:
        eigen.eig(M, want_vectors=True)
    assert len(err.value.unconverged) > 0
    eigen.eig(M)  # values alone are not checked


@pytest.mark.parametrize("n", [3, 4, 7, 10])
def test_pt_real_basis_is_unitary_with_pt_invariant_columns(n):
    S = eigen.pt_real_basis(n).toarray()
    np.testing.assert_allclose(S.conj().T @ S, np.eye(n), atol=1e-15)
    np.testing.assert_array_equal(np.conj(S[::-1, :]), S)


def _pt_matrix(N, seed, kinetic):
    """A random PT-symmetric banded matrix: real parity-even kinetic part,
    V with V[::-1] == conj V, and a real diag(nu) D1 term with nu odd."""
    rng = np.random.default_rng(seed)
    if kinetic == "tridiagonal":
        d = rng.normal(size=N)
        e = rng.normal(size=N - 1)
        K = np.diag(d + d[::-1]) + np.diag(e + e[::-1], 1) + np.diag(e + e[::-1], -1)
    else:
        K = -diff_matrix(make_grid(rng.uniform(1.0, 8.0), N), 2, 4).toarray().real
        K /= np.max(np.abs(K))
    V = rng.normal(size=N) + 1j * rng.normal(size=N)
    V = 0.5 * (V + np.conj(V[::-1]))
    nu = rng.normal(size=N)
    nu = nu - nu[::-1]
    D1 = diff_matrix(make_grid(1.0, N), 1, 2).toarray().real
    D1 /= np.max(np.abs(D1))
    return K + np.diag(V) + np.diag(nu) @ D1


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(3, 64),
    seed=st.integers(0, 2**32 - 1),
    kinetic=st.sampled_from(["tridiagonal", "accuracy-4"]),
)
def test_real_pt_path_matches_complex_eigvals(N, seed, kinetic):
    M = _pt_matrix(N, seed, kinetic)
    assert np.array_equal(np.conj(M[::-1, ::-1]), M)
    ref = scipy.linalg.eigvals(M)
    for want_vectors in (False, True):
        rep = eigen.eig(sp.csr_array(M), want_vectors=want_vectors)
        tridiagonal_values = kinetic == "tridiagonal" and not want_vectors
        assert rep.solver == ("aberth" if tridiagonal_values else "real-pt")
        vals = rep.eigenvalues
        dist = np.abs(vals[:, None] - ref[None, :])
        rows, cols = scipy.optimize.linear_sum_assignment(dist)
        assert np.all(dist[rows, cols] <= 1e-9 * (1 + np.abs(vals[rows])))
        # real levels are exactly real; a pair is exact conjugates, -Im first
        assert all(v.imag == 0 for v, tag in zip(vals, rep.classification) if tag == "real")
        for i in np.flatnonzero(vals.imag < 0):
            assert vals[i + 1] == np.conj(vals[i])
        assert np.count_nonzero(vals.imag > 0) == np.count_nonzero(vals.imag < 0)
    # a real level's vector is PT-invariant, and PT maps a pair's first
    # vector onto its second, bit for bit
    V = rep.vectors
    for k in np.flatnonzero(vals.imag == 0):
        assert np.array_equal(V[:, k], np.conj(V[::-1, k]))
    for k in np.flatnonzero(vals.imag < 0):
        assert np.array_equal(V[:, k + 1], np.conj(V[::-1, k]))


def test_non_pt_input_takes_the_unchanged_complex_path():
    # V = -2 sech^2 x + 0.5 i sech^2 x: V(-x) != conj V(x); gauged at
    # accuracy 4, so the values-only request is neither tridiagonal nor
    # symmetric, and no Ehrlich-Aberth solve runs either
    H = shared.hamiltonian("non-pt", 0.0, 0.0, 200, shared.GAUGE_BETA, 4)
    assert eigen._band(H) is None
    rep = eigen.eig(H)
    assert rep.solver == "complex"
    vals = scipy.linalg.eigvals(H.toarray())
    np.testing.assert_array_equal(rep.eigenvalues, vals[np.lexsort((vals.imag, vals.real))])
    rep = eigen.eig(H, want_vectors=True)
    vals, vecs = scipy.linalg.eig(H.toarray())
    order = np.lexsort((vals.imag, vals.real))
    np.testing.assert_array_equal(rep.eigenvalues, vals[order])
    np.testing.assert_array_equal(rep.vectors, vecs[:, order])


def _eig_and_kappa(M):
    """The eigenvalues of the dense M and their condition numbers
    ||y|| ||x|| / |y^H x| from the left and right eigenvectors."""
    w, vl, vr = scipy.linalg.eig(M, left=True, right=True)
    return w, (np.linalg.norm(vl, axis=0) * np.linalg.norm(vr, axis=0)
               / np.abs(np.sum(vl.conj() * vr, axis=0)))


def _random_band(N, seed, pt, gauged, bandwidth, diag_scale, off_scale):
    """diag_scale diag(d + V) plus off_scale times a real symmetric
    off-diagonal o, with d real and V complex; under `pt` d and o are
    parity-even and V[::-1] == conj V.  With `gauged` a real g is added above
    the diagonal and subtracted below it (g odd under `pt`), so the two
    off-diagonals differ.  At bandwidth 2 a real symmetric second
    off-diagonal (parity-even under `pt`) is added."""
    rng = np.random.default_rng(seed)
    d = rng.normal(size=N)
    o = rng.normal(size=N - 1)
    V = rng.normal(size=N) + 1j * rng.normal(size=N)
    g = rng.normal(size=N - 1) if gauged else np.zeros(N - 1)
    if pt:
        d, o, g = d + d[::-1], o + o[::-1], g - g[::-1]
        V = 0.5 * (V + np.conj(V[::-1]))
    M = (diag_scale * np.diag(d + V)
         + off_scale * (np.diag(o + g, 1) + np.diag(o - g, -1)))
    if bandwidth == 2:
        o2 = rng.normal(size=N - 2)
        if pt:
            o2 = o2 + o2[::-1]
        M += off_scale * (np.diag(o2, 2) + np.diag(o2, -2))
    return M


@settings(max_examples=50, deadline=None)
@given(
    N=st.integers(3, 300),
    seed=st.integers(0, 2**32 - 1),
    pt=st.booleans(),
    gauged=st.booleans(),
    bandwidth=st.sampled_from([1, 2]),
    log_scales=st.tuples(st.floats(-2.0, 4.0), st.floats(-2.0, 4.0)),
)
def test_aberth_values_match_dense_eig_within_the_condition_bound(N, seed, pt, gauged,
                                                                 bandwidth, log_scales):
    # a gauged bandwidth-2 H is not symmetric: no Ehrlich-Aberth solve takes it
    gauged = gauged and bandwidth == 1
    M = _random_band(N, seed, pt, gauged, bandwidth, *(10.0 ** u for u in log_scales))
    H = sp.csr_array(M)
    assert (eigen._pt_fold(H)[1] is not None) == pt
    band = eigen._band(H)
    assert len(band) == bandwidth + 1
    vals = eigen._aberth(band, real=pt)
    rep = eigen.eig(H)
    event(f"bandwidth {bandwidth}: {rep.solver}")
    if vals is None:  # the certificate failed: the dense solver's result
        assert rep.solver == ("real-pt" if pt else "complex")
        np.testing.assert_array_equal(rep.eigenvalues, shared.dense_eigvals(H))
        return
    assert rep.solver == "aberth"
    np.testing.assert_array_equal(rep.eigenvalues, vals)
    w, kappa = _eig_and_kappa(M)
    dist = np.abs(vals[:, None] - w[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(dist)
    bound = 64 * N * np.finfo(float).eps * np.linalg.norm(M) * kappa[cols]
    assert np.all(dist[rows, cols] <= bound)
    assert np.array_equal(np.lexsort((vals.imag, vals.real)), np.arange(N))
    if pt:  # real levels exactly real, pairs exact conjugates listed -Im first
        for i in np.flatnonzero(vals.imag < 0):
            assert vals[i + 1] == np.conj(vals[i])
        assert np.count_nonzero(vals.imag > 0) == np.count_nonzero(vals.imag < 0)


@pytest.mark.parametrize("kind,p2,beta", [
    ("scarf2", 1.0, 0.0),
    ("scarf2-raw", 3.0, 0.0),
    ("first-order", 0.0, 0.0),
    ("special-b1", 0.0, shared.GAUGE_BETA),
    ("non-pt", 0.0, 0.0),
])
def test_aberth_certifies_the_accuracy_2_hamiltonians(kind, p2, beta):
    H = shared.hamiltonian(kind, 2.0 if kind != "first-order" else 2.5, p2, 400, beta)
    rep = eigen.eig(H)
    assert rep.solver == "aberth"
    ref = scipy.linalg.eigvals(H.toarray())
    dist = np.abs(rep.eigenvalues[:, None] - ref[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(dist)
    assert np.all(dist[rows, cols] <= 1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("kind,solver", [("scarf2", "real-pt"), ("non-pt", "complex")])
def test_a_failed_certificate_returns_the_dense_result_bit_for_bit(monkeypatch, kind, solver):
    monkeypatch.setattr(eigen, "_ABERTH_MAX_ITER", 1)
    for accuracy in (2, 4):  # bandwidth 1 and 2
        H = shared.hamiltonian(kind, 2.0, 1.0, 200, 0.0, accuracy)
        rep = eigen.eig(H)
        assert rep.solver == solver
        np.testing.assert_array_equal(rep.eigenvalues, shared.dense_eigvals(H))


def test_an_iterate_retired_off_a_root_fails_the_trace_certificate(monkeypatch):
    H = shared.hamiltonian("scarf2", 2.0, 1.0, 200)
    band = eigen._band(H)
    assert eigen._aberth(band, real=True) is not None
    newton = eigen._newton_corrections

    def freeze_first(z, *args):  # iterate 0 stays at its start point
        out = newton(z, *args)
        if len(z) == H.shape[0]:
            out[0] = 0.0
        return out

    monkeypatch.setattr(eigen, "_newton_corrections", freeze_first)
    assert eigen._aberth(band, real=False) is None  # no pairing check runs
    assert eigen.eig(H).solver == "real-pt"


def test_roots_without_conjugates_fail_the_pt_certificate():
    # the non-PT H passes every other check; its roots are not conjugate-symmetric
    band = eigen._band(shared.hamiltonian("non-pt", 0.0, 0.0, 200))
    assert eigen._aberth(band, real=False) is not None
    assert eigen._aberth(band, real=True) is None


def test_vector_requests_on_a_tridiagonal_h_run_the_dense_solver_unchanged():
    H = shared.hamiltonian("scarf2", 2.0, 1.0, 200)
    rep = eigen.eig(H, want_vectors=True)
    assert rep.solver == "real-pt"
    S, R = eigen._pt_fold(H)
    vals, Y = scipy.linalg.eig(R.toarray())
    order = np.lexsort((vals.imag, vals.real))
    np.testing.assert_array_equal(rep.eigenvalues, vals[order])
    np.testing.assert_array_equal(rep.vectors, S @ Y[:, order])


def test_aberth_never_allocates_an_n_by_n_array():
    N = 1600
    for accuracy in (2, 4):  # bandwidth 1 and 2
        H = shared.hamiltonian("scarf2", 2.0, 1.0, N, 0.0, accuracy)
        tracemalloc.start()
        try:
            rep = eigen.eig(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.solver == "aberth"
        assert peak < N * N * 8 / 4  # a quarter of one float64 N x N array


def test_a_solve_that_stops_retiring_iterates_gives_up_early(monkeypatch):
    # A - B + 1/2 = 1.9982 nearly an integer: the two Scarf II series nearly
    # coalesce, and one iterate creeps until the dense solve takes over
    H = shared.hamiltonian("scarf2", 2.4982, 1.0, 400)
    calls = []
    newton = eigen._newton_corrections

    def count(*args):
        calls.append(1)
        return newton(*args)

    monkeypatch.setattr(eigen, "_newton_corrections", count)
    rep = eigen.eig(H)
    assert rep.solver == "real-pt"
    assert len(calls) <= 32  # all 64 iterations ran before the give-up rule
    np.testing.assert_array_equal(rep.eigenvalues, shared.dense_eigvals(H))


def _ratio_newton(z, coeffs, pivmin):
    """p/p' from `_ratio_pass`, repeated with pivmin where it is not finite:
    the tridiagonal Newton corrections of an iteration with many points."""
    out = eigen._ratio_pass(z, *coeffs, 0.0)
    bad = ~np.isfinite(out)
    out[bad] = eigen._ratio_pass(z[bad], *coeffs, pivmin)
    return out


@settings(max_examples=50, deadline=None)
@given(
    N=st.integers(3, 300),
    seed=st.integers(0, 2**32 - 1),
    pt=st.booleans(),
    gauged=st.booleans(),
    log_scales=st.tuples(st.floats(-2.0, 4.0), st.floats(-2.0, 4.0)),
)
def test_stacked_pass_matches_the_ratio_pass(N, seed, pt, gauged, log_scales):
    M = _random_band(N, seed, pt, gauged, 1, *(10.0 ** u for u in log_scales))
    band = eigen._band(sp.csr_array(M))
    coeffs = tuple(v.tolist() for v in band)
    a, e = band
    s = float(np.max(np.abs(a)) + 2.0 * np.sqrt(np.max(np.abs(e))))  # `_aberth`'s scale
    pivmin = np.finfo(float).eps * s
    w, kappa = _eig_and_kappa(M)
    rng = np.random.default_rng(seed)
    idx = rng.choice(N, min(N, eigen._FEW), replace=False)
    # 1e-6 (|lambda| + s) from a root and no nearer to another; at 1e-6
    # (1 + |lambda|) from a small root of a large H, p/p' itself is
    # conditioned worse than 1e-8, whichever backward stable pass forms it
    gap = 1e-6 * (np.abs(w[idx]) + s)
    z = w[idx] + gap * np.exp(2j * np.pi * rng.uniform(size=len(idx)))
    z = z[np.min(np.abs(z[:, None] - w), axis=1) >= 0.999 * gap]
    with np.errstate(all="ignore"):
        for pts in (z, w):
            got = eigen._stacked_pass(pts, *band)
            ref = _ratio_newton(pts, coeffs, pivmin)
            both = eigen._newton_corrections(pts, band, coeffs, pivmin)
            ok = np.isfinite(got)
            event(f"stacked pass out of range: {not ok.all()}")
            if len(pts) <= eigen._FEW:  # the stacked pass where trusted, else the ratio pass
                np.testing.assert_array_equal(both[ok], got[ok])
                np.testing.assert_array_equal(both[~ok], _ratio_newton(pts[~ok], coeffs, pivmin))
            else:
                np.testing.assert_array_equal(both, ref)
            if pts is z:
                assert np.all(np.abs(got[ok] - ref[ok]) <= 1e-8 * np.abs(ref[ok]))
    # at the dense roots both read below the retirement floor, give or take the
    # dense solver's own error (the condition bound of the Aberth test above)
    bound = (eigen._ABERTH_FLOOR * (np.abs(w) + s)
             + 64 * N * np.finfo(float).eps * np.linalg.norm(M) * kappa)
    assert np.all(np.abs(ref) <= bound)
    assert np.all(np.abs(got[ok]) <= bound[ok])


@pytest.mark.parametrize("fault", ["overflow", "underflow"])
def test_a_band_out_of_the_stacked_range_gets_the_ratio_pass_bit_for_bit(fault):
    rng = np.random.default_rng(3)
    N = 200
    if fault == "overflow":  # |a - z| / sqrt(max|e|) ~ 1e6 in every row
        a = 1e4 * (1.0 + rng.uniform(size=N))
        e = np.full(N - 1, 1e-4)
    else:  # one large e sets sqrt(max|e|) = 1e3, and every other row scales by ~1e-3
        a = rng.normal(size=N)
        e = np.full(N - 1, 1e-6)
        e[N // 2] = 1e6
    band = a.astype(complex), e.astype(complex)
    coeffs = tuple(v.tolist() for v in band)
    z = np.linspace(a.min(), a.max(), eigen._FEW) + 1e-3j
    pivmin = np.finfo(float).eps * np.max(np.abs(a))
    with np.errstate(all="ignore"):
        assert np.all(np.isnan(eigen._stacked_pass(z, *band)))
        got = eigen._newton_corrections(z, band, coeffs, pivmin)
        np.testing.assert_array_equal(got, _ratio_newton(z, coeffs, pivmin))
    assert np.all(np.isfinite(got))


def test_a_tail_call_stays_within_the_chunk_budget():
    N = 1600
    H = shared.hamiltonian("scarf2", 2.0, 1.0, N)
    band = eigen._band(H)
    coeffs = tuple(v.tolist() for v in band)
    z = np.linspace(0.0, 4.0 * (N / 32.0) ** 2, eigen._FEW) + 1e-3j  # across the band
    tracemalloc.start()
    try:
        out = eigen._newton_corrections(z, band, coeffs, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(out))
    # the band of one chunk of points and its two right-hand sides; without
    # chunks the call would take 5 N _FEW entries
    assert peak <= 2 * eigen._ABERTH_CHUNK * 16


def test_the_stacked_pass_runs_every_tail_iteration_and_only_those(monkeypatch):
    calls = {"newton": [], "ratio": [], "stacked": []}
    for name, key in (("_newton_corrections", "newton"), ("_ratio_pass", "ratio"),
                      ("_stacked_pass", "stacked")):
        def spy(z, *args, _f=getattr(eigen, name), _key=key):
            calls[_key].append(len(z))
            return _f(z, *args)

        monkeypatch.setattr(eigen, name, spy)
    N = 400
    H = shared.hamiltonian("scarf2", 2.0, 1.0, N)
    rep = eigen.eig(H)
    assert rep.solver == "aberth"
    few = [m for m in calls["newton"] if m <= eigen._FEW]
    assert few and calls["stacked"] == few
    assert calls["ratio"] == [m for m in calls["newton"] if m > eigen._FEW]
    M = H.toarray()
    w, kappa = _eig_and_kappa(M)
    dense = shared.dense_eigvals(H)  # the real-pt values
    kappa = kappa[np.argmin(np.abs(dense[:, None] - w), axis=1)]
    dist = np.abs(rep.eigenvalues[:, None] - dense)
    rows, cols = scipy.optimize.linear_sum_assignment(dist)
    assert np.all(dist[rows, cols] <= 64 * N * np.finfo(float).eps * np.linalg.norm(M) * kappa[cols])
    calls["stacked"].clear()
    assert eigen.eig(shared.hamiltonian("scarf2", 2.0, 1.0, N, 0.0, 4)).solver == "aberth"
    assert calls["stacked"] == []  # bandwidth 2 keeps `_ldl_pass`


def test_eigenvalue_sum_matches_trace():
    M = shared.hamiltonian("scarf2", 2.0, 1.0, 800).toarray()
    vals = shared.eig_values("scarf2", 2.0, 1.0, 800)
    tr = np.trace(M)
    assert abs(vals.sum() - tr) <= 1e-8 * abs(tr)


def test_classify_examples():
    tags, _ = eigen.classify_spectrum(np.array([-4.0, -1.0, -0.25]), 1e-6)
    assert tags == ["real", "real", "real"]
    tags, pairing = eigen.classify_spectrum(np.array([2 + 0.5j, 2 - 0.5j]), 1e-6)
    assert tags == ["pair-member", "pair-member"] and pairing == {0: 1, 1: 0}
    tags, _ = eigen.classify_spectrum(np.array([1 + 1e-9j]), 1e-6)
    assert tags == ["real"]


def test_classify_leaves_leftovers_unpaired():
    tags, pairing = eigen.classify_spectrum(np.array([1.0 + 0.3j, 5.0 - 0.3j]), 1e-6)
    assert tags == ["unpaired", "unpaired"] and pairing == {}


def test_classify_rejects_bad_tolerance():
    with pytest.raises(ParameterError):
        eigen.classify_spectrum(np.array([1.0]), 0.0)


def test_pairing_satisfies_conjugate_bound():
    rng = np.random.default_rng(2)
    base = rng.normal(size=6) + 1j * rng.normal(size=6)
    vals = np.concatenate([base, np.conj(base), rng.normal(size=4)])
    tags, pairing = eigen.classify_spectrum(vals, 1e-8)
    assert all(t in ("real", "pair-member", "unpaired") for t in tags)
    for i, j in pairing.items():
        assert abs(vals[i] - np.conj(vals[j])) <= 1e-8 * (1 + abs(vals[i]))
        assert pairing[j] == i


@settings(max_examples=200, deadline=None)
@given(
    sites=st.lists(st.integers(-200, 200), unique=True, max_size=24),
    n_real=st.integers(0, 24),
    jitter=st.lists(st.floats(-1.0, 1.0), min_size=24, max_size=24),
    heights=st.lists(st.floats(0.1, 5.0), min_size=24, max_size=24),
    tol=st.floats(1e-12, 1e-4),
    data=st.data(),
)
def test_classify_spectrum_pairs_drawn_conjugates_and_moves_tags_with_values(
        sites, n_real, jitter, heights, tol, data):
    # values sit at Re = site / 2, so distinct values are farther apart than
    # tol (1 + |lambda|) <= 1e-4 * 106; a real value gets |Im| up to that bound
    n_real = min(n_real, len(sites))
    reals = [s / 2 + 1j * f * tol * (1 + abs(s / 2)) for s, f in zip(sites[:n_real], jitter)]
    pairs = [s / 2 + 1j * h for s, h in zip(sites[n_real:], heights)]
    vals = np.array(reals + pairs + [np.conj(z) for z in pairs], dtype=complex)
    vals = vals[data.draw(st.permutations(range(len(vals))))]
    tags, pairing = eigen.classify_spectrum(vals, tol)
    assert all(pairing[j] == i != j for i, j in pairing.items())
    assert len(pairing) == 2 * len(pairs)
    assert sorted(pairing) == [i for i, t in enumerate(tags) if t == "pair-member"]
    for v, t in zip(vals, tags):
        assert (t == "real") == (abs(v.imag) <= tol * (1 + abs(v)))
    perm = data.draw(st.permutations(range(len(vals))))
    tags2, pairing2 = eigen.classify_spectrum(vals[perm], tol)
    assert tags2 == [tags[p] for p in perm]
    assert {perm[i]: perm[j] for i, j in pairing2.items()} == pairing


def _classify_all_pairs(eigs, tol):
    """The all-pairs loop that `classify_spectrum` windows by Re: the reference."""
    n = len(eigs)
    scale = 1.0 + np.abs(eigs)
    tags = ["real" if abs(eigs[i].imag) <= tol * scale[i] else "unpaired" for i in range(n)]
    open_idx = [i for i in range(n) if tags[i] == "unpaired"]
    candidates = []
    for ii, i in enumerate(open_idx):
        for j in open_idx[ii + 1:]:
            d = abs(eigs[i] - np.conj(eigs[j]))
            if d <= tol * scale[i]:
                candidates.append((d, i, j))
    pairing = {}
    for _, i, j in sorted(candidates):
        if tags[i] == "unpaired" and tags[j] == "unpaired":
            tags[i] = tags[j] = "pair-member"
            pairing[i] = j
            pairing[j] = i
    return tags, pairing


# multiples of tol (1 + |z|) for the offsets drawn below: inside, at and just
# past the tolerance
_NEAR_TOL = [0.0, 0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0]


@settings(max_examples=300, deadline=None)
@given(
    lattice=st.lists(st.tuples(st.integers(-6, 6), st.integers(-3, 3)), max_size=24),
    loose=st.lists(st.complex_numbers(max_magnitude=10.0), max_size=6),
    tol=st.sampled_from([1e-12, 1e-6, 1e-2, 0.3]),
    data=st.data(),
)
def test_classify_spectrum_matches_the_all_pairs_loop(lattice, loose, tol, data):
    # a coarse lattice gives repeated values and tied distances; each value
    # may get its exact conjugate, or a conjugate (or an Im, for a real one)
    # moved by a multiple of the tolerance near 1
    vals = []
    for a, b in lattice:
        z = complex(a / 4, b / 2)
        f = tol * (1 + abs(z)) * data.draw(st.sampled_from(_NEAR_TOL))
        extra = data.draw(st.sampled_from(["none", "conj", "conj+re", "conj+im", "im"]))
        vals.append(complex(z.real, f) if extra == "im" else z)
        if extra.startswith("conj"):
            vals.append(z.conjugate() + {"conj": 0, "conj+re": f, "conj+im": 1j * f}[extra])
    vals = np.array(vals + loose, dtype=complex)
    tags, pairing = eigen.classify_spectrum(vals, tol)
    ref_tags, ref_pairing = _classify_all_pairs(vals, tol)
    assert tags == ref_tags
    assert list(pairing.items()) == list(ref_pairing.items())


@pytest.mark.parametrize("kind,p1,p2", [
    ("scarf2", 2.0, 1.0),
    ("first-order", 2.5, 0.0),
])
@pytest.mark.parametrize("N", [800, 1600])
def test_lowest_levels_never_unpaired_for_pt_fixtures(kind, p1, p2, N):
    vals = shared.eig_values(kind, p1, p2, N)
    lowest = vals[np.argsort(vals.real)[:10]]
    tags, _ = eigen.classify_spectrum(lowest, 1e-6)
    assert "unpaired" not in tags


def test_bound_filter_keeps_stable_negative_eigenvalues():
    coarse = np.array([-4.001, -0.9995, 0.3, 1.2], dtype=complex)
    fine = np.array([-4.0003, -0.99991, -0.05, 0.31, 1.21], dtype=complex)
    b = eigen.converged_bound_states(coarse, fine)
    np.testing.assert_allclose(b.values, [-4.0003, -0.99991])
    assert list(np.round(b.rejected.real, 3)) == [-0.05]


def test_bound_filter_scarf2_fixture():
    b = shared.bound_states("scarf2", 2.0, 1.0, 1600)
    assert len(b.values) == 3
    for target in (-4.0, -1.0, -0.25):
        assert np.min(np.abs(b.values - target)) <= 1e-3


def test_eig_rejects_non_square():
    with pytest.raises(ParameterError):
        eigen.eig(np.zeros((3, 4), dtype=complex))


def test_exact_conjugate_pair_lists_minus_im_first():
    for accuracy, solver in ((2, "aberth"), (4, "real-pt")):
        rep = eigen.eig(shared.hamiltonian("scarf2-raw", 2.0, 3.0, 200, 0.5, accuracy))
        assert rep.solver == solver
        low = rep.eigenvalues[:2]
        assert low[0].imag < -0.1 and low[1] == np.conj(low[0])


def test_reality_beyond_threshold_produces_pair():
    # |V2| > V1 + 1/4: a conjugate pair appears among bound candidates
    b = shared.bound_states("scarf2-raw", 2.0, 3.0, 800)
    tags, _ = eigen.classify_spectrum(b.values, 1e-6)
    assert tags.count("pair-member") >= 2
    assert np.max(np.abs(b.values.imag)) >= 1e-3


def _laplacian_dominated(N, seed, kinetic, spread):
    """`_pt_matrix` plus spread times a normalized -D2: still PT-symmetric,
    with the real spread of a Hamiltonian, so that a few levels lie far below
    the rest and shift-invert has something to find."""
    K0 = -diff_matrix(make_grid(1.0, N), 2, 2).toarray().real
    return _pt_matrix(N, seed, kinetic) + spread * K0 / np.max(np.abs(K0))


def _top_between_levels(vals, j):
    """A cut between the j-th and (j+1)-th distinct real parts (below all for
    j = -1), so no level sits at rounding distance from it."""
    re = np.unique(np.round(vals.real, 6))
    return re[0] - 1.0 if j < 0 else 0.5 * (re[j] + re[j + 1])


def _assert_matches_dense_below(rep, dense, top):
    keep = dense.eigenvalues.real < top
    ref = dense.eigenvalues[keep]
    vals = rep.eigenvalues
    assert len(vals) == len(ref)
    assert np.all(vals.real < top)
    assert np.array_equal(np.lexsort((vals.imag, vals.real)), np.arange(len(vals)))
    dist = np.abs(vals[:, None] - ref[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(dist)
    assert np.all(dist[rows, cols] <= 1e-9 * (1 + np.abs(vals[rows])))
    assert sorted(rep.classification) == sorted(np.array(dense.classification)[keep])


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(128, 320),
    seed=st.integers(0, 2**32 - 1),
    kinetic=st.sampled_from(["tridiagonal", "accuracy-4"]),
    spread=st.floats(50.0, 400.0),
    j=st.integers(-1, 10),
)
def test_eig_below_matches_dense_below_the_cut(N, seed, kinetic, spread, j):
    M = sp.csr_array(_laplacian_dominated(N, seed, kinetic, spread))
    dense = eigen.eig(M)
    top = _top_between_levels(dense.eigenvalues, j)
    rep = eigen.eig_below(M, top)
    assert rep.solver in ("shift-invert", "aberth" if kinetic == "tridiagonal" else "real-pt")
    _assert_matches_dense_below(rep, dense, top)
    vals = rep.eigenvalues
    # real levels are exactly real; a pair is exact conjugates, -Im first
    assert all(v.imag == 0 for v, tag in zip(vals, rep.classification) if tag == "real")
    for i in np.flatnonzero(vals.imag < 0):
        assert vals[i + 1] == np.conj(vals[i])
    assert np.count_nonzero(vals.imag > 0) == np.count_nonzero(vals.imag < 0)


@settings(max_examples=15, deadline=None)
@given(
    N=st.integers(128, 320),
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(50.0, 400.0),
    j=st.integers(0, 6),
)
def test_eig_below_vectors_meet_the_backward_error_contract(N, seed, spread, j):
    M = _laplacian_dominated(N, seed, "accuracy-4", spread)
    top = _top_between_levels(scipy.linalg.eigvals(M), j)
    rep = eigen.eig_below(sp.csr_array(M), top, want_vectors=True)
    assert rep.vectors.shape == (N, len(rep.eigenvalues))
    bound = 1e-10 * np.linalg.norm(M, "fro")
    for lam, v in zip(rep.eigenvalues, rep.vectors.T):
        assert np.linalg.norm(M @ v - lam * v) <= bound * np.linalg.norm(v)


def test_eig_below_finds_the_odd_level_of_a_non_pt_even_potential():
    # V = -6 sech^2 x + 0.5 i sech^2 x is parity-even but not PT-symmetric:
    # the complex path runs, and the odd level near -1 must be found too.
    V = ops.CustomPotential(expr.parse("-6*sech(x)^2 + 0.5*i*sech(x)^2"))
    H = ops.build_hamiltonian(shared.grid(800), V)
    rep = eigen.eig_below(H, 0.0, want_vectors=True)
    assert rep.solver == "shift-invert"
    dense = eigen.eig(H)
    _assert_matches_dense_below(rep, dense, 0.0)
    assert len(rep.eigenvalues) == 2
    v_odd = rep.vectors[:, 1]
    assert np.linalg.norm(v_odd + v_odd[::-1]) <= 1e-8 * np.linalg.norm(v_odd)


def test_eig_below_runs_shift_invert_on_the_gauged_accuracy_4_grid():
    # the odd-reflection wall rows keep -D2 symmetric, so the Gershgorin box
    # of this H stays narrow and the disc about it holds few levels
    H = shared.hamiltonian("special-b1", 2.0, 0.0, 400, shared.GAUGE_BETA, 4)
    rep = eigen.eig_below(H, 1e-3)
    assert rep.solver == "shift-invert"
    _assert_matches_dense_below(rep, eigen.eig(H), 1e-3)


def test_eig_below_falls_back_to_dense_when_k_would_pass_n_over_k_fraction():
    # below n = _K_FRACTION * _K_START ARPACK is never asked: `eig` runs
    N = 96
    assert N < eigen._K_FRACTION * eigen._K_START
    for accuracy in (2, 4):
        H = shared.hamiltonian("scarf2", 2.0, 1.0, N, 0.0, accuracy)
        rep = eigen.eig_below(H, 1e-3)
        assert rep.solver == "aberth"
        _assert_matches_dense_below(rep, eigen.eig(H), 1e-3)


def test_eig_below_with_a_cut_below_the_numerical_range_is_empty():
    H = shared.hamiltonian("scarf2", 2.0, 1.0, 400)
    rep = eigen.eig_below(H, -100.0, want_vectors=True)
    assert len(rep.eigenvalues) == 0 and rep.vectors.shape == (400, 0)


def test_eig_below_min_count_keeps_the_lowest_dense_levels():
    # scarf2 (2, 1) has three Re < 0 levels, all found by shift-invert
    H = shared.hamiltonian("scarf2", 2.0, 1.0, 400)
    assert eigen.eig_below(H, 0.0, min_count=3).solver == "shift-invert"
    dense = eigen.eig(H, want_vectors=True)
    for top, count in ((0.0, 5), (-100.0, 2)):  # the second cut lies below the box
        rep = eigen.eig_below(H, top, want_vectors=True, min_count=count)
        assert rep.solver == "real-pt"
        np.testing.assert_array_equal(rep.eigenvalues, dense.eigenvalues[:count])
        np.testing.assert_array_equal(rep.vectors, dense.vectors[:, :count])
    for count in (-1, 401):
        with pytest.raises(ParameterError):
            eigen.eig_below(H, 0.0, min_count=count)


def test_eig_below_is_bitwise_deterministic():
    H = shared.hamiltonian("scarf2-raw", 2.0, 3.0, 800)
    a = eigen.eig_below(H, 0.0, want_vectors=True)
    b = eigen.eig_below(H, 0.0, want_vectors=True)
    assert a.solver == b.solver == "shift-invert"
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
    assert a.vectors.tobytes() == b.vectors.tobytes()
    assert a.classification == b.classification and a.pairing == b.pairing


def test_numerical_range_box_holds_every_eigenvalue():
    for kind, p2, beta, acc in (("scarf2", 1.0, 0.0, 2), ("scarf2-raw", 3.0, 0.0, 2),
                                ("special-b1", 0.0, shared.GAUGE_BETA, 4)):
        H = shared.hamiltonian(kind, 2.0, p2, 400, beta, acc)
        lo, b = eigen._numerical_range_box(H)
        vals = eigen.eig(H).eigenvalues
        assert np.all(vals.real >= lo) and np.all(np.abs(vals.imag) <= b)


@pytest.mark.parametrize("kind,p2,N,beta,accuracy", [
    ("scarf2", 1.0, 1600, 0.0, 2),
    ("scarf2-raw", 3.0, 800, 0.0, 2),
    ("special-b1", 0.0, 1600, shared.GAUGE_BETA, 4),
])
def test_sparse_bound_states_agree_with_dense_on_the_acceptance_fixtures(kind, p2, N, beta,
                                                                         accuracy):
    # the reference: every eigenvalue of the gauged H on both grids, so the
    # agreement also pins the gauge invariance of the fixture's H0 levels
    dense = eigen.converged_bound_states(shared.eig_values(kind, 2.0, p2, N // 2, beta, accuracy),
                                         shared.eig_values(kind, 2.0, p2, N, beta, accuracy))
    sparse = shared.bound_states(kind, 2.0, p2, N, accuracy)
    assert len(sparse.values) == len(dense.values) > 0
    np.testing.assert_allclose(sparse.values, dense.values, rtol=0, atol=1e-9)
    np.testing.assert_allclose(sparse.movement, dense.movement, rtol=0, atol=1e-9)
    assert len(sparse.rejected) == len(dense.rejected)



@settings(max_examples=20, deadline=None)
@given(A=st.floats(1.0, 3.0), B=st.floats(0.6, 1.6), accuracy=st.sampled_from([2, 4]))
def test_bound_levels_decides_the_same_from_every_level_or_the_negative_ones(A, B, accuracy):
    # the argument of the `bound_levels` docstring: the fine-grid candidates
    # are the Re < 0 levels either way, so the filter keeps and rejects the same
    potential = ops.ScarfII(*models.scarf2_strengths(A, B))  # the bench's Scarf II draws
    full = eigen.bound_levels(potential, shared.L_BOX, 400, accuracy, full=True)[1]
    below = eigen.bound_levels(potential, shared.L_BOX, 400, accuracy)[1]
    event(f"accuracy {accuracy}: {len(full.values)} kept, {len(full.rejected)} rejected")
    assert len(below.values) == len(full.values)
    assert len(below.rejected) == len(full.rejected)
    np.testing.assert_allclose(below.values, full.values, rtol=0, atol=1e-9)
    np.testing.assert_allclose(below.movement, full.movement, rtol=0, atol=1e-9)

def _no_convergence(*args, **kwargs):
    from scipy.sparse.linalg import ArpackNoConvergence

    raise ArpackNoConvergence("forced", np.empty(0), np.empty((0, 0)))


@pytest.mark.parametrize("fault", ["no-convergence", "bad-vectors"])
def test_eig_below_falls_back_to_dense_when_arpack_fails(monkeypatch, fault):
    import scipy.sparse.linalg

    H = shared.hamiltonian("scarf2", 2.0, 1.0, 400)
    if fault == "no-convergence":
        monkeypatch.setattr(scipy.sparse.linalg, "eigs", _no_convergence)
    else:
        real = eigen._shift_invert

        def perturbed(*args):
            vals, vecs = real(*args)
            return vals, vecs + 1e-6

        monkeypatch.setattr(eigen, "_shift_invert", perturbed)
    rep = eigen.eig_below(H, 0.0, want_vectors=True)
    assert rep.solver == "real-pt"
    dense = eigen.eig(H, want_vectors=True)
    np.testing.assert_array_equal(rep.eigenvalues, dense.eigenvalues[:3])
    np.testing.assert_array_equal(rep.vectors, dense.vectors[:, :3])
