"""Mesh construction and finite-difference matrix checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etaqm import diff_matrix, make_grid
from etaqm.errors import ParameterError
from etaqm.grid import fornberg_weights


def test_make_grid_examples():
    g = make_grid(1.0, 3)
    assert g.h == pytest.approx(0.5)
    np.testing.assert_allclose(g.points, [-0.5, 0.0, 0.5])

    g = make_grid(10.0, 999)
    assert g.h == pytest.approx(0.02)
    assert g.points[0] == pytest.approx(-9.98)


def test_make_grid_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        make_grid(1.0, 2)
    with pytest.raises(ParameterError):
        make_grid(0.0, 100)
    with pytest.raises(ParameterError):
        make_grid(-3.0, 100)


@pytest.mark.parametrize("N", [8, 9, 400, 401])
def test_grid_symmetry_is_exact(N):
    g = make_grid(7.3, N)
    assert np.all(np.diff(g.points) > 0)
    np.testing.assert_array_equal(g.points, -g.points[::-1])
    assert g.h * (N + 1) == pytest.approx(2 * 7.3, rel=1e-15)


def _mirror_loop_points(L, N):
    """Mesh nodes by the per-node mirror loop, the reference for make_grid."""
    h = 2.0 * L / (N + 1)
    x = np.empty(N)
    half = N // 2
    for j in range(half):
        x[j] = -L + (j + 1) * h
        x[N - 1 - j] = -x[j]
    if N % 2 == 1:
        x[half] = 0.0
    return x


@settings(max_examples=200, deadline=None)
@given(
    N=st.integers(3, 2000),
    L=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
)
def test_make_grid_matches_the_mirror_loop_bit_for_bit(N, L):
    assert make_grid(L, N).points.tobytes() == _mirror_loop_points(L, N).tobytes()


def test_fornberg_reproduces_classic_stencils():
    w = fornberg_weights(0.0, np.array([-1.0, 0.0, 1.0]), 2)
    np.testing.assert_allclose(w, [1.0, -2.0, 1.0], atol=1e-13)
    w = fornberg_weights(0.0, np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), 1)
    np.testing.assert_allclose(w, [1 / 12, -2 / 3, 0, 2 / 3, -1 / 12], atol=1e-13)


def test_center_row_of_small_second_derivative():
    g = make_grid(1.0, 3)  # h = 0.5
    D2 = diff_matrix(g, 2, 2).toarray()
    np.testing.assert_allclose(D2[1].real, [4.0, -8.0, 4.0], atol=1e-12)


def test_first_derivative_interior_row_sums_vanish():
    g = make_grid(5.0, 64)
    D1 = diff_matrix(g, 1, 2)
    sums = D1.sum(axis=1)
    assert np.max(np.abs(sums[1:-1])) < 1e-12


def test_interior_stencil_symmetry():
    g = make_grid(5.0, 64)
    D1 = diff_matrix(g, 1, 2).toarray()
    D2 = diff_matrix(g, 2, 2).toarray()
    inner = slice(2, -2)
    np.testing.assert_allclose(D1[inner, inner], -D1[inner, inner].T, atol=1e-12)
    np.testing.assert_allclose(D2[inner, inner], D2[inner, inner].T, atol=1e-12)


def test_parity_symmetry_is_exact():
    g = make_grid(6.0, 81)
    for order, sign in ((1, -1.0), (2, 1.0)):
        for acc in (2, 4):
            D = diff_matrix(g, order, acc).toarray()
            np.testing.assert_array_equal(D, sign * D[::-1, ::-1])


def test_sine_mode_second_derivative():
    L, N = 8.0, 800
    g = make_grid(L, N)
    k = np.pi / (2 * L)
    f = np.sin(k * (g.points + L))  # vanishes at both walls
    D2 = diff_matrix(g, 2, 2)
    err = np.max(np.abs((D2 @ f).real + k * k * f))
    assert err <= 10 * g.h**2  # C h^2 with a modest constant


@pytest.mark.parametrize("order,acc,lo,hi", [
    (1, 2, 3.0, 5.0), (2, 2, 3.0, 5.0),
    (1, 4, 10.0, 22.0), (2, 4, 10.0, 22.0),
])
def test_convergence_orders(order, acc, lo, hi):
    # doubling N shrinks the max interior error ~4x (acc 2) or ~16x (acc 4)
    L = 8.0
    errs = []
    for N in (400, 800):
        g = make_grid(L, N)
        x = g.points
        f = np.exp(-x * x)
        exact = (-2 * x) * f if order == 1 else (4 * x * x - 2) * f
        D = diff_matrix(g, order, acc)
        errs.append(np.max(np.abs((D @ f).real - exact)[4:-4]))
    ratio = errs[0] / errs[1]
    assert lo <= ratio <= hi


def test_diff_matrix_rejects_bad_orders():
    g = make_grid(1.0, 8)
    with pytest.raises(ParameterError):
        diff_matrix(g, 3, 2)
    with pytest.raises(ParameterError):
        diff_matrix(g, 1, 6)


def _row_by_row_reference(g, order, accuracy):
    """Dense derivative matrix built one Fornberg call per row, each ghost
    node past a wall folded into its mirror node by odd reflection: the
    oracle that the banded diff_matrix must reproduce bit for bit."""
    N, h = g.N, g.h
    radius = (order + accuracy - 1) // 2
    M = np.zeros((N, N), dtype=complex)
    for j in range(N):
        ks = list(range(j - radius, j + radius + 1))
        w = fornberg_weights(0.0, np.array([(k - j) * h for k in ks]), order)
        row = dict(zip(ks, w))
        for k, wk in zip(ks, w):
            if k < -1:  # psi[k] = -psi[-2 - k]
                row[-2 - k] -= wk
            elif k > N:  # psi[k] = -psi[2N - k]
                row[2 * N - k] -= wk
        for k, wk in row.items():
            if 0 <= k < N:
                M[j, k] = wk
    sign = 1.0 if order == 2 else -1.0
    return 0.5 * (M + sign * M[::-1, ::-1])


@settings(max_examples=80, deadline=None)
@given(
    N=st.integers(3, 64),
    L=st.floats(0.25, 64.0, allow_nan=False, allow_infinity=False),
    order=st.sampled_from([1, 2]),
    accuracy=st.sampled_from([2, 4]),
)
def test_banded_build_matches_row_by_row_reference(N, L, order, accuracy):
    g = make_grid(L, N)
    D = diff_matrix(g, order, accuracy)
    assert D.format == "csr"
    dense = D.toarray()
    np.testing.assert_array_equal(dense, _row_by_row_reference(g, order, accuracy))
    sign = 1.0 if order == 2 else -1.0
    np.testing.assert_array_equal(dense, sign * dense[::-1, ::-1])
    coo = D.tocoo()
    assert np.max(np.abs(coo.row - coo.col)) <= (1 if accuracy == 2 else 2)
    if order == 2:
        np.testing.assert_array_equal(dense, dense.T)
        return
    diagonal = np.diag(np.diag(dense))
    np.testing.assert_array_equal(dense - diagonal, -(dense - diagonal).T)
    # the only stored diagonal entries are the odd-reflection folds at accuracy 4
    on_diagonal = sorted(coo.row[coo.row == coo.col])
    assert on_diagonal == ([0, N - 1] if accuracy == 4 else [])
    assert dense[0, 0] == -dense[-1, -1]


@settings(max_examples=150, deadline=None)
@given(
    N=st.integers(3, 200),
    L=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
    seed=st.integers(0, 2**32 - 1),
    columns=st.sampled_from([None, 2]),
)
def test_first_derivative_is_odd_under_parity_bit_for_bit(N, L, seed, columns):
    # d_x of phi = conj(v(-x)) can be read off D1 v through this identity;
    # it holds exactly because P D1 P = -D1 and every accuracy-2 row holds
    # at most two terms, whose sum does not depend on their order
    rng = np.random.default_rng(seed)
    shape = (N,) if columns is None else (N, columns)
    scale = 10.0 ** rng.uniform(-150, 150, size=shape)
    v = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale
    v[rng.random(size=shape) < 0.1] = 0.0
    D1 = diff_matrix(make_grid(L, N), 1, 2)
    assert np.array_equal(D1 @ np.conj(v[::-1]), -np.conj((D1 @ v)[::-1]))
