"""Discretized Hamiltonians, metric (eta) operators, and identity checks.

Hamiltonians (hbar = 2m = 1, p = -i d/dx):

    H      = -D2 + diag(V)
    H_beta = G H G^-1,  G = diag(exp(beta F)),  F(x) = int_0^x nu

The gauged form is [p + i beta nu(x)]^2 + V(x) through the identity
p + i beta nu = e^{beta F} p e^{-beta F}: each stored entry of H is scaled
by exp(beta (F_i - F_j)), so H_beta has H's eigenvalues and, for a
PT-symmetric V, the metric P exp(-2 beta F), both to rounding (the lattice
imaginary gauge transformation of Hatano & Nelson, PRL 77, 570 (1996)).
nu must be real and odd.  V is either the closed-form complex Scarf II potential
V = -V1 sech^2 x + k - i V2 sech x tanh x (`ScarfII`, of which every named
family in `models` is a point) or an expression (`CustomPotential`).

Metric operators come in five families: the identity, parity, the gauge
metric P exp(-2 beta F) (the weight alone for a real V), a first-order
differential operator D1 + i g(x), and a second-order Hermitian operator
D2 - 2 i a(x) D1 + b(x) with b = -V + i a' - 2 a^2 - delta.

Every operator is local, so each is built as a sparse (CSR) banded matrix;
only the dense LAPACK path of `eigen.eig` makes a dense copy.  The residual
checks accept dense or sparse operands.

Intertwining (eta H = H^dagger eta) is verified on Gaussian probe states,
not entrywise: differential operators truncated to a Dirichlet box carry
O(1) boundary-row defects that have no physical meaning for decaying states.
Each check stacks the probes as the columns of one (N, m) block, forms its
adjoints and scale once, applies each operator once to the block, and
reads one residual per probe: an exactly zero defect reads 0, a nonzero
defect over a zero scale inf, and a NaN propagates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr
from .errors import DimensionError, OddFunctionError, ParameterError, PoleError
from .expr import Expr
from .grid import Grid, diff_matrix

__all__ = [
    "ScarfII", "CustomPotential", "PotentialSpec",
    "GaugeSpec",
    "IdentityEta", "ParityEta", "MultiplicativeEta", "FirstOrderEta", "SecondOrderEta",
    "EtaSpec",
    "adjoint", "potential_on_grid", "is_pt_symmetric", "build_hamiltonian", "build_eta",
    "gauge_weight", "gauge_antiderivative", "gaussian_probes",
    "intertwining_residual", "hermiticity_indicators", "eta_plus_minus",
    "susy_pair", "verify_factorization", "FactorizationReport",
]

_SYMMETRY_TOL = 1e-10  # relative, for the grid checks: nu odd and real, V PT-symmetric


def _is_integer(v: float, tol: float = 1e-9) -> bool:
    return abs(v - round(v)) <= tol


# ---------------------------------------------------------------------------
# Potential and gauge specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScarfII:
    """V = -V1 sech^2 x + k - i V2 sech x tanh x, the complex Scarf II
    potential from its strengths.  Every named family is a point of it;
    `models` maps each family's parameters, and gates them."""

    V1: float
    V2: float
    k: float = 0.0


@dataclass(frozen=True)
class CustomPotential:
    V: Expr


PotentialSpec = ScarfII | CustomPotential


@dataclass(frozen=True)
class GaugeSpec:
    """Imaginary gauge coupling: beta real, nu(x) real and odd."""

    beta: float
    nu: Expr


# ---------------------------------------------------------------------------
# Eta specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityEta:
    pass


@dataclass(frozen=True)
class ParityEta:
    pass


@dataclass(frozen=True)
class MultiplicativeEta:
    """eta = P W for a V with a nonzero imaginary part on the grid, else W,
    with W = diag(exp(-2 beta int_0^x nu)), the metric of the gauged H."""

    beta: float
    nu: Expr
    V: PotentialSpec


@dataclass(frozen=True)
class FirstOrderEta:
    """eta = D1 + i g(x); anti-Hermitian on interior rows for even g."""

    g: Expr


@dataclass(frozen=True)
class SecondOrderEta:
    """eta = D2 - 2 i a(x) D1 + b(x), b = -V + i a' - 2 a^2 - delta."""

    a: Expr
    delta: float
    V: PotentialSpec


EtaSpec = IdentityEta | ParityEta | MultiplicativeEta | FirstOrderEta | SecondOrderEta


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def adjoint(M):
    return M.conj().T


def _diag(v):
    """Diagonal CSR matrix holding the samples v."""
    import scipy.sparse as sp

    n = len(v)
    return sp.csr_array((np.asarray(v, dtype=complex), np.arange(n), np.arange(n + 1)),
                        shape=(n, n))


def _fro(M) -> float:
    """Frobenius norm of a dense matrix, or of the stored entries of a sparse one."""
    import scipy.sparse as sp

    return float(np.linalg.norm(M.data if sp.issparse(M) else M))


def potential_on_grid(grid: Grid, spec: PotentialSpec) -> np.ndarray:
    """Complex potential samples V(x_j)."""
    x = grid.points
    if isinstance(spec, ScarfII):
        sech = 1.0 / np.cosh(x)
        return -spec.V1 * sech**2 + spec.k - 1j * spec.V2 * sech * np.tanh(x)
    if isinstance(spec, CustomPotential):
        return expr.evaluate_on(spec.V, x)
    raise ParameterError(f"unknown potential spec {spec!r}")


def is_pt_symmetric(grid: Grid, spec: PotentialSpec) -> bool:
    """V(-x) == conj V(x) on the mirror-exact grid, to 1e-10 (1 + |V|).

    This is the hypothesis of the generalized continuity law; the gauge
    factor G of H_beta commutes with PT because F is real and even.
    """
    Vx = potential_on_grid(grid, spec)
    return bool(np.all(np.abs(Vx[::-1] - np.conj(Vx)) <= _SYMMETRY_TOL * (1.0 + np.abs(Vx))))


def _check_odd_real(grid: Grid, nu: Expr) -> np.ndarray:
    """Samples of nu on the grid, verified real-valued and odd."""
    vals = expr.evaluate_on(nu, grid.points)
    scale = 1.0 + np.abs(vals)
    if np.any(np.abs(vals.imag) > _SYMMETRY_TOL * scale):
        raise OddFunctionError(f"nu = {expr.to_source(nu)} is not real-valued on the grid")
    v = vals.real
    if np.any(np.abs(v + v[::-1]) > _SYMMETRY_TOL * scale):
        raise OddFunctionError(f"nu = {expr.to_source(nu)} is not odd on the grid")
    return v


def build_hamiltonian(
    grid: Grid,
    V: PotentialSpec,
    gauge: GaugeSpec | None = None,
    accuracy: int = 2,
):
    """CSR H = -D2 + diag(V), or with a GaugeSpec H_beta = G H G^-1 for
    G = diag(exp(beta F)), F = `gauge_antiderivative`: each stored entry
    H[i, j] times exp(beta (F_i - F_j)), which stays finite for any beta
    the grid can carry."""
    H = -diff_matrix(grid, 2, accuracy) + _diag(potential_on_grid(grid, V))
    if gauge is not None:
        F = gauge_antiderivative(grid, gauge.nu)
        rows = np.repeat(np.arange(grid.N), np.diff(H.indptr))
        H.data *= np.exp(gauge.beta * (F[rows] - F[H.indices]))
    return H


def gauge_antiderivative(grid: Grid, nu: Expr) -> np.ndarray:
    """F(x_j) = int_0^{x_j} nu(y) dy by composite trapezoid cumulative sums
    with the Euler-Maclaurin end correction -(h^2/12)(nu'(x_j) - nu'(0)).

    F vanishes at the middle node: x = 0 for odd N, x = h/2 for even N,
    where it drops int_0^{h/2} nu = O(h^2), a constant that cancels in every
    difference F_i - F_j and scales the weight by 1 + O(h^2).  nu is
    verified real and odd; F is then even and is symmetrized to make that
    exact in floating point.
    """
    v = _check_odd_real(grid, nu)
    G = np.concatenate([[0.0], np.cumsum(0.5 * grid.h * (v[1:] + v[:-1]))])
    dnu = expr.derive(nu)
    end = expr.evaluate_on(dnu, grid.points).real - expr.evaluate(dnu, 0.0).real
    F = G - G[grid.N // 2] - grid.h**2 / 12.0 * end
    return 0.5 * (F + F[::-1])


def gauge_weight(grid: Grid, beta: float, nu: Expr) -> np.ndarray:
    """Multiplicative metric samples exp[-2 beta int_0^x nu].

    Raises ParameterError, naming beta and max|int nu|, when a sample
    overflows or underflows to 0.
    """
    F = gauge_antiderivative(grid, nu)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        w = np.exp(-2.0 * beta * F)
    if not np.all((w > 0) & np.isfinite(w)):
        raise ParameterError(f"gauge weight exp(-2 beta int nu) is not finite and positive: "
                             f"beta={beta!r}, max|int nu|={float(np.max(np.abs(F)))!r}")
    return w


def parity_matrix(N: int):
    """CSR permutation (P u)_j = u_{N-1-j}."""
    import scipy.sparse as sp

    return sp.csr_array((np.ones(N, dtype=complex), np.arange(N - 1, -1, -1), np.arange(N + 1)),
                        shape=(N, N))


def build_eta(grid: Grid, spec: EtaSpec, accuracy: int = 2):
    """Sparse (CSR) matrix for any of the metric families."""
    N = grid.N
    if isinstance(spec, IdentityEta):
        return _diag(np.ones(N))
    if isinstance(spec, ParityEta):
        return parity_matrix(N)
    if isinstance(spec, MultiplicativeEta):
        W = _diag(gauge_weight(grid, spec.beta, spec.nu))
        return parity_matrix(N) @ W if np.any(potential_on_grid(grid, spec.V).imag) else W
    if isinstance(spec, FirstOrderEta):
        g = expr.evaluate_on(spec.g, grid.points)
        return diff_matrix(grid, 1, accuracy) + _diag(1j * g)
    if isinstance(spec, SecondOrderEta):
        x = grid.points
        a = expr.evaluate_on(spec.a, x).real
        ap = expr.evaluate_on(expr.derive(spec.a), x).real
        Vx = potential_on_grid(grid, spec.V)
        b = -Vx + 1j * ap - 2.0 * a * a - spec.delta
        D1 = diff_matrix(grid, 1, accuracy)
        D2 = diff_matrix(grid, 2, accuracy)
        return D2 + _diag(-2j * a) @ D1 + _diag(b)
    raise ParameterError(f"unknown eta spec {spec!r}")


# ---------------------------------------------------------------------------
# Probe-based residuals
# ---------------------------------------------------------------------------

def gaussian_probes(grid: Grid, centers=None, sigma: float | None = None) -> list[np.ndarray]:
    """Gaussian bumps exp(-(x-c)^2 / 2 sigma^2), decaying well inside the box.

    Defaults: centers at 0, +-L/4, +-L/2 and sigma = L/10.
    """
    L = grid.L
    if sigma is None:
        sigma = L / 10.0
    if centers is None:
        centers = [-L / 2, -L / 4, 0.0, L / 4, L / 2]
    for c in centers:
        if abs(c) > L / 2:
            raise ParameterError(f"probe center {c} outside |c| <= L/2")
    x = grid.points
    return [np.exp(-((x - c) ** 2) / (2.0 * sigma**2)).astype(complex) for c in centers]


_PROBE_MARGIN = 8  # rows next to the boundary excluded from probe residuals


def _probe_residual(defect, scale: float, W, margin: int = _PROBE_MARGIN) -> np.ndarray:
    """||defect_k|| / (scale ||w_k||) for each probe column w_k of W, over the
    rows of the (N, m) defect block inside the margin.

    An exactly zero defect column reads 0 whatever the scale; a nonzero one
    over a zero scale reads inf.  A NaN in the defect or the scale gives NaN.
    Each norm runs on one column as a vector, so every residual keeps the
    bits of a check on that probe alone.
    """
    num = np.array([np.linalg.norm(d) for d in defect[margin:-margin].T])
    den = scale * np.array([np.linalg.norm(w) for w in W.T])
    r = np.divide(num, den, out=np.full_like(num, np.inf), where=den != 0)
    r[num == 0.0] = 0.0
    return r


def intertwining_residual(eta, H, probes) -> np.ndarray:
    """||(eta H - H^dagger eta) w|| / (||eta H||_F ||w|| / sqrt(N)), one per probe w.

    Entries of the defect vector within a small boundary band are discarded:
    Dirichlet truncation gives differential eta matrices O(1) defects in the
    first/last rows that are irrelevant for decaying states.  eta and H may
    be dense or sparse; each is applied once to the whole probe block.
    """
    if eta.shape != H.shape or eta.shape[0] != eta.shape[1]:
        raise DimensionError(f"shape mismatch: eta {eta.shape}, H {H.shape}")
    W = np.stack(probes, axis=1)
    scale = _fro(eta @ H) / np.sqrt(H.shape[0])
    return _probe_residual(eta @ (H @ W) - adjoint(H) @ (eta @ W), scale, W)


def hermiticity_indicators(eta, probes) -> tuple[float, float]:
    """Probe-normalized sizes of (eta - eta^dagger) and (eta + eta^dagger),
    each the max over the probes.

    Returns (hermitian_defect, anti_hermitian_defect); a Hermitian operator
    has small first component, an anti-Hermitian one a small second.
    """
    W = np.stack(probes, axis=1)
    scale = _fro(eta) / np.sqrt(eta.shape[0])
    eW, edW = eta @ W, adjoint(eta) @ W
    herm = _probe_residual(eW - edW, scale, W)
    anti = _probe_residual(eW + edW, scale, W)
    return float(herm.max()), float(anti.max())


def eta_plus_minus(eta):
    """(eta + eta^dagger, eta - eta^dagger): the Hermitian part intertwines
    strictly, the anti-Hermitian part in the weak sense; their sum is 2 eta."""
    if eta.ndim != 2 or eta.shape[0] != eta.shape[1]:
        raise DimensionError(f"square matrix required, got shape {eta.shape}")
    ed = adjoint(eta)
    return eta + ed, eta - ed


# ---------------------------------------------------------------------------
# SUSY partner potentials and the second-order factorization
# ---------------------------------------------------------------------------

def susy_pair(g: Expr, k: float) -> tuple[CustomPotential, CustomPotential]:
    """Potential pair of the imaginary superpotential W = i g(x):
    V = -g^2 + k - i g' and its complex conjugate partner."""
    gp = expr.derive(g)
    base = expr.add(expr.neg(expr.power(g, 2)), expr.const(k))
    V = expr.sub(base, expr.mul(expr.const(1j), gp))
    Vp = expr.add(base, expr.mul(expr.const(1j), gp))
    return CustomPotential(V), CustomPotential(Vp)


@dataclass(frozen=True)
class FactorizationReport:
    probe_residual: float
    riccati_defect: float


def verify_factorization(
    grid: Grid,
    a: Expr,
    gamma: float,
    r: Expr,
    eta_matrix,
    probes=None,
    accuracy: int = 2,
) -> FactorizationReport:
    """Check eta = -O^dagger O with O = D1 + (r - i a), O^dagger = -D1 + (r + i a).

    Returns the interior-probe residual of ||eta + O^dagger O|| together with
    the max pointwise defect of the Riccati condition
    r^2 - r' = a''/(2a) - (a'/(2a))^2 + gamma/(4 a^2).
    """
    x = grid.points
    av = expr.evaluate_on(a, x).real
    near_zero = np.abs(av) < 1e-12
    if gamma != 0.0 and near_zero.any():
        raise PoleError(
            f"a = {expr.to_source(a)} vanishes on the grid while gamma = {gamma} != 0"
        )
    ap = expr.evaluate_on(expr.derive(a), x).real
    app = expr.evaluate_on(expr.derive(expr.derive(a)), x).real
    rv = expr.evaluate_on(r, x).real
    rp = expr.evaluate_on(expr.derive(r), x).real

    with np.errstate(all="ignore"):
        rhs = app / (2 * av) - (ap / (2 * av)) ** 2 + gamma / (4 * av * av)
        defect = np.abs(rv * rv - rp - rhs)
    riccati = float(np.max(defect[~near_zero])) if (~near_zero).any() else float("nan")

    D1 = diff_matrix(grid, 1, accuracy)
    O = D1 + _diag(rv - 1j * av)
    Od = -D1 + _diag(rv + 1j * av)
    W = np.stack(gaussian_probes(grid) if probes is None else probes, axis=1)
    scale = _fro(eta_matrix) / np.sqrt(grid.N)
    resid = _probe_residual(eta_matrix @ W + Od @ (O @ W), scale, W).max()
    return FactorizationReport(probe_residual=float(resid), riccati_defect=riccati)
