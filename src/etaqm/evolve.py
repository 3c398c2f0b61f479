"""Crank-Nicolson evolution and the generalized continuity/conservation law.

Two fields obey i d/dt psi = H psi: psi1, and psi2, which enters through
phi(x,t) = conj(psi2(-x,t)).  Both are stepped forward together with one
Crank-Nicolson factorization, and phi is formed from psi2 when a step is
recorded, so no symmetry of H is assumed.  When psi2(0) equals psi1(0) bit
for bit, the two fields stay equal, so only one is stepped.  A step is
psi' = A^-1 B psi with A = I + (i dt/2) H and B = I - (i dt/2) H; since
A + B = 2I, A^-1 B = 2 A^-1 - I, so a step is one sparse LU solve and an
axpy, with no B.

Recorded per step n -> n+1:

    Q      = h sum_j w_j phi_j psi1_j                   (conserved quantity)
    P_j    = w_j phi_j psi1_j                           (density)
    F(j,k) = i s_jk (mpsi_j mphi_k - mphi_j mpsi_k)     (flux over bond j-k)
    defect = max_j |(P_j^{n+1} - P_j^n)/dt - sum_k F(j,k)|

with mpsi, mphi the step midpoints (psi1^n + psi1^{n+1})/2 and
(phi^n + phi^{n+1})/2, and s_jk = (w_j H_jk + w_k H_kj)/2 the symmetric
weight of the bond between nodes j != k that H couples.  Crank-Nicolson is
the implicit midpoint rule, so for PT-symmetric H this law is exact per
step: the defect is i [(A mphi) mpsi - mphi (A mpsi)], where A is the
antisymmetric part of W H (the diagonal cancels), and for non-PT H also
the mismatch between P conj(H) P and H.  It reads rounding exactly when w
makes W H symmetric, the paper's condition, at accuracy 2 and 4 alike.
F(j,k) = -F(k,j), so the fluxes cancel in the sum over nodes and Q is
conserved exactly when the law holds; no flux crosses a wall, so every node
counts.  Row 0 of the trace is 0: no step has been taken yet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NanAbortError, ParameterError, SingularSystemError
from .grid import Grid
from .operators import _is_integer

__all__ = ["EvolutionTrace", "run", "gaussian_state"]


@dataclass(frozen=True)
class EvolutionTrace:
    times: np.ndarray
    Q: np.ndarray                    # complex conserved-quantity samples
    continuity_residual: np.ndarray  # per-step max defect of the flux law; 0 at t = 0
    final_states: tuple[np.ndarray, np.ndarray]  # (psi1, psi2) at T


def gaussian_state(grid: Grid, x0: float = 0.0, sigma: float = 1.0, k: float = 0.0
                   ) -> np.ndarray:
    """L2-normalized Gaussian packet exp(-(x-x0)^2/4 sigma^2 + i k x)."""
    x = grid.points
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * k * x)
    return psi / (np.linalg.norm(psi) * np.sqrt(grid.h))


class _CrankNicolson:
    """Crank-Nicolson propagator for a fixed H and dt, factored once.

    A = I + (i dt/2) H is held as a sparse LU.  The step psi' = A^-1 B psi
    with B = I - (i dt/2) H is taken as psi' = 2 A^-1 psi - psi, since
    A + B = 2I gives A^-1 B = 2 A^-1 - I; B is never formed.  H is sparse or
    dense; psi is one field or a stack of fields as columns.
    """

    def __init__(self, H, dt: float):
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        Hs = sp.csc_matrix(H, dtype=complex)
        eye = sp.identity(Hs.shape[0], dtype=complex, format="csc")
        try:
            self.lu = splu(eye + (0.5j * dt) * Hs)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SingularSystemError(f"implicit Crank-Nicolson system is singular: {exc}") from exc

    def step(self, psi: np.ndarray) -> np.ndarray:
        out = self.lu.solve(psi)
        out *= 2
        out -= psi
        return out


def _bonds(H, w: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(o, s) for each offset o > 0 that H couples: s_j, the symmetric
    weight (w_j H_{j,j+o} + w_{j+o} H_{j+o,j})/2 of the bond (j, j+o)."""
    import scipy.sparse as sp

    Hs = sp.coo_matrix(H)
    offsets = np.unique(np.abs(Hs.col - Hs.row))
    return [(o, 0.5 * (w[:-o] * Hs.diagonal(o) + w[o:] * Hs.diagonal(-o)))
            for o in map(int, offsets[offsets > 0])]


def run(
    H,
    grid: Grid,
    eta_weight: np.ndarray,
    psi1_0: np.ndarray,
    psi2_0: np.ndarray,
    T: float,
    dt: float,
) -> EvolutionTrace:
    """Propagate both fields to time T and record Q(t) and the continuity defect.

    psi1 and psi2 step forward as the two columns of one array with a single
    Crank-Nicolson factorization, or as one column when psi2_0 and psi1_0
    are equal bit for bit (0.0 and -0.0 differ); T/dt must be a whole number
    of steps.  Row k >= 1 of the defect is the max over every node of
    |dP/dt - sum of bond fluxes| across step k (see the module docstring);
    it is rounding when the weight makes W H symmetric and H is
    PT-symmetric.  A non-finite state aborts with the last valid step index.
    """
    if not (T > 0 and dt > 0):
        raise ParameterError(f"require T > 0 and dt > 0, got T={T}, dt={dt}")
    ratio = T / dt
    if not (np.isfinite(ratio) and _is_integer(ratio, 1e-9 * ratio)):
        raise ParameterError(f"T/dt = {ratio!r} is not a whole number of steps")
    w = np.asarray(eta_weight, dtype=float)
    if w.shape != (grid.N,) or H.shape != (grid.N, grid.N):
        raise DimensionError("weight/H shapes do not match the grid")
    psi1_0 = np.asarray(psi1_0, dtype=complex)
    psi2_0 = np.asarray(psi2_0, dtype=complex)
    if psi1_0.shape != (grid.N,) or psi2_0.shape != (grid.N,):
        raise DimensionError(f"initial state shapes {psi1_0.shape}, {psi2_0.shape} "
                             f"do not match the grid N={grid.N}")
    if not (np.all(np.isfinite(psi1_0)) and np.all(np.isfinite(psi2_0))):
        raise ParameterError("initial states must be finite")

    steps = round(ratio)
    times = np.arange(steps + 1) * dt
    prop = _CrankNicolson(H, dt)
    # the midpoints enter doubled and dP/dt as P - P_old, so each bond
    # carries i dt/4 and the max is divided by dt once
    bonds = [(o, 0.25j * dt * s) for o, s in _bonds(H, w)]
    # equal fields stay equal, so step one column; psi2 is always psi[:, -1]
    same = psi1_0.tobytes() == psi2_0.tobytes()
    psi = np.column_stack([psi1_0] if same else [psi1_0, psi2_0])

    Q = np.empty(steps + 1, dtype=complex)
    defect_max = np.zeros(steps + 1)

    def density(k: int) -> np.ndarray:
        P = w * np.conj(psi[::-1, -1]) * psi[:, 0]
        Q[k] = grid.h * P.sum()
        return P

    with np.errstate(over="ignore", invalid="ignore"):  # overflow aborts below
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
            if not np.isfinite(Q[k]):  # any non-finite psi entry makes P, so Q, non-finite
                raise NanAbortError(last_valid_step=k - 1)

    return EvolutionTrace(
        times=times,
        Q=Q,
        continuity_residual=defect_max,
        final_states=(psi[:, 0].copy(), psi[:, -1].copy()),
    )
