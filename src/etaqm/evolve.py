"""Crank-Nicolson evolution and the generalized continuity/conservation law.

Two fields obey i d/dt psi = H psi: psi1, and psi2, which enters through
phi(x,t) = conj(psi2(-x,t)).  Both are stepped forward together with one
Crank-Nicolson factorization, and phi is formed from psi2 when a step is
recorded, so no symmetry of H is assumed.  When psi2(0) equals psi1(0) bit
for bit, the two fields stay equal, so only one is stepped.  A step is
psi' = A^-1 B psi with A = I + (i dt/2) H and B = I - (i dt/2) H; since
A + B = 2I, A^-1 B = 2 A^-1 - I, so a step is one sparse LU solve and an
axpy, with no B.

Recorded per step:

    Q(t)        = h sum w(x) phi(x,t) psi1(x,t)          (conserved quantity)
    P(x,t)      = w phi psi1                             (density)
    J(x,t)      = (w / i) [phi d_x psi1 - psi1 d_x phi]  (current)
    defect(x,t) = d_t P + d_x J                          (continuity residual)

with d_x by centered differences and d_t by centered differences across
steps (one-sided at the trace ends).  The accuracy-2 D1 is exactly odd under
parity, D1 conj(v(-x)) = -conj((D1 v)(-x)) bit for bit, so d_x phi is read
off D1 psi2 and one D1 product on the stepped fields serves both.  The
defect headline is the max over interior points, three nodes away from the
Dirichlet walls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NanAbortError, ParameterError, SingularSystemError
from .grid import Grid, diff_matrix
from .operators import _is_integer

__all__ = ["EvolutionTrace", "step_cn", "run", "continuity_fields", "gaussian_state"]

_EDGE_MARGIN = 3  # nodes excluded at each wall when maximizing the defect


@dataclass(frozen=True)
class EvolutionTrace:
    times: np.ndarray
    Q: np.ndarray                    # complex conserved-quantity samples
    continuity_residual: np.ndarray  # per-step max-norm of the defect
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


def step_cn(H, psi: np.ndarray, dt: float) -> np.ndarray:
    """One Crank-Nicolson step: (I + i dt/2 H) psi' = (I - i dt/2 H) psi.

    dt may be negative.  An exactly singular implicit system, or a solve that
    yields non-finite values, raises SingularSystemError.
    """
    if dt == 0 or not np.isfinite(dt):
        raise ParameterError(f"time step must be finite and nonzero, got {dt}")
    if H.shape[0] != H.shape[1] or H.shape[0] != len(psi):
        raise DimensionError(f"shape mismatch: H {H.shape}, psi {len(psi)}")
    out = _CrankNicolson(H, dt).step(np.asarray(psi, dtype=complex))
    if not np.all(np.isfinite(out)):
        raise SingularSystemError("implicit Crank-Nicolson solve produced non-finite values")
    return out


# -- continuity fields -------------------------------------------------------

def continuity_fields(
    grid: Grid,
    eta_weight: np.ndarray,
    psi1: np.ndarray,
    psi2: np.ndarray,
    dpsi1_dt: np.ndarray,
    dpsi2_dt: np.ndarray,
):
    """Instantaneous density P, current J, and continuity defect d_t P + d_x J.

    Time derivatives are supplied by the caller (for eigen-dynamics they are
    -i H psi); the psi2 field enters through phi = conj(psi2(-x)) and
    d_t phi = conj(dpsi2_dt(-x)).
    """
    w = np.asarray(eta_weight)
    for arr in (w, psi1, psi2, dpsi1_dt, dpsi2_dt):
        if np.shape(arr) != (grid.N,):
            raise DimensionError(f"field length {np.shape(arr)} != grid N={grid.N}")
    D1 = diff_matrix(grid, 1, 2)
    phi = np.conj(psi2[::-1])
    dphi = np.conj(dpsi2_dt[::-1])
    P = w * phi * psi1
    J = (w / 1j) * (phi * (D1 @ psi1) - psi1 * (D1 @ phi))
    defect = w * (dphi * psi1 + phi * dpsi1_dt) + D1 @ J
    return P, J, defect


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
    of steps.  A non-finite state aborts with the last valid step index.
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
    # accuracy 2 only: its rows hold at most two terms, so D1 is odd under
    # parity bit for bit; accuracy-4 rows hold up to four and the identity
    # behind d_x phi below would then hold only to rounding
    D1 = diff_matrix(grid, 1, 2)
    # equal fields stay equal, so step one column; psi2 is always psi[:, -1]
    same = psi1_0.tobytes() == psi2_0.tobytes()
    psi = np.column_stack([psi1_0] if same else [psi1_0, psi2_0])

    sl = slice(_EDGE_MARGIN, grid.N - _EDGE_MARGIN)
    Q = np.empty(steps + 1, dtype=complex)
    defect_max = np.zeros(steps + 1)
    window: list[tuple[np.ndarray, np.ndarray]] = []  # rolling interior (P, div J)
    first_fields: list[tuple[np.ndarray, np.ndarray]] = []  # interior (P, div J) at k=0,1
    w_over_i = w / 1j

    def record(k: int):
        psi1, phi = psi[:, 0], np.conj(psi[::-1, -1])
        P = w * phi * psi1
        d = D1 @ psi  # d_x phi = -conj(d[::-1, -1])
        J = w_over_i * (phi * d[:, 0] + psi1 * np.conj(d[::-1, -1]))
        Q[k] = grid.h * P.sum()
        window.append((P[sl], (D1 @ J)[sl]))
        if k <= 1:
            first_fields.append(window[-1])
        if len(window) == 3:  # centered d_t at step k-1
            dPdt = (window[2][0] - window[0][0]) / (2.0 * dt)
            defect_max[k - 1] = np.max(np.abs(dPdt + window[1][1]))
            window.pop(0)

    with np.errstate(over="ignore", invalid="ignore"):  # overflow aborts below
        record(0)
        for k in range(1, steps + 1):
            psi = prop.step(psi)
            record(k)
            if not (np.all(np.isfinite(psi)) and np.isfinite(Q[k])):
                raise NanAbortError(last_valid_step=k - 1)

    # one-sided d_t at the trace ends (first-order; excluded from headlines)
    dP0 = (first_fields[1][0] - first_fields[0][0]) / dt
    defect_max[0] = np.max(np.abs(dP0 + first_fields[0][1]))
    dPT = (window[-1][0] - window[-2][0]) / dt
    defect_max[steps] = np.max(np.abs(dPT + window[-1][1]))

    return EvolutionTrace(
        times=times,
        Q=Q,
        continuity_residual=defect_max,
        final_states=(psi[:, 0].copy(), psi[:, -1].copy()),
    )
