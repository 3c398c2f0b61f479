"""Crank-Nicolson evolution and the generalized continuity/conservation law.

One field psi obeys i d/dt psi = H psi; phi(x,t) = conj(psi(-x,t)) is
formed from psi when a step is recorded, so no symmetry of H is assumed.
One field suffices: Q below is <psi, psi>_w for the sesquilinear form
<u1, u2>_w of `inner`, and by polarization that form is conserved for every
pair of states exactly when Q is conserved for every state.  A step is
psi' = A^-1 B psi with A = I + (i dt/2) H and B = I - (i dt/2) H; since
A + B = 2I, A^-1 B = 2 A^-1 - I, so a step is two banded triangular solves
(BLAS `ztbsv`) of the factored A, with no B.

The states go into one (K+1, N) block, and every K = _BLOCK steps the
record below is taken for the whole block with contiguous numpy ops on its
ravelled rows; per step it does the arithmetic of a one-step record, so
the numbers are the same bits.  Recorded per step n -> n+1:

    Q      = h sum_j w_j phi_j psi_j                    (conserved quantity)
    P_j    = w_j phi_j psi_j                            (density)
    F(j,k) = i s_jk (mpsi_j mphi_k - mphi_j mpsi_k)     (flux over bond j-k)
    defect = max_j |(P_j^{n+1} - P_j^n)/dt - sum_k F(j,k)|

with mpsi the step midpoint (psi^n + psi^{n+1})/2, mphi = conj(mpsi(-x))
that of phi, and s_jk = (w_j H_jk + w_k H_kj)/2 the symmetric weight of
the bond between nodes j != k that H couples.  Crank-Nicolson is the
implicit midpoint rule, so for PT-symmetric H this law is exact per step:
the defect is i [(A mphi) mpsi - mphi (A mpsi)], where A is the
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
from scipy.linalg.blas import ztbsv

from .errors import DimensionError, NanAbortError, ParameterError, SingularSystemError
from .grid import Grid
from .operators import _is_integer

__all__ = ["EvolutionTrace", "run", "gaussian_state"]


@dataclass(frozen=True)
class EvolutionTrace:
    times: np.ndarray
    Q: np.ndarray                    # complex conserved-quantity samples
    continuity_residual: np.ndarray  # per-step max defect of the flux law; 0 at t = 0
    final_state: np.ndarray          # psi at T


def gaussian_state(grid: Grid, x0: float = 0.0, sigma: float = 1.0, k: float = 0.0
                   ) -> np.ndarray:
    """L2-normalized Gaussian packet exp(-(x-x0)^2/4 sigma^2 + i k x).

    A packet that is not finite or is 0 on the grid (sigma = 0, sigma^2
    below the smallest float, x0 far outside the box, k x past the largest
    float) raises ParameterError; a sigma^2 past it gives exp(i k x).
    """
    x = grid.points
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        # a numpy power of sigma overflows to inf where the float power raises
        psi = np.exp(-((x - x0) ** 2) / (4.0 * np.float64(sigma) ** 2) + 1j * k * x)
        norm = np.linalg.norm(psi) * np.sqrt(grid.h)
    if not (np.isfinite(norm) and norm > 0):
        raise ParameterError(f"Gaussian packet with sigma={sigma!r}, x0={x0!r}, k={k!r} has no "
                             f"finite, non-zero samples on the grid [{x[0]:.6g}, {x[-1]:.6g}]")
    return psi / norm


class _CrankNicolson:
    """Crank-Nicolson propagator for a fixed H and dt, factored once.

    The step psi' = A^-1 B psi with A = I + (i dt/2) H and B = I - (i dt/2) H
    is taken as psi' = 2 A^-1 psi - psi, since A + B = 2I gives
    A^-1 B = 2 A^-1 - I; B is never formed.  SuperLU factors A once with the
    columns in place (NATURAL ordering) and row pivoting, Pr A = L U, and
    U = D U1 with D = diag(U).  L and U1, both unit triangular, are kept as
    BLAS band arrays whose bandwidths are read off the factor (pivoting may
    widen L past the band of H).  A step takes the vector psi through
    psi' = U1^-1 (2 D^-1) L^-1 Pr psi - psi: a gather by the row permutation,
    one `ztbsv` call on the L band, a scale by 2/diag(U), one `ztbsv` call on
    the U1 band and a subtraction.  H is sparse or dense.
    """

    def __init__(self, H, dt: float):
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        Hs = sp.csc_matrix(H, dtype=complex)
        n = Hs.shape[0]
        eye = sp.identity(n, dtype=complex, format="csc")
        try:
            lu = splu(eye + (0.5j * dt) * Hs, permc_spec="NATURAL")
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SingularSystemError(f"implicit Crank-Nicolson system is singular: {exc}") from exc
        self.gather = np.argsort(lu.perm_r)  # (Pr b)_i = b[gather[i]]
        L, U = lu.L.tocoo(), lu.U.tocoo()
        d = U.diagonal()
        self.scale = 2 / d
        self.kl, self.L = _band(L.row, L.col, L.data, n, lower=True)
        self.ku, self.U1 = _band(U.row, U.col, U.data / d[U.row], n, lower=False)

    def step(self, psi: np.ndarray) -> np.ndarray:
        x = psi[self.gather]
        ztbsv(self.kl, self.L, x, lower=1, diag=1, overwrite_x=1)
        x *= self.scale
        ztbsv(self.ku, self.U1, x, diag=1, overwrite_x=1)
        x -= psi
        return x


def _band(row, col, data, n: int, lower: bool) -> tuple[int, np.ndarray]:
    """(k, band): the triangular matrix with entries data at (row, col) in
    BLAS band storage, column j holding rows j..j+k (lower, diagonal in band
    row 0) or j-k..j (upper, diagonal in band row k).  Fortran order, so
    `ztbsv` copies nothing."""
    off = row - col if lower else col - row
    k = int(off.max(initial=0))
    band = np.zeros((k + 1, n), dtype=complex, order="F")
    band[off if lower else k - off, col] = data
    return k, band


def _bonds(H, w: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(o, s) for each offset o > 0 that H couples: s_j, the symmetric
    weight (w_j H_{j,j+o} + w_{j+o} H_{j+o,j})/2 of the bond (j, j+o)."""
    import scipy.sparse as sp

    Hs = sp.coo_matrix(H)
    offsets = np.unique(np.abs(Hs.col - Hs.row))
    return [(o, 0.5 * (w[:-o] * Hs.diagonal(o) + w[o:] * Hs.diagonal(-o)))
            for o in map(int, offsets[offsets > 0])]


_BLOCK = 4  # steps per record call: at N=1600, 2 pays more call overhead and 8 runs no faster


class _BlockRecord:
    """Q and the flux-law defect of up to _BLOCK steps at a time.

    `states` holds the states of psi as the rows of one (_BLOCK + 1, N)
    block, row 0 being the last state already recorded.  Every op runs on
    ravelled rows: the bond (j, j+o) pairs entries o apart, and the o pairs
    that wrap from one row into the next carry weight 0.  Per step the
    arithmetic is that of a one-step record, so Q and the defect are the
    same bits.  The workspace is allocated once.
    """

    def __init__(self, H, w: np.ndarray, dt: float, h: float, psi0: np.ndarray):
        K, N = _BLOCK, len(w)
        self.w, self.dt, self.h, self.N = w, dt, h, N
        self.states = np.empty((K + 1, N), dtype=complex)
        self.states[0] = psi0
        self.P = np.empty((K + 1) * N, dtype=complex)
        self.mpsi, self.mphi, self.r, self.F, self.G = np.empty((5, K * N), dtype=complex)
        self.absr = np.empty(K * N)
        # the midpoints enter doubled and dP/dt as P - P_old, so each bond
        # carries i dt/4 and the max is divided by dt once
        self.bonds = [(o, np.tile(np.concatenate([0.25j * dt * s, np.zeros(o)]), K)[:-o])
                      for o, s in _bonds(H, w)]

    def density(self, lo: int, hi: int) -> np.ndarray:
        """P of rows lo..hi-1 into the workspace, and their Q."""
        N, states = self.N, self.states
        P = self.P[lo * N:hi * N].reshape(hi - lo, N)
        np.conjugate(states[lo:hi, ::-1], out=P)
        np.multiply(self.w, P, out=P)
        P *= states[lo:hi]
        return self.h * P.sum(axis=1)

    def record(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Q and the defect of rows 1..n; then row n becomes row 0."""
        N, nN, states = self.N, n * self.N, self.states
        Q = self.density(1, n + 1)
        P = self.P[:nN + N]
        r = np.subtract(P[N:], P[:nN], out=self.r[:nN])
        mpsi, mphi = self.mpsi[:nN], self.mphi[:nN]
        np.add(states[:n], states[1:n + 1], out=mpsi.reshape(n, N))
        np.conjugate(mpsi.reshape(n, N)[:, ::-1], out=mphi.reshape(n, N))
        for o, c in self.bonds:
            F = np.multiply(mpsi[:-o], mphi[o:], out=self.F[:nN - o])
            F -= np.multiply(mphi[:-o], mpsi[o:], out=self.G[:nN - o])
            F *= c[:nN - o]
            r[:-o] -= F
            r[o:] += F
        defect = np.abs(r, out=self.absr[:nN]).reshape(n, N).max(axis=1) / self.dt
        states[0] = states[n]
        P[:N] = P[nN:]
        return Q, defect


def run(
    H,
    grid: Grid,
    eta_weight: np.ndarray,
    psi0: np.ndarray,
    T: float,
    dt: float,
) -> EvolutionTrace:
    """Propagate psi0 to time T and record Q(t) and the continuity defect.

    psi steps forward with one Crank-Nicolson factorization and is recorded
    every _BLOCK steps; T/dt must be a whole number of steps, and psi0 and
    the weight must be finite.  Row k >= 1 of the defect is the max over
    every node of |dP/dt - sum of bond fluxes| across step k (see the module
    docstring); it is rounding when the weight makes W H symmetric and H is
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
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (grid.N,):
        raise DimensionError(f"initial state shape {psi0.shape} is not the grid's ({grid.N},)")
    if not np.all(np.isfinite(psi0)):
        raise ParameterError("initial state must be finite")
    if not np.all(np.isfinite(w)):
        raise ParameterError("eta weight must be finite")

    steps = round(ratio)
    times = np.arange(steps + 1) * dt
    prop = _CrankNicolson(H, dt)
    rec = _BlockRecord(H, w, dt, grid.h, psi0)
    states = rec.states

    Q = np.empty(steps + 1, dtype=complex)
    defect_max = np.zeros(steps + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow aborts below
        Q[0] = rec.density(0, 1)[0]
        for k in range(0, steps, _BLOCK):
            n = min(_BLOCK, steps - k)
            for i in range(n):
                states[i + 1] = prop.step(states[i])
            rows = slice(k + 1, k + n + 1)
            Q[rows], defect_max[rows] = rec.record(n)
            finite = np.isfinite(Q[rows])  # any non-finite psi entry makes P, so Q, non-finite
            if not finite.all():
                raise NanAbortError(last_valid_step=k + int(np.argmin(finite)))

    return EvolutionTrace(
        times=times,
        Q=Q,
        continuity_residual=defect_max,
        final_state=states[0].copy(),
    )
