"""Crank-Nicolson evolution and the generalized continuity/conservation law.

Two fields obey i d/dt psi = H psi: psi1, and psi2, which enters through
phi(x,t) = conj(psi2(-x,t)).  Both are stepped forward together with one
Crank-Nicolson factorization, and phi is formed from psi2 when a step is
recorded, so no symmetry of H is assumed.  When psi2(0) equals psi1(0) bit
for bit, the two fields stay equal, so only one is stepped.  A step is
psi' = A^-1 B psi with A = I + (i dt/2) H and B = I - (i dt/2) H; since
A + B = 2I, A^-1 B = 2 A^-1 - I, so a step is two banded triangular solves
(BLAS `ztbsv`) of the factored A per field, with no B.

The states go into one (K+1, N) block per field, and every K = _BLOCK steps
the record below is taken for the whole block with contiguous numpy ops on
its ravelled rows; per step it does the arithmetic of a one-step record, so
the numbers are the same bits.  Recorded per step n -> n+1:

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
    final_states: tuple[np.ndarray, np.ndarray]  # (psi1, psi2) at T


def gaussian_state(grid: Grid, x0: float = 0.0, sigma: float = 1.0, k: float = 0.0
                   ) -> np.ndarray:
    """L2-normalized Gaussian packet exp(-(x-x0)^2/4 sigma^2 + i k x)."""
    x = grid.points
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * k * x)
    return psi / (np.linalg.norm(psi) * np.sqrt(grid.h))


class _CrankNicolson:
    """Crank-Nicolson propagator for a fixed H and dt, factored once.

    The step psi' = A^-1 B psi with A = I + (i dt/2) H and B = I - (i dt/2) H
    is taken as psi' = 2 A^-1 psi - psi, since A + B = 2I gives
    A^-1 B = 2 A^-1 - I; B is never formed.  SuperLU factors A once with the
    columns in place (NATURAL ordering) and row pivoting, Pr A = L U, and
    U = D U1 with D = diag(U).  L and U1, both unit triangular, are kept as
    BLAS band arrays whose bandwidths are read off the factor (pivoting may
    widen L past the band of H).  A step takes each column through
    psi' = U1^-1 (2 D^-1) L^-1 Pr psi - psi: a gather by the row permutation,
    one `ztbsv` call on the L band, a scale by 2/diag(U), one `ztbsv` call on
    the U1 band and a subtraction.  H is sparse or dense; psi is one field or
    a stack of fields as columns.
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
        out = np.empty_like(psi)
        cols, outs = psi.reshape(len(psi), -1), out.reshape(len(psi), -1)
        for j in range(cols.shape[1]):
            col = cols[:, j]
            x = col[self.gather]
            ztbsv(self.kl, self.L, x, lower=1, diag=1, overwrite_x=1)
            x *= self.scale
            ztbsv(self.ku, self.U1, x, diag=1, overwrite_x=1)
            np.subtract(x, col, out=outs[:, j])
        return out


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

    `states[f]` holds the states of field f (psi1, then psi2 unless the two
    are equal) as the rows of one (_BLOCK + 1, N) block, row 0 being the last
    state already recorded.  Every op runs on ravelled rows: the bond (j, j+o)
    pairs entries o apart, and the o pairs that wrap from one row into the
    next carry weight 0.  Per step the arithmetic is that of a one-step record,
    so Q and the defect are the same bits.  The workspace is allocated once.
    """

    def __init__(self, H, w: np.ndarray, dt: float, h: float, fields: list[np.ndarray]):
        K, N = _BLOCK, len(w)
        self.w, self.dt, self.h, self.N = w, dt, h, N
        self.states = np.empty((len(fields), K + 1, N), dtype=complex)
        self.states[:, 0] = fields
        self.P = np.empty((K + 1) * N, dtype=complex)
        self.mid = np.empty((len(fields), K * N), dtype=complex)
        self.mphi, self.r, self.F, self.G = (np.empty(K * N, dtype=complex) for _ in range(4))
        self.absr = np.empty(K * N)
        # the midpoints enter doubled and dP/dt as P - P_old, so each bond
        # carries i dt/4 and the max is divided by dt once
        self.bonds = [(o, np.tile(np.concatenate([0.25j * dt * s, np.zeros(o)]), K)[:-o])
                      for o, s in _bonds(H, w)]

    def density(self, lo: int, hi: int) -> np.ndarray:
        """P of rows lo..hi-1 into the workspace, and their Q."""
        N, states = self.N, self.states
        P = self.P[lo * N:hi * N].reshape(hi - lo, N)
        np.conjugate(states[-1, lo:hi, ::-1], out=P)
        np.multiply(self.w, P, out=P)
        P *= states[0, lo:hi]
        return self.h * P.sum(axis=1)

    def record(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Q and the defect of rows 1..n; then row n becomes row 0."""
        N, nN, states = self.N, n * self.N, self.states
        Q = self.density(1, n + 1)
        P = self.P[:nN + N]
        r = np.subtract(P[N:], P[:nN], out=self.r[:nN])
        mid = self.mid[:, :nN]
        np.add(states[:, :n], states[:, 1:n + 1], out=mid.reshape(-1, n, N))
        mpsi, mphi = mid[0], self.mphi[:nN]
        np.conjugate(mid[-1].reshape(n, N)[:, ::-1], out=mphi.reshape(n, N))
        for o, c in self.bonds:
            F = np.multiply(mpsi[:-o], mphi[o:], out=self.F[:nN - o])
            F -= np.multiply(mphi[:-o], mpsi[o:], out=self.G[:nN - o])
            F *= c[:nN - o]
            r[:-o] -= F
            r[o:] += F
        defect = np.abs(r, out=self.absr[:nN]).reshape(n, N).max(axis=1) / self.dt
        states[:, 0] = states[:, n]
        P[:N] = P[nN:]
        return Q, defect


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

    psi1 and psi2 step forward as the two columns of one stack with a single
    Crank-Nicolson factorization, or as one column when psi2_0 and psi1_0
    are equal bit for bit (0.0 and -0.0 differ), and are recorded every
    _BLOCK steps; T/dt must be a whole number of steps, and the weight must
    be finite.  Row k >= 1 of the defect is the max over every node of
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
    if not np.all(np.isfinite(w)):
        raise ParameterError("eta weight must be finite")

    steps = round(ratio)
    times = np.arange(steps + 1) * dt
    prop = _CrankNicolson(H, dt)
    # equal fields stay equal, so step one; psi2 is always the last field
    same = psi1_0.tobytes() == psi2_0.tobytes()
    rec = _BlockRecord(H, w, dt, grid.h, [psi1_0] if same else [psi1_0, psi2_0])
    states = rec.states

    Q = np.empty(steps + 1, dtype=complex)
    defect_max = np.zeros(steps + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow aborts below
        Q[0] = rec.density(0, 1)[0]
        for k in range(0, steps, _BLOCK):
            n = min(_BLOCK, steps - k)
            for i in range(n):
                states[:, i + 1] = prop.step(states[:, i].T).T
            rows = slice(k + 1, k + n + 1)
            Q[rows], defect_max[rows] = rec.record(n)
            finite = np.isfinite(Q[rows])  # any non-finite psi entry makes P, so Q, non-finite
            if not finite.all():
                raise NanAbortError(last_valid_step=k + int(np.argmin(finite)))

    return EvolutionTrace(
        times=times,
        Q=Q,
        continuity_residual=defect_max,
        final_states=(states[0, 0].copy(), states[-1, 0].copy()),
    )
