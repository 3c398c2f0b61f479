"""Uniform Dirichlet mesh on [-L, L] and sparse banded finite-difference matrices.

Endpoints are excluded: psi(-L) = psi(L) = 0, so the N interior points carry
the whole state.  Bound states of the target potentials decay exponentially,
which makes the box-truncation error exponentially small in L.

The mesh is built to be *exactly* mirror symmetric (x_j == -x_{N-1-j} in
floating point).  The difference matrices carry one centered stencil on every
row, with odd-reflection ghost nodes past the walls, and are exactly parity
symmetric (P D2 P = D2, P D1 P = -D1), D2 exactly symmetric and D1 exactly
antisymmetric off its diagonal.  Several pseudo-Hermiticity identities used
by the tests then hold to rounding rather than to discretization accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = ["Grid", "make_grid", "diff_matrix", "fornberg_weights"]


@dataclass(frozen=True)
class Grid:
    """Uniform interior mesh: x_j = -L + (j+1) h, j = 0..N-1, h = 2L/(N+1)."""

    L: float
    N: int
    h: float
    points: np.ndarray

    def __post_init__(self):
        self.points.setflags(write=False)


def make_grid(L: float, N: int) -> Grid:
    """Build the interior mesh; requires L > 0 and N >= 3."""
    if not (L > 0) or not np.isfinite(L):
        raise ParameterError(f"half-width L must be positive and finite, got {L}")
    if int(N) != N or N < 3:
        raise ParameterError(f"interior point count N must be an integer >= 3, got {N}")
    N = int(N)
    h = 2.0 * L / (N + 1)
    half = N // 2
    x = np.zeros(N)  # the middle node of an odd N stays 0
    x[:half] = -L + np.arange(1, half + 1) * h
    x[N - half:] = -x[half - 1::-1]  # mirror for exact symmetry
    return Grid(L=float(L), N=N, h=h, points=x)


def fornberg_weights(z: float, nodes: np.ndarray, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at z on given nodes.

    Classic one-pass recursion over arbitrary node locations; with n nodes
    the rule is exact for polynomials up to degree n-1.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    if n < m + 1:
        raise ParameterError(f"need at least {m + 1} nodes for derivative order {m}")
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = nodes[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - z
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def diff_matrix(grid: Grid, order: int, accuracy: int = 2):
    """Sparse (CSR) N x N derivative matrix: one centered stencil on every row.

    Nodes -1 and N are the walls (psi = 0); ghosts past them hold the odd
    reflection psi[-1 - m] = -psi[m - 1], psi[N + m] = -psi[N - m], and each
    ghost weight is folded, negated, into its row's entry for the mirror node.
    The bandwidth is 1 at accuracy 2 (no stencil reaches a ghost) and 2 at
    accuracy 4, where D1 gains the diagonal entries -+1/(12h) at rows 0, N-1.
    4th order needs psi'' = 0 at the wall: true for eigenstates of p^2 + V
    (psi'' = (V - E) psi), and so for the gauged H, whose eigenvectors are
    G times those of p^2 + V.
    """
    import scipy.sparse as sp

    if order not in (1, 2):
        raise ParameterError(f"derivative order must be 1 or 2, got {order}")
    if accuracy not in (2, 4):
        raise ParameterError(f"accuracy must be 2 or 4, got {accuracy}")
    N, h = grid.N, grid.h

    radius = (order + accuracy - 1) // 2
    offsets = np.arange(-radius, radius + 1)
    cols = np.arange(N)[:, None] + offsets  # band storage: row j, column j + offset
    W = np.tile(fornberg_weights(0.0, offsets * h, order), (N, 1))
    ghost = np.flatnonzero((cols < -1) | (cols > N))
    k = cols.ravel()[ghost]  # its mirror node is -2 - k or 2N - k, in the same row
    np.add.at(W.ravel(), ghost + np.where(k < 0, -2 - 2 * k, 2 * N - 2 * k), -W.ravel()[ghost])

    # Exact parity symmetry, M -> 0.5 (M + sign P M P); P M P reverses both axes
    # of the band.  The transpose adds the same two terms in the other order, so
    # D2 is exactly symmetric and D1 antisymmetric (Fornberg weights on +-kh are
    # not bitwise symmetric).  Zeros, as on the diagonal of a centered D1, drop.
    sign = 1.0 if order == 2 else -1.0
    W = 0.5 * (W + sign * W[::-1, ::-1])
    keep = (cols >= 0) & (cols < N) & (W != 0)  # drops the walls and the ghosts
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=1))])
    return sp.csr_array((W[keep].astype(complex), cols[keep], indptr), shape=(N, N))
