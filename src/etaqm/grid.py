"""Uniform Dirichlet mesh on [-L, L] and sparse banded finite-difference matrices.

Endpoints are excluded: psi(-L) = psi(L) = 0, so the N interior points carry
the whole state.  Bound states of the target potentials decay exponentially,
which makes the box-truncation error exponentially small in L.

The mesh is built to be *exactly* mirror symmetric (x_j == -x_{N-1-j} in
floating point) and the difference matrices are exactly parity symmetric
(P D2 P = D2, P D1 P = -D1).  Several pseudo-Hermiticity identities used by
the tests then hold to rounding rather than to discretization accuracy.
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
    x = np.empty(N, dtype=float)
    half = N // 2
    for j in range(half):
        x[j] = -L + (j + 1) * h
        x[N - 1 - j] = -x[j]  # mirror for exact symmetry
    if N % 2 == 1:
        x[half] = 0.0
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
    """Sparse (CSR) N x N derivative matrix with Dirichlet-consistent closures.

    Interior rows share one centered stencil (antisymmetric for order 1,
    symmetric for order 2).  Rows whose centered stencil would reach past the
    boundary nodes use biased stencils of matching accuracy; the known zero
    boundary values at +-L are folded in (their columns are dropped).  The
    bandwidth is 1 at accuracy 2 and 4 at accuracy 4 (the closures).
    """
    import scipy.sparse as sp

    if order not in (1, 2):
        raise ParameterError(f"derivative order must be 1 or 2, got {order}")
    if accuracy not in (2, 4):
        raise ParameterError(f"accuracy must be 2 or 4, got {accuracy}")
    N, h = grid.N, grid.h

    # Index space includes virtual boundary nodes -1 and N (value 0).
    # Weights are generated from exact integer offsets times h, so equal
    # rows get bitwise-equal stencils (keeps centered D1 exactly
    # antisymmetric and D2 exactly symmetric).
    radius = (order + accuracy - 1) // 2
    centered = 2 * radius + 1
    offsets = np.arange(-radius, radius + 1)
    interior = np.arange(radius - 1, N - radius + 1)  # stencil stays within -1..N
    rows = [np.repeat(interior, centered)]
    cols = [(interior[:, None] + offsets).ravel()]
    vals = [np.tile(fornberg_weights(0.0, offsets * h, order), len(interior))]
    # biased closures: one extra node restores the centered accuracy
    width = centered + 1
    for j in (*range(radius - 1), *range(N - radius + 1, N)):
        lo = max(-1, min(j - radius, N + 1 - width))
        ks = np.arange(lo, lo + width)
        rows.append(np.full(width, j))
        cols.append(ks)
        vals.append(fornberg_weights(0.0, (ks - j) * h, order))
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    inside = (cols >= 0) & (cols < N)
    rows, cols, vals = rows[inside], cols[inside], vals[inside]

    # Enforce exact parity symmetry, M -> 0.5 (M + sign P M P), by summing each
    # entry with its mirror image; a no-op beyond rounding for a correct build.
    sign = 1.0 if order == 2 else -1.0
    mirrored = (np.concatenate([rows, N - 1 - rows]), np.concatenate([cols, N - 1 - cols]))
    M = sp.coo_array((np.concatenate([vals, sign * vals]).astype(complex), mirrored),
                     shape=(N, N)).tocsr()
    M.data *= 0.5
    M.eliminate_zeros()  # the exactly cancelled diagonal of a centered D1
    return M
