"""Non-Hermitian eigensolver (dense LAPACK, real for PT-symmetric input) and
spectrum classification.

Pseudo-Hermitian spectra are real or come in complex-conjugate pairs; the
classifier tags each eigenvalue accordingly.  Bound states of box-truncated
problems are identified by sign of the real part plus stability under grid
refinement, which separates them from discretized continuum states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ParameterError, SolverError

__all__ = ["SpectrumReport", "eig", "pt_real_basis", "classify_spectrum", "converged_bound_states",
           "BoundStates"]


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues sorted by (Re, Im), optional eigenvectors (columns), the
    real / pair-member / unpaired classification, and the solver that ran
    ("real-pt" or "complex", see `eig`)."""

    eigenvalues: np.ndarray
    vectors: np.ndarray | None
    classification: tuple[str, ...]
    pairing: dict[int, int]
    tol_used: float
    solver: str

    def real_values(self) -> np.ndarray:
        mask = [tag == "real" for tag in self.classification]
        return self.eigenvalues[mask]


# Im R is treated as rounding when max|Im R| <= _FOLD_TOL * max|H|.  Dropping
# it perturbs each stored entry by at most 8 eps max|H|, which is below the
# O(N eps ||H||_F) backward error of LAPACK's QR iteration itself.
_FOLD_TOL = 8 * np.finfo(float).eps
# Every returned pair satisfies ||H v - lambda v|| <= _BACKWARD_TOL ||H||_F ||v||.
_BACKWARD_TOL = 1e-10
_BLOCK = 64  # columns per block when mapping back and checking eigenvectors


def pt_real_basis(n: int):
    """The unitary CSR S whose columns are invariant under PT.

    P reverses the grid index and T conjugates.  For j < n/2 and
    m = n - 1 - j the columns are (e_j + e_m)/sqrt(2), then e_mid when n is
    odd, then i (e_j - e_m)/sqrt(2).  When H commutes with PT, that is
    H[::-1, ::-1] == conj(H), the folded matrix S^H H S is real.
    """
    import scipy.sparse as sp

    half = n // 2
    j = np.arange(half)
    m = n - 1 - j
    odd = n - half + j
    mid = np.arange(half, n - half)
    c = np.sqrt(0.5)
    rows = np.concatenate([j, m, mid, j, m])
    cols = np.concatenate([j, j, mid, odd, odd])
    vals = np.concatenate([np.full(2 * half, c), np.ones(len(mid)),
                           np.full(half, 1j * c), np.full(half, -1j * c)])
    return sp.csr_array((vals, (rows, cols)), shape=(n, n))


def eig(M, want_vectors: bool = False, tol: float = 1e-6) -> SpectrumReport:
    """All eigenvalues of a square matrix (LAPACK QR iteration), sorted by (Re, Im).

    The Hamiltonians of the paper commute with the antilinear operator PT,
    so their characteristic polynomial is real and the matrix is unitarily
    similar to a real one.  `pt_real_basis` gives that similarity: R =
    S^H M S is formed sparse, in O(nnz).  When max|Im R| is rounding
    (`_FOLD_TOL` eps max|M|), the dense float64 Re R goes to the real
    `geev`, about 3-4x faster than the complex one, and the eigenvectors
    are mapped back as S Y (solver "real-pt").  Real levels then have Im
    exactly 0, and conjugate pairs are exact conjugates, listed -Im first.
    Any other matrix takes the complex `geev` on the dense M, unchanged
    (solver "complex").  A dense M goes through the same test as CSR.

    With vectors requested, every pair is checked against the backward-error
    contract ||M v - lambda v|| <= 1e-10 ||M||_F ||v||, and SolverError is
    raised when one misses it.
    """
    import scipy.sparse as sp

    if not sp.issparse(M):
        M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ParameterError(f"square matrix required, got shape {M.shape}")
    H = sp.csr_array(M)
    if not np.all(np.isfinite(H.data)):
        raise ParameterError("matrix entries must be finite")
    S = pt_real_basis(H.shape[0])
    R = (S.conj().T @ H @ S).tocsr()
    scale = np.max(np.abs(H.data), initial=0.0)
    try:
        if np.max(np.abs(R.data.imag), initial=0.0) <= _FOLD_TOL * scale:
            solver = "real-pt"
            vals, vecs = _real_eig(R.real.toarray(order="F"), S, want_vectors)
        else:
            solver = "complex"
            vals, vecs = _complex_eig(H.toarray(order="F"), want_vectors)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hardware dependent
        raise SolverError(f"eigensolver did not converge: {exc}") from exc
    if vecs is not None:
        _check_backward_error(H, vals, vecs)
    tags, pairing = classify_spectrum(vals, tol)
    return SpectrumReport(
        eigenvalues=vals,
        vectors=vecs,
        classification=tuple(tags),
        pairing=pairing,
        tol_used=tol,
        solver=solver,
    )


def _complex_eig(A: np.ndarray, want_vectors: bool):
    """Eigenpairs of A, which `eig` owns and LAPACK may overwrite."""
    if want_vectors:
        vals, vecs = scipy.linalg.eig(A, overwrite_a=True)
    else:
        vals, vecs = scipy.linalg.eigvals(A, overwrite_a=True), None
    del A
    order = np.lexsort((vals.imag, vals.real))
    return vals[order], None if vecs is None else vecs[:, order]


def _real_eig(A: np.ndarray, S, want_vectors: bool):
    """Eigenpairs of S A S^H for a real Fortran-ordered A that LAPACK may overwrite.

    The real `geev` stores a conjugate pair lambda_k = wr + i wi (wi > 0) as
    y_k = VR[:, k] + i VR[:, k+1] and y_{k+1} = conj(y_k).  The (Re, Im)
    ordering and the back-map V = S Y are applied together, one block of
    columns at a time, after the dense A is released.
    """
    geev, geev_lwork = scipy.linalg.get_lapack_funcs(("geev", "geev_lwork"), (A,))
    n = A.shape[0]
    flag = int(want_vectors)
    # the optimal workspace: with the minimum 4n the Hessenberg reduction runs unblocked
    work, _ = geev_lwork(n, compute_vl=0, compute_vr=flag)
    lwork = max(int(work), 4 * n, 1)
    wr, wi, _, vr, info = geev(A, compute_vl=0, compute_vr=flag, lwork=lwork, overwrite_a=1)
    del A
    if info != 0:
        raise SolverError(f"eigensolver did not converge (geev info = {info})")
    vals = wr + 1j * wi
    order = np.lexsort((vals.imag, vals.real))
    if not want_vectors:
        return vals[order], None
    k = np.arange(n)
    first = wi > 0
    second = np.zeros(n, dtype=bool)
    second[1:] = first[:-1]
    re_col = np.where(second, k - 1, k)
    im_col = np.where(first, k + 1, k)
    im_sign = np.where(first, 1.0, np.where(second, -1.0, 0.0))
    vecs = np.empty((n, n), dtype=complex, order="F")
    for p0 in range(0, n, _BLOCK):
        ks = order[p0:p0 + _BLOCK]
        Y = vr[:, re_col[ks]].astype(complex)
        Y.imag = vr[:, im_col[ks]] * im_sign[ks]
        vecs[:, p0:p0 + _BLOCK] = S @ Y
    return vals[order], vecs


def _check_backward_error(H, vals: np.ndarray, vecs: np.ndarray) -> None:
    """Raise SolverError unless ||H v - lambda v|| <= 1e-10 ||H||_F ||v|| for
    every column, multiplying the sparse H by one block of columns at a time."""
    bound = _BACKWARD_TOL * float(np.linalg.norm(H.data))
    bad = []
    for p0 in range(0, len(vals), _BLOCK):
        V = vecs[:, p0:p0 + _BLOCK]
        res = np.linalg.norm(H @ V - V * vals[p0:p0 + _BLOCK], axis=0)
        bad.extend(p0 + np.flatnonzero(res > bound * np.linalg.norm(V, axis=0)))
    if bad:
        raise SolverError(
            f"{len(bad)} eigenpairs miss the backward-error bound "
            f"{_BACKWARD_TOL:g} ||H||_F ||v||", unconverged=tuple(int(i) for i in bad))


def classify_spectrum(eigs: np.ndarray, tol: float) -> tuple[list[str], dict[int, int]]:
    """Tag eigenvalues as real / pair-member / unpaired.

    lambda is real when |Im lambda| <= tol (1 + |lambda|); the rest are
    greedily matched to their nearest conjugate within the same tolerance.
    """
    if not tol > 0:
        raise ParameterError(f"tolerance must be positive, got {tol}")
    eigs = np.asarray(eigs, dtype=complex)
    n = len(eigs)
    tags = ["unpaired"] * n
    scale = 1.0 + np.abs(eigs)
    for i in range(n):
        if abs(eigs[i].imag) <= tol * scale[i]:
            tags[i] = "real"
    pairing: dict[int, int] = {}
    open_idx = [i for i in range(n) if tags[i] == "unpaired"]
    # greedy nearest-conjugate matching; ties resolved by minimal distance
    candidates = []
    for ii, i in enumerate(open_idx):
        for j in open_idx[ii + 1:]:
            d = abs(eigs[i] - np.conj(eigs[j]))
            if d <= tol * scale[i]:
                candidates.append((d, i, j))
    for _, i, j in sorted(candidates, key=lambda t: (t[0], t[1], t[2])):
        if tags[i] == "unpaired" and tags[j] == "unpaired":
            tags[i] = tags[j] = "pair-member"
            pairing[i] = j
            pairing[j] = i
    return tags, pairing


@dataclass(frozen=True)
class BoundStates:
    """Bound candidates surviving the two-grid stability filter."""

    values: np.ndarray      # from the fine grid, sorted by (Re, Im)
    movement: np.ndarray    # |fine - nearest coarse|
    rejected: np.ndarray    # fine-grid Re<0 values that moved too much


def converged_bound_states(
    coarse: np.ndarray,
    fine: np.ndarray,
    tol_move: float = 1e-3,
) -> BoundStates:
    """Filter Re(lambda) < 0 eigenvalues of the fine grid by their movement
    relative to the nearest coarse-grid eigenvalue.

    Box continuum states sit at Re >= 0 for the potentials treated here, so
    the sign test plus refinement stability isolates genuine bound states.
    """
    fine = np.asarray(fine, dtype=complex)
    coarse = np.asarray(coarse, dtype=complex)
    cand = fine[fine.real < 0]
    order = np.lexsort((cand.imag, cand.real))
    cand = cand[order]
    if len(cand) == 0:
        return BoundStates(values=cand, movement=np.empty(0), rejected=cand)
    move = np.array([np.min(np.abs(coarse - v)) for v in cand])
    keep = move < tol_move
    return BoundStates(values=cand[keep], movement=move[keep], rejected=cand[~keep])
