"""Non-Hermitian eigensolvers and spectrum classification.

`eig` returns all N eigenvalues from one dense `scipy.linalg.eig` call, on
the real fold S^H H S for PT-symmetric input.  `eig_below` returns only
those with Re < top, by shift-invert Arnoldi (ARPACK) certified complete by
a bound on the numerical range, and falls back to `eig` when that would be
costly or fails; the CLI uses it wherever only the low levels are read: the
coarse grid of the two-grid filter, the sweep rows and `evolve --state-index`.

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

__all__ = ["SpectrumReport", "eig", "eig_below", "pt_real_basis", "classify_spectrum",
           "converged_bound_states", "BoundStates"]


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues sorted by (Re, Im), optional eigenvectors (columns), the
    real / pair-member / unpaired classification (`classify_spectrum` at
    tol 1e-6), and the solver that ran ("real-pt" or "complex", see `eig`;
    "shift-invert", see `eig_below`)."""

    eigenvalues: np.ndarray
    vectors: np.ndarray | None
    classification: tuple[str, ...]
    pairing: dict[int, int]
    solver: str


# Im R is treated as rounding when max|Im R| <= _FOLD_TOL * max|H|.  Dropping
# it perturbs each stored entry by at most 8 eps max|H|, which is below the
# O(N eps ||H||_F) backward error of LAPACK's QR iteration itself.
_FOLD_TOL = 8 * np.finfo(float).eps
# Every returned pair satisfies ||H v - lambda v|| <= _BACKWARD_TOL ||H||_F ||v||.
_BACKWARD_TOL = 1e-10
_CLASSIFY_TOL = 1e-6  # the `classify_spectrum` tolerance of every report
_BLOCK = 64  # columns per block when mapping back and checking eigenvectors
_K_START = 16  # first number of eigenvalues `eig_below` asks of ARPACK
_K_FRACTION = 8  # dense eig takes over when k would pass n / _K_FRACTION
_V0_SEED = 20020606  # seed of the ARPACK start vector


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


def _as_csr(M):
    """M as a CSR array, after the checks every solver makes on its input."""
    import scipy.sparse as sp

    if not sp.issparse(M):
        M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ParameterError(f"square matrix required, got shape {M.shape}")
    H = sp.csr_array(M)
    if not np.all(np.isfinite(H.data)):
        raise ParameterError("matrix entries must be finite")
    return H


def _pt_fold(H):
    """(S, Re R) with R = S^H H S when max|Im R| is rounding, else (S, None)."""
    S = pt_real_basis(H.shape[0])
    R = (S.conj().T @ H @ S).tocsr()
    scale = np.max(np.abs(H.data), initial=0.0)
    if np.max(np.abs(R.data.imag), initial=0.0) <= _FOLD_TOL * scale:
        return S, R.real
    return S, None


def eig(M, want_vectors: bool = False) -> SpectrumReport:
    """All eigenvalues of a square matrix (LAPACK QR iteration), sorted by (Re, Im).

    The Hamiltonians of the paper commute with the antilinear operator PT,
    so their characteristic polynomial is real and the matrix is unitarily
    similar to a real one.  `pt_real_basis` gives that similarity: R =
    S^H M S is formed sparse, in O(nnz).  When max|Im R| is rounding
    (`_FOLD_TOL` eps max|M|), `scipy.linalg.eig` solves the dense float64
    Re R (the real `geev`, about 3-4x faster than the complex one), and the
    eigenvectors are mapped back as S Y (solver "real-pt").  Real levels then
    have Im exactly 0, and conjugate pairs are exact conjugates, listed -Im
    first.  Any other matrix is solved as the dense complex M, unchanged
    (solver "complex").  A dense M goes through the same test as CSR.

    With vectors requested, every pair is checked against the backward-error
    contract ||M v - lambda v|| <= 1e-10 ||M||_F ||v||, and SolverError is
    raised when one misses it.
    """
    H = _as_csr(M)
    S, R = _pt_fold(H)
    try:
        if R is not None:
            solver = "real-pt"
            vals, vecs = _dense_eig(R.toarray(order="F"), S, want_vectors)
        else:
            solver = "complex"
            vals, vecs = _dense_eig(H.toarray(order="F"), None, want_vectors)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hardware dependent
        raise SolverError(f"eigensolver did not converge: {exc}") from exc
    if vecs is not None:
        _check_backward_error(H, vals, vecs)
    return _report(vals, vecs, solver)


def _report(vals: np.ndarray, vecs, solver: str) -> SpectrumReport:
    tags, pairing = classify_spectrum(vals, _CLASSIFY_TOL)
    return SpectrumReport(vals, vecs, tuple(tags), pairing, solver)


def _numerical_range_box(H) -> tuple[float, float]:
    """(lo, b) with lo <= Re z and |Im z| <= b for every z in the numerical
    range of the CSR H, hence for every eigenvalue.

    Re z lies in the spectrum of the Hermitian part (H + H^H)/2, which
    Gershgorin bounds below by min_i (Re H_ii - sum_{j != i} |Hh_ij|).  Im z
    lies in that of the anti-Hermitian part (H - H^H)/2, a normal matrix
    whose spectral radius is at most its largest absolute row sum.  O(nnz).
    """
    Hc = H.conj().T
    herm = (0.5 * (H + Hc)).tocsr()
    anti = (0.5 * (H - Hc)).tocsr()
    diag = herm.diagonal().real
    off = np.asarray(abs(herm).sum(axis=1)).ravel() - np.abs(diag)
    lo = float(np.min(diag - off))
    b = float(np.max(np.asarray(abs(anti).sum(axis=1)).ravel(), initial=0.0))
    return lo, b


def eig_below(M, top: float, want_vectors: bool = False,
              min_count: int = 0) -> SpectrumReport:
    """Every eigenvalue with Re lambda < top, sorted by (Re, Im), by
    shift-invert Arnoldi (ARPACK) with a completeness certificate; with
    `min_count`, at least the `min_count` lowest in that order.

    `_numerical_range_box` puts every eigenvalue in Re >= lo, |Im| <= b, so
    the ones wanted lie in the box [lo, top] x [-b, b] and in the disc of
    radius r about its centre c.  `eigs(..., sigma=c)` returns the k
    eigenvalues nearest to c; once the farthest of them lies outside that
    disc, no eigenvalue with Re < top is missing.  k starts at `_K_START`
    and doubles until that holds.  A PT-symmetric M is solved as the real
    R = S^H M S of `eig` (exact-real levels, exact conjugate pairs), any
    other M as it is.  The start vector is fixed, so the result is the same
    on every call.

    When k would pass n / `_K_FRACTION`, ARPACK does not converge, a vector
    misses the backward-error contract of `eig`, or fewer than `min_count`
    levels lie below top, the dense `eig` runs instead and its leading pairs
    are kept: those with Re < top, or the first `min_count` when that is
    more.  The report's `solver` then names the dense solver, else it is
    "shift-invert" (also when the box is empty because top <= lo).  Tags
    and pairing follow `classify_spectrum` on the pairs returned.
    """
    H = _as_csr(M)
    n = H.shape[0]
    if not 0 <= min_count <= n:
        raise ParameterError(f"min_count must lie in [0, {n}], got {min_count}")
    lo, b = _numerical_range_box(H)
    if top > lo:
        c = 0.5 * (lo + top)
        # slack for rounding in lo, b and the Ritz values
        r = np.hypot(0.5 * (top - lo), b) * (1 + 1e-9)
        found = _shift_invert(H, c, r, want_vectors)
        if found is not None and want_vectors:
            try:
                _check_backward_error(H, *found)
            except SolverError:
                found = None
    else:  # no eigenvalue has Re < lo
        found = (np.empty(0, dtype=complex),
                 np.empty((n, 0), dtype=complex) if want_vectors else None)
    if found is not None:
        vals, vecs = found
        idx = np.flatnonzero(vals.real < top)
        if len(idx) >= min_count:
            idx = idx[np.lexsort((vals[idx].imag, vals[idx].real))]
            return _report(vals[idx], vecs[:, idx] if want_vectors else None, "shift-invert")
    rep = eig(H, want_vectors=want_vectors)
    keep = max(np.count_nonzero(rep.eigenvalues.real < top), min_count)
    vecs = rep.vectors[:, :keep].copy() if want_vectors else None  # release the other columns
    return _report(rep.eigenvalues[:keep], vecs, rep.solver)


def _shift_invert(H, c: float, r: float, want_vectors: bool):
    """(values, vectors) of every eigenvalue of H within distance r of the
    real shift c (and possibly more), or None when that needs
    k > n / _K_FRACTION or ARPACK fails."""
    from scipy.sparse.linalg import ArpackError, eigs

    n = H.shape[0]
    S, R = _pt_fold(H)
    A = H if R is None else R
    # A fixed start vector keeps every call identical.  It is generic, not
    # ones: an H that commutes with parity keeps an even vector's Krylov
    # space even, so the odd levels would be found only through rounding.
    v0 = np.random.default_rng(_V0_SEED).uniform(-1.0, 1.0, n).astype(A.dtype)
    k = _K_START
    while k <= n / _K_FRACTION:
        try:
            out = eigs(A, k=k, sigma=c, which="LM", v0=v0, tol=0,
                       return_eigenvectors=want_vectors)
        except (ArpackError, RuntimeError):  # ArpackNoConvergence is an ArpackError
            return None  # or c is an eigenvalue and A - c I is singular
        vals, vecs = out if want_vectors else (out, None)
        if np.max(np.abs(vals - c)) > r:
            if vecs is not None and R is not None:
                vecs = S @ vecs
            return vals, vecs
        k *= 2
    return None


def _dense_eig(A: np.ndarray, S, want_vectors: bool):
    """Eigenpairs of a Fortran-ordered A that LAPACK may overwrite, sorted by
    (Re, Im); with the fold's S, those of S A S^H, the vectors mapped back as
    S Y.

    For a real A the real `geev` runs, and scipy returns a conjugate pair's
    vectors as y, conj(y).  The ordering and the back-map are applied
    together, one block of columns at a time into one preallocated array,
    after the dense A is released.
    """
    out = scipy.linalg.eig(A, right=want_vectors, overwrite_a=True, check_finite=False)
    del A
    vals, vecs = out if want_vectors else (out, None)
    order = np.lexsort((vals.imag, vals.real))
    if vecs is None:
        return vals[order], None
    if S is None:
        return vals[order], vecs[:, order]
    V = np.empty(vecs.shape, dtype=complex, order="F")
    for p0 in range(0, len(order), _BLOCK):
        V[:, p0:p0 + _BLOCK] = S @ vecs[:, order[p0:p0 + _BLOCK]]
    return vals[order], V


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

    `coarse` needs to hold only the levels with Re < tol_move: no other can
    lie within tol_move of a candidate.  With none, every candidate is
    rejected.

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
    move = np.array([np.min(np.abs(coarse - v), initial=np.inf) for v in cand])
    keep = move < tol_move
    return BoundStates(values=cand[keep], movement=move[keep], rejected=cand[~keep])
