"""Complex non-Hermitian eigensolver (dense LAPACK) and spectrum classification.

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

__all__ = ["SpectrumReport", "eig", "classify_spectrum", "converged_bound_states", "BoundStates"]


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues sorted by (Re, Im), optional eigenvectors (columns), and
    the real / pair-member / unpaired classification."""

    eigenvalues: np.ndarray
    vectors: np.ndarray | None
    classification: tuple[str, ...]
    pairing: dict[int, int]
    tol_used: float

    def real_values(self) -> np.ndarray:
        mask = [tag == "real" for tag in self.classification]
        return self.eigenvalues[mask]


def eig(M, want_vectors: bool = False, tol: float = 1e-6) -> SpectrumReport:
    """All eigenvalues of a complex matrix (LAPACK QR iteration).

    A scipy.sparse M is densified here, once, because LAPACK needs the full
    array.  With vectors requested, each returned pair satisfies the
    backward-error contract ||M v - lambda v|| <= 1e-10 ||M||_F ||v||.
    """
    import scipy.sparse as sp

    M = M.toarray() if sp.issparse(M) else np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ParameterError(f"square matrix required, got shape {M.shape}")
    try:
        if want_vectors:
            vals, vecs = scipy.linalg.eig(M)
        else:
            vals = scipy.linalg.eigvals(M)
            vecs = None
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hardware dependent
        raise SolverError(f"eigensolver did not converge: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    if vecs is not None:
        vecs = vecs[:, order]
    tags, pairing = classify_spectrum(vals, tol)
    return SpectrumReport(
        eigenvalues=vals,
        vectors=vecs,
        classification=tuple(tags),
        pairing=pairing,
        tol_used=tol,
    )


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
