"""Non-Hermitian eigensolvers and spectrum classification.

`eig` returns all N eigenvalues.  A values-only request on a tridiagonal H,
or on an exactly symmetric H of bandwidth 2 (every H0 the CLI builds, at
accuracy 2 and 4), runs Ehrlich-Aberth iteration on det(H - z), with Newton
corrections from a ratio recurrence (bandwidth 1) or an unpivoted LDL^T of
H - z (bandwidth 2), in O(N^2) time and O(N) memory.  Once at most `_FEW`
iterates of a tridiagonal H are left, their three-term recurrences run in
BLAS instead, as one stacked banded triangular solve (`_stacked_pass`); a
point whose scaled recurrence leaves the floating-point range goes back to
the ratio recurrence.  It returns only when a certificate holds, and gives
up once no iterate has converged for `_ABERTH_STALL` iterations in a row.  Vector requests, any other H, and any
request whose certificate fails are one dense `scipy.linalg.eig` call, on
the real fold S^H H S for PT-symmetric input.
`eig_below` returns only those with Re < top, by shift-invert Arnoldi
(ARPACK) certified complete by a bound on the numerical range, and falls
back to `eig` when that would be costly or fails.  It serves wherever only
the low levels are read: `bound_levels` (both grids of `sweep`, the coarse
grid of `spectrum`) and `evolve --state-index`.  Both solvers see only the
ungauged H0 = -D2 + diag(V): a gauged G H0 G^-1 has its levels and vectors G x.

Pseudo-Hermitian spectra are real or come in complex-conjugate pairs; the
classifier tags each eigenvalue accordingly.  `bound_levels` is the one
two-grid (N/2, N) bound-level policy of the CLI, the demos and the test
fixtures: `converged_bound_states` keeps the Re < 0 eigenvalues of the fine
grid that move less than `TOL_MOVE` against the coarse one.  That tells
bound states from box-continuum states only when the continuum edge lies at
Re >= 0: both converge in h, and they differ in the box length L instead.
For V = -1 - 2 sech^2 x (edge -1) the box states between -1 and 0 pass the
filter; ROADMAP item 8 replaces it with a box-stability test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import ztbsv

from . import operators
from .errors import ParameterError, SolverError
from .grid import make_grid

__all__ = ["SpectrumReport", "eig", "eig_below", "pt_real_basis", "classify_spectrum",
           "bound_levels", "converged_bound_states", "BoundStates", "TOL_MOVE"]


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues sorted by (Re, Im), optional eigenvectors (columns), the
    real / pair-member / unpaired classification (`classify_spectrum` at
    tol 1e-6), and the solver that ran ("aberth", "real-pt" or "complex", see
    `eig`; "shift-invert", see `eig_below`)."""

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
_EPS = np.finfo(float).eps
_ABERTH_MAX_ITER = 64  # iterations before the certificate fails; 10-30 is typical
_ABERTH_STALL = 16  # iterations in a row without a retirement before it fails
_ABERTH_CHUNK = 1 << 14  # entries per row chunk of the Aberth sums (256 KiB complex)
_ABERTH_SHIFT = 1e-6  # start points sit at +-_ABERTH_SHIFT (1 + |x|) i off the real axis
_ABERTH_FLOOR = 4 * _EPS  # a correction below this times (|z| + s) is rounding
_FEW = 160  # up to this many active iterates `_stacked_pass` beats `_ratio_pass`
_TINY = 2.0 ** -900  # a scaled p or p' outside [_TINY, 1/_TINY] may have lost digits
_TRACE_C = 16  # the trace checks allow _TRACE_C N eps of the sums of magnitudes
TOL_MOVE = 1e-3  # a bound level moves less than this between the N/2 and N grids


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
    """All eigenvalues of a square matrix, sorted by (Re, Im).

    A values-only request on a banded M that `_band` accepts (every stored
    entry within one diagonal of the main one, or within two when M == M^T
    exactly) goes to `_aberth` (solver "aberth"), which makes real roots
    exactly real and pairs exact conjugates whenever det(M - z) is real: M
    PT-symmetric (below), or every array of `_band(M)` real, as for any real
    V.  When its certificate fails, and for every other request, LAPACK QR
    iteration runs as follows, and its result is returned as it is.

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
    band = None if want_vectors else _band(H)
    if band is not None:
        real = R is not None or not any(np.any(d.imag) for d in band)
        vals = _aberth(band, real=real)
        if vals is not None:
            return _report(vals, None, "aberth")
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


def _band(H) -> tuple | None:
    """The diagonals of a CSR H on which alone det(H - z) depends, else None.

    (a, e) when every stored entry lies within one diagonal of the main one:
    the diagonal a_k and the products e_k = H[k+1, k] H[k, k+1].  (a, b, c)
    when they lie within two and H == H^T exactly: the diagonal, b_k =
    H[k, k+1] and c_k = H[k, k+2].  A wider H, or a non-symmetric one of
    bandwidth 2, gives None.
    """
    rows = np.repeat(np.arange(H.shape[0]), np.diff(H.indptr))
    width = np.max(np.abs(rows - H.indices), initial=0)
    a = H.diagonal().astype(complex)
    if width <= 1:
        return a, H.diagonal(1).astype(complex) * H.diagonal(-1)
    b, c = H.diagonal(1), H.diagonal(2)
    if width > 2 or not (np.array_equal(b, H.diagonal(-1))
                         and np.array_equal(c, H.diagonal(-2))):
        return None
    return a, b.astype(complex), c.astype(complex)


def _aberth(band: tuple, real: bool) -> np.ndarray | None:
    """The roots of det(H - z) for the banded H of `band` (see `_band`),
    sorted by (Re, Im), or None when the certificate fails.

    Ehrlich-Aberth iteration (Bini, Gemignani & Tisseur, SIAM J. Matrix Anal.
    Appl. 27, 153 (2005)) moves every iterate z_i by w = n / (1 - n A_i),
    with the Newton correction n = p/p' of `_newton_corrections` and the
    Aberth sum A_i = sum_{j != i} 1/(z_i - z_j) of `_aberth_sums`.  Only the
    active iterates get a correction: after the first few iterations most
    have retired, and for (a, e) the few left (at most `_FEW`) take theirs
    from `_stacked_pass`; the certificate below is the same whichever pass
    formed them.  The start points are the eigenvalues of a real symmetric
    matrix of the same band, moved off the real axis by alternating
    +-`_ABERTH_SHIFT` (1 + |x|) i:
    for (a, e) the tridiagonal with diagonal Re a and off-diagonal sqrt|e|,
    for (a, b, c) Re H.  An iterate retires once |w| falls to the rounding
    floor `_ABERTH_FLOOR` (|z| + s), s = max|a| + 2 sqrt(max|e|), or
    max|a| + 2 max|b| + 2 max|c|; its error estimate is then the larger of
    |w| and that floor.  No other rule retires an iterate: one that also
    retired an iterate whose |w| stopped shrinking short of the floor let a
    root with a relative error of 2e-8 pass on a random tridiagonal.

    The certificate: every iterate retires within `_ABERTH_MAX_ITER`
    iterations with finite values, never `_ABERTH_STALL` iterations in a
    row without a retirement (near a double root an iterate can creep for
    the whole budget), and sum z = tr H and sum z^2 = tr H^2 = sum a^2 +
    2 sum e (or sum a^2 + 2 sum b^2 + 2 sum c^2), each within `_TRACE_C`
    n eps times the matching sum of magnitudes (a root missed or found
    twice moves them).  When the polynomial is real (`real`: PT input, or a
    band with real entries), each root is real within its estimate or pairs
    with a conjugate within the sum of theirs (`_pt_pairs`), and the values
    come out as the "real-pt" solver gives them: real levels with Im exactly
    0, pairs exact conjugates.
    """
    a = band[0]
    n = len(a)
    if len(band) == 2:
        e = off = band[1]  # tr H^2 = sum a^2 + 2 sum off
        s = float(np.max(np.abs(a)) + 2.0 * np.sqrt(np.max(np.abs(e), initial=0.0)))
        x = scipy.linalg.eigvalsh_tridiagonal(a.real, np.sqrt(np.abs(e)))
        coeffs = a.tolist(), e.tolist()
    else:
        b, c = band[1:]
        off = np.concatenate([b * b, c * c])
        s = float(np.max(np.abs(a)) + 2.0 * np.max(np.abs(b)) + 2.0 * np.max(np.abs(c)))
        x = scipy.linalg.eigvals_banded(np.array([np.r_[0.0, 0.0, c.real],
                                                  np.r_[0.0, b.real], a.real]))
        coeffs = a.tolist(), [0.0, *b.tolist()], [0.0, 0.0, *c.tolist()]
    z = x + 1j * _ABERTH_SHIFT * (1.0 + np.abs(x)) * np.where(np.arange(n) % 2, -1.0, 1.0)
    err = np.full(n, np.inf)
    active = np.arange(n)
    stall = 0  # iterations since the last retirement
    with np.errstate(all="ignore"):
        for _ in range(_ABERTH_MAX_ITER):
            if not active.size:
                break
            za = z[active]
            newton = _newton_corrections(za, band, coeffs, _EPS * s)
            w = newton / (1.0 - newton * _aberth_sums(z, active))
            za -= w
            if not np.all(np.isfinite(za)):
                return None
            z[active] = za
            err[active] = np.abs(w)
            kept = active[err[active] > _ABERTH_FLOOR * (np.abs(za) + s)]
            stall = stall + 1 if kept.size == active.size else 0
            if stall == _ABERTH_STALL:
                return None
            active = kept
        if active.size:
            return None
        err = np.maximum(err, _ABERTH_FLOOR * (np.abs(z) + s))
        tol = _TRACE_C * n * _EPS
        z2 = z * z
        if (abs(z.sum() - a.sum()) > tol * (np.abs(a).sum() + np.abs(z).sum())
                or abs(z2.sum() - (a * a).sum() - 2.0 * off.sum())
                > tol * (np.abs(a * a).sum() + 2.0 * np.abs(off).sum() + np.abs(z2).sum())):
            return None
    if real:
        z = _pt_pairs(z, err)
        if z is None:
            return None
    return z[np.lexsort((z.imag, z.real))]


def _newton_corrections(z: np.ndarray, band: tuple, coeffs: tuple,
                        pivmin: float) -> np.ndarray:
    """p(z)/p'(z) for p(z) = det(H - z), at every point of z, from the
    diagonals of `_aberth`: the arrays of `band` (see `_band`), and the same
    as lists in `coeffs`, (a, e) for `_ratio_pass` or (a, b, c) padded in
    front for `_ldl_pass`.

    Either pass is one loop over k, vectorized over z, of a recurrence for
    ratios that do not overflow as p does.  A point where some pivot
    vanishes or overflows repeats the pass with pivots of modulus below
    pivmin set to pivmin, a backward perturbation of a_k by at most
    2 pivmin.  That loop costs N steps of numpy calls however few points
    there are, so for a tridiagonal H and at most `_FEW` points
    `_stacked_pass` runs instead, in BLAS; a point where its scaled
    recurrence left the floating-point range goes to `_ratio_pass` as above.
    """
    kernel = _ratio_pass if len(band) == 2 else _ldl_pass
    if kernel is _ratio_pass and len(z) <= _FEW:
        out = _stacked_pass(z, *band)
    else:
        out = np.full(len(z), np.nan, dtype=complex)
    for floor in (0.0, pivmin):
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = kernel(z[bad], *coeffs, floor)
    return out


def _stacked_pass(z: np.ndarray, a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """p/p' for a tridiagonal H at a few points z, NaN where it cannot be
    trusted, from the arrays (a, e) of `_band`.

    The recurrence p_k = (a_k - z) p_{k-1} - e_{k-1} p_{k-2} (p_{-1} = 1)
    is forward substitution in a unit lower triangular system of bandwidth
    2, and so is p'_k = (a_k - z) p'_{k-1} - e_{k-1} p'_{k-2} - p_{k-1}.
    One block per point, with no coupling between blocks, makes the values
    one `ztbsv` call and the derivatives another, per chunk of points whose
    band holds at most `_ABERTH_CHUNK` entries.  Unpivoted substitution is
    exactly the recurrence, which is backward stable (Wilkinson, The
    Algebraic Eigenvalue Problem, 1965).  It runs on p~_k = p_k /
    sigma^(k+1), with sigma ~ sqrt(max|e|): p~_k = c_k p~_{k-1} - e~_{k-1}
    p~_{k-2}, c_k = (a_k - z)/sigma and e~ = e/sigma^2, the derivatives
    with the right-hand side -p~_{k-1}/sigma.  A point gets NaN when
    |p~_{n-1}| or |p~'_{n-1}| is not within [`_TINY`, 1/`_TINY`]: the
    substitution may have underflowed, or their quotient overflowed.
    """
    n = len(a)
    # a power of 2 within a factor sqrt(2) of sqrt(max|e|): scaling rounds nothing
    sigma = float(np.ldexp(1.0, np.frexp(np.max(np.abs(e), initial=0.0))[1] // 2))
    at, et = a / sigma, e / (sigma * sigma)
    rows = max(1, min(len(z), _ABERTH_CHUNK // (3 * n)))
    ab = np.zeros((rows, n, 3), dtype=complex)  # its transpose is the band, Fortran order
    ab[:, :-2, 2] = et[1:]  # element (k, k-2) is e~_{k-1}
    x, y = np.empty((2, rows, n), dtype=complex)  # one chunk's p~ and p~'
    out = np.empty(len(z), dtype=complex)
    for p0 in range(0, len(z), rows):
        zt = z[p0:p0 + rows] / sigma
        m = len(zt)
        np.subtract(zt[:, None], at[1:], out=ab[:m, :-1, 1])  # element (k, k-1) is -c_k
        band = ab[:m].reshape(m * n, 3).T
        p, dp = x[:m], y[:m]  # ztbsv overwrites these contiguous blocks
        p[:, 0] = at[0] - zt  # p~_{-1} = 1 moved to the right
        p[:, 1:2] = -et[:1]  # when n > 1
        p[:, 2:] = 0.0
        ztbsv(2, band, p.reshape(-1), lower=1, diag=1, overwrite_x=1)
        dp[:, 0] = 1.0
        dp[:, 1:] = p[:, :-1]
        dp /= -sigma
        ztbsv(2, band, dp.reshape(-1), lower=1, diag=1, overwrite_x=1)
        lo = np.minimum(np.abs(p[:, -1]), np.abs(dp[:, -1]))  # NaN compares False
        hi = np.maximum(np.abs(p[:, -1]), np.abs(dp[:, -1]))
        trusted = (lo >= _TINY) & (hi <= 1.0 / _TINY)
        out[p0:p0 + m] = np.where(trusted, p[:, -1] / dp[:, -1], np.nan)
    return out


def _ratio_pass(z: np.ndarray, a: list, e: list, pivmin: float) -> np.ndarray:
    """p/p' for a tridiagonal H, in place on a few work vectors.

    p = prod_k f_k with the ratios f_0 = a_0 - z, f_k = (a_k - z) -
    e_{k-1}/f_{k-1}, and p'/p = sum_k f_k'/f_k with f_k' = -1 +
    e_{k-1} f_{k-1}'/f_{k-1}^2; q_k = f_k'/f_k, r_k = 1/f_k and
    t = e_{k-1} r_{k-1}.
    """
    f = np.empty_like(z)
    r = np.empty_like(z)
    t = np.zeros_like(z)
    q = np.zeros_like(z)
    total = np.zeros_like(z)
    for k in range(len(a)):
        if k:
            np.multiply(r, e[k - 1], out=t)
        np.subtract(a[k], z, out=f)
        f -= t
        if pivmin:
            f[np.abs(f) < pivmin] = pivmin
        np.reciprocal(f, out=r)
        t *= q
        t -= 1.0
        np.multiply(t, r, out=q)
        total += q
    return np.reciprocal(total, out=total)


def _ldl_pass(z: np.ndarray, a: list, b: list, c: list, pivmin: float) -> np.ndarray:
    """p/p' for an exactly symmetric pentadiagonal H, in place on a few
    work vectors; b[k] = H[k-1, k] and c[k] = H[k-2, k], zero before row 0.

    p = prod_k D_k with the pivots of H - z = L D L^T, unpivoted: mu_k =
    b[k] - c[k] l_{k-1}, l_k = mu_k / D_{k-1} and D_k = (a_k - z) -
    mu_k l_k - c[k]^2 / D_{k-2}.  p'/p = sum_k D_k'/D_k, with D_k' from
    differentiating the same recurrence.  r1, r2 hold 1/D and q1, q2 hold
    D'/D of the two rows before; l1 and dl1 hold l and l' of the last one.
    """
    D, t, u, mu, dmu, l, dl, l1, dl1, r1, r2, q1, q2, total = (
        np.zeros_like(z) for _ in range(14))
    for k in range(len(a)):
        ck = c[k]
        np.multiply(l1, -ck, out=mu)
        mu += b[k]
        np.multiply(dl1, -ck, out=dmu)
        np.multiply(mu, r1, out=l)
        np.multiply(dmu, r1, out=dl)
        np.multiply(l, q1, out=t)
        dl -= t
        np.subtract(a[k], z, out=D)
        np.multiply(mu, l, out=t)
        D -= t
        np.multiply(r2, ck * ck, out=t)
        D -= t
        t *= q2  # D_k' = c^2 D_{k-2}'/D_{k-2}^2 - 1 - mu' l - mu l'
        t -= 1.0
        np.multiply(dmu, l, out=u)
        t -= u
        np.multiply(mu, dl, out=u)
        t -= u
        if pivmin:
            D[np.abs(D) < pivmin] = pivmin
        np.reciprocal(D, out=r2)  # the row two back is spent: its buffers
        np.multiply(t, r2, out=q2)  # take this row's 1/D and D'/D
        total += q2
        r1, r2, q1, q2 = r2, r1, q2, q1
        l1, l, dl1, dl = l, l1, dl, dl1
    return np.reciprocal(total, out=total)


def _aberth_sums(z: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """sum_{j != i} 1/(z_i - z_j) for each i in idx, over row chunks of at
    most `_ABERTH_CHUNK` entries, so the workspace is never len(z)^2."""
    n = len(z)
    rows = max(1, _ABERTH_CHUNK // n)
    out = np.empty(len(idx), dtype=complex)
    for p0 in range(0, len(idx), rows):
        blk = idx[p0:p0 + rows]
        D = np.subtract.outer(z[blk], z)
        D[np.arange(len(blk)), blk] = np.inf  # drops j = i from the sum
        out[p0:p0 + rows] = np.reciprocal(D, out=D).sum(axis=1)
    return out


def _pt_pairs(z: np.ndarray, err: np.ndarray) -> np.ndarray | None:
    """The roots of a real polynomial with real ones made exactly real and
    pairs made exact conjugates, or None when some root is neither real
    within its estimate `err` nor matched, in (Re, Im) order, to a conjugate
    within the sum of their estimates."""
    real = np.abs(z.imag) <= err
    up = np.flatnonzero(~real & (z.imag > 0))
    lo = np.flatnonzero(~real & (z.imag < 0))
    if len(up) != len(lo):
        return None
    up = up[np.lexsort((z[up].imag, z[up].real))]
    lo = lo[np.lexsort((-z[lo].imag, z[lo].real))]
    if np.any(np.abs(z[up] - z[lo].conj()) > err[up] + err[lo]):
        return None
    mid = 0.5 * (z[up] + z[lo].conj())
    return np.concatenate([z[real].real, mid, mid.conj()])


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
    greedily matched to their nearest conjugate: a pair i < j is a candidate
    when |lambda_i - conj lambda_j| <= tol (1 + |lambda_i|), and candidates
    are taken by (distance, i, j).  Since |Re lambda_i - Re lambda_j| is at
    most that distance, the candidates of i lie in an Re window around Re
    lambda_i, found by binary search over the values sorted by Re.
    """
    if not tol > 0:
        raise ParameterError(f"tolerance must be positive, got {tol}")
    eigs = np.asarray(eigs, dtype=complex)
    scale = 1.0 + np.abs(eigs)
    real = np.abs(eigs.imag) <= tol * scale
    tags = np.where(real, "real", "unpaired").tolist()

    by_re = np.flatnonzero(~real)
    by_re = by_re[np.argsort(eigs.real[by_re], kind="stable")]
    re, reach = eigs.real[by_re], 2.0 * tol * scale[by_re]  # 2x: room for rounding
    lo = np.searchsorted(re, re - reach, side="left")
    count = np.searchsorted(re, re + reach, side="right") - lo
    first = np.repeat(np.arange(len(by_re)), count)
    second = np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)
    i, j = by_re[first], by_re[second]
    i, j = i[i < j], j[i < j]
    d = np.abs(eigs[i] - np.conj(eigs[j]))
    near = d <= tol * scale[i]
    i, j, d = i[near], j[near], d[near]

    pairing: dict[int, int] = {}
    for k in np.lexsort((j, i, d)):
        a, b = int(i[k]), int(j[k])
        if tags[a] == "unpaired" and tags[b] == "unpaired":
            tags[a] = tags[b] = "pair-member"
            pairing[a] = b
            pairing[b] = a
    return tags, pairing


@dataclass(frozen=True)
class BoundStates:
    """Bound candidates surviving the two-grid stability filter."""

    values: np.ndarray      # from the fine grid, sorted by (Re, Im)
    movement: np.ndarray    # |fine - nearest coarse|
    rejected: np.ndarray    # fine-grid Re<0 values that moved too much


def converged_bound_states(coarse: np.ndarray, fine: np.ndarray) -> BoundStates:
    """Filter Re(lambda) < 0 eigenvalues of the fine grid by their movement
    relative to the nearest coarse-grid eigenvalue: a candidate is kept when
    that movement is below `TOL_MOVE`.

    `coarse` needs to hold only the levels with Re < TOL_MOVE: no other can
    lie within TOL_MOVE of a candidate.  With none, every candidate is
    rejected.

    The filter assumes that the continuum edge lies at Re >= 0, as for the
    Scarf II and first-order families: box-continuum states then fail the
    sign test.  Stability in h does not tell them apart from bound states,
    since both converge under refinement, so a potential with its edge below
    0 keeps box states: at L = 16, `spectrum --V=-1-2*sech(x)^2 --N 1600`
    reports 10 levels, of which only -2 is bound.  ROADMAP item 8 tests
    stability in the box length instead.
    """
    fine = np.asarray(fine, dtype=complex)
    coarse = np.asarray(coarse, dtype=complex)
    cand = fine[fine.real < 0]
    order = np.lexsort((cand.imag, cand.real))
    cand = cand[order]
    if len(cand) == 0:
        return BoundStates(values=cand, movement=np.empty(0), rejected=cand)
    move = np.array([np.min(np.abs(coarse - v), initial=np.inf) for v in cand])
    keep = move < TOL_MOVE
    return BoundStates(values=cand[keep], movement=move[keep], rejected=cand[~keep])


def bound_levels(potential, L: float, N: int, accuracy: int = 2,
                 full: bool = False) -> tuple[SpectrumReport, BoundStates]:
    """The fine-grid (N) eigenvalues of H0 = -D2 + diag(V), which every gauged
    G H0 G^-1 shares, plus the two-grid (N/2 vs N) bound-state filter.

    With `full` the fine report holds all N eigenvalues (`eig`: Ehrlich-Aberth
    on the banded H0, dense LAPACK behind a failed certificate); otherwise
    only those with Re < 0, the filter's candidates (`eig_below`).  The
    coarse grid needs only Re < TOL_MOVE: a coarse level within TOL_MOVE of a
    candidate has Re < TOL_MOVE, so every decision and kept movement is the
    one the whole coarse spectrum would give.
    """
    g_fine = make_grid(L, N)
    g_coarse = make_grid(L, N // 2)
    H_fine = operators.build_hamiltonian(g_fine, potential, accuracy=accuracy)
    H_coarse = operators.build_hamiltonian(g_coarse, potential, accuracy=accuracy)
    fine = eig(H_fine) if full else eig_below(H_fine, 0.0)
    coarse = eig_below(H_coarse, TOL_MOVE)
    bound = converged_bound_states(coarse.eigenvalues, fine.eigenvalues)
    return fine, bound
