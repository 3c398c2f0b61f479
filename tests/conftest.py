"""Shared cached builders for the numerical fixtures.

Tests share Hamiltonians, spectra and bound levels through memoized builders
instead of pytest fixtures, so that any test module (including the acceptance
suite) reuses them instead of solving again.  Each builder is keyed on its
arguments with the defaults filled in, so every spelling of one call builds
once.  The bound levels are the CLI's (`eigen.bound_levels`).
"""

from __future__ import annotations

import functools
import inspect
import os
from pathlib import Path

import numpy as np
import scipy.linalg

import etaqm as q
from etaqm import eigen, expr
from etaqm import operators as ops

GAUGE_BETA = 0.5
L_BOX = 16.0
SRC = Path(__file__).resolve().parent.parent / "src"


def subprocess_env() -> dict:
    """The environment for a `python -m etaqm.cli` subprocess, with this
    checkout's src first on PYTHONPATH: pytest's `pythonpath` setting reaches
    only the pytest process itself."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _cached(fn):
    """fn memoized on its arguments bound to its signature with the defaults
    applied: f(a, b) with b's default, f(a, b=2) and f(a, 2) share one entry,
    which functools.lru_cache alone keys three times."""
    signature = inspect.signature(fn)
    cached = functools.lru_cache(maxsize=None)(fn)

    @functools.wraps(fn)
    def call(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return cached(*bound.args)

    call.cache_info = cached.cache_info
    return call


@_cached
def grid(N: int, L: float = L_BOX):
    return q.make_grid(L, N)


def _potential(kind: str, p1: float, p2: float) -> ops.PotentialSpec:
    if kind == "scarf2":
        return q.scarf2_potential(p1, p2)
    if kind == "scarf2-raw":
        return ops.ScarfII(p1, p2)
    if kind == "special-b1":
        return ops.ScarfII(*q.scarf2_strengths(p1, 1.0))
    if kind == "first-order":
        return q.first_order_potential(p1, p2)
    if kind == "free":
        return ops.CustomPotential(expr.parse("0"))
    if kind == "non-pt":
        return ops.CustomPotential(expr.parse("-2*sech(x)^2 + 0.5*i*sech(x)^2"))
    raise ValueError(kind)


@_cached
def hamiltonian(kind: str, p1: float, p2: float, N: int, beta: float = 0.0,
                accuracy: int = 2) -> np.ndarray:
    g = grid(N)
    gauge = q.GaugeSpec(beta, expr.parse("tanh(x)")) if beta else None
    return q.build_hamiltonian(g, _potential(kind, p1, p2), gauge, accuracy)


@_cached
def eig_values(kind: str, p1: float, p2: float, N: int, beta: float = 0.0,
               accuracy: int = 2) -> np.ndarray:
    return eigen.eig(hamiltonian(kind, p1, p2, N, beta, accuracy)).eigenvalues


def dense_eigvals(H) -> np.ndarray:
    """The values that the dense LAPACK path of `eig` returns for a CSR H:
    those of the real fold when H is PT-symmetric, else of H, sorted by (Re, Im)."""
    R = eigen._pt_fold(H)[1]
    vals = scipy.linalg.eigvals((H if R is None else R).toarray())
    return vals[np.lexsort((vals.imag, vals.real))]


@_cached
def eig_full(kind: str, p1: float, p2: float, N: int, beta: float = 0.0,
             accuracy: int = 2):
    return eigen.eig(hamiltonian(kind, p1, p2, N, beta, accuracy), want_vectors=True)


@_cached
def bound_states(kind: str, p1: float, p2: float, N: int, accuracy: int = 2):
    """Two-grid (N/2 vs N) filtered bound levels, those of every gauge."""
    return eigen.bound_levels(_potential(kind, p1, p2), L_BOX, N, accuracy)[1]


def bound_vectors(kind: str, p1: float, p2: float, N: int, levels,
                  beta: float = 0.0, accuracy: int = 2):
    """Eigenvectors nearest to the requested levels, as grid samples."""
    rep = eig_full(kind, p1, p2, N, beta, accuracy)
    out = []
    for e in levels:
        i = int(np.argmin(np.abs(rep.eigenvalues - e)))
        out.append(rep.vectors[:, i])
    return out


def exact_gauge_weight(N: int) -> np.ndarray:
    """exp[-2 beta ln cosh x] = sech x for the beta = 1/2, nu = tanh fixture."""
    return 1.0 / np.cosh(grid(N).points)
