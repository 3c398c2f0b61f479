"""The named potential families and their analytic reference data.

Every family is a point of the complex Scarf II potential
V = -V1 sech^2 x + k - i V2 sech x tanh x (`operators.ScarfII`); this module
owns each family's parameterization and admissibility gate:

    scarf2_potential(A, B)       V1 = [B^2 (2A+1)^2 + 3]/4, V2 = -B (2A+1)
    first_order_potential(d, k)  V1 = d^2, V2 = -d, shift k

It also gives their closed-form bound-state energies and the reality
condition |V2| <= V1 + 1/4.  The B = 1 level formulas are exact reference
values; the general-B and first-order family series are derived from the
standard Scarf II analysis and are cross-validated against the numerical
eigensolver in the test suite (their LevelSet carries provenance="derived").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintError, ParameterError
from .operators import ScarfII, _is_integer

__all__ = [
    "LevelSet", "RealityCheck",
    "scarf2_potential", "scarf2_strengths", "first_order_potential",
    "scarf2_levels", "first_order_levels", "reality_condition",
]

_DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class LevelSet:
    """Analytic bound-state energies, split into the two level series."""

    series1: tuple[float, ...]
    series2: tuple[float, ...]
    params: dict = field(default_factory=dict)
    reality_ok: bool = True
    provenance: str = "paper"       # "paper" for B=1 exact values, else "derived"
    degenerate: bool = False        # a series1 level collides with series2
    constraint_ok: bool = True      # A - B + 1/2 non-integer admissibility

    def all_levels(self) -> np.ndarray:
        return np.sort(np.array(self.series1 + self.series2))


@dataclass(frozen=True)
class RealityCheck:
    ok: bool
    margin: float           # V1 + 1/4 - |V2|; nonnegative iff ok
    eq_family_point: bool   # (V1, V2) reachable from (A, B), where ok always holds


def _require_scarf2_domain(A: float, B: float) -> None:
    if not A + 0.5 > 0:
        raise ConstraintError(f"require A + 1/2 > 0, got A = {A}")
    if not B > 0:
        raise ConstraintError(f"require B > 0, got B = {B}")


def scarf2_strengths(A: float, B: float) -> tuple[float, float]:
    """(V1, V2) of the (A, B) point, without the admissibility gate.

    V1 rounds as B^2 c^2, not (B c)^2; the two differ in the last bit for
    about half of all (A, B), and the tests pin the B^2 c^2 samples."""
    c = 2.0 * A + 1.0
    return 0.25 * (B**2 * c**2 + 3.0), -B * c


def scarf2_potential(A: float, B: float) -> ScarfII:
    """Admissible Scarf II point; rejects A + 1/2 <= 0, B <= 0 and integer
    A - B + 1/2."""
    _require_scarf2_domain(A, B)
    if _is_integer(A - B + 0.5):
        raise ConstraintError(f"A - B + 1/2 = {A - B + 0.5} must not be an integer")
    return ScarfII(*scarf2_strengths(A, B))


def first_order_potential(d: float, k: float = 0.0) -> ScarfII:
    """V = -d^2 sech^2 x + k + i d sech x tanh x, the potential intertwined by
    the first-order metric d/dx + i d sech x; requires d > 1/2."""
    if not d > 0.5:
        raise ConstraintError(
            f"require d > 1/2 for a normalizable level series, got d = {d}"
        )
    return ScarfII(d * d, -d, k)


def _series(top: float) -> tuple[float, ...]:
    """Energies -(top - n)^2 for integer n >= 0 while top - n > 0."""
    out = []
    n = 0
    while top - n > 0:
        out.append(-((top - n) ** 2))
        n += 1
    return tuple(out)


def scarf2_levels(A: float, B: float) -> LevelSet:
    """Bound-state energies of the (A, B) Scarf II potential.

    series1: E_n = -(t/2 - 1/2 - n)^2 with t = B(2A+1), for t/2 - 1/2 - n > 0;
    series2: the single extra level -1/4.  For B = 1 this reduces to
    E_n = -(A - n)^2 plus -1/4.  Degenerate collisions between the series
    (which happen exactly when A - B + 1/2 is an integer making t even) are
    flagged rather than rejected, since the closed forms still evaluate.
    """
    _require_scarf2_domain(A, B)
    t = B * (2.0 * A + 1.0)
    series1 = _series(t / 2.0 - 0.5)
    series2 = (-0.25,)
    degenerate = any(abs(e1 - e2) < _DEGENERACY_TOL for e1 in series1 for e2 in series2)
    V1, V2 = scarf2_strengths(A, B)
    params = {"A": A, "B": B, "t": t, "V1": V1, "V2": V2}
    if B == 1.0:
        params["lambda"] = -(A + 0.5)
    return LevelSet(
        series1=series1,
        series2=series2,
        params=params,
        reality_ok=reality_condition(V1, V2).ok,
        provenance="paper" if B == 1.0 else "derived",
        degenerate=degenerate,
        constraint_ok=not _is_integer(A - B + 0.5),
    )


def first_order_levels(d: float, k: float = 0.0) -> LevelSet:
    """Single level series of the first-order family:
    E_n = k - (d - 1/2 - n)^2 for d - 1/2 - n > 0; requires d > 1/2."""
    V = first_order_potential(d, k)
    return LevelSet(
        series1=tuple(k + e for e in _series(d - 0.5)),
        series2=(),
        params={"d": d, "k": k, "V1": V.V1, "V2": V.V2},
        reality_ok=reality_condition(V.V1, V.V2).ok,
        provenance="derived",
    )


def reality_condition(V1: float, V2: float) -> RealityCheck:
    """|V2| <= V1 + 1/4, the condition for an all-real bound spectrum.

    Also reports whether (V1, V2) lies on the (A, B) family, where the
    condition reduces to [B(2A+1) - 2]^2 >= 0 and is always met.
    """
    if not V1 > 0:
        raise ParameterError(f"require V1 > 0, got {V1}")
    margin = V1 + 0.25 - abs(V2)
    on_family = abs(V1 - 0.25 * (V2 * V2 + 3.0)) <= 1e-12 * (1.0 + abs(V1))
    return RealityCheck(ok=margin >= 0.0, margin=margin, eq_family_point=on_family)
