"""Analytic reference data for the solvable potential families.

Closed-form bound-state energies for the complex Scarf II potential in two
parameterizations, plus the reality condition |V2| <= V1 + 1/4.  The B = 1
level formulas are exact reference values; the general-B and first-order
family series are derived from the standard Scarf II analysis and are
cross-validated against the numerical eigensolver in the test suite (their
LevelSet carries provenance="derived").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr
from .errors import ConstraintError, ParameterError
from .operators import CustomPotential, ScarfII, _is_integer

__all__ = [
    "LevelSet", "RealityCheck",
    "scarf2_potential", "scarf2_strengths", "scarf2_raw_potential",
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


def scarf2_potential(A: float, B: float) -> ScarfII:
    """Admissible Scarf II spec; rejects A + 1/2 <= 0, B <= 0 and integer
    A - B + 1/2."""
    return ScarfII(A=A, B=B)  # constraint checks live on the dataclass


def scarf2_strengths(A: float, B: float) -> tuple[float, float]:
    """(V1, V2) without the admissibility gate (useful for sweeps/oracles)."""
    t = B * (2.0 * A + 1.0)
    return 0.25 * (t * t + 3.0), -t


def scarf2_raw_potential(V1: float, V2: float) -> CustomPotential:
    """V = -V1 sech^2 x - i V2 sech x tanh x from raw strengths.

    Unlike the (A, B) family this reaches points violating the reality
    condition, which is what the reality-boundary sweeps need.
    """
    x = expr.var()
    sech = expr.call("sech", x)
    tanh = expr.call("tanh", x)
    term1 = expr.mul(expr.const(-V1), expr.power(sech, 2))
    term2 = expr.mul(expr.const(-1j * V2), expr.mul(sech, tanh))
    return CustomPotential(expr.add(term1, term2))


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
    if not A + 0.5 > 0:
        raise ConstraintError(f"require A + 1/2 > 0, got A = {A}")
    if not B > 0:
        raise ConstraintError(f"require B > 0, got B = {B}")
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
    if not d > 0.5:
        raise ConstraintError(
            f"require d > 1/2 for a normalizable level series, got d = {d}"
        )
    series1 = tuple(k + e for e in _series(d - 0.5))
    V1, V2 = d * d, -d
    return LevelSet(
        series1=series1,
        series2=(),
        params={"d": d, "k": k, "V1": V1, "V2": V2},
        reality_ok=reality_condition(V1, V2).ok,
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
