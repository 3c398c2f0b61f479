"""Numerical toolkit for eta-pseudo-Hermitian one-dimensional Hamiltonians.

Builds discretized non-Hermitian Hamiltonians as sparse matrices (the
complex Scarf II potential and custom expressions, with optional imaginary
gauge coupling) and the metric operators that intertwine them with their
adjoints.  The full spectrum of a tridiagonal (accuracy-2) H, or of an
exactly symmetric pentadiagonal (accuracy-4) one, comes from certified
O(N^2) Ehrlich-Aberth iteration on its characteristic polynomial; that of
any other H, of a vector request, or behind a failed certificate, from one
dense `scipy.linalg.eig` call, on a real fold of PT-symmetric H (on the
complex H otherwise).  The Re < 0 levels come from certified sparse
shift-invert.  Spectra are classified into real levels and
conjugate pairs against analytic levels.  Crank-Nicolson
evolution of one field checks the generalized conservation law (which, by
polarization, covers eta-orthogonality) and records the per-step flux
form of the continuity law, which the implicit midpoint rule keeps to
rounding when the weight symmetrizes H.
"""

from .errors import (
    ConstraintError,
    DimensionError,
    NanAbortError,
    OddFunctionError,
    ParameterError,
    PoleError,
    SingularSystemError,
    SolverError,
    ToolkitError,
    ZeroPseudoNormError,
)
from .expr import DomainError, ParseError, derive, evaluate, evaluate_on, parse, to_source
from .grid import Grid, diff_matrix, make_grid
from .operators import (
    CustomPotential,
    FirstOrderEta,
    GaugeSpec,
    IdentityEta,
    MultiplicativeEta,
    ParityEta,
    ScarfII,
    SecondOrderEta,
    adjoint,
    build_eta,
    build_hamiltonian,
    eta_plus_minus,
    gauge_weight,
    gaussian_probes,
    hermiticity_indicators,
    intertwining_residual,
    potential_on_grid,
    susy_pair,
    verify_factorization,
)
from .eigen import SpectrumReport, classify_spectrum, converged_bound_states, eig
from .inner import gram, operator_inner, parity_flip, pseudo_normalize, weighted_inner
from .evolve import EvolutionTrace, gaussian_state, run
from .models import (
    LevelSet,
    first_order_levels,
    first_order_potential,
    reality_condition,
    scarf2_levels,
    scarf2_potential,
    scarf2_strengths,
)

__version__ = "0.1.0"
