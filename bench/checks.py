"""Output checks for the benchmark's CLI requests.

Each checker takes the request, its parsed output and the outputs of the
other requests of the same pass, and returns a `Verdict`.  Tolerances are
the acceptance suite's wherever the CLI reports the same quantity:

    spectrum     every reported bound state within 1e-3 of an analytic level
                 or the wall-raised image of a shallow one (see below); a
                 level that is not found is counted, not failed; beyond the
                 reality boundary a conjugate pair with |Im| >= 1e-3
    sweep        max |Im| <= 1e-6 on every row inside the boundary
    verify-eta   parity (and identity) residual <= 1e-8, first- and
                 second-order <= 1e-6, Riccati defect <= 1e-10
    evolve       Hermitian well drift <= 1e-8; the gauge-weight drift at
                 least 100x below the unit-weight drift of the same H, which
                 must be >= 1e-2

The analytic levels are computed here, independently of `etaqm.models`, from
the raw strengths of V = -V1 sech^2 x - i V2 sech x tanh x: with
p = sqrt(V1 - V2 + 1/4) and q = sqrt(V1 + V2 + 1/4), the bound levels are
E = -(s - 1/2 - n)^2 for s in {(p+q)/2, (p-q)/2, (q-p)/2} and integer n >= 0
with Re(s - 1/2 - n) > 0.  Every spectrum request of the benchmark (Scarf II
at any A, B, the first-order family, raw strengths, and the gauged
special-b1 family, whose gauge is a similarity transform) is of this form.

These are levels of the infinite line.  A shallow level E = -kappa^2 whose
decay length is not small against the box, kappa L <= 4, is raised by the
Dirichlet walls at +-L by more than 1e-3 (A = 1.146, B = 1 at L = 16: the
level -0.0213 is reported at -0.0191 at every N).  Such a state is the level
itself and not a spurious one: it passes when it lies between the level and
0, and the level counts as missed because nothing lies within 1e-3 of it.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from dataclasses import dataclass, field

LEVEL_TOL = 1e-3
PAIR_MIN_IM = 1e-3
SWEEP_MAX_IM = 1e-6
PARITY_TOL = 1e-8
DIFFERENTIAL_TOL = 1e-6
RICCATI_TOL = 1e-10
HERMITIAN_DRIFT_TOL = 1e-8
EIGENSTATE_DRIFT_TOL = 1e-5
UNIT_DRIFT_MIN = 1e-2
GAUGE_CONTRAST = 100.0
BOX_DECAY = 4.0
EXACT_HERMITIAN_TOL = 1e-10
MULTIPLICATIVE_TOL = 1e-2


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    levels_missed: int = 0
    level_devs: list[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def require(self, cond: bool, message: str) -> None:
        if not cond:
            self.problems.append(message)


def scarf2_levels(V1: float, V2: float) -> list[complex]:
    """Analytic bound levels of V = -V1 sech^2 x - i V2 sech x tanh x."""
    p = cmath.sqrt(V1 - V2 + 0.25)
    q = cmath.sqrt(V1 + V2 + 0.25)
    levels: list[complex] = []
    for s in ((p + q) / 2, (p - q) / 2, (q - p) / 2):
        n = 0
        while (s - 0.5 - n).real > 0:
            e = -((s - 0.5 - n) ** 2)
            if all(abs(e - old) > 1e-12 for old in levels):
                levels.append(e)
            n += 1
    return sorted(levels, key=lambda e: (e.real, e.imag))


def _complex(pairs) -> list[complex]:
    return [complex(re, im) for re, im in pairs]


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _wall_raised(b: complex, levels: list[complex], L: float) -> bool:
    """b is real and lies between a shallow analytic level and 0."""
    return abs(b.imag) <= LEVEL_TOL and any(
        abs(e.imag) <= LEVEL_TOL and cmath.sqrt(-e).real * L <= BOX_DECAY and e.real <= b.real < 0
        for e in levels)


def _flag(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def check_spectrum(req, out: dict, out_text, outputs: dict) -> Verdict:
    v = Verdict()
    bound = _complex(out["bound"]["values"])
    v.require(out["bound"]["count"] == len(bound), "bound count disagrees with bound values")
    v.require(len(out["eigenvalues"]) == int(_flag(req.argv, "--N")), "eigenvalue count is not N")
    levels = scarf2_levels(*req.params["V"])
    L = float(_flag(req.argv, "--L"))
    for b in bound:
        dist = min((abs(b - e) for e in levels), default=math.inf)
        v.require(dist <= LEVEL_TOL or _wall_raised(b, levels, L),
                  f"spurious bound state {b:.6g} ({dist:.2e} from any level)")
    for e in levels:
        dist = min((abs(b - e) for b in bound), default=math.inf)
        if dist <= LEVEL_TOL:
            v.level_devs.append(dist)
        else:
            v.levels_missed += 1
    if req.params.get("pair"):
        pair = [
            (a, b) for i, a in enumerate(bound) for b in bound[i + 1:]
            if abs(a.imag) >= PAIR_MIN_IM and abs(a - b.conjugate()) <= 1e-6 * (1 + abs(a))
        ]
        v.require(bool(pair), f"no conjugate pair with |Im| >= {PAIR_MIN_IM} beyond the boundary")
    return v


def check_sweep(req, text: str, out_text, outputs: dict) -> Verdict:
    v = Verdict()
    rows = list(csv.DictReader(io.StringIO(text)))
    v.require(len(rows) == req.params["rows"], f"expected {req.params['rows']} rows, got {len(rows)}")
    boundary = req.params["V1"] + 0.25
    for row in rows:
        v.require(row["error"] == "", f"row V2={row['V2']} failed: {row['error']}")
        if row["error"] == "" and abs(float(row["V2"])) <= boundary:
            v.require(float(row["max_im"]) <= SWEEP_MAX_IM,
                      f"V2={row['V2']} inside the boundary has max|Im| {row['max_im']}")
    return v


def _verify_common(out: dict) -> Verdict:
    v = Verdict()
    keys = ("residual", "hermitian_defect", "anti_hermitian_defect",
            "eta_plus_residual", "eta_minus_residual")
    v.require(_finite(*(out.get(k) for k in keys)), "a verify-eta field is missing or not finite")
    return v


def check_verify_exact(req, out: dict, out_text, outputs: dict) -> Verdict:
    """Identity and parity intertwine to rounding on the mirror-exact grid."""
    v = _verify_common(out)
    v.require(out["residual"] <= PARITY_TOL, f"{req.key} residual {out['residual']:.2e} > {PARITY_TOL}")
    return v


def check_verify_multiplicative(req, out: dict, out_text, outputs: dict) -> Verdict:
    # The gauge weight is a real diagonal, so it is Hermitian to rounding; its
    # residual is h^2-limited (3.1e-3 at N=1200), hence the loose bound.
    v = _verify_common(out)
    v.require(out["hermitian_defect"] <= EXACT_HERMITIAN_TOL,
              f"multiplicative eta hermitian defect {out['hermitian_defect']:.2e}")
    v.require(out["residual"] <= MULTIPLICATIVE_TOL,
              f"multiplicative residual {out['residual']:.2e} > {MULTIPLICATIVE_TOL}")
    return v


def check_verify_first_order(req, out: dict, out_text, outputs: dict) -> Verdict:
    v = _verify_common(out)
    v.require(out["residual"] <= DIFFERENTIAL_TOL,
              f"first-order residual {out['residual']:.2e} > {DIFFERENTIAL_TOL}")
    v.require(out["eta_minus_residual"] <= DIFFERENTIAL_TOL,
              f"first-order weak part {out['eta_minus_residual']:.2e} > {DIFFERENTIAL_TOL}")
    return v


def check_verify_second_order(req, out: dict, out_text, outputs: dict) -> Verdict:
    v = _verify_common(out)
    v.require(out["residual"] <= DIFFERENTIAL_TOL,
              f"second-order residual {out['residual']:.2e} > {DIFFERENTIAL_TOL}")
    v.require(out["eta_plus_residual"] <= DIFFERENTIAL_TOL,
              f"second-order strict part {out['eta_plus_residual']:.2e} > {DIFFERENTIAL_TOL}")
    fact = out.get("factorization") or {}
    v.require(_finite(fact.get("riccati_defect")) and fact["riccati_defect"] <= RICCATI_TOL,
              f"Riccati defect {fact.get('riccati_defect')} > {RICCATI_TOL}")
    return v


def _evolve_common(req, out: dict, out_text, flags: list[str]) -> Verdict:
    v = Verdict()
    v.require(_finite(out.get("max_drift"), out.get("max_continuity_defect")),
              "drift or continuity defect missing or not finite")
    v.require(out.get("flags") == flags, f"flags {out.get('flags')} != {flags}")
    if req.out:
        lines = (out_text or "").strip().splitlines()
        v.require(bool(lines) and lines[0] == "t,re_q,im_q,defect", "trace CSV header missing")
        v.require(len(lines) == req.params["steps"] + 2,
                  f"trace CSV has {len(lines)} lines, expected {req.params['steps'] + 2}")
        if len(lines) > 1:
            _, re_q, im_q, _ = (float(x) for x in lines[1].split(","))
            q0 = complex(*out["Q0"])
            v.require(abs(complex(re_q, im_q) - q0) <= 1e-12 * abs(q0), "trace Q(0) != reported Q0")
    return v


def check_evolve_hermitian(req, out: dict, out_text, outputs: dict) -> Verdict:
    v = _evolve_common(req, out, out_text, [])
    v.require(out["max_drift"] <= HERMITIAN_DRIFT_TOL,
              f"Hermitian drift {out['max_drift']:.2e} > {HERMITIAN_DRIFT_TOL}")
    return v


def check_evolve_unit(req, out: dict, out_text, outputs: dict) -> Verdict:
    v = _evolve_common(req, out, out_text, ["mismatched-metric"])
    v.require(out["max_drift"] >= UNIT_DRIFT_MIN,
              f"unit-weight drift {out['max_drift']:.2e} < {UNIT_DRIFT_MIN}")
    return v


def check_evolve_gauge(req, out: dict, out_text, outputs: dict) -> Verdict:
    v = _evolve_common(req, out, out_text, [])
    unit = outputs.get(req.params["unit_key"])
    v.require(unit is not None and _finite(unit.get("max_drift")), "no unit-weight drift to compare")
    if v.ok:
        v.require(out["max_drift"] * GAUGE_CONTRAST <= unit["max_drift"],
                  f"gauge drift {out['max_drift']:.2e} not {GAUGE_CONTRAST:g}x below "
                  f"unit drift {unit['max_drift']:.2e}")
    return v


def check_evolve_eigenstate(req, out: dict, out_text, outputs: dict) -> Verdict:
    v = _evolve_common(req, out, out_text, [])
    v.require(out["max_drift"] <= EIGENSTATE_DRIFT_TOL,
              f"eigenstate drift {out['max_drift']:.2e} > {EIGENSTATE_DRIFT_TOL}")
    return v


CHECKERS = {
    "spectrum": check_spectrum,
    "sweep": check_sweep,
    "verify_exact": check_verify_exact,
    "verify_multiplicative": check_verify_multiplicative,
    "verify_first_order": check_verify_first_order,
    "verify_second_order": check_verify_second_order,
    "evolve_hermitian": check_evolve_hermitian,
    "evolve_unit": check_evolve_unit,
    "evolve_gauge": check_evolve_gauge,
    "evolve_eigenstate": check_evolve_eigenstate,
}


def parse_output(req, stdout: str):
    """The report on stdout: CSV text for sweep, otherwise a JSON object."""
    return stdout if req.check == "sweep" else json.loads(stdout)


def check(req, report, out_text: str | None, outputs: dict) -> Verdict:
    """Run the request's checker; a malformed report is a failure, not a crash.

    `out_text` is what the request wrote to --out, and `outputs` maps the keys
    of the pass's other requests to their parsed reports.
    """
    try:
        return CHECKERS[req.check](req, report, out_text, outputs)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return Verdict(problems=[f"malformed {req.argv[0]} report: {type(exc).__name__}: {exc}"])
