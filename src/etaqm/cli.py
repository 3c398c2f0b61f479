"""Command-line front end.

Subcommands: spectrum | verify-eta | sweep | evolve | levels.  The potential
is a named Scarf II point, --family scarf2 (--A, --B), first-order (--d, --k)
or special-b1 (--A: the B = 1 point, ungated), or a --V expression.  Single-run
reports are JSON on stdout, sweeps and evolution traces are CSV; outputs are
byte-identical across runs and across --jobs settings (fixed field order,
floats at 17 significant digits, no timestamps).  Errors go to stderr as
{"code", "message", "context"} JSON; exit codes: 0 ok, 2 config error,
3 solver failure, 4 NaN abort.

Each subcommand takes only the flags it reads, and every one takes --out.
The flag groups are grid (--L --N --accuracy), potential (--family --A --B
--d --k --V) and gauge (--beta --nu):
spectrum: grid, potential, gauge;
verify-eta: grid, potential, gauge, --eta --g --a --gamma --delta --factor-r;
sweep: grid, --A --B --k (the fixed values of the other axes), --axis --start
--stop --step --V1 --tol --jobs;
evolve: grid, potential, gauge, --T --dt --weight --state-index --gauss-x0
--gauss-sigma --gauss-k;
levels: --family --A --B --d --k.
A flag matches by its full name only: an abbreviation such as --acc, or a flag
that the subcommand does not take, is a config error (exit 2).
"""

from __future__ import annotations

import argparse
import functools
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import eigen, evolve, expr, inner, models, operators
from .errors import NanAbortError, ParameterError, SolverError, ToolkitError
from .grid import make_grid

DEFAULTS = {"L": 16.0, "N": 1600, "T": 5.0, "dt": 1e-3, "tol": 1e-6}
TOL_MOVE = 1e-3  # a bound level moves less than this between the N/2 and N grids

EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_NAN = 0, 2, 3, 4


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------

def fmt_float(x: float) -> str:
    if not np.isfinite(x):
        return '"%s"' % repr(float(x))
    return format(float(x), ".17g")


def dump_json(obj, indent: int = 0) -> str:
    """Minimal JSON emitter with fixed float formatting (17 significant digits)."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {dump_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float, bool, str)) or v is None for v in seq)
        if flat and len(seq) <= 8:
            return "[" + ", ".join(dump_json(v) for v in seq) + "]"
        items = ",\n".join(f"{pad}  {dump_json(v, indent + 1)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return "[" + fmt_float(obj.real) + ", " + fmt_float(obj.imag) + "]"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj)!r}")


def complex_list(values) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values, dtype=complex)]


class CliError(Exception):
    def __init__(self, code: int, message: str, context: dict | None = None):
        super().__init__(message)
        self.code = code
        self.context = context or {}


def emit_error(code: int, message: str, context: dict | None = None):
    sys.stderr.write(dump_json({"code": code, "message": message, "context": context or {}}) + "\n")


def emit_report(text: str, out: str | None, file_text: str | None = None) -> None:
    """Write a report to stdout and, when --out names a path, to that file
    (`file_text` instead of `text` when the file holds another form)."""
    sys.stdout.write(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text if file_text is None else file_text)


# ---------------------------------------------------------------------------
# Fixture construction from flags
# ---------------------------------------------------------------------------

def parse_expression(text: str, what: str):
    try:
        return expr.parse(text)
    except expr.ParseError as exc:
        raise CliError(EXIT_CONFIG, f"bad {what} expression: {exc}", {"source": text})


# --family -> the flags it needs, for every subcommand that takes --family
FAMILY_FLAGS = {"scarf2": ("A", "B"), "first-order": ("d",), "special-b1": ("A",)}


def family_from_args(args) -> str | None:
    """The --family value, once every flag it needs is set."""
    family = args.family
    needs = FAMILY_FLAGS.get(family, ())
    if any(getattr(args, name) is None for name in needs):
        raise CliError(EXIT_CONFIG, f"{family} family needs "
                       + " and ".join(f"--{name}" for name in needs))
    return family


def potential_from_args(args) -> operators.PotentialSpec:
    family = family_from_args(args)
    if family == "scarf2":
        return models.scarf2_potential(args.A, args.B)
    if family == "first-order":
        return models.first_order_potential(args.d, args.k)
    if family == "special-b1":
        # the B = 1 point without the A - B + 1/2 gate: a half-integer A
        # stays allowed, and `levels` flags its level collision as degenerate
        return operators.ScarfII(*models.scarf2_strengths(args.A, 1.0))
    if args.V:
        return operators.CustomPotential(parse_expression(args.V, "potential"))
    raise CliError(EXIT_CONFIG, "specify --family or a --V expression")


def gauge_from_args(args) -> operators.GaugeSpec | None:
    if args.beta == 0.0:
        return None
    nu = parse_expression(args.nu or "tanh(x)", "gauge field")
    return operators.GaugeSpec(beta=args.beta, nu=nu)


def analytic_levels(args) -> models.LevelSet | None:
    family = family_from_args(args)
    if family == "first-order":
        return models.first_order_levels(args.d, args.k)
    if family is not None:
        return models.scarf2_levels(args.A, args.B if family == "scarf2" else 1.0)
    return None


def levelset_json(levels: models.LevelSet) -> dict:
    return {
        "series1": [float(e) for e in levels.series1],
        "series2": [float(e) for e in levels.series2],
        "params": {k: float(v) for k, v in levels.params.items()},
        "reality_ok": levels.reality_ok,
        "provenance": levels.provenance,
        "degenerate": levels.degenerate,
        "constraint_ok": levels.constraint_ok,
    }


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def bound_filtered(potential, gauge, L: float, N: int, accuracy: int, full: bool = True):
    """The fine-grid (N) eigenvalues plus the two-grid (N/2 vs N) bound-state filter.

    With `full` the fine report holds all N eigenvalues (dense `eig`);
    otherwise only those with Re < 0, the filter's candidates.  The coarse
    grid needs only Re < TOL_MOVE: a coarse level within TOL_MOVE of a
    candidate has Re < TOL_MOVE, so every decision and kept movement is the
    one the whole coarse spectrum would give.
    """
    g_fine = make_grid(L, N)
    g_coarse = make_grid(L, N // 2)
    H_fine = operators.build_hamiltonian(g_fine, potential, gauge, accuracy)
    H_coarse = operators.build_hamiltonian(g_coarse, potential, gauge, accuracy)
    fine = eigen.eig(H_fine) if full else eigen.eig_below(H_fine, 0.0)
    coarse = eigen.eig_below(H_coarse, TOL_MOVE)
    bound = eigen.converged_bound_states(coarse.eigenvalues, fine.eigenvalues, TOL_MOVE)
    return fine, bound


def cmd_spectrum(args) -> int:
    potential = potential_from_args(args)
    gauge = gauge_from_args(args)
    report, bound = bound_filtered(potential, gauge, args.L, args.N, args.accuracy)
    out = {
        "config": {
            "L": args.L, "N": args.N, "accuracy": args.accuracy,
            "family": args.family or "custom",
            "beta": args.beta or 0.0,
        },
        "eigenvalues": complex_list(report.eigenvalues),
        "classification": list(report.classification),
        "pairing": {str(k): v for k, v in sorted(report.pairing.items())},
        "bound": {
            "values": complex_list(bound.values),
            "movement": [float(m) for m in bound.movement],
            "count": int(len(bound.values)),
        },
    }
    levels = analytic_levels(args)
    if levels is not None:
        out["analytic"] = levelset_json(levels)
        devs = []
        for e in levels.all_levels():
            if len(bound.values):
                devs.append(float(np.min(np.abs(bound.values - e))))
            else:
                devs.append(float("inf"))
        out["deviation"] = devs
    out["diagnostics"] = {"solver": report.solver}
    emit_report(dump_json(out) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-eta
# ---------------------------------------------------------------------------

def eta_from_args(args, potential) -> operators.EtaSpec:
    kind = args.eta
    if kind == "identity":
        return operators.IdentityEta()
    if kind == "parity":
        return operators.ParityEta()
    if kind == "multiplicative":
        nu = parse_expression(args.nu or "tanh(x)", "gauge field")
        return operators.MultiplicativeEta(beta=args.beta or 0.0, nu=nu)
    if kind == "first-order":
        if not args.g:
            raise CliError(EXIT_CONFIG, "first-order eta needs --g")
        return operators.FirstOrderEta(g=parse_expression(args.g, "metric coefficient"))
    if kind == "second-order":
        if not args.a:
            raise CliError(EXIT_CONFIG, "second-order eta needs --a")
        return operators.SecondOrderEta(
            a=parse_expression(args.a, "metric coefficient"),
            delta=args.delta,
            V=potential,
        )
    raise CliError(EXIT_CONFIG, f"unknown eta family {kind!r}")


def cmd_verify_eta(args) -> int:
    potential = potential_from_args(args)
    gauge = gauge_from_args(args)
    grid = make_grid(args.L, args.N)
    spec = eta_from_args(args, potential)
    H = operators.build_hamiltonian(grid, potential, gauge, args.accuracy)
    eta = operators.build_eta(grid, spec, args.accuracy)
    probes = operators.gaussian_probes(grid)
    per_probe = operators.intertwining_residual(eta, H, probes)
    herm, anti = operators.hermiticity_indicators(eta, probes)
    plus, minus = operators.eta_plus_minus(eta)
    out = {
        "config": {"L": args.L, "N": args.N, "accuracy": args.accuracy, "eta": args.eta},
        "residual": float(per_probe.max()),
        "residual_per_probe": per_probe.tolist(),
        "hermitian_defect": herm,
        "anti_hermitian_defect": anti,
        "eta_plus_residual": float(operators.intertwining_residual(plus, H, probes).max()),
        "eta_minus_residual": float(operators.intertwining_residual(minus, H, probes).max()),
    }
    if args.eta == "second-order" and args.factor_r:
        rep = operators.verify_factorization(
            grid,
            parse_expression(args.a, "metric coefficient"),
            args.gamma,
            parse_expression(args.factor_r, "factorization candidate"),
            eta,
            probes,
            args.accuracy,
        )
        out["factorization"] = {
            "probe_residual": rep.probe_residual,
            "riccati_defect": rep.riccati_defect,
        }
    emit_report(dump_json(out) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_row(task) -> tuple[int, dict]:
    idx, axis, value, fixed, L, N, accuracy, tol = task
    row: dict = {"value": value}
    try:
        if axis == "V2":
            potential = operators.ScarfII(fixed["V1"], value)
        elif axis == "d":
            potential = models.first_order_potential(value, fixed["k"])
        elif axis == "A":
            potential = models.scarf2_potential(value, fixed["B"])
        elif axis == "B":
            potential = models.scarf2_potential(fixed["A"], value)
        else:
            raise ParameterError(f"unknown sweep axis {axis!r}")
        _, bound = bound_filtered(potential, None, L, N, accuracy, full=False)
        tags, _ = eigen.classify_spectrum(bound.values, tol)
        row["max_im"] = float(np.max(np.abs(bound.values.imag))) if len(bound.values) else 0.0
        row["real_count"] = sum(1 for t in tags if t == "real")
        row["pair_count"] = sum(1 for t in tags if t == "pair-member") // 2
        row["error"] = ""
    except Exception as exc:  # per-row failures land in the error column
        row.setdefault("max_im", float("nan"))
        row.setdefault("real_count", -1)
        row.setdefault("pair_count", -1)
        row["error"] = f"{type(exc).__name__}: {exc}"
    return idx, row


def sweep_values(start: float, stop: float, step: float) -> list[float]:
    if step <= 0 or stop < start:
        return []
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise CliError(EXIT_CONFIG, f"--jobs must be at least 1, got {args.jobs}",
                       {"jobs": args.jobs})
    values = sweep_values(args.start, args.stop, args.step)
    if not values:
        raise CliError(EXIT_CONFIG, "empty sweep range",
                       {"start": args.start, "stop": args.stop, "step": args.step})
    fixed = {"V1": args.V1, "k": args.k, "A": args.A if args.A is not None else 2.0,
             "B": args.B if args.B is not None else 1.0}
    tasks = [
        (i, args.axis, v, fixed, args.L, args.N, args.accuracy, args.tol)
        for i, v in enumerate(values)
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = dict(pool.map(_sweep_row, tasks))
    else:
        results = dict(map(_sweep_row, tasks))
    lines = [f"{args.axis},max_im,real_count,pair_count,error"]
    ok = 0
    for i in range(len(values)):
        row = results[i]
        if not row["error"]:
            ok += 1
        lines.append(
            ",".join([
                fmt_float(row["value"]),
                fmt_float(row["max_im"]),
                str(row["real_count"]),
                str(row["pair_count"]),
                row["error"].replace(",", ";"),
            ])
        )
    emit_report("\n".join(lines) + "\n", args.out)
    if ok == 0:
        raise CliError(EXIT_SOLVER, "every sweep row failed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def trace_csv(trace: evolve.EvolutionTrace) -> str:
    """The trace as CSV, each value as `fmt_float` writes it.

    With every value finite that is `.17g`, which one f-string per row gives
    without a call per value; otherwise each value goes through `fmt_float`,
    which quotes the non-finite ones.
    """
    cols = [trace.times, trace.Q.real, trace.Q.imag, trace.continuity_residual]
    rows = zip(*cols)
    if all(np.all(np.isfinite(c)) for c in cols):
        lines = [f"{t:.17g},{re:.17g},{im:.17g},{d:.17g}" for t, re, im, d in rows]
    else:
        lines = [",".join(map(fmt_float, row)) for row in rows]
    return "\n".join(["t,re_q,im_q,defect", *lines]) + "\n"


def cmd_evolve(args) -> int:
    potential = potential_from_args(args)
    gauge = gauge_from_args(args)
    grid = make_grid(args.L, args.N)
    if args.state_index is not None and not 0 <= args.state_index < grid.N:
        raise CliError(EXIT_CONFIG, f"--state-index must lie in [0, {grid.N - 1}], "
                       f"got {args.state_index}", {"state_index": args.state_index, "N": grid.N})
    H = operators.build_hamiltonian(grid, potential, gauge, args.accuracy)

    flags = []
    if gauge is not None and abs(gauge.beta) * grid.h * np.max(
            np.abs(expr.evaluate_on(gauge.nu, grid.points))) >= 1.0:
        flags.append("under-resolved-gauge")  # the off-diagonals of H change sign
    if args.weight == "gauge" and gauge is not None:
        w = operators.gauge_weight(grid, gauge.beta, gauge.nu)
    else:
        w = np.ones(grid.N)
        if gauge is not None:
            flags.append("mismatched-metric")
    if not operators.is_pt_symmetric(grid, potential):
        flags.append("non-pt-potential")  # the conservation law assumes PT-symmetric V

    diagnostics = None
    if args.state_index is not None:
        # sorted by (Re, Im); an exact conjugate pair lists -Im first.  The
        # Re < 0 levels are the leading part of that order, so the sparse
        # solve serves any index it covers; past them one dense solve runs.
        report = eigen.eig_below(H, 0.0, want_vectors=True, min_count=args.state_index + 1)
        psi0 = report.vectors[:, args.state_index]
        diagnostics = {"solver": report.solver}
    else:
        psi0 = evolve.gaussian_state(grid, args.gauss_x0, args.gauss_sigma, args.gauss_k)
    psi0, _ = inner.pseudo_normalize(grid, w, psi0)

    trace = evolve.run(H, grid, w, psi0, psi0, args.T, args.dt)
    Q0 = trace.Q[0]
    drift = np.max(np.abs(trace.Q - Q0)) / abs(Q0)
    out = {
        "config": {
            "L": args.L, "N": args.N, "T": args.T, "dt": args.dt,
            "weight": args.weight, "accuracy": args.accuracy,
            "beta": args.beta or 0.0,
        },
        "Q0": complex(Q0),
        "max_drift": float(drift),
        "max_continuity_defect": float(np.max(trace.continuity_residual)),
        "flags": flags,
    }
    if diagnostics is not None:
        out["diagnostics"] = diagnostics
    emit_report(dump_json(out) + "\n", args.out, trace_csv(trace) if args.out else None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# levels
# ---------------------------------------------------------------------------

def cmd_levels(args) -> int:
    levels = analytic_levels(args)
    if levels is None:
        raise CliError(EXIT_CONFIG, "levels needs --family scarf2|special-b1|first-order")
    emit_report(dump_json(levelset_json(levels)) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # a flag matches by its full name only
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # machine-readable config errors on stderr
        emit_error(EXIT_CONFIG, message, {})
        raise SystemExit(EXIT_CONFIG)


# flag -> its argparse options; each subcommand registers only the flags it reads
_FLAGS = {
    "L": dict(type=float, default=DEFAULTS["L"], help="box half-width"),
    "N": dict(type=int, default=DEFAULTS["N"], help="interior grid points"),
    "accuracy": dict(type=int, default=2, choices=(2, 4)),
    "family": dict(choices=("scarf2", "first-order", "special-b1")),
    "A": dict(type=float),
    "B": dict(type=float),
    "d": dict(type=float),
    "k": dict(type=float, default=0.0),
    "V": dict(help="potential expression, e.g. '-7*sech(x)^2'"),
    "beta": dict(type=float, default=0.0, help="gauge coupling"),
    "nu": dict(help="odd gauge field expression (default tanh(x))"),
    "out": dict(help="write the report/table to this path"),
}
GRID = ("L", "N", "accuracy")
POTENTIAL = ("family", "A", "B", "d", "k", "V")
GAUGE = ("beta", "nu")


def _add_flags(p: argparse.ArgumentParser, *names: str):
    for name in (*names, "out"):
        p.add_argument(f"--{name}", **_FLAGS[name])


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged.

    A build takes about 2.4 ms, over half the time of the probe checks of a
    verify-eta request at N=800, and `main` runs once per request when the
    CLI is driven in-process.
    """
    ap = _Parser(prog="etaqm", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues, classification, analytic deviations")
    _add_flags(p, *GRID, *POTENTIAL, *GAUGE)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("verify-eta", help="intertwining and decomposition residuals")
    _add_flags(p, *GRID, *POTENTIAL, *GAUGE)
    p.add_argument("--eta", required=True,
                   choices=("identity", "parity", "multiplicative", "first-order", "second-order"))
    p.add_argument("--g", help="first-order metric coefficient g(x)")
    p.add_argument("--a", help="second-order metric coefficient a(x)")
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--factor-r", dest="factor_r", help="candidate r(x) for eta = -O^dag O")
    p.set_defaults(fn=cmd_verify_eta)

    p = sub.add_parser("sweep", help="parameter sweep to CSV")
    _add_flags(p, *GRID, "A", "B", "k")
    p.add_argument("--axis", required=True, choices=("V2", "d", "A", "B"))
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--V1", type=float, default=2.0, help="fixed V1 for V2 sweeps")
    p.add_argument("--tol", type=float, default=DEFAULTS["tol"],
                   help="relative |Im| below which a level counts as real")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("evolve", help="Crank-Nicolson run with conservation report")
    _add_flags(p, *GRID, *POTENTIAL, *GAUGE)
    p.add_argument("--T", type=float, default=DEFAULTS["T"])
    p.add_argument("--dt", type=float, default=DEFAULTS["dt"])
    p.add_argument("--weight", choices=("gauge", "unit"), default="gauge")
    p.add_argument("--state-index", dest="state_index", type=int,
                   help="initial state = eigenvector of this (Re-sorted) index")
    p.add_argument("--gauss-x0", dest="gauss_x0", type=float, default=0.0)
    p.add_argument("--gauss-sigma", dest="gauss_sigma", type=float, default=1.0)
    p.add_argument("--gauss-k", dest="gauss_k", type=float, default=0.0)
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("levels", help="analytic level sets")
    _add_flags(p, "family", "A", "B", "d", "k")
    p.set_defaults(fn=cmd_levels)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for name, v in vars(args).items():
            if isinstance(v, float) and not np.isfinite(v):
                flag = name.replace("_", "-")
                raise CliError(EXIT_CONFIG, f"flag --{flag} must be finite, got {v}")
        return args.fn(args)
    except CliError as exc:
        emit_error(exc.code, str(exc), exc.context)
        return exc.code
    except NanAbortError as exc:
        emit_error(EXIT_NAN, str(exc), {"last_valid_step": exc.last_valid_step})
        return EXIT_NAN
    except SolverError as exc:
        emit_error(EXIT_SOLVER, str(exc), {"unconverged": list(exc.unconverged)})
        return EXIT_SOLVER
    except (ToolkitError, expr.ParseError, expr.DomainError, ValueError) as exc:
        emit_error(EXIT_CONFIG, f"{type(exc).__name__}: {exc}", {})
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
