"""Command-line surface: subcommands, exit codes, deterministic output."""

import argparse
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest as shared
from etaqm import cli, eigen, evolve


def run_cli(*args, timeout=300, warnings_as_errors=False):
    return subprocess.run(
        [sys.executable, *(["-W", "error"] if warnings_as_errors else []), "-m", "etaqm.cli",
         *args],
        capture_output=True, text=True, timeout=timeout, env=shared.subprocess_env(),
    )


def test_spectrum_free_particle_box():
    r = run_cli("spectrum", "--V", "0", "--L", "8", "--N", "400")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    lowest = out["eigenvalues"][0]
    assert lowest[0] == pytest.approx((np.pi / 16) ** 2, rel=1e-3)
    assert abs(lowest[1]) < 1e-10
    assert out["bound"]["count"] == 0  # a box has no negative levels


def test_spectrum_requires_a_potential():
    r = run_cli("spectrum", "--L", "4", "--N", "64")
    assert r.returncode == 2
    err = json.loads(r.stderr)
    assert err["code"] == 2 and "family" in err["message"]


def test_spectrum_rejects_shallow_first_order_family():
    r = run_cli("spectrum", "--family", "first-order", "--d", "0.4", "--N", "200", "--L", "8")
    assert r.returncode == 2
    err = json.loads(r.stderr)
    assert err["code"] == 2


def test_spectrum_scarf2_small_grid_structure():
    r = run_cli("spectrum", "--family", "scarf2", "--A", "2", "--B", "1",
                "--L", "12", "--N", "360")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["analytic"]["series1"] == [-4.0, -1.0]
    assert out["analytic"]["series2"] == [-0.25]
    assert out["analytic"]["provenance"] == "paper"
    assert len(out["deviation"]) == 3  # one entry per analytic level
    # the -0.25 state converges already on this coarse grid
    assert out["deviation"][2] <= 1e-3
    evs = [complex(re, im) for re, im in out["eigenvalues"]]
    assert all(evs[i].real <= evs[i + 1].real + 1e-12 for i in range(len(evs) - 1))


def test_levels_subcommand_marks_derived_series():
    r = run_cli("levels", "--family", "scarf2", "--A", "2", "--B", "0.5")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["provenance"] == "derived"
    assert out["series1"] == [-0.5625]
    r = run_cli("levels", "--family", "first-order", "--d", "2.5")
    out = json.loads(r.stdout)
    assert out["series1"] == [-4.0, -1.0]
    assert out["provenance"] == "derived"


def test_verify_eta_parity_on_pt_fixture():
    r = run_cli("verify-eta", "--eta", "parity", "--family", "special-b1", "--A", "2",
                "--L", "12", "--N", "400")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["residual"] <= 1e-8
    assert out["eta_plus_residual"] <= 1e-8  # parity is Hermitian: eta+ = 2P


def test_verify_eta_first_order_indicators():
    r = run_cli("verify-eta", "--eta", "first-order", "--g", "2*sech(x)",
                "--family", "first-order", "--d", "2", "--L", "16", "--N", "800")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["residual"] <= 1e-6
    assert out["anti_hermitian_defect"] <= 1e-10
    assert out["hermitian_defect"] > 1e-4


def test_verify_eta_second_order_with_factorization():
    r = run_cli("verify-eta", "--eta", "second-order", "--a=-2.5*sech(x)",
                "--gamma", "0", "--delta", "0.25", "--factor-r", "tanh(x)/2",
                "--family", "scarf2", "--A", "2", "--B", "1", "--L", "16", "--N", "800")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["residual"] <= 1e-6
    assert out["factorization"]["riccati_defect"] <= 1e-10
    assert out["hermitian_defect"] <= 1e-5  # ~h^2-limited at this N; 1e-6 at N=1600


def test_sweep_empty_range_is_config_error():
    r = run_cli("sweep", "--axis", "V2", "--start", "2", "--stop", "1", "--step", "0.5")
    assert r.returncode == 2


def test_sweep_rows_and_error_column():
    r = run_cli("sweep", "--axis", "d", "--start", "0.4", "--stop", "1.4", "--step", "0.5",
                "--L", "10", "--N", "160")
    assert r.returncode == 0  # one row fails, the others succeed
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "d,max_im,real_count,pair_count,error"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 3
    assert "ConstraintError" in rows[0][4]
    assert rows[1][4] == "" and rows[2][4] == ""


def test_sweep_deterministic_across_runs_and_jobs():
    args = ("sweep", "--axis", "V2", "--start", "0", "--stop", "1.5", "--step", "0.5",
            "--V1", "2", "--L", "10", "--N", "160")
    a = run_cli(*args)
    b = run_cli(*args)
    c = run_cli(*args, "--jobs", "2")
    assert a.returncode == b.returncode == c.returncode == 0
    assert a.stdout == b.stdout == c.stdout


def test_spectrum_byte_identical_reruns(tmp_path):
    args = ("spectrum", "--family", "scarf2", "--A", "2", "--B", "1",
            "--L", "10", "--N", "200")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.stdout == b.stdout
    out_file = tmp_path / "report.json"
    c = run_cli(*args, "--out", str(out_file))
    assert out_file.read_text() == a.stdout


@pytest.mark.parametrize("V,solver", [
    ("-2*sech(x)^2 - 3*i*sech(x)*tanh(x)", "real-pt"),
    ("-2*sech(x)^2 + 0.5*i*sech(x)^2", "complex"),
])
def test_spectrum_reports_the_solver(V, solver):
    r = run_cli("spectrum", f"--V={V}", "--L", "10", "--N", "120")
    assert r.returncode == 0
    assert json.loads(r.stdout)["diagnostics"] == {"solver": solver}


def test_evolve_state_index_on_a_conjugate_pair_is_deterministic(tmp_path):
    # Beyond the reality boundary (V2 = 3 > V1 + 1/4) the two lowest levels
    # are an exact conjugate pair, listed -Im first.  Under its own metric a
    # pair member is self-orthogonal, so the run uses the unit weight on the
    # gauged H, where both members normalize and give different traces.
    args = ("evolve", "--V=-2*sech(x)^2 - 3*i*sech(x)*tanh(x)", "--beta", "0.5",
            "--weight", "unit", "--L", "10", "--N", "200", "--T", "0.01", "--dt", "0.001")
    runs = []
    for index in ("0", "0", "1"):
        trace = tmp_path / f"trace{len(runs)}.csv"
        r = run_cli(*args, "--state-index", index, "--out", str(trace))
        assert r.returncode == 0
        runs.append((r.stdout, trace.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] != runs[2][0]


def test_evolve_hermitian_baseline(tmp_path):
    trace = tmp_path / "trace.csv"
    r = run_cli("evolve", "--V=-2*sech(x)^2", "--L", "12", "--N", "300",
                "--T", "1", "--dt", "0.001", "--weight", "unit",
                "--gauss-sigma", "1", "--out", str(trace))
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["max_drift"] <= 1e-8
    assert out["flags"] == []
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "t,re_q,im_q,defect"
    assert len(lines) == 1002


def test_evolve_rejects_fractional_step_count():
    r = run_cli("evolve", "--V=-2*sech(x)^2", "--L", "8", "--N", "100",
                "--T", "0.0105", "--dt", "0.002")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "whole number of steps" in json.loads(r.stderr)["message"]


def test_evolve_flags_mismatched_metric():
    r = run_cli("evolve", "--family", "special-b1", "--A", "2", "--beta", "0.5",
                "--L", "12", "--N", "240", "--T", "0.2", "--dt", "0.002",
                "--weight", "unit", "--state-index", "0")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["flags"] == ["mismatched-metric"]


def test_evolve_gauge_weight_conserves_for_eigenstate():
    r = run_cli("evolve", "--family", "special-b1", "--A", "2", "--beta", "0.5",
                "--L", "16", "--N", "400", "--T", "1", "--dt", "0.001",
                "--weight", "gauge", "--state-index", "0")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["max_drift"] <= 1e-5
    assert out["flags"] == []


def test_evolve_flags_non_pt_potential():
    r = run_cli("evolve", "--V", "-2*sech(x)^2 + 0.5*i*sech(x)^2", "--weight", "unit",
                "--N", "200", "--T", "1")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["max_continuity_defect"] > 0.1  # the law does not hold here
    assert out["flags"] == ["non-pt-potential"]


def test_verify_eta_parity_minus_part_is_exactly_zero_without_warnings():
    r = run_cli("verify-eta", "--eta", "parity", "--family", "special-b1", "--A", "2",
                "--N", "200", warnings_as_errors=True)
    assert r.returncode == 0 and r.stderr == ""
    assert json.loads(r.stdout)["eta_minus_residual"] == 0



@pytest.mark.parametrize("command", [("evolve",), ("verify-eta", "--eta", "multiplicative")])
def test_an_overflowing_gauge_weight_is_one_json_error_without_warnings(command):
    # beta = -30 asks for exp(908) at the wall: evolve used to print three
    # RuntimeWarnings and blame the initial states, verify-eta to exit 0 with
    # every residual nan
    r = run_cli(*command, "--family", "special-b1", "--A", "2", "--beta", "-30", "--N", "200",
                warnings_as_errors=True)
    assert r.returncode == 2 and r.stdout == ""
    err = json.loads(r.stderr)  # the whole of stderr is one JSON object
    assert err["code"] == 2
    assert "beta=-30.0" in err["message"] and "max|int nu|=" in err["message"]


@pytest.mark.parametrize("command", [("evolve",), ("verify-eta", "--eta", "multiplicative")])
def test_an_underflowing_gauge_weight_is_one_json_error_without_warnings(command):
    # beta = 30 asks for exp(-908) at the wall, which underflows to 0: evolve
    # used to exit 0 with max_drift 3.8e6, verify-eta with residual 0.296
    r = run_cli(*command, "--family", "special-b1", "--A", "2", "--beta", "30", "--N", "200",
                warnings_as_errors=True)
    assert r.returncode == 2 and r.stdout == ""
    err = json.loads(r.stderr)
    assert err["code"] == 2
    assert "beta=30.0" in err["message"] and "max|int nu|=" in err["message"]


@pytest.mark.parametrize("beta,flagged", [("10", True), ("0.5", False)])
def test_evolve_flags_a_gauge_the_grid_cannot_resolve(capsys, beta, flagged):
    # h = 32/201, max|tanh| ~ 1: beta h max|nu| is 1.59 at beta = 10 and 0.08
    # at beta = 0.5.  Past 1 the neighbour couplings of H_beta change sign.
    argv = ["evolve", "--family", "special-b1", "--A", "2", "--beta", beta, "--N", "200",
            "--T", "0.1"]
    assert cli.main(argv) == 0
    flags = json.loads(capsys.readouterr().out)["flags"]
    assert flags == (["under-resolved-gauge"] if flagged else [])


def test_importing_the_cli_loads_no_scipy_sparse():
    code = ("import sys, etaqm.cli; "
            "print([m for m in sys.modules if m.startswith('scipy.sparse')])")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                       env=shared.subprocess_env())
    assert r.returncode == 0
    assert r.stdout.strip() == "[]"


def test_unknown_flag_reports_json_error():
    r = run_cli("spectrum", "--nonsense", "1")
    assert r.returncode == 2
    err = json.loads(r.stderr)
    assert err["code"] == 2


@pytest.mark.parametrize("index", ["100", "-1"])
def test_evolve_rejects_a_state_index_outside_the_spectrum(index):
    r = run_cli("evolve", "--V=-2*sech(x)^2", "--L", "8", "--N", "50", "--T", "0.01",
                "--state-index", index)
    assert r.returncode == 2
    assert r.stdout == ""
    err = json.loads(r.stderr)
    assert err["code"] == 2 and "[0, 49]" in err["message"]
    assert err["context"] == {"state_index": int(index), "N": 50}


@pytest.mark.parametrize("index,solver", [("0", "shift-invert"), ("5", "real-pt")])
def test_evolve_state_index_reports_the_solver(index, solver):
    # special-b1 A=2 has three Re < 0 levels: index 5 needs the dense solve
    r = run_cli("evolve", "--family", "special-b1", "--A", "2", "--beta", "0.5",
                "--L", "16", "--N", "800", "--T", "0.01", "--dt", "0.001",
                "--state-index", index)
    assert r.returncode == 0
    assert json.loads(r.stdout)["diagnostics"] == {"solver": solver}


@pytest.mark.parametrize("args", [
    ("spectrum", "--family", "scarf2", "--A", "2", "--B", "1"),
    ("sweep", "--axis", "V2", "--start", "2", "--stop", "3", "--step", "1", "--V1", "2"),
    ("evolve", "--family", "scarf2", "--A", "2", "--B", "1", "--state-index", "1",
     "--T", "0.01", "--dt", "0.001"),
], ids=["spectrum", "sweep", "evolve"])
def test_shift_invert_requests_are_byte_identical_across_runs(args):
    # at N=400 the coarse grids and the Re < 0 solves of these requests all
    # run shift-invert, not the dense fallback
    a = run_cli(*args, "--L", "16", "--N", "400")
    b = run_cli(*args, "--L", "16", "--N", "400")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    if args[0] == "evolve":
        assert json.loads(a.stdout)["diagnostics"] == {"solver": "shift-invert"}


def _trace_csv_per_value(trace):
    """The trace CSV with every value formatted by its own `fmt_float` call."""
    lines = ["t,re_q,im_q,defect"]
    for k in range(len(trace.times)):
        lines.append(",".join([
            cli.fmt_float(trace.times[k]),
            cli.fmt_float(trace.Q[k].real),
            cli.fmt_float(trace.Q[k].imag),
            cli.fmt_float(trace.continuity_residual[k]),
        ]))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * 4),
                min_size=1, max_size=40))
def test_trace_csv_is_byte_identical_to_the_per_value_format(rows):
    t, re, im, defect = (np.array(c, dtype=float) for c in zip(*rows))
    Q = np.empty(len(rows), dtype=complex)
    Q.real, Q.imag = re, im
    trace = evolve.EvolutionTrace(times=t, Q=Q, continuity_residual=defect,
                                  final_states=(t, t))
    assert cli.trace_csv(trace) == _trace_csv_per_value(trace)


@pytest.mark.parametrize("size,eig_calls_before", [
    (("--N", "400"), 1),
    (("--beta", "0.5", "--accuracy", "4", "--N", "96"), 2),
], ids=["shift-invert", "dense-fallback"])
def test_evolve_state_index_past_the_bound_levels_runs_one_dense_solve(
        monkeypatch, capsys, tmp_path, size, eig_calls_before):
    # special-b1 A=2 has three Re < 0 levels, so index 5 needs the dense
    # solve.  Below N = 128 the sparse solve itself falls back to dense eig
    # (k would pass N / 8), and a second dense solve used to follow.
    calls = []
    dense = eigen.eig
    below = eigen.eig_below
    monkeypatch.setattr(eigen, "eig", lambda *a, **k: calls.append(1) or dense(*a, **k))

    def two_solves(H, top, want_vectors=False, min_count=0):
        report = below(H, top, want_vectors)
        return report if len(report.eigenvalues) >= min_count else eigen.eig(H, want_vectors)

    argv = ["evolve", "--family", "special-b1", "--A", "2", *size, "--L", "16",
            "--T", "0.01", "--state-index", "5"]
    outputs = []
    for solve in (two_solves, below):
        monkeypatch.setattr(eigen, "eig_below", solve)
        calls.clear()
        trace = tmp_path / f"{solve.__name__}.csv"
        assert cli.main(argv + ["--out", str(trace)]) == 0
        outputs.append((capsys.readouterr().out, trace.read_bytes(), len(calls)))
    (ref_out, ref_csv, ref_calls), (out, csv, n_calls) = outputs
    assert (ref_calls, n_calls) == (eig_calls_before, 1)
    assert out == ref_out and csv == ref_csv
    assert json.loads(out)["diagnostics"] == {"solver": "real-pt"}


def test_trace_csv_writes_non_finite_values_as_json_strings():
    t = np.array([0.0, 0.001])
    Q = np.empty(2, dtype=complex)
    Q.real, Q.imag = [1.0, np.inf], [0.0, np.nan]
    trace = evolve.EvolutionTrace(times=t, Q=Q, continuity_residual=np.array([0.0, -np.inf]),
                                  final_states=(t, t))
    assert cli.trace_csv(trace).splitlines()[2] == '0.001,"inf","nan","-inf"'
    assert cli.fmt_float(np.float64("inf")) == cli.dump_json(np.float64("inf")) == '"inf"'


def test_tol_is_a_sweep_flag_only(capsys):
    assert cli.main(["spectrum", "--V", "0", "--L", "8", "--N", "50", "--tol", "0.5"]) == 2
    assert "--tol" in json.loads(capsys.readouterr().err)["message"]
    # V2 = 3 > V1 + 1/4: a conjugate pair, which a loose enough --tol counts as real
    sweep = ["sweep", "--axis", "V2", "--start", "3", "--stop", "3", "--step", "1", "--V1", "2",
             "--L", "10", "--N", "400"]
    rows = []
    for tol in ((), ("--tol", "10")):
        assert cli.main(sweep + list(tol)) == 0
        rows.append(capsys.readouterr().out.splitlines()[1].split(","))
    (_, _, real, pairs, _), (_, _, real_loose, pairs_loose, _) = rows
    assert int(pairs) >= 1 and int(pairs_loose) == 0
    assert int(real_loose) == int(real) + 2 * int(pairs)


def test_special_b1_allows_the_half_integer_a_that_scarf2_rejects(capsys):
    # at B = 1 a half-integer A collides two levels: special-b1 stays ungated
    # and reports the collision, scarf2 keeps its A - B + 1/2 gate
    small = ["--L", "10", "--N", "120"]
    assert cli.main(["spectrum", "--family", "special-b1", "--A", "1.5", *small]) == 0
    analytic = json.loads(capsys.readouterr().out)["analytic"]
    assert analytic["degenerate"] and not analytic["constraint_ok"]
    assert cli.main(["spectrum", "--family", "scarf2", "--A", "1.5", "--B", "1", *small]) == 2
    assert "must not be an integer" in json.loads(capsys.readouterr().err)["message"]
    assert cli.main(["levels", "--family", "special-b1", "--A", "1.5"]) == 0
    assert json.loads(capsys.readouterr().out)["degenerate"]


@pytest.mark.parametrize("family", [
    ("special-b1",), ("first-order",), ("scarf2", "--A", "2"),
], ids=["special-b1", "first-order", "scarf2-without-B"])
def test_levels_rejects_missing_family_flags_like_spectrum(capsys, family):
    errors = []
    for command in ("levels", "spectrum"):
        assert cli.main([command, "--family", *family]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(json.loads(captured.err))
    assert errors[0] == errors[1]
    assert errors[0]["code"] == 2 and f"{family[0]} family needs" in errors[0]["message"]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag,argv", [
    ("--delta", ["verify-eta", "--eta", "second-order", "--a=-2.5*sech(x)",
                 "--family", "scarf2", "--A", "2", "--B", "1"]),
    ("--gamma", ["verify-eta", "--eta", "second-order", "--a=-2.5*sech(x)",
                 "--family", "scarf2", "--A", "2", "--B", "1"]),
    ("--k", ["spectrum", "--family", "first-order", "--d", "2"]),
    ("--V1", ["sweep", "--axis", "V2", "--start", "0", "--stop", "1", "--step", "1"]),
    ("--start", ["sweep", "--axis", "V2", "--stop", "1", "--step", "1"]),
    ("--gauss-sigma", ["evolve", "--V", "0", "--T", "0.01"]),
])
def test_every_float_flag_must_be_finite(capsys, flag, argv, value):
    assert cli.main([*argv, "--N", "40", f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["code"] == 2 and err["message"] == f"flag {flag} must be finite, got {value}"


_GRID = ["--L", "--N", "--accuracy"]
_POTENTIAL = ["--family", "--A", "--B", "--d", "--k", "--V"]
_GAUGE = ["--beta", "--nu"]


@pytest.mark.parametrize("command,flags", [
    ("spectrum", _GRID + _POTENTIAL + _GAUGE + ["--out"]),
    ("verify-eta", _GRID + _POTENTIAL + _GAUGE
     + ["--out", "--eta", "--g", "--a", "--gamma", "--delta", "--factor-r"]),
    ("sweep", _GRID + ["--A", "--B", "--k", "--out", "--axis", "--start", "--stop", "--step",
                       "--V1", "--tol", "--jobs"]),
    ("evolve", _GRID + _POTENTIAL + _GAUGE
     + ["--out", "--T", "--dt", "--weight", "--state-index", "--gauss-x0", "--gauss-sigma",
        "--gauss-k"]),
    ("levels", ["--family", "--A", "--B", "--d", "--k", "--out"]),
])
def test_each_subcommand_registers_only_the_flags_it_reads(command, flags):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    registered = [s for a in sub.choices[command]._actions if a.dest != "help"
                  for s in a.option_strings]
    assert sorted(registered) == sorted(flags)


_SWEEP = ["sweep", "--axis", "V2", "--start", "2", "--stop", "2", "--step", "1", "--N", "40"]
_LEVELS = ["levels", "--family", "scarf2", "--A", "2", "--B", "1"]


_DROPPED_OR_ABBREVIATED = [
    (_SWEEP, ["--family", "scarf2"]),
    (_SWEEP, ["--d", "2"]),
    (_SWEEP, ["--V=0"]),  # once the abbreviation of --V1
    (_SWEEP, ["--beta", "0.5"]),
    (_SWEEP, ["--nu", "x^2"]),  # not odd: spectrum rejects it, sweep used to ignore it
    (_LEVELS, ["--L", "8"]),
    (_LEVELS, ["--N", "50"]),
    (_LEVELS, ["--accuracy", "4"]),
    (_LEVELS, ["--V", "0"]),
    (_LEVELS, ["--beta", "0.5"]),
    (_LEVELS, ["--nu", "tanh(x)"]),
    (["spectrum", "--V", "0", "--L", "8", "--N", "50"], ["--acc", "4"]),
    (["verify-eta", "--eta", "parity", "--V", "0", "--N", "40"], ["--del", "0.25"]),
    (_SWEEP, ["--jo", "1"]),
    (["evolve", "--V", "0", "--N", "40", "--T", "0.01"], ["--gauss-x", "0.5"]),
    (["levels", "--A", "2", "--B", "1"], ["--fam", "scarf2"]),
]


@pytest.mark.parametrize("argv,extra", _DROPPED_OR_ABBREVIATED,
                         ids=[f"{argv[0]}{extra[0].split('=')[0]}"
                              for argv, extra in _DROPPED_OR_ABBREVIATED])
def test_a_dropped_flag_or_an_abbreviation_is_a_config_error(capsys, argv, extra):
    # 11 flags that sweep and levels no longer take, then one abbreviation
    # per subcommand, which prefix matching used to expand to a flag it takes
    assert cli.main(argv + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)  # the whole of stderr is one JSON object
    assert err == {"code": 2, "message": "unrecognized arguments: " + " ".join(extra),
                   "context": {}}


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_sweep_rejects_fewer_than_one_job(capsys, jobs):
    assert cli.main(_SWEEP + ["--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["code"] == 2 and f"--jobs must be at least 1, got {jobs}" == err["message"]
