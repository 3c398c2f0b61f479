"""Tests of the benchmark itself: span arithmetic, spread statistics, the
output checkers (each must accept real output and reject a corrupted
report), and a small-N traced smoke pass of every workload.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import statistics
import subprocess
import sys
import types
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import passrun  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import spread  # noqa: E402
import workloads  # noqa: E402

SEED = 1
RUN_LEVEL = {"cli.out_bytes", "levels_missed", "level_dev_max", "trace.overhead_s"}


@lru_cache(maxsize=None)
def traced_pass(workload: str):
    """(runs, layer metrics) of one small traced pass."""
    etaqm = passrun.import_etaqm()
    tracer = spans.Tracer()
    tracer.install(etaqm)
    try:
        runs = passrun.execute(workloads.requests(workload, SEED, small=True), tracer)
    finally:
        tracer.uninstall()
    return runs, tracer.layer_metrics()


def reports(workload: str) -> dict:
    runs, _ = traced_pass(workload)
    return {r.req.key: (r.req, checks.parse_output(r.req, r.stdout), r.out_text) for r in runs}


def verdict(workload: str, key: str, mutate=None, mutate_text=None) -> checks.Verdict:
    all_reports = {k: copy.deepcopy(v[1]) for k, v in reports(workload).items()}
    req, _, out_text = reports(workload)[key]
    if mutate is not None:
        mutate(all_reports[key], all_reports)
    if mutate_text is not None:
        out_text = mutate_text(out_text)
    return checks.check(req, all_reports[key], out_text, all_reports)


# -- arithmetic ---------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    s = [
        spans.Span("root", spans.ROOT, 0.0, 10.0, None, 0),
        spans.Span("a", "eigen.eig", 1.0, 4.0, 0, 0),
        spans.Span("b", "eigen.filter", 2.0, 3.0, 1, 0),
        spans.Span("c", "inner", 5.0, 9.0, 0, 0),
    ]
    assert spans.self_times(s) == [3.0, 2.0, 1.0, 4.0]


def test_layer_self_times_and_other_account_for_wall():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    mod = types.ModuleType("fake")

    def dump(depth):  # recursive through the module global, like cli.dump_json
        return 1 + (mod.dump(depth - 1) if depth else 0)

    mod.dump = tracer.wrap("cli.serialize", "cli.dump_json", dump)
    inner_fn = tracer.wrap("inner", "inner.weighted_inner", lambda: mod.dump(3))
    assert tracer.run_request(inner_fn) == 4
    assert [s.name for s in tracer.spans] == [spans.ROOT, "inner.weighted_inner", "cli.dump_json"]
    m = tracer.layer_metrics()
    # ticks: root 0-5, inner 1-4, dump 2-3
    assert m["trace.wall_s"] == 5.0
    assert m["cli.serialize.self_s"] == 1.0
    assert m["inner.self_s"] == 2.0
    assert m["other.self_s"] == 2.0
    assert m["inner.calls"] == 1


def test_quartile_spread():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 12.0, 8.0, 10.0, 10.2, 9.8]
    # exclusive-method quartiles of the sorted values: 9.375 and 10.625
    assert statistics.quantiles(values, n=4) == pytest.approx([9.375, 10.0, 10.625])
    assert spread.quartile_spread(values) == pytest.approx((10.625 - 9.375) / 10.0)
    assert spread.quartile_spread([5.0] * 10) == 0.0
    assert spread.parse_seeds("3-6") == [3, 4, 5, 6] and spread.parse_seeds("2,9") == [2, 9]


def test_median_pass_is_the_lower_median_by_traced_wall():
    passes = [{"id": i, "layers": {"trace.wall_s": w}} for i, w in enumerate([3.0, 1.0, 2.0, 5.0])]
    assert run.median_pass(passes)["id"] == 2
    assert run.median_pass(passes[:3])["id"] == 2
    assert run.median_pass(passes[:1])["id"] == 0


# -- workloads and analytic levels -------------------------------------------

def test_requests_depend_only_on_the_seed():
    for w in workloads.WORKLOADS:
        a, b = workloads.requests(w, 7), workloads.requests(w, 7)
        assert [r.argv for r in a] == [r.argv for r in b]
        assert [r.argv for r in a] != [r.argv for r in workloads.requests(w, 8)]


def test_draws_skip_the_admissibility_gate():
    rng = random.Random(0)
    for _ in range(2000):
        assert not workloads._gated(workloads.draw_A(rng), 1.0)
    assert workloads._gated(1.5, 1.0) and workloads._gated(2.5, 1.0)


def test_scarf2_levels_match_closed_forms():
    assert checks.scarf2_levels(*workloads.scarf2_strengths(2.0, 1.0)) == \
        pytest.approx([-4.0, -1.0, -0.25])
    assert checks.scarf2_levels(6.25, -2.5) == pytest.approx([-4.0, -1.0])  # first-order d=2.5
    pair = checks.scarf2_levels(2.0, 2.5)  # beyond |V2| = V1 + 1/4
    assert len(pair) == 2 and pair[0] == pytest.approx(pair[1].conjugate())
    assert pair[1] == pytest.approx(-0.285275264 + 0.294862368j)


# -- checkers -----------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checkers_accept_the_seed_output(workload):
    runs, _ = traced_pass(workload)
    failures, _, _ = passrun.judge(runs)
    assert failures == []


def _deepest_spectrum_key():
    return next(k for k, (req, out, _) in reports("spectra").items()
                if req.check == "spectrum" and out["bound"]["count"] and not req.params.get("pair"))


def test_spectrum_check_rejects_a_shifted_level():
    def shift(out, _):
        out["bound"]["values"][0][0] -= 0.01

    assert not verdict("spectra", _deepest_spectrum_key(), shift).ok


def test_spectrum_check_rejects_a_dropped_pair():
    def drop(out, _):
        out["bound"]["values"] = [v for v in out["bound"]["values"] if v[1] <= 0]
        out["bound"]["count"] = len(out["bound"]["values"])

    assert verdict("spectra", "raw-pair").ok
    assert not verdict("spectra", "raw-pair", drop).ok


def test_sweep_check_rejects_an_imaginary_part_inside_the_boundary():
    def corrupt(text):
        header, first, *rest = text.strip().splitlines()
        cells = first.split(",")
        cells[1] = "0.001"
        return "\n".join([header, ",".join(cells), *rest]) + "\n"

    req, text, _ = reports("spectra")["sweep-v2"]
    assert checks.check(req, corrupt(text), None, {}).problems


@pytest.mark.parametrize("key,field,value", [
    ("identity", "residual", 1e-7),
    ("parity", "residual", 1e-7),
    ("multiplicative", "hermitian_defect", 1e-6),
    ("first-order", "residual", 1e-5),
    ("second-order", "residual", 1e-5),
])
def test_verify_check_rejects_a_residual_above_tolerance(key, field, value):
    def corrupt(out, _):
        out[field] = value

    assert not verdict("verify", key, corrupt).ok


def test_verify_check_rejects_a_riccati_defect():
    def corrupt(out, _):
        out["factorization"]["riccati_defect"] = 1e-9

    assert not verdict("verify", "second-order", corrupt).ok


def test_evolve_checks_reject_drift_above_tolerance():
    def hermitian(out, _):
        out["max_drift"] = 1e-7

    def unit(out, _):
        out["max_drift"] = 1e-3

    def contrast(out, all_reports):
        out["max_drift"] = all_reports["unit-weight"]["max_drift"] / 10

    def eigenstate(out, _):
        out["max_drift"] = 1e-4

    assert not verdict("evolve", "hermitian-well", hermitian).ok
    assert not verdict("evolve", "unit-weight", unit).ok
    assert not verdict("evolve", "gauge-weight", contrast).ok
    assert not verdict("spectra", "ground-state", eigenstate).ok


def test_evolve_check_rejects_a_truncated_trace():
    assert not verdict("evolve", "hermitian-well", mutate_text=lambda t: t[: len(t) // 2]).ok


# -- smoke pass ---------------------------------------------------------------

def test_traced_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    _, layers = traced_pass("verify")
    assert set(layers) | RUN_LEVEL == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb", "ok_frac"}


@pytest.mark.parametrize("workload,layer", [
    ("spectra", "eigen.eig"), ("evolve", "evolve.run"), ("verify", "operators.probes")])
def test_smoke_pass_puts_the_time_in_the_workload_layer(workload, layer):
    runs, m = traced_pass(workload)
    assert len(runs) == len(workloads.requests(workload, SEED, small=True))
    self_s = {k: v for k, v in m.items() if k.endswith(".self_s")}
    assert sum(self_s.values()) == pytest.approx(m["trace.wall_s"])
    assert max(self_s, key=self_s.get) == f"{layer}.self_s"
    assert (m["eigen.eig.calls"] > 0) == (workload == "spectra")
    assert (m["operators.probes.calls"] > 0) == (workload == "verify")
    assert m["evolve.run.calls"] == {"spectra": 1, "evolve": 3, "verify": 0}[workload]


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spectra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
