"""One pass over a workload's requests, in a fresh process.

    python3 bench/passrun.py --workload spectra --seed 1 [--trace SPANS_FILE]

Imports `etaqm` from the checkout's `src`, sends each request to
`etaqm.cli.main(argv)` in sequence (closed loop, one client), checks every
output, and prints one JSON line: the summed request wall time, the peak RSS
of this process, the failures, and with `--trace` the per-layer metrics.
Spans are kept in memory and written to SPANS_FILE at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def import_etaqm():
    """Import etaqm from this checkout's src, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import etaqm
    import etaqm.cli

    where = Path(etaqm.__file__).resolve().parent
    if where != SRC / "etaqm":
        raise ImportError(f"etaqm imported from {where}, not from {SRC}")
    return etaqm


def blas_info() -> dict:
    """BLAS library and the thread count each bundled OpenBLAS reports."""
    import numpy
    import scipy

    info = {"library": "unknown", "threads": {}}
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["library"] = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"][pkg.__name__] = fn()
                    break
    info["env"] = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS") if k in os.environ}
    info["numpy"], info["scipy"] = numpy.__version__, scipy.__version__
    return info


@dataclass
class Run:
    req: workloads.Request
    rc: int | None          # None when cli.main raised
    elapsed: float
    stdout: str
    out_text: str | None    # what the request wrote to --out
    stderr: str


def execute(reqs, tracer=None) -> list[Run]:
    """Send each request to etaqm.cli.main in turn, timing only the call."""
    from etaqm import cli

    workdir = HERE / "results" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runs = []
    try:
        for i, req in enumerate(reqs):
            argv = list(req.argv)
            out_path = workdir / f"{i}-{req.key}.out" if req.out else None
            if out_path is not None:
                argv += ["--out", str(out_path)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                t0 = time.perf_counter()
                try:
                    rc = tracer.run_request(cli.main, argv) if tracer else cli.main(argv)
                except Exception:  # a crash fails this request; the pass goes on
                    rc = None
                    traceback.print_exc(limit=3)
                elapsed = time.perf_counter() - t0
            out_text = out_path.read_text() if out_path is not None and out_path.exists() else None
            runs.append(Run(req, rc, elapsed, stdout.getvalue(), out_text, stderr.getvalue()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return runs


def judge(runs: list[Run]) -> tuple[list[dict], int, list[float]]:
    """(failures, analytic levels missed, deviations of the levels found)."""
    reports, failures = {}, []
    for run in runs:
        if run.rc == 0:
            try:
                reports[run.req.key] = checks.parse_output(run.req, run.stdout)
            except ValueError as exc:
                failures.append({"request": run.req.key, "problems": [f"unparsable output: {exc}"]})
        else:
            failures.append({"request": run.req.key,
                             "problems": [f"exit {run.rc}: {run.stderr.strip()[-400:]}"]})
    levels_missed, level_devs = 0, []
    for run in runs:
        if run.req.key in reports:
            verdict = checks.check(run.req, reports[run.req.key], run.out_text, reports)
            levels_missed += verdict.levels_missed
            level_devs += verdict.level_devs
            if not verdict.ok:
                failures.append({"request": run.req.key, "problems": verdict.problems})
    return failures, levels_missed, level_devs


def run_pass(workload: str, seed: int, spans_path: Path | None = None) -> dict:
    """One pass; traced, with its spans written to `spans_path`, if that is given."""
    etaqm = import_etaqm()
    tracer = None
    if spans_path is not None:
        tracer = Tracer()
        tracer.install(etaqm)
    try:
        runs = execute(workloads.requests(workload, seed), tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures, levels_missed, level_devs = judge(runs)
    result = {
        "workload": workload,
        "seed": seed,
        "wall_s": sum(r.elapsed for r in runs),
        "request_s": {r.req.key: r.elapsed for r in runs},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(runs),
        "failed": len({f["request"] for f in failures}),
        "failures": failures,
        "out_bytes": sum(len(r.stdout.encode()) + len((r.out_text or "").encode()) for r in runs),
        "levels_missed": levels_missed,
        "level_dev_max": max(level_devs, default=0.0),
        "blas": blas_info(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(tracer.span_records()))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=Path, metavar="SPANS_FILE",
                    help="trace the pass and write its spans to this file")
    args = ap.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
