"""Benchmark entry point for the etaqm CLI.

    python3 bench/run.py --workload spectra|evolve|verify --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  With `--trace 0` it measures the set-up
cost of a fresh CLI process, then runs passes over the workload's requests
(each pass in a fresh process, see passrun.py) while another pass still fits
in S seconds, and reports the end-to-end metrics.  With `--trace 1` it
alternates untraced and traced passes and reports the per-layer metrics of
the median traced pass.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it carries the provenance (cores, Python, numpy, scipy, BLAS
and its threads, commit, source digest, seed).  The full record, with every
pass, goes to bench/results/.  Exits 2 without a result when the checkout
has no src/etaqm.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_CALLS = 5
DEADLINE_S = 170.0  # every run ends well inside the 180 s limit
# One BLAS thread for every measured process, on every commit: with the
# default two threads on two shared cores, passes of one seed ranged 16.0 to
# 19.0 s, against 18.3 to 19.2 s with one thread, interleaved.
BLAS_THREADS = "1"



def median_pass(passes: list[dict]) -> dict:
    """The traced pass at the (lower) median of the traced wall times."""
    ordered = sorted(passes, key=lambda p: p["layers"]["trace.wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(seed: int, deadline: float) -> tuple[float, int]:
    """Median wall time of fresh `python -m etaqm.cli levels` processes, and
    the number of those calls whose output was wrong."""
    rng = random.Random(f"setup:{seed}")
    times, bad = [], 0
    for _ in range(SETUP_CALLS):
        A = workloads.draw_A(rng)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "etaqm.cli", "levels", "--family", "scarf2",
             "--A", repr(A), "--B", "1"],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
        times.append(time.perf_counter() - t0)
        try:
            out = json.loads(proc.stdout)
            got = sorted(out["series1"] + out["series2"])
            want = sorted(e.real for e in checks.scarf2_levels(*workloads.scarf2_strengths(A, 1.0)))
            ok = proc.returncode == 0 and len(got) == len(want) and \
                all(abs(g - w) <= 1e-12 * (1 + abs(w)) for g, w in zip(got, want))
        except (ValueError, KeyError, TypeError):
            ok = False
        bad += not ok
    return statistics.median(times), bad


def run_pass(workload: str, seed: int, deadline: float, spans: Path | None = None) -> dict:
    """One pass in a fresh process; traced, with its spans written to `spans`, if given."""
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload, "--seed", str(seed)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"pass process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = time.perf_counter() - t0
    return result


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "etaqm").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def provenance(seed: int, blas: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": blas.get("numpy"),
        "scipy": blas.get("scipy"),
        "blas": blas.get("library"),
        "blas_threads": blas.get("threads"),
        "blas_env": blas.get("env"),
        "commit": commit(),
        "source_digest": source_digest(),
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setup_s, setup_bad = (None, 0) if trace else measure_setup(seed, deadline)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if trace and len(traced) < len(plain):
            kind = traced
            spans = HERE / "results" / f"spans-{workload}-seed{seed}-{len(traced)}.json"
        else:
            kind, spans = plain, None
        kind.append(run_pass(workload, seed, deadline, spans))
        elapsed = time.perf_counter() - start
        last = kind[-1]["process_s"]
        enough = bool(plain) and (bool(traced) or not trace)
        if enough and (elapsed + last > seconds or time.monotonic() + last > deadline):
            break

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes) + (0 if trace else SETUP_CALLS)
    failed = sum(p["failed"] for p in passes) + setup_bad
    if trace:
        mid = median_pass(traced)
        values = dict(mid["layers"])
        values["cli.out_bytes"] = mid["out_bytes"]
        values["levels_missed"] = mid["levels_missed"]
        values["level_dev_max"] = mid["level_dev_max"]
        values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - \
            statistics.median(p["wall_s"] for p in plain)
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": setup_s,
            "peak_rss_mb": max(p["peak_rss_mb"] for p in plain),
            "ok_frac": 1.0 - failed / attempted,
        }
    units = metric_units(trace)
    if set(values) != set(units):
        raise ValueError(f"measured metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    return {
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
        "provenance": provenance(seed, passes[0]["blas"]),
        "passes": [{k: v for k, v in p.items() if k not in ("blas", "layers")} for p in passes],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="etaqm CLI benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "etaqm" / "__init__.py").is_file():
        print(f"no etaqm sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    out = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
