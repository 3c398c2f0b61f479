"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload spectra --seeds 1-10

Runs bench/run.py once per seed, one run after another, with the
`run_seconds` of BENCHMARK.json.  For each end-to-end metric it prints the
median of the runs and the quartile spread (Q3 - Q1) / median, with the
quartiles as statistics.quantiles(values, n=4) gives them, beside the
metric's bound.  Comparing two commits uses the same runs on each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median of the values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '3,5,8'."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            print(f"seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": seed, "correct": result["correct"], "failed": result["failed"],
                          **{k: v["value"] for k, v in result["metrics"].items()}}), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    if len(args.seeds) >= 2:
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            print(f"{m['name']}: median {statistics.median(v):.6g} {m['unit']}, "
                  f"spread {quartile_spread(v):.4f}, bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
