"""Seeded CLI request lists for the three benchmark workloads.

A workload is a list of `Request`s: the argv handed to `etaqm.cli.main` plus
what the output checker needs to know about it.  Everything is drawn from
`random.Random(seed)`, so one seed always gives the same parameters and the
same request order.  The program sees only the argv.

Sizes (see README.md for why they differ from the acceptance sizes):

    spectra  spectrum at N=800 (two-grid coarse N=400), sweep and
             --state-index evolve at N=800
    evolve   Gaussian-packet evolve at N=1600, T=3, dt=1e-3, with --out CSV
    verify   verify-eta at N=1200

`small=True` shrinks N and T for the smoke test; the benchmark never uses it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("spectra", "evolve", "verify")

GAUGE_BETA = 0.5
RAW_V1 = 2.0


@dataclass(frozen=True)
class Request:
    """One CLI call: `argv` without `--out`; `out=True` adds `--out <file>`."""

    key: str
    check: str                  # name of the checker in checks.CHECKERS
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict)
    out: bool = False


def _num(x: float) -> str:
    return repr(float(x))


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _gated(A: float, B: float) -> bool:
    """True when A - B + 1/2 is an integer, which the CLI rejects by design."""
    x = A - B + 0.5
    return abs(x - round(x)) <= 1e-9


def draw_A(rng: random.Random) -> float:
    """A from [1, 3] for B = 1; a draw with A - 1/2 an integer is drawn again."""
    while True:
        A = _draw(rng, 1.0, 3.0)
        if not _gated(A, 1.0):
            return A


def scarf2_strengths(A: float, B: float) -> tuple[float, float]:
    t = B * (2.0 * A + 1.0)
    return 0.25 * (t * t + 3.0), -t


def spectra(rng: random.Random, small: bool = False) -> list[Request]:
    N = 400 if small else 800
    size = ("--L", "16", "--N", str(N))
    reqs = []

    A = draw_A(rng)
    reqs.append(Request(
        "scarf2-b1", "spectrum",
        ("spectrum", "--family", "scarf2", "--A", _num(A), "--B", "1") + size,
        {"V": scarf2_strengths(A, 1.0)}))

    while True:
        A, B = _draw(rng, 1.0, 3.0), _draw(rng, 0.6, 1.6)
        if not _gated(A, B) and B != 1.0:
            break
    reqs.append(Request(
        "scarf2-general-b", "spectrum",
        ("spectrum", "--family", "scarf2", "--A", _num(A), "--B", _num(B)) + size,
        {"V": scarf2_strengths(A, B)}))

    d = _draw(rng, 1.0, 4.0)
    reqs.append(Request(
        "first-order", "spectrum",
        ("spectrum", "--family", "first-order", "--d", _num(d)) + size,
        {"V": (d * d, -d)}))

    V2 = _draw(rng, 2.5, 3.2)
    reqs.append(Request(
        "raw-pair", "spectrum",
        ("spectrum", f"--V=-{_num(RAW_V1)}*sech(x)^2-{_num(V2)}*i*sech(x)*tanh(x)") + size,
        {"V": (RAW_V1, V2), "pair": True}))

    A = draw_A(rng)
    reqs.append(Request(
        "gauged-b1", "spectrum",
        ("spectrum", "--family", "special-b1", "--A", _num(A), "--beta", _num(GAUGE_BETA),
         "--accuracy", "4") + size,
        {"V": scarf2_strengths(A, 1.0)}))

    start = _draw(rng, 1.8, 2.2)
    reqs.append(Request(
        "sweep-v2", "sweep",
        ("sweep", "--axis", "V2", "--start", _num(start), "--stop", _num(round(start + 0.5, 4)),
         "--step", "0.5", "--V1", _num(RAW_V1), "--jobs", "1") + size,
        {"V1": RAW_V1, "rows": 2}))

    A = draw_A(rng)
    reqs.append(Request(
        "ground-state", "evolve_eigenstate",
        ("evolve", "--family", "special-b1", "--A", _num(A), "--beta", _num(GAUGE_BETA),
         "--state-index", "0", "--T", "0.02", "--dt", "0.001") + size))
    return reqs


def evolve(rng: random.Random, small: bool = False) -> list[Request]:
    N, T = (400, 0.5) if small else (1600, 3.0)
    steps = int(round(T / 1e-3))
    x0, sigma, k = _draw(rng, -1.0, 1.0), _draw(rng, 0.7, 1.5), _draw(rng, -1.0, 1.0)
    common = ("--N", str(N), "--T", _num(T), "--dt", "0.001", "--gauss-x0", _num(x0),
              "--gauss-sigma", _num(sigma), "--gauss-k", _num(k))
    gauged = ("evolve", "--family", "special-b1", "--A", "2", "--beta", _num(GAUGE_BETA),
              "--accuracy", "4")
    params = {"steps": steps}
    return [
        Request("gauge-weight", "evolve_gauge", gauged + ("--weight", "gauge") + common,
                dict(params, unit_key="unit-weight"), out=True),
        Request("unit-weight", "evolve_unit", gauged + ("--weight", "unit") + common,
                params, out=True),
        Request("hermitian-well", "evolve_hermitian",
                ("evolve", "--V=-2*sech(x)^2") + common, params, out=True),
    ]


def verify(rng: random.Random, small: bool = False) -> list[Request]:
    size = ("--N", "800" if small else "1200")
    depth = _draw(rng, 1.0, 4.0)
    A_parity = draw_A(rng)
    A_gauged = draw_A(rng)
    d = _draw(rng, 1.0, 4.0)
    return [
        Request("identity", "verify_exact",
                ("verify-eta", "--eta", "identity", f"--V=-{_num(depth)}*sech(x)^2") + size),
        Request("parity", "verify_exact",
                ("verify-eta", "--eta", "parity", "--family", "special-b1", "--A", _num(A_parity))
                + size),
        Request("multiplicative", "verify_multiplicative",
                ("verify-eta", "--eta", "multiplicative", "--family", "special-b1",
                 "--A", _num(A_gauged), "--beta", _num(GAUGE_BETA)) + size),
        Request("first-order", "verify_first_order",
                ("verify-eta", "--eta", "first-order", "--g", f"{_num(d)}*sech(x)",
                 "--family", "first-order", "--d", _num(d)) + size),
        Request("second-order", "verify_second_order",
                ("verify-eta", "--eta", "second-order", "--a=-2.5*sech(x)", "--gamma", "0",
                 "--delta", "0.25", "--factor-r", "tanh(x)/2",
                 "--family", "scarf2", "--A", "2", "--B", "1") + size),
    ]


_BUILDERS = {"spectra": spectra, "evolve": evolve, "verify": verify}


def requests(workload: str, seed: int, small: bool = False) -> list[Request]:
    """The workload's requests for `seed`, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = _BUILDERS[workload](rng, small)
    rng.shuffle(reqs)
    return reqs
