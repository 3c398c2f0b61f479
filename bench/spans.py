"""Spans around the public functions of `etaqm`, installed from outside.

The tracer replaces each traced function under every module attribute that
refers to it (so `grid.diff_matrix`, `operators.diff_matrix`,
`evolve.diff_matrix` and `etaqm.diff_matrix` all record the same layer),
keeps the spans in memory, and turns them into per-layer metrics at the end.
Nothing in `src/etaqm` is modified on disk; `uninstall` restores the
originals.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct child spans.  Requests are root spans (layer
`cli.main`); their self time, together with that of any function no layer
covers, is `other.self_s`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

import numpy as np

# layer -> (module, function names); the names follow src/etaqm.
LAYERS = {
    "eigen.eig": ("eigen", ("eig",)),
    "eigen.filter": ("eigen", ("converged_bound_states", "classify_spectrum")),
    "grid.diff_matrix": ("grid", ("diff_matrix",)),
    "operators.build_hamiltonian": ("operators", ("build_hamiltonian",)),
    "operators.build_eta": ("operators", ("build_eta",)),
    "operators.probes": ("operators", ("intertwining_residual", "hermiticity_indicators",
                                       "eta_plus_minus", "verify_factorization")),
    "evolve.run": ("evolve", ("run",)),
    "inner": ("inner", ("weighted_inner", "gram", "operator_inner", "pseudo_normalize",
                        "parity_flip")),
    "cli.serialize": ("cli", ("dump_json",)),
}

ROOT = "cli.main"
ASSEMBLY = ("grid.diff_matrix", "operators.build_hamiltonian", "operators.build_eta")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    request: int


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def _entries(M) -> tuple[int, int, int]:
    """(computed entries, nonzero entries, bytes) of a dense or sparse matrix."""
    if hasattr(M, "nnz"):  # scipy.sparse
        return M.nnz, M.count_nonzero(), M.data.nbytes
    M = np.asarray(M)
    return M.size, int(np.count_nonzero(M)), M.size * M.itemsize


class Tracer:
    """Collects spans and counters for one pass; single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.request = -1
        self.counts: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, layer, self.clock(), 0.0, parent, self.request))
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self.stack.pop()

    def run_request(self, fn, *args):
        """Call `fn(*args)` as the root span of a new request."""
        self.request += 1
        idx = self.open(ROOT, ROOT)
        try:
            return fn(*args)
        finally:
            self.close(idx)

    def _count(self, layer: str, fname: str, args, kwargs, result) -> None:
        self._add(f"{fname}.calls", 1)
        if layer == "eigen.eig":
            self._add("eigen.eig.order_sum", np.shape(args[0])[0])
            want = kwargs.get("want_vectors", args[1] if len(args) > 1 else False)
            self._add("eigen.eig.vector_calls", int(bool(want)))
        elif fname == "eigen.converged_bound_states":
            self._add("eigen.filter.kept", len(result.values))
            self._add("eigen.filter.rejected", len(result.rejected))
        elif layer in ASSEMBLY:
            entries, nnz, nbytes = _entries(result)
            self._add("operators.assembly.bytes", nbytes)
            if layer != "grid.diff_matrix":
                self._add("operators.assembly.entries", entries)
                self._add("operators.assembly.nnz", nnz)
        elif layer == "evolve.run":
            self._add("evolve.steps", len(result.times) - 1)

    def wrap(self, layer: str, fname: str, fn):
        outermost = layer == "cli.serialize"  # dump_json recurses through its global

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and self.stack and self.spans[self.stack[-1]].layer == layer:
                return fn(*args, **kwargs)
            idx = self.open(fname, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self._count(layer, fname, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced function under every etaqm module attribute that
        refers to it."""
        prefix = package.__name__
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == prefix or name.startswith(prefix + "."))]
        for layer, (modname, names) in LAYERS.items():
            mod = importlib.import_module(f"{prefix}.{modname}")
            for name in names:
                original = getattr(mod, name)
                wrapper = self.wrap(layer, f"{modname}.{name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patched.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    # -- metrics -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self time per layer and the layer counters of the recorded pass."""
        own = self_times(self.spans)
        wall = sum(s.end - s.start for s in self.spans if s.parent is None)
        self_s = {layer: 0.0 for layer in LAYERS}
        for span, t in zip(self.spans, own):
            if span.layer != ROOT:
                self_s[span.layer] += t
        c = self.counts
        probe_calls = sum(c.get(f"operators.{n}.calls", 0) for n in LAYERS["operators.probes"][1])
        inner_calls = sum(c.get(f"inner.{n}.calls", 0) for n in LAYERS["inner"][1])
        order_sum = c.get("eigen.eig.order_sum", 0)
        steps = c.get("evolve.steps", 0)
        entries = c.get("operators.assembly.entries", 0)
        return {
            "trace.wall_s": wall,
            "eigen.eig.calls": c.get("eigen.eig.calls", 0),
            "eigen.eig.self_s": self_s["eigen.eig"],
            "eigen.eig.order_sum": order_sum,
            "eigen.eig.vector_calls": c.get("eigen.eig.vector_calls", 0),
            "eigen.bound.useful_frac": c.get("eigen.filter.kept", 0) / order_sum if order_sum else 0.0,
            "eigen.filter.self_s": self_s["eigen.filter"],
            "eigen.filter.rejected": c.get("eigen.filter.rejected", 0),
            "grid.diff_matrix.calls": c.get("grid.diff_matrix.calls", 0),
            "grid.diff_matrix.self_s": self_s["grid.diff_matrix"],
            "operators.build_hamiltonian.self_s": self_s["operators.build_hamiltonian"],
            "operators.build_eta.self_s": self_s["operators.build_eta"],
            "operators.assembly.bytes": c.get("operators.assembly.bytes", 0),
            "operators.assembly.nnz_frac": c.get("operators.assembly.nnz", 0) / entries if entries else 0.0,
            "evolve.run.calls": c.get("evolve.run.calls", 0),
            "evolve.run.self_s": self_s["evolve.run"],
            "evolve.steps": steps,
            "evolve.run.us_per_step": 1e6 * self_s["evolve.run"] / steps if steps else 0.0,
            "operators.probes.calls": probe_calls,
            "operators.probes.self_s": self_s["operators.probes"],
            "inner.calls": inner_calls,
            "inner.self_s": self_s["inner"],
            "cli.serialize.self_s": self_s["cli.serialize"],
            "other.self_s": wall - sum(self_s.values()),
        }

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": s.name, "layer": s.layer, "request": s.request,
             "parent": s.parent, "start": s.start, "end": s.end}
            for i, s in enumerate(self.spans)
        ]
