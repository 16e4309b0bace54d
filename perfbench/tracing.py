"""Span tracing of connlab from outside the package, for the traced run.

Tracer.install wraps every public module-level function of the nine layer
modules, OperatorBundle's constructor and cached operators, and the
IntMatrix / FieldMatrix product and mat-vec methods.  A function imported
elsewhere with ``from .exact import charpoly`` is a second reference to the
same object, so each wrapper is written into every connlab module (and the
package namespace) that holds the original; otherwise those calls would be
missed silently.

Each call records one span: name, start, end, parent span and operation id.
Spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the time its child spans cover.  Product and
mat-vec spans are counted twice on purpose: once on their own (the exact
layer's matmul and apply metrics) and once inside the function-level self
time of whichever function called them, so that ``exact.charpoly.self_s``
measures the whole charpoly algorithm and not just its bookkeeping.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from functools import cached_property

LAYERS = ("graphs", "complexes", "operators", "exact", "spectra", "dynamics", "newton", "products", "cli")
MATMUL = ("exact.IntMatrix.__matmul__", "exact.FieldMatrix.__matmul__")
APPLY = ("exact.IntMatrix.apply", "exact.FieldMatrix.apply")
BUNDLE = "operators.OperatorBundle"

# function-level metrics: metric name -> the span names it sums
FUNCTION_SELF = {
    "exact.charpoly.self_s": ("exact.charpoly",),
    "exact.det.self_s": ("exact.det",),
    "exact.matpow.self_s": ("exact.matpow",),
    "exact.inverse_exact.self_s": ("exact.inverse_exact",),
    "exact.field_inverse.self_s": ("exact.field_inverse",),
    "operators.green.self_s": ("operators.OperatorBundle.green", "operators.green_star"),
    "operators.hodge.self_s": (
        "operators.OperatorBundle.hodge", "operators.OperatorBundle.hodge_signless",
        "operators.OperatorBundle.dirac", "operators.OperatorBundle.dirac_signless",
        "operators.dirac_from_incidence",
    ),
    "spectra.bound_kwalk.self_s": ("spectra.bound_kwalk",),
    "spectra.eig_sym.self_s": ("spectra.eig_sym",),
    "products.product_connection.self_s": ("products.product_connection",),
    "newton.jacobian_at.self_s": ("newton.jacobian_at",),
    "exact.apply.self_s": APPLY,
}
CALLS = {
    "exact.charpoly.calls": ("exact.charpoly",),
    "exact.matmul.calls": MATMUL,
    "exact.apply.calls": APPLY,
    "spectra.eig_sym.calls": ("spectra.eig_sym",),
}


class Tracer:
    """Records spans for wrapped connlab calls; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()
        self._restore: list[tuple[object, str, object]] = []
        self.wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)

    def reset(self) -> None:
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.madds = 0

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, count_madds: bool = False):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_madds:
                a, b = args
                self.madds += a.nrows * a.ncols * b.ncols
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()

        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import connlab

        modules = {layer: importlib.import_module(f"connlab.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    self.wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        sites = [connlab] + [importlib.import_module(f"connlab.{m}") for m in LAYERS + ("tables",)]
        for site in sites:
            for attr, obj in list(vars(site).items()):
                hit = self.wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(site, attr, hit[1])

        exact, operators = modules["exact"], modules["operators"]
        for cls in (exact.IntMatrix, exact.FieldMatrix):
            for meth in ("__matmul__", "apply"):
                name = f"exact.{cls.__name__}.{meth}"
                self._set(cls, meth, self.wrap(name, cls.__dict__[meth], count_madds=meth == "__matmul__"))
        bundle = operators.OperatorBundle
        self._set(bundle, "__init__", self.wrap(BUNDLE, bundle.__dict__["__init__"]))
        for attr, obj in list(vars(bundle).items()):
            if isinstance(obj, cached_property):
                prop = cached_property(self.wrap(f"{BUNDLE}.{attr}", obj.func))
                prop.__set_name__(bundle, attr)
                self._set(bundle, attr, prop)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def unpatched_sites(self) -> list[str]:
        """Module globals that still hold an original, unwrapped function."""
        missed = []
        for modname, mod in list(sys.modules.items()):
            if modname == "connlab" or modname.startswith("connlab."):
                for attr, obj in vars(mod).items():
                    hit = self.wrapped.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        missed.append(f"{modname}.{attr}")
        return missed

    # -- analysis ----------------------------------------------------------

    def per_name(self) -> dict[str, dict[str, float]]:
        """calls, self_s (strict) and fself_s (product and mat-vec children
        folded back in) for each span name."""
        n = len(self.span_name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        folded = {self._name_ids[m] for m in MATMUL + APPLY if m in self._name_ids}
        cover = [0.0] * n
        folded_cover = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                cover[p] += dur[i]
                if self.span_name[i] in folded:
                    folded_cover[p] += dur[i]
        stats = {name: {"calls": 0, "self_s": 0.0, "fself_s": 0.0} for name in self.names}
        for i in range(n):
            s = stats[self.names[self.span_name[i]]]
            s["calls"] += 1
            s["self_s"] += dur[i] - cover[i]
            s["fself_s"] += dur[i] - cover[i] + folded_cover[i]
        return stats

    def layer_metrics(self, graphs: int, newton_iterations: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric except trace_overhead_s, as (value, unit)."""
        stats = self.per_name()
        get = lambda name, key: stats.get(name, {}).get(key, 0)  # noqa: E731
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            members = [name for name in stats if name.split(".")[0] == layer]
            out[f"{layer}.calls"] = (sum(stats[m]["calls"] for m in members), "count")
            out[f"{layer}.self_s"] = (sum(stats[m]["self_s"] for m in members), "s")
        for metric, names in CALLS.items():
            out[metric] = (sum(get(n, "calls") for n in names), "count")
        for metric, names in FUNCTION_SELF.items():
            out[metric] = (sum(get(n, "fself_s") for n in names), "s")
        out["exact.matmul.madds"] = (self.madds, "count")
        out["operators.bundles_per_graph"] = (get(BUNDLE, "calls") / max(graphs, 1), "1/graph")
        out["operators.connection_builds"] = (
            get("operators.connection_matrix", "calls") / max(graphs, 1), "1/graph"
        )
        out["newton.iterations"] = (newton_iterations, "count")
        return out

    def dump(self, path) -> None:
        """Write every span as JSON: a name table plus one row per span."""
        spans = zip(self.span_name, self.start, self.end, self.parent, self.op)
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "start", "end", "parent", "op"],
                    "spans": [list(s) for s in spans],
                },
                fh,
                separators=(",", ":"),
            )
