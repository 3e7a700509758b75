"""Outside-in tracing: spans around the program's public functions.

Inside a `with Tracer(modules):` block the public functions of the
program's layers (and the MultiPoly/KPoly product methods) are replaced by
wrappers; leaving the block restores them.  Every module attribute bound to
a wrapped function is replaced, because the package imports functions by
name (`engine` calls its own binding of `lie_derivative`).

Spans are kept in memory in flat arrays (name, start, end, parent span,
one integer attribute) and reduced to per-layer figures only when the run
ends.  Each CLI command is a root span, so the root identifies the
request.  A span's self time is its duration minus the durations of its
direct children; spans nest strictly because the program is
single-threaded.  The program has no queues or threads, so no layer has a
waiting time to record.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# Counts that must repeat exactly for a given seed.
EXACT_COUNTS = (
    "engine.rows",
    "engine.cols",
    "engine.nnz",
    "nullspace.rank",
    "nullspace.nullity",
    "dynamics.integrate.accepted",
    "dynamics.integrate.rejected",
    "dynamics.rhs.calls",
    "dynamics.drift_report.rows",
    "dynamics.write_trajectory_csv.bytes",
    "multipoly.mul.calls",
)

# Degrees of the IX elimination reported one by one (the fixed-k sweep's range).
IX_DEGREES = range(1, 7)

LAYERS = ("cli", "engine", "nullspace", "vectorfields", "multipoly", "dynamics")

# Every span name the tracer records; each gets a ".self_s" metric.
SPANS = (
    "cli.main",
    "engine.degree_sweep",
    "engine.kernel_basis",
    "engine.assemble_system",
    "engine.recheck",
    "engine.lemma",
    "nullspace.sparse_kernel_basis",
    "vectorfields.lie_derivative",
    "vectorfields.verify_weighted_power_integral",
    "multipoly.mul",
    "multipoly.evaluate",
    "dynamics.integrate",
    "dynamics.drift_report",
    "dynamics.write_trajectory_csv",
)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if ".us_per_" in metric:
        return "us"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.startswith("share.") or metric.endswith("_ratio") or "_over_" in metric:
        return "ratio"
    return "count"


class Tracer:
    def __init__(self, modules: Dict[str, object]):
        self._mods = modules  # short name -> module, e.g. "engine" -> bianchi_integrals.engine
        self.names: List[str] = []
        self._name_id: Dict[str, int] = {}
        self.name = array("H")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("l")
        self.value = array("q")  # one integer attribute per span (terms out, rank, ...)
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._undo: List[tuple] = []
        # model, m and m_max, set by the degree_sweep and kernel_basis spans
        # for the elimination calls beneath them.
        self._context: Dict[str, object] = {}
        self.eliminations: List[tuple] = []  # (span, model, m, m_max, rank, nullity, rows)
        self.assemblies: List[tuple] = []  # (rows, cols, nnz)
        self.orbits: List[tuple] = []  # (accepted, rejected)

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    # -- wrappers -----------------------------------------------------------------

    def span(self, name: str, fn: Callable, value_of: Optional[Callable] = None,
             context_of: Optional[Callable] = None) -> Callable:
        """Wrap fn in a span.

        value_of(result, args, span) gives the span's integer attribute and
        sees the context of the enclosing spans; context_of(args) gives
        context entries for the spans beneath this one.
        """
        nid = self._id(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.t0)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.t1.append(0.0)
            self.value.append(0)
            saved = self._context
            if context_of is not None:
                self._context = dict(saved, **context_of(args))
            stack.append(idx)
            self.t0.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.t1[idx] = time.perf_counter()
                stack.pop()
                self._context = saved
            if value_of is not None:
                self.value[idx] = value_of(result, args, idx)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap fn in a call counter only: no span and no clock read."""
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _lie_derivative(self, fn: Callable) -> Callable:
        """lie_derivative called straight from kernel_basis is the soundness re-check."""
        plain = self.span("vectorfields.lie_derivative", fn)
        recheck = self.span("engine.recheck", fn)
        kernel = self._id("engine.kernel_basis")
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack and self.name[stack[-1]] == kernel:
                return recheck(*args, **kwargs)
            return plain(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- attributes recorded at layer boundaries ----------------------------------

    def _assembled(self, system, args, idx) -> int:
        nnz = sum(len(r) for r in system.rows)
        self.assemblies.append((system.nrows, system.ncols, nnz))
        return nnz

    def _eliminated(self, result, args, idx) -> int:
        vectors, rank = result
        rows = sum(1 for r in args[0] if any(r.values()))
        ctx = self._context
        self.eliminations.append(
            (idx, ctx.get("model"), ctx.get("m"), ctx.get("m_max"), rank, len(vectors), rows)
        )
        return rank

    def _integrated(self, traj, args, idx) -> int:
        self.orbits.append((traj.n_accepted, traj.n_rejected))
        return traj.n_accepted + traj.n_rejected

    @staticmethod
    def _csv_bytes(result, args, idx) -> int:
        try:
            return args[1].tell()
        except (OSError, ValueError):  # an unseekable stream such as a pipe
            return 0

    # -- installation -----------------------------------------------------------

    def _install(self, module: str, attr: str, make: Callable) -> None:
        """Bind make(f) wherever a module of the program binds f = module.attr."""
        original = getattr(self._mods[module], attr)
        wrapped = make(original)
        for mod in self._mods.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, wrapped)

    def _install_methods(self, cls, attrs, make: Callable) -> None:
        wrapped = make(cls.__dict__[attrs[0]])
        for attr in attrs:
            self._undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapped)

    def __enter__(self) -> "Tracer":
        span = self.span
        self._install("cli", "main", lambda f: span("cli.main", f))
        self._install("engine", "degree_sweep", lambda f: span(
            "engine.degree_sweep", f,
            context_of=lambda a: {"model": a[0].tag, "m_max": a[1] if len(a) > 1 else None}))
        self._install("engine", "kernel_basis", lambda f: span(
            "engine.kernel_basis", f, context_of=lambda a: {"m": a[1]}))
        self._install("engine", "assemble_system",
                      lambda f: span("engine.assemble_system", f, self._assembled))
        for lemma in ("lemma_estrella_solve", "lemma_dificil_solve", "sn_recursion_check"):
            self._install("engine", lemma, lambda f: span("engine.lemma", f))
        self._install("nullspace", "sparse_kernel_basis",
                      lambda f: span("nullspace.sparse_kernel_basis", f, self._eliminated))
        self._install("vectorfields", "lie_derivative", self._lie_derivative)
        self._install("vectorfields", "verify_weighted_power_integral",
                      lambda f: span("vectorfields.verify_weighted_power_integral", f))
        self._install("dynamics", "integrate", lambda f: span("dynamics.integrate", f, self._integrated))
        self._install("dynamics", "rhs", lambda f: self.counter("dynamics.rhs.calls", f))
        self._install("dynamics", "drift_report", lambda f: span(
            "dynamics.drift_report", f, lambda r, a, i: len(a[0].x)))
        self._install("dynamics", "write_trajectory_csv",
                      lambda f: span("dynamics.write_trajectory_csv", f, self._csv_bytes))
        self._install_methods(self._mods["multipoly"].MultiPoly, ("__mul__", "__rmul__"),
                              lambda f: span("multipoly.mul", f, lambda r, a, i: len(r.terms)))
        self._install_methods(self._mods["multipoly"].MultiPoly, ("evaluate",),
                              lambda f: span("multipoly.evaluate", f))
        self._install_methods(self._mods["coefficients"].KPoly, ("__mul__", "__rmul__"),
                              lambda f: self.counter("coefficients.kpoly_mul.calls", f))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    # -- reduction ----------------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer figures of everything recorded since the tracer was made."""
        n = len(self.t0)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.t1[i] - self.t0[i]
        self_s: Dict[str, float] = defaultdict(float)
        total_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        value: Dict[str, int] = defaultdict(int)
        span_self = [0.0] * n
        for i in range(n):
            name = self.names[self.name[i]]
            dur = self.t1[i] - self.t0[i]
            span_self[i] = dur - child[i]
            self_s[name] += span_self[i]
            total_s[name] += dur
            calls[name] += 1
            value[name] += self.value[i]
        wall = total_s["cli.main"]

        out: Dict[str, float] = {name + ".self_s": self_s[name] for name in SPANS}
        out["nullspace.sparse_kernel_basis.calls"] = calls["nullspace.sparse_kernel_basis"]
        out["nullspace.sparse_kernel_basis.top_degree_s"] = sum(
            span_self[e[0]] for e in self.eliminations if e[2] is not None and e[2] == e[3])
        rank = sum(e[4] for e in self.eliminations)
        rows = sum(e[6] for e in self.eliminations)
        out["nullspace.rank"] = rank
        out["nullspace.nullity"] = sum(e[5] for e in self.eliminations)
        out["nullspace.pivot_ratio"] = rank / rows if rows else 0.0
        ix = {e[2]: span_self[e[0]] for e in self.eliminations
              if e[1] == "IX" and e[3] == max(IX_DEGREES)}
        for m in IX_DEGREES:
            out["nullspace.ix_m%d.self_s" % m] = ix.get(m, 0.0)
        top = max(IX_DEGREES)
        out["nullspace.ix_m%d_over_m%d" % (top, top - 1)] = (
            ix[top] / ix[top - 1] if ix.get(top - 1) else 0.0)
        out["engine.assemble_system.calls"] = calls["engine.assemble_system"]
        out["engine.rows"] = sum(a[0] for a in self.assemblies)
        out["engine.cols"] = sum(a[1] for a in self.assemblies)
        out["engine.nnz"] = sum(a[2] for a in self.assemblies)
        out["engine.recheck.total_s"] = total_s["engine.recheck"]
        out["engine.recheck.polys"] = calls["engine.recheck"]
        out["vectorfields.lie_derivative.calls"] = calls["vectorfields.lie_derivative"]
        out["multipoly.mul.calls"] = calls["multipoly.mul"]
        out["multipoly.mul.terms_out"] = value["multipoly.mul"]
        out["multipoly.evaluate.calls"] = calls["multipoly.evaluate"]
        out["coefficients.kpoly_mul.calls"] = self.counts.get("coefficients.kpoly_mul.calls", 0)
        accepted = sum(o[0] for o in self.orbits)
        rejected = sum(o[1] for o in self.orbits)
        steps = accepted + rejected
        out["dynamics.integrate.accepted"] = accepted
        out["dynamics.integrate.rejected"] = rejected
        out["dynamics.integrate.accept_ratio"] = accepted / steps if steps else 0.0
        out["dynamics.integrate.us_per_step"] = 1e6 * self_s["dynamics.integrate"] / steps if steps else 0.0
        out["dynamics.rhs.calls"] = self.counts.get("dynamics.rhs.calls", 0)
        drift_rows = value["dynamics.drift_report"]
        out["dynamics.drift_report.rows"] = drift_rows
        out["dynamics.drift_report.us_per_row"] = (
            1e6 * self_s["dynamics.drift_report"] / drift_rows if drift_rows else 0.0)
        out["dynamics.write_trajectory_csv.bytes"] = value["dynamics.write_trajectory_csv"]
        # Self-time share of each layer in the traced wall time.
        for layer in LAYERS:
            share = sum(s for name, s in self_s.items() if name.split(".")[0] == layer)
            out["share.%s" % layer] = share / wall if wall else 0.0
        out["trace.spans"] = n
        out["trace.wall_s"] = wall
        return out
