"""Spans around the public functions of each gfcalc layer, from outside.

:meth:`Tracer.install` wraps the functions in every gfcalc module namespace that
holds them, including names one module imported from another (``solver``'s
``build_weights``, ``cli``'s ``solve_picard`` and so on), so a call made
through any of them is recorded and child spans nest under their callers.
Nothing in ``gfcalc`` is edited; :meth:`Tracer.uninstall` puts every
original back.

Each span is kept in memory as (name, start, end, parent) in flat arrays and
written out by :meth:`Tracer.dump`.  Self time, the part of a span not
covered by its children, is summed as spans close.
"""

from __future__ import annotations

import time
import tracemalloc
from array import array

import numpy as np

import gfcalc
from gfcalc import cli, fracops, problemfile, solver, specialfn

# (module, attribute, span name): one entry per function object
FUNCTIONS = (
    (fracops, "make_grid", "fracops.make_grid"),
    (fracops, "build_weights", "fracops.build_weights"),
    (fracops, "_ramp_moments", "fracops.ramp_moments"),
    (fracops, "gfi_apply", "fracops.gfi_apply"),
    (fracops, "gfd_riemann", "fracops.gfd_riemann"),
    (fracops, "gfd_caputo", "fracops.gfd_caputo"),
    (fracops, "gfi_reference", "fracops.gfi_reference"),
    (solver, "existence_box", "solver.existence_box"),
    (solver, "solve_picard", "solver.solve_picard"),
    (solver, "solve_marching", "solver.solve_marching"),
    (solver, "volterra_residual", "solver.volterra_residual"),
    (specialfn, "mittag_leffler", "specialfn.mittag_leffler"),
    (problemfile, "load_problem", "problemfile.load_problem"),
    (cli, "main", "cli.main"),
)
# (class, method, span name)
METHODS = (
    (fracops.QuadratureWeights, "apply", "fracops.apply"),
    (solver.RightHandSide, "fn", "solver.rhs"),
)
NAMESPACES = (gfcalc, fracops, solver, specialfn, problemfile, cli)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []      # [span index, child seconds]
        self._open: dict[str, int] = {}
        self._restore: list = []
        self.largest_weights = None       # (n, grid, alpha) of the biggest build

    # -- recording -------------------------------------------------------

    def _begin(self, name: str) -> None:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        self._open[name] = self._open.get(name, 0) + 1
        self.span_start.append(time.perf_counter())

    def _end(self, name: str) -> None:
        end = time.perf_counter()
        idx, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        if self._stack:
            self._stack[-1][1] += dur
        self._open[name] -= 1
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def is_open(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    def span(self, name: str, fn, observe=None):
        """``fn`` wrapped in a span; ``observe(args, kwargs, result)`` adds
        counters after the call returns."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(name)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # -- counters at layer boundaries --------------------------------------

    def _observe_apply(self, args, kwargs, result):
        n = result.shape[0]
        self.count("fracops.apply.bytes_computed", 8.0 * n * n)
        if self.is_open("solver.solve_picard"):
            self.count("solver.picard.apply_calls")

    def _observe_build(self, args, kwargs, result):
        n = result.grid.n_nodes
        if self.largest_weights is None or n > self.largest_weights[0]:
            self.largest_weights = (n, result.grid, result.alpha)

    def _observe_picard(self, args, kwargs, result):
        self.count("solver.picard.solves")
        self.count("solver.picard.iterations", result[1].iterations)

    def _observe_rhs(self, args, kwargs, result):
        points = int(np.size(result))
        self.count("solver.rhs.points", points)
        if points == 1 and self.is_open("solver.solve_marching"):
            self.count("solver.march.scalar_rhs_calls")

    def _wrap_reference(self, fn):
        # counts the integrand evaluations the adaptive oracle makes
        tracer = self

        def wrapper(f, *args, **kwargs):
            def counted(x):
                tracer.count("fracops.gfi_reference.g_evals")
                return f(x)
            return fn(counted, *args, **kwargs)

        return self.span("fracops.gfi_reference", wrapper)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        observers = {
            "fracops.build_weights": self._observe_build,
            "solver.solve_picard": self._observe_picard,
            "fracops.apply": self._observe_apply,
            "solver.rhs": self._observe_rhs,
        }
        replace = {}
        for module, attr, name in FUNCTIONS:
            original = getattr(module, attr)
            if name == "fracops.gfi_reference":
                replace[id(original)] = (original, self._wrap_reference(original))
            else:
                replace[id(original)] = (original,
                                         self.span(name, original, observers.get(name)))
        for module in NAMESPACES:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.span(name, original, observers.get(name)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def weights_alloc_peak(self) -> int:
        """Peak bytes tracemalloc sees while the largest weight table of the
        traced pass is built again.  Called after :meth:`uninstall`, so
        tracemalloc slows no timed call."""
        if self.largest_weights is None:
            return 0
        _, grid, alpha = self.largest_weights
        tracemalloc.start()
        try:
            fracops.build_weights(grid, alpha)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def dump(self, path) -> int:
        """Write every span to ``path`` (.npz); returns the span count."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
        return len(self.span_start)


PER_LAYER = (
    # name, unit
    ("fracops.apply.calls", "count/op"),
    ("fracops.apply.self_s", "s/op"),
    ("fracops.apply.bytes_computed", "B/op"),
    ("fracops.apply.gbps_computed", "GB/s"),
    ("fracops.build_weights.calls", "count/op"),
    ("fracops.build_weights.self_s", "s/op"),
    ("fracops.build_weights.alloc_peak_bytes", "B"),
    ("fracops.ramp_moments.self_s", "s/op"),
    ("fracops.make_grid.self_s", "s/op"),
    ("fracops.gfi_apply.self_s", "s/op"),
    ("fracops.gfd_riemann.self_s", "s/op"),
    ("fracops.gfd_caputo.self_s", "s/op"),
    ("fracops.gfi_reference.calls", "count/op"),
    ("fracops.gfi_reference.self_s", "s/op"),
    ("fracops.gfi_reference.g_evals", "count/op"),
    ("solver.solve_picard.self_s", "s/op"),
    ("solver.picard.iterations", "count/solve"),
    ("solver.picard.apply_per_solve", "count/solve"),
    ("solver.existence_box.self_s", "s/op"),
    ("solver.volterra_residual.self_s", "s/op"),
    ("solver.solve_marching.self_s", "s/op"),
    ("solver.march.scalar_rhs_calls", "count/op"),
    ("solver.rhs.calls", "count/op"),
    ("solver.rhs.points", "count/op"),
    ("solver.rhs.self_s", "s/op"),
    ("specialfn.mittag_leffler.calls", "count/op"),
    ("specialfn.mittag_leffler.self_s", "s/op"),
    ("problemfile.load_problem.self_s", "s/op"),
    ("cli.main.self_s", "s/op"),
    ("cli.process_overhead_s", "s/op"),
    ("cli.csv_bytes_out", "B/op"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_metrics(tracer: Tracer, ops: int, extra: dict) -> dict:
    """Per-layer values, each per operation of the traced pass unless its
    unit says otherwise; ``extra`` supplies the values measured outside the
    tracer (process overhead, CSV bytes, tracing overhead).  Call after
    :meth:`Tracer.uninstall`."""
    per_op = 1.0 / max(ops, 1)
    solves = tracer.counts.get("solver.picard.solves", 0.0)
    per_solve = 1.0 / solves if solves else 0.0
    values = {}
    for name, unit in PER_LAYER:
        if name in extra:
            values[name] = extra[name]
            continue
        layer, _, field = name.rpartition(".")
        if name == "fracops.apply.gbps_computed":
            secs = tracer.self_s.get("fracops.apply", 0.0)
            moved = tracer.counts.get("fracops.apply.bytes_computed", 0.0)
            values[name] = moved / secs / 1e9 if secs else 0.0
        elif name == "fracops.build_weights.alloc_peak_bytes":
            values[name] = tracer.weights_alloc_peak()
        elif name == "solver.picard.iterations":
            values[name] = tracer.counts.get(name, 0.0) * per_solve
        elif name == "solver.picard.apply_per_solve":
            values[name] = tracer.counts.get("solver.picard.apply_calls", 0.0) * per_solve
        elif field == "self_s":
            values[name] = tracer.self_s.get(layer, 0.0) * per_op
        elif field == "calls":
            values[name] = tracer.calls.get(layer, 0) * per_op
        else:
            values[name] = tracer.counts.get(name, 0.0) * per_op
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
