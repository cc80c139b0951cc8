"""Per-layer spans for a modinv run, recorded from outside the package.

``install`` wraps the public functions of each modinv layer (plus the two
methods the benchmark names) in the module that defines them and in every
modinv module that imported them by name, so a call made through any binding
opens a span.  Spans stay in memory; the child process writes them out when
it exits.  ``layer_metrics`` turns one run's spans into the per-layer figures
the benchmark reports.

This module must not import numpy or modinv at import time: the benchmark's
parent process uses ``layer_metrics`` and stays small, so that its memory
does not leak into the children's peak-RSS readings.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

# Layers in call order, outermost first.  monoalg is not traced: no workload
# reaches it.
LAYERS = ("cli", "depthlab", "invariants", "gradedla", "rep", "poly", "report")

# Public functions that get no span: the CLI entry point above ``run``,
# parser construction, which is argument handling, not a layer's work, and
# ``timed``, which only builds a context manager.
SKIPPED = {"cli": {"main", "build_parser"}, "report": {"timed"}}

# Public methods that get a span, by layer.  Other methods are accessors too
# small to time without distorting them.
METHODS = {
    "depthlab": (("GradedModuleView", "quotient_by"),),
    "gradedla": (("GradedBasis", "row_polys"),),
}

MATRIX_FUNCS = ("rref", "kernel", "reduce_rows", "mult_map", "matmul_mod")


def _shape(arg) -> tuple[int, int]:
    """Rows and columns of a MatFp or an array-like argument."""
    arr = getattr(arg, "a", arg)
    shape = getattr(arr, "shape", None)
    if shape is None or len(shape) != 2:
        return 0, 0
    return int(shape[0]), int(shape[1])


def _cells(args, kwargs, result) -> dict:
    rows, cols = _shape(args[0]) if args else (0, 0)
    return {"cells": rows * cols}


def _matmul(args, kwargs, result) -> dict:
    m, k = _shape(args[0])
    _, n = _shape(args[1])
    return {"cells": m * k, "flops": 2 * m * k * n}


def _passed(args, kwargs, result) -> dict:
    return {"passed": bool(result.passed)}


def _bytes(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


# Facts a span records about its call.  Every gradedla function whose first
# argument is a matrix records the cells (rows x cols) of that argument.
ANNOTATE = {
    "gradedla.matmul_mod": _matmul,
    "depthlab.is_regular_element": _passed,
    "report.dumps_report": _bytes,
}


class Recorder:
    """Spans of one run: (name, start, end, parent index, facts)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)
        if annotate is None and name.startswith("gradedla."):
            annotate = _cells
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if annotate is not None:
                spans[index][4] = annotate(args, kwargs, result)
            return result

        traced.__layertrace_original__ = fn
        return traced

    def to_json(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans}


def _public_functions(module) -> dict[str, object]:
    """Module-level public callables defined in ``module`` itself,
    including lru_cache wrappers."""
    out = {}
    for name, value in vars(module).items():
        if name.startswith("_") or inspect.isclass(value) or not callable(value):
            continue
        target = getattr(value, "__wrapped__", value)
        if inspect.isfunction(target) and target.__module__ == module.__name__:
            out[name] = value
    return out


def install(recorder: Recorder) -> None:
    """Wrap every traced function and rebind each modinv module-level name
    that refers to it, wherever it was imported, because a missed binding
    would drop spans without any sign."""
    import importlib

    # id(original) -> (original, wrapper); holding the original keeps its id
    # from being reused while the package is scanned.
    wrapped: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"modinv.{layer}")
        for name, fn in _public_functions(module).items():
            if name not in SKIPPED.get(layer, ()):
                wrapped[id(fn)] = (fn, recorder.wrap(f"{layer}.{name}", fn))
        for cls_name, method in METHODS.get(layer, ()):
            cls = getattr(module, cls_name)
            setattr(cls, method, recorder.wrap(f"{layer}.{method}", vars(cls)[method]))
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "modinv" or module_name.startswith("modinv.")):
            continue
        for name, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, name, wrapped[id(value)][1])


# ---------------------------------------------------------------- analysis

def _self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.
    Children of one span run one after another, so they never overlap."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _nearest(spans: list[list], index: int, layer: str) -> str | None:
    """Name of the closest ancestor span that belongs to ``layer``."""
    parent = spans[index][3]
    while parent >= 0:
        name = spans[parent][0]
        if name.startswith(layer + "."):
            return name
        parent = spans[parent][3]
    return None


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one traced run, keyed by metric name."""
    own = _self_times(spans)
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    cells: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    flops = max_cells = report_bytes = passes = socle_mult_maps = 0
    slice_self = 0.0
    for index, (name, start, end, _, facts) in enumerate(spans):
        seconds[name] = seconds.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        layer_self[name.split(".", 1)[0]] += own[index]
        if name in ("invariants.invariant_slice", "invariants.transfer_slice"):
            slice_self += own[index]
        if name == "gradedla.mult_map" and _nearest(spans, index, "depthlab") == "depthlab.socle_search":
            socle_mult_maps += 1
        if facts:
            cells[name] = cells.get(name, 0) + facts.get("cells", 0)
            max_cells = max(max_cells, facts.get("cells", 0))
            flops += facts.get("flops", 0)
            report_bytes += facts.get("bytes", 0)
            passes += facts.get("passed", False)

    def s(name):
        return seconds.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    regular_calls = n("depthlab.is_regular_element")
    out = {
        "depthlab.socle_search.s": s("depthlab.socle_search"),
        "depthlab.socle_search.calls": n("depthlab.socle_search"),
        "depthlab.socle_search.mult_map_calls": socle_mult_maps,
        "depthlab.is_regular_element.s": s("depthlab.is_regular_element"),
        "depthlab.is_regular_element.calls": regular_calls,
        "depthlab.regular_pass_ratio": passes / regular_calls if regular_calls else 0.0,
        "depthlab.bounded_depth.s": s("depthlab.bounded_depth"),
        "depthlab.bounded_depth.calls": n("depthlab.bounded_depth"),
        "depthlab.quotient_by.s": s("depthlab.quotient_by"),
        "depthlab.quotient_by.calls": n("depthlab.quotient_by"),
        "depthlab.verify_regular_sequence.s": s("depthlab.verify_regular_sequence"),
        "depthlab.self_s": layer_self["depthlab"],
    }
    for func in MATRIX_FUNCS:
        name = f"gradedla.{func}"
        out[f"{name}.s"] = s(name)
        out[f"{name}.calls"] = n(name)
        out[f"{name}.cells"] = cells.get(name, 0)
    out.update({
        "gradedla.rank.calls": n("gradedla.rank"),
        "gradedla.matmul_mod.flops": flops,
        "gradedla.row_polys.s": s("gradedla.row_polys"),
        "gradedla.row_polys.calls": n("gradedla.row_polys"),
        "gradedla.max_cells": max_cells,
        "gradedla.self_s": layer_self["gradedla"],
        "invariants.slice.s": s("invariants.invariant_slice") + s("invariants.transfer_slice"),
        "invariants.slice.calls": n("invariants.invariant_slice") + n("invariants.transfer_slice"),
        "invariants.slice.self_s": slice_self,
        "invariants.ideal_slice.s": s("invariants.ideal_slice"),
        "invariants.ideal_slice.calls": n("invariants.ideal_slice"),
        "invariants.self_s": layer_self["invariants"],
        "rep.is_invariant.s": s("rep.is_invariant"),
        "rep.is_invariant.calls": n("rep.is_invariant"),
        "rep.self_s": layer_self["rep"],
        "poly.render.calls": n("poly.render"),
        "poly.self_s": layer_self["poly"],
        "report.dumps_report.s": s("report.dumps_report"),
        "report.bytes": report_bytes,
        "cli.self_s": layer_self["cli"],
    })
    return out


def self_time_total(spans: list[list]) -> float:
    """Sum of every layer's self time; equals the root spans' duration."""
    return sum(_self_times(spans))
