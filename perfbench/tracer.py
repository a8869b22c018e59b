"""Outside-in tracing of epsdelta: spans around every public function.

The package is not edited.  `Tracer.install` wraps the public functions
of each layer module and rebinds every name that refers to them, in the
package and in every layer module, so calls that go through a
by-name import (``delta.evaluate_many``, ``cli.json_text``) are seen too.
Spans stay in memory; `Tracer.write` saves them when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time

# called once per float by the JSON/CSV emitters; a span each would
# drown the emitters' own time, so their time stays in the caller's
UNWRAPPED = {"serialize.format_float"}

KERNELS = ("min_dist_pair", "max_gap_within", "find_violation")
BISECTIONS = ("bisect_boundary", "classical_ivt", "fixed_point")


def _size(a) -> int:
    return int(getattr(a, "size", len(a)))


def _info(name: str, args, out):
    """What a span records besides its times: points, bytes or steps."""
    layer, func = name.split(".", 1)
    if layer == "kernels" and args:
        return _size(args[0])
    if func == "evaluate_many":
        return _size(args[1])
    if layer == "serialize":
        return len(out)
    if func in BISECTIONS:
        trace = out.trace if func == "fixed_point" else out
        return len(trace.steps) if trace is not None else 0
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, info]
        self.kernel_calls: dict[str, list] = {k: [] for k in KERNELS}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, calls = self.spans, self._stack, self.kernel_calls
        kernel = name[len("kernels."):] if name.startswith("kernels.") else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            span[4] = _info(name, args, out)
            if kernel in calls:
                calls[kernel].append((args, kwargs, out))
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one query."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0,
                           self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter_ns()

    def install(self) -> None:
        import epsdelta
        from epsdelta import _kernels, cli, delta, extremum, functions, intermediate, serialize

        modules = [_kernels, functions, delta, extremum, intermediate, serialize, cli]
        wrapped: dict[int, object] = {}
        for mod in modules:
            # metric names cannot start with "_": _kernels reports as kernels
            prefix = mod.__name__.rsplit(".", 1)[1].lstrip("_")
            for attr, value in vars(mod).items():
                name = f"{prefix}.{attr}"
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrapped[id(value)] = self._wrap(name, value)
        for mod in [epsdelta, *modules]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)])
        cls = functions.FiniteMetricSpace
        self._undo.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._wrap("functions.FiniteMetricSpace", cls.__init__)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "info"],
                       "spans": self.spans}, fh)


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _outermost(spans, i: int, layer: str) -> int:
    """Index of the outermost span of `layer` enclosing span i, or -1."""
    found = -1
    p = spans[i][3]
    while p >= 0:
        if spans[p][0].startswith(layer + "."):
            found = p
        p = spans[p][3]
    return found


def layer_metrics(tracer: Tracer, import_ms: float, numpy_import_ms: float):
    """The per-layer metrics of one traced pass, and the self time of each layer."""
    spans = tracer.spans
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    info: dict[str, int] = {}
    layer_ms: dict[str, float] = {}
    for s, t in zip(spans, own):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + t / 1e6
        info[name] = info.get(name, 0) + (s[4] or 0)
        layer = name.split(".", 1)[0]
        layer_ms[layer] = layer_ms.get(layer, 0.0) + t / 1e6

    m: dict[str, float] = {}
    for k in KERNELS:
        name = f"kernels.{k}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.points"] = info.get(name, 0)
        m[f"{name}.self_ms"] = self_ms.get(name, 0.0)
    m["kernels.chainsaw_values.points"] = info.get("kernels.chainsaw_values", 0)
    m["kernels.chainsaw_values.self_ms"] = self_ms.get("kernels.chainsaw_values", 0.0)
    mdp = tracer.kernel_calls["min_dist_pair"]
    hits = sum(1 for _, _, out in mdp if out[1] >= 0)
    m["kernels.min_dist_pair.hit_ratio"] = hits / len(mdp) if mdp else 0.0

    for func in ("parse_function", "evaluate", "FiniteMetricSpace"):
        name = f"functions.{func}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_ms"] = self_ms.get(name, 0.0)
    m["functions.evaluate_many.calls"] = calls.get("functions.evaluate_many", 0)
    m["functions.evaluate_many.points"] = info.get("functions.evaluate_many", 0)
    m["functions.evaluate_many.self_ms"] = self_ms.get("functions.evaluate_many", 0.0)

    for func in ("optimal_delta_grid", "build_profile", "verify_largest_delta",
                 "modulus_of_continuity", "optimal_delta_finite"):
        name = f"delta.{func}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_ms"] = self_ms.get(name, 0.0)
    tops = [i for i, s in enumerate(spans)
            if s[0].startswith("delta.") and _outermost(spans, i, "delta") < 0]
    points = sum(s[4] for i, s in enumerate(spans)
                 if s[0] == "functions.evaluate_many" and _outermost(spans, i, "delta") >= 0)
    m["delta.points_per_query"] = points / len(tops) if tops else 0.0

    for func in ("refine_extrema", "certified_max_bound", "envelope", "first_maximizer"):
        name = f"extremum.{func}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_ms"] = self_ms.get(name, 0.0)

    steps = sum(info.get(f"intermediate.{f}", 0) for f in BISECTIONS)
    evals = sum(1 for i, s in enumerate(spans)
                if s[0] == "functions.evaluate" and _outermost(spans, i, "intermediate") >= 0)
    m["intermediate.steps"] = steps
    m["intermediate.self_ms"] = layer_ms.get("intermediate", 0.0)
    m["intermediate.evaluations_per_step"] = evals / steps if steps else 0.0

    for func in ("json_text", "csv_text"):
        name = f"serialize.{func}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.bytes"] = info.get(name, 0)
        m[f"{name}.self_ms"] = self_ms.get(name, 0.0)

    m["cli.run.self_ms"] = self_ms.get("cli.run", 0.0)
    m["cli.import_ms"] = import_ms
    m["cli.numpy_import_ms"] = numpy_import_ms
    return m, layer_ms
