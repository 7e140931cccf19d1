"""Span tracer for the benchmark's traced runs, and the per-layer metrics
derived from its spans.

A layer is a module of ``bmoforge``. :func:`install` replaces, by attribute
assignment, every function that one module of the package calls in another
(``rng.philox_stream`` in ``ensemble``, the checkers re-imported into
``experiments``, ``oscillation_modulus`` inside ``oscillation_grid``, ...)
plus the two hot methods ``PathEnsemble.increments`` and
``FiniteFilteredSpace.step_expectation``. Each call then records a span
(name, start, end, parent) in memory; the child writes them out when its run
ends and the driver turns them into self times and counts. Each wrapped call
adds bookkeeping to its caller's span and to its own; the child measures both
costs on a no-op (:func:`span_cost`) and the self times exclude them. The program's own files are not touched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import statistics
import time

# Modules that sit on no workload's hot path: ``cli`` is the child's entry
# point and ``report`` only reads manifests.
UNTRACED_MODULES = ("cli", "report")
IO_SPANS = ("checks.reports_to_jsonl", "checks.write_summary_csv")
METHODS = (("ensemble", "PathEnsemble", "increments"),
           ("space", "FiniteFilteredSpace", "step_expectation"))

# Counts that must repeat exactly across traced runs of one configuration.
EXACT_COUNTERS = (
    "rng.philox_stream.calls",
    "ensemble.increments.calls",
    "ensemble.draws",
    "space.step_expectation.calls",
    "oscillation.oscillation_grid.calls",
    "oscillation.oscillation_modulus.calls",
    "controls.variation_control.calls",
    "checks.reports",
)


class Tracer:
    """Spans and counters of one traced child, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent span index]
        self.counters = {"ensemble.draws": 0, "ensemble.full_range_calls": 0,
                         "ensemble.size": 0, "checks.reports": 0}
        # Seconds each traced call adds [to its caller's span, to its own span].
        self.span_cost_s = [0.0, 0.0]
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _count_draws(self, args, kwargs, result):
        ensemble = args[0]
        start = args[1] if len(args) > 1 else kwargs.get("start", 0)
        stop = args[2] if len(args) > 2 else kwargs.get("stop")
        self.counters["ensemble.draws"] += result.size
        if start == 0 and stop in (None, ensemble.n_paths):
            self.counters["ensemble.full_range_calls"] += 1

    def _count_report(self, report_type):
        def after(args, kwargs, result):
            if isinstance(result, report_type):
                self.counters["checks.reports"] += 1
        return after

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counters": self.counters,
                "span_cost_s": self.span_cost_s}


def span_cost(calls: int = 20000, repeats: int = 7) -> list[float]:
    """Median seconds a traced call adds, beyond the plain call it replaces,
    [to its caller's span, to its own span]."""
    def plain(a, b):
        return None

    probe = Tracer()
    traced = probe.wrap("probe", plain)
    clock, loop = time.perf_counter, range(calls)
    costs = []
    for _ in range(repeats):
        probe.spans.clear()
        start = clock()
        for _ in loop:
            pass
        loop_s = clock() - start
        start = clock()
        for _ in loop:
            plain(1, 2)
        call_s = clock() - start - loop_s
        start = clock()
        for _ in loop:
            traced(1, 2)
        traced_s = clock() - start - loop_s
        inside_s = sum(end - begin for _, begin, end, _ in probe.spans)
        costs.append(((traced_s - inside_s) / calls, (inside_s - call_s) / calls))
    return [statistics.median(c[k] for c in costs) for k in (0, 1)]


def install(tracer: Tracer) -> None:
    """Wrap every cross-module call and the hot methods of ``bmoforge``."""
    import bmoforge

    modules = {info.name: importlib.import_module(f"bmoforge.{info.name}")
               for info in pkgutil.iter_modules(bmoforge.__path__)}
    layer_of = {mod.__name__: name for name, mod in modules.items()
                if name not in UNTRACED_MODULES}
    targets = {}
    for name, mod in modules.items():
        for value in vars(mod).values():
            if (inspect.isfunction(value) and value.__module__ in layer_of
                    and value.__module__ != mod.__name__):
                targets[id(value)] = value
    report_type = modules["checks"].CheckReport
    wrappers = {}
    for key, fn in targets.items():
        layer = layer_of[fn.__module__]
        after = tracer._count_report(report_type) if layer == "checks" else None
        wrappers[key] = tracer.wrap(f"{layer}.{fn.__name__}", fn, after)
    for mod in (bmoforge, *modules.values()):
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])
    for layer, cls_name, method in METHODS:
        cls = getattr(modules[layer], cls_name)
        after = tracer._count_draws if method == "increments" else None
        setattr(cls, method,
                tracer.wrap(f"{layer}.{method}", getattr(cls, method), after))
    ensemble_cls = modules["ensemble"].PathEnsemble
    post_init = ensemble_cls.__post_init__

    def counted_post_init(ensemble):
        post_init(ensemble)
        tracer.counters["ensemble.size"] += (
            ensemble.n_paths * ensemble.n_steps * ensemble.dim)

    ensemble_cls.__post_init__ = counted_post_init
    tracer.span_cost_s = span_cost()


def aggregate(dump: dict) -> dict:
    """Self times, call counts and counters of one traced child.

    Span durations exclude the tracer's cost inside the span, and a span's
    self time excludes its child spans and the tracer's cost around each."""
    names, spans, counters = dump["names"], dump["spans"], dump["counters"]
    outside, inside = dump["span_cost_s"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start + outside
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    direct_modulus = 0
    for k, (index, start, end, parent) in enumerate(spans):
        name = names[index]
        duration = end - start - inside
        self_s[name] = self_s.get(name, 0.0) + duration - covered[k]
        total_s[name] = total_s.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        # Calls made by oscillation_grid are part of a grid build, not direct.
        if (name == "oscillation.oscillation_modulus"
                and (parent < 0 or names[spans[parent][0]] != "oscillation.oscillation_grid")):
            direct_modulus += 1

    def layer_self(layer, exclude=()):
        return sum((v for k, v in self_s.items()
                    if k.startswith(layer + ".") and k not in exclude), 0.0)

    size = counters["ensemble.size"]
    return {
        "rng.philox_stream.calls": calls.get("rng.philox_stream", 0),
        "rng.philox_stream.self_s": self_s.get("rng.philox_stream", 0.0),
        "ensemble.increments.calls": calls.get("ensemble.increments", 0),
        "ensemble.draws": counters["ensemble.draws"],
        "ensemble.increments.self_s": self_s.get("ensemble.increments", 0.0),
        "ensemble.redraw_ratio": counters["ensemble.draws"] / size if size else 0.0,
        "schemes.davie_functional.self_s": self_s.get("schemes.davie_functional", 0.0),
        "schemes.davie_moments.self_s": self_s.get("schemes.davie_moments", 0.0),
        "schemes.strong_error.self_s": self_s.get("schemes.strong_error", 0.0),
        "sde.ellipticity_check.self_s": self_s.get("sde.ellipticity_check", 0.0),
        "estimators.self_s": layer_self("estimators"),
        "processes.self_s": layer_self("processes"),
        "space.step_expectation.calls": calls.get("space.step_expectation", 0),
        "space.step_expectation.self_s": self_s.get("space.step_expectation", 0.0),
        "oscillation.oscillation_grid.calls": calls.get("oscillation.oscillation_grid", 0),
        "oscillation.oscillation_modulus.calls": direct_modulus,
        "oscillation.self_s": layer_self("oscillation"),
        "stopping.self_s": layer_self("stopping"),
        "controls.variation_control.calls": calls.get("controls.variation_control", 0),
        "controls.self_s": layer_self("controls"),
        "checks.reports": counters["checks.reports"],
        "checks.self_s": layer_self("checks", exclude=IO_SPANS),
        "bounds.self_s": layer_self("bounds"),
        "checks.io_s": sum(total_s.get(name, 0.0) for name in IO_SPANS),
        "experiments.self_s": layer_self("experiments"),
        "config.parse_s": total_s.get("config.parse_config_file", 0.0),
        "ensemble.full_range_calls": counters["ensemble.full_range_calls"],
    }


def per_layer_metrics(units: dict, traced: list[dict], traced_run_s: list[float],
                      untraced_run_s: list[float]) -> dict:
    """Every per-layer metric in ``units`` (name -> unit): times are medians
    over the traced children, counts are those of the first."""
    out = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            value = statistics.median(traced_run_s) - statistics.median(untraced_run_s)
        elif unit == "s":
            value = statistics.median(agg[name] for agg in traced)
        else:
            value = traced[0][name]
        out[name] = {"value": value, "unit": unit}
    return out
