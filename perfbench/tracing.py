"""Layer spans from outside the program: wrap public functions, record spans.

The tracer replaces each traced function at its defining module and at every
module binding that refers to the same object (``paritydie.cli.batch``,
``paritydie.enumeration.transitions``, the package's re-exports), so calls
made through any of those names are seen.  No source file is edited.

Two kinds of wrapper:

- a *span* records (id, parent, request id, name, start, end) in memory;
- a *leaf* is for functions called so often that one span per call would
  swamp memory (``transitions`` runs about 10**5 times in one enumeration).
  It keeps a call count and, when timed, a total time that is also charged
  to the enclosing span, so self times stay right.

A span's self time is its duration minus the part of it that its child
spans and timed leaf calls cover.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

SPANS = {
    "cli": ("run", "parse_sequence"),
    "enumeration": ("path_distribution", "config_distribution", "imbalance_distribution"),
    "chain": ("build_chain", "classify", "is_ergodic", "absorption", "chain_report"),
    "montecarlo": ("batch", "simulate_path", "absorption_frequencies"),
    "stats": ("fairness_report", "exact_binomial_tail", "normal_quantile", "sequential_report", "scenario"),
}
# (module, function) -> whether the leaf is timed
LEAVES = {
    ("core", "transitions"): True,
    ("core", "roll_events"): False,
    ("montecarlo", "derive_seed"): False,
    ("serialize", "fraction_fields"): True,
    ("serialize", "fraction_pair"): True,
}

# Batches at or below this many tosses are seeding-bound; at or above
# LONG_TOSSES they are stepping-bound.
SHORT_TOSSES = 12
LONG_TOSSES = 1000

ID, PARENT, REQUEST, NAME, START, END, LEAF_TIME = range(7)

_TIMED_SPANS = (
    "enumeration.path_distribution",
    "enumeration.imbalance_distribution",
    "enumeration.config_distribution",
    "chain.build_chain",
    "chain.classify",
    "chain.absorption",
    "montecarlo.batch",
    "montecarlo.simulate_path",
    "montecarlo.absorption_frequencies",
    "stats.exact_binomial_tail",
    "stats.normal_quantile",
    "stats.sequential_report",
    "cli.parse_sequence",
)
# Every per-layer metric with its unit; ``tracing_overhead_s`` is measured
# by the worker, which compares the traced pass with untraced ones.
LAYER_UNITS = {
    "core.transitions.calls": "count",
    "core.transitions.ms": "ms",
    "core.roll_events.calls": "count",
    "enumeration.path_distribution.entries": "count",
    "montecarlo.runs": "count",
    "montecarlo.draws": "count",
    "montecarlo.us_per_run": "us",
    "montecarlo.ns_per_draw": "ns",
    "stats.sequential_report.records": "count",
    "chain.chain_report.self_ms": "ms",
    "stats.fairness_report.self_ms": "ms",
    "cli.self_ms": "ms",
    "serialize.fraction_fields.calls": "count",
    **{name + ".ms": "ms" for name in _TIMED_SPANS},
    "tracing_overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.request = None
        self.calls: dict[str, int] = {}
        self.leaf_seconds: dict[str, float] = {}
        self.counts = {
            "enumeration.path_distribution.entries": 0,
            "stats.sequential_report.records": 0,
            "montecarlo.draws": 0,
            "short_runs": 0,
            "short_seconds": 0.0,
            "long_draws": 0,
            "long_seconds": 0.0,
        }
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, observe = self.spans, self.stack, self._observe
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][ID] if stack else None, self.request, name, 0.0, 0.0, 0.0]
            spans.append(span)
            stack.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            observe(name, signature, args, kwargs, result, span[END] - span[START])
            return result

        return traced

    def _leaf_wrapper(self, name: str, fn, timed: bool):
        calls, seconds, stack = self.calls, self.leaf_seconds, self.stack
        calls[name] = 0
        if not timed:

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted
        seconds[name] = 0.0

        def timed_leaf(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                calls[name] += 1
                seconds[name] += elapsed
                if stack:
                    stack[-1][LEAF_TIME] += elapsed

        return timed_leaf

    def _observe(self, name, signature, args, kwargs, result, elapsed) -> None:
        counts = self.counts
        if name == "enumeration.path_distribution":
            counts["enumeration.path_distribution.entries"] += len(result.entries)
        elif name == "stats.sequential_report":
            counts["stats.sequential_report.records"] += len(result.records)
        elif name.startswith("montecarlo."):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            call = bound.arguments
            if name == "montecarlo.absorption_frequencies":
                # unabsorbed runs stop after max_steps draws
                counts["montecarlo.draws"] += result.total_steps + result.unabsorbed * call["max_steps"]
                return
            runs = call.get("runs", 1)
            draws = call["tosses"] * runs
            counts["montecarlo.draws"] += draws
            if name == "montecarlo.batch":
                if call["tosses"] <= SHORT_TOSSES:
                    counts["short_runs"] += runs
                    counts["short_seconds"] += elapsed
                elif call["tosses"] >= LONG_TOSSES:
                    counts["long_draws"] += draws
                    counts["long_seconds"] += elapsed

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function under every name that binds it."""
        modules = [m for n, m in sys.modules.items() if n == "paritydie" or n.startswith("paritydie.")]
        originals = {}
        for module_name, names in SPANS.items():
            module = sys.modules["paritydie." + module_name]
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = (fn, self._span_wrapper(f"{module_name}.{name}", fn))
        for (module_name, name), timed in LEAVES.items():
            fn = getattr(sys.modules["paritydie." + module_name], name)
            originals[id(fn)] = (fn, self._leaf_wrapper(f"{module_name}.{name}", fn, timed))
        for module in modules:
            for attribute, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attribute, value))
                    setattr(module, attribute, entry[1])

    def uninstall(self) -> None:
        for module, attribute, value in reversed(self._patched):
            setattr(module, attribute, value)
        self._patched.clear()

    def begin_request(self, request_id: int) -> None:
        self.request = request_id

    def write(self, path) -> None:
        """Write the spans as JSON lines, then the counters as one last line."""
        fields = ("id", "parent", "request", "name", "start", "end", "leaf_s")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(fields, span))) + "\n")
            out.write(json.dumps({"calls": self.calls, "leaf_seconds": self.leaf_seconds, "counts": self.counts}) + "\n")


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus what child spans and timed leaf calls cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return [
        span[END] - span[START] - covered(span[START], span[END], children.get(span[ID], [])) - span[LEAF_TIME]
        for span in spans
    ]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (times in ms)."""
    spans = tracer.spans
    selfs = self_times(spans)
    total_ms: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        total_ms[span[NAME]] = total_ms.get(span[NAME], 0.0) + (span[END] - span[START]) * 1e3
        self_ms[span[NAME]] = self_ms.get(span[NAME], 0.0) + own * 1e3
    counts = tracer.counts
    metrics = {
        "core.transitions.calls": tracer.calls["core.transitions"],
        "core.transitions.ms": tracer.leaf_seconds["core.transitions"] * 1e3,
        "core.roll_events.calls": tracer.calls["core.roll_events"],
        "enumeration.path_distribution.entries": counts["enumeration.path_distribution.entries"],
        "montecarlo.runs": tracer.calls["montecarlo.derive_seed"],
        "montecarlo.draws": counts["montecarlo.draws"],
        "montecarlo.us_per_run": (
            counts["short_seconds"] * 1e6 / counts["short_runs"] if counts["short_runs"] else 0.0
        ),
        "montecarlo.ns_per_draw": (
            counts["long_seconds"] * 1e9 / counts["long_draws"] if counts["long_draws"] else 0.0
        ),
        "stats.sequential_report.records": counts["stats.sequential_report.records"],
        "chain.chain_report.self_ms": self_ms.get("chain.chain_report", 0.0),
        "stats.fairness_report.self_ms": self_ms.get("stats.fairness_report", 0.0),
        "cli.self_ms": self_ms.get("cli.run", 0.0),
        "serialize.fraction_fields.calls": tracer.calls["serialize.fraction_fields"],
    }
    for name in _TIMED_SPANS:
        metrics[name + ".ms"] = total_ms.get(name, 0.0)
    return metrics
