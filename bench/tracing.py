"""Span tracing of entroset's public functions, from outside the package.

`Tracer.install()` replaces every public function of every `entroset`
module with a timing wrapper, at every module namespace that binds it
(`cli`, `checkers` and `jsonio` bind names with `from .x import y`, so
wrapping only the defining module would miss their calls). `uninstall()`
puts the originals back. Spans stay in memory; `write()` dumps them.

A span's layer is the module that defines the function. Its self time is
its duration minus the time of its child spans. `report` and `errors` are
not wrapped: they are folded into their callers. Per-element coercions
are not wrapped either, because a span per point would cost more than the
work it measures; their time is their caller's self time.

Generator functions (`ruzsa_enumerate`) get one span whose busy time is
the time spent inside its `next()` calls and whose count is the number of
items it yielded.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import types
from time import perf_counter

LAYERS = ("cli", "jsonio", "dist", "ruzsa", "projections", "covers", "checkers")

# called once per point, probability or coordinate list
UNWRAPPED = {
    "dist.as_element", "dist.as_fraction", "dist.check_base",
    "jsonio.parse_rational", "jsonio.format_rational",
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "busy", "child", "parent",
                 "op_id", "entry", "count", "info")

    def __init__(self, name, layer, parent, op_id):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op_id = op_id
        # the first function of this same-layer call chain: time spent in a
        # layer's helpers is charged to the public function that entered it
        self.entry = parent.entry if parent is not None and parent.layer == layer else name
        self.child = 0.0
        self.busy = 0.0
        self.count = 0
        self.info = None
        self.start = self.end = 0.0

    @property
    def self_time(self) -> float:
        return self.busy - self.child

    @property
    def is_entry(self) -> bool:
        return self.parent is None or self.parent.layer != self.layer


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op_id = None
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _open(self, name, layer) -> Span:
        span = Span(name, layer, self.stack[-1] if self.stack else None, self.op_id)
        self.spans.append(span)
        return span

    def wrap(self, fn, name: str, layer: str, after=None):
        """Wrap `fn` so each call records a span, then calls `after(self, span, args, result)`."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name, layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            self.stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self.stack.pop()
                span.busy = span.end - span.start
                if span.parent is not None:
                    span.parent.child += span.busy
            if after is not None:
                after(self, span, args, result)
            return result

        return traced

    def _wrap_generator(self, fn, name, layer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            span.start = perf_counter()
            inner = fn(*args, **kwargs)

            def items():
                while True:
                    self.stack.append(span)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        self.stack.pop()
                        span.busy += t1 - t0
                        span.end = t1
                        if span.parent is not None:
                            span.parent.child += t1 - t0
                    span.count += 1
                    yield item

            return items()

        return traced

    def install(self) -> None:
        """Wrap every public entroset function at each module that binds it."""
        wrappers: dict[object, object] = {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "entroset" or n.startswith("entroset.")]
        for module in modules:
            for attr, value in sorted(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                defining = value.__module__ or ""
                layer = defining.rpartition(".")[2]
                if (not defining.startswith("entroset.") or layer not in LAYERS
                        or value.__name__.startswith("_")
                        or f"{layer}.{value.__name__}" in UNWRAPPED):
                    continue
                if value not in wrappers:
                    wrappers[value] = self.wrap(
                        value, f"{layer}.{value.__name__}", layer,
                        after=_AFTER.get(f"{layer}.{value.__name__}"),
                    )
                setattr(module, attr, wrappers[value])
                self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "busy": s.busy, "self": s.self_time,
                    "parent": index.get(id(s.parent)), "op": s.op_id,
                }) + "\n")


# -- hooks that record counts at the layer boundary ----------------------


def _after_build_parser(tracer, span, args, parser):
    # parse time is build_parser plus parse_args; both are cli parse spans
    parser.parse_args = tracer.wrap(parser.parse_args, "cli.parse_args", "cli")


def _after_load_json(tracer, span, args, doc):
    span.info = os.path.getsize(args[0])


def _after_dump_json(tracer, span, args, text):
    span.info = len(text.encode("utf-8"))


def _after_min_cover(tracer, span, args, solution):
    n, members = args[0], args[1]
    span.info = n * (len(members) + 2 * n)


def _after_checker(tracer, span, args, report):
    span.info = (report.provenance, report.verdict)


def _after_projection(tracer, span, args, result):
    span.info = len(args[0])


_AFTER = {
    "cli.build_parser": _after_build_parser,
    "jsonio.load_json": _after_load_json,
    "jsonio.dump_json": _after_dump_json,
    "covers.min_fractional_cover": _after_min_cover,
    **{f"checkers.{name}": _after_checker for name in (
        "check_cardinality", "check_entropy", "check_shearer",
        "check_projection_theorem", "empirical_lemma1")},
    **{f"projections.{name}": _after_projection for name in (
        "project_set", "project_rv", "conditional_slice", "slice_weights",
        "log_conditional_avg_size", "conditional_avg_size", "conditional_entropy")},
}


# -- per-layer metrics ----------------------------------------------------

# (name, unit, better); every traced run reports all of them, 0 where the
# workload never enters the layer
PER_LAYER = [
    ("cli.calls", "count", "lower"),
    ("cli.parse_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("jsonio.load_ms", "ms", "lower"),
    ("jsonio.decode_ms", "ms", "lower"),
    ("jsonio.dump_ms", "ms", "lower"),
    ("jsonio.bytes_in", "bytes", "lower"),
    ("jsonio.bytes_out", "bytes", "lower"),
    ("jsonio.self_ms", "ms", "lower"),
    ("projections.calls", "count", "lower"),
    ("projections.points_in", "count", "lower"),
    ("projections.project_set_ms", "ms", "lower"),
    ("projections.cond_size_ms", "ms", "lower"),
    ("projections.cond_size_ms.s250", "ms", "lower"),
    ("projections.cond_size_ms.s500", "ms", "lower"),
    ("projections.cond_size_ms.s1000", "ms", "lower"),
    ("projections.project_rv_ms", "ms", "lower"),
    ("projections.cond_entropy_ms", "ms", "lower"),
    ("projections.self_ms", "ms", "lower"),
    ("covers.lp_calls", "count", "lower"),
    ("covers.lp_cells", "count", "lower"),
    ("covers.lp_ms", "ms", "lower"),
    ("covers.lp_ms.n6", "ms", "lower"),
    ("covers.lp_ms.n9", "ms", "lower"),
    ("covers.lp_ms.n12", "ms", "lower"),
    ("covers.check_ms", "ms", "lower"),
    ("covers.self_ms", "ms", "lower"),
    ("ruzsa.size_ms", "ms", "lower"),
    ("ruzsa.bound_ms", "ms", "lower"),
    ("ruzsa.converge_ms", "ms", "lower"),
    ("ruzsa.commute_ms", "ms", "lower"),
    ("ruzsa.commute_ms.s1e3", "ms", "lower"),
    ("ruzsa.commute_ms.s1e4", "ms", "lower"),
    ("ruzsa.commute_ms.s5e4", "ms", "lower"),
    ("ruzsa.enumerate_ms", "ms", "lower"),
    ("ruzsa.vectors_enumerated", "count", "lower"),
    ("ruzsa.self_ms", "ms", "lower"),
    ("dist.calls", "count", "lower"),
    ("dist.entropy_ms", "ms", "lower"),
    ("dist.pushforward_ms", "ms", "lower"),
    ("dist.rationalize_ms", "ms", "lower"),
    ("dist.rationalize_ms.d8", "ms", "lower"),
    ("dist.rationalize_ms.d10", "ms", "lower"),
    ("dist.rationalize_ms.d12", "ms", "lower"),
    ("dist.self_ms", "ms", "lower"),
    ("checkers.calls", "count", "lower"),
    ("checkers.self_ms", "ms", "lower"),
    ("checkers.exact_decisions", "count", "higher"),
    ("checkers.inconclusive", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# a layer's self time in calls that entered it at these functions
_ENTRY_MS = {
    "jsonio.load_json": "jsonio.load_ms",
    "jsonio.dump_json": "jsonio.dump_ms",
    "projections.project_set": "projections.project_set_ms",
    "projections.project_rv": "projections.project_rv_ms",
    "projections.conditional_entropy": "projections.cond_entropy_ms",
    "covers.min_fractional_cover": "covers.lp_ms",
    "ruzsa.ruzsa_size": "ruzsa.size_ms",
    "ruzsa.type_bound_check": "ruzsa.bound_ms",
    "ruzsa.convergence_profile": "ruzsa.converge_ms",
    "ruzsa.verify_commutation": "ruzsa.commute_ms",
    "ruzsa.ruzsa_enumerate": "ruzsa.enumerate_ms",
    "dist.entropy": "dist.entropy_ms",
    "dist.pushforward": "dist.pushforward_ms",
    "dist.rationalize": "dist.rationalize_ms",
    **{f"projections.{name}": "projections.cond_size_ms" for name in (
        "conditional_avg_size", "log_conditional_avg_size", "slice_weights",
        "conditional_slice")},
    **{f"covers.{name}": "covers.check_ms" for name in (
        "is_fractional_cover", "is_uniform_k_cover", "uniform_cover_as_fractional")},
}

# metrics also broken down by the size class of the op that made the call
_BY_CLASS = {"projections.cond_size_ms", "covers.lp_ms", "ruzsa.commute_ms",
             "dist.rationalize_ms"}


def _entry_metric(entry: str) -> str | None:
    if entry in _ENTRY_MS:
        return _ENTRY_MS[entry]
    if entry.startswith("jsonio.") and entry.endswith("_from_json"):
        return "jsonio.decode_ms"
    if entry.startswith("jsonio.") and entry.endswith("_to_json"):
        return "jsonio.dump_ms"
    return None


def layer_metrics(spans, size_class: dict, passes: int) -> dict[str, float]:
    """Per-layer totals over `spans`, divided by the number of schedule passes."""
    out = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
    known = set(out)
    for s in spans:
        ms = s.self_time * 1e3
        out[f"{s.layer}.self_ms"] += ms
        if s.is_entry and f"{s.layer}.calls" in known:
            out[f"{s.layer}.calls"] += 1
        if s.name in ("cli.build_parser", "cli.parse_args"):
            out["cli.parse_ms"] += ms
        metric = _entry_metric(s.entry)
        if metric is not None:
            out[metric] += ms
            split = f"{metric}.{size_class.get(s.op_id)}"
            if metric in _BY_CLASS and split in known:
                out[split] += ms
        if s.name == "jsonio.load_json" and s.info is not None:
            out["jsonio.bytes_in"] += s.info
        elif s.name == "jsonio.dump_json" and s.info is not None:
            out["jsonio.bytes_out"] += s.info
        elif s.name == "covers.min_fractional_cover" and s.info is not None:
            out["covers.lp_calls"] += 1
            out["covers.lp_cells"] += s.info
        elif s.name == "ruzsa.ruzsa_enumerate":
            out["ruzsa.vectors_enumerated"] += s.count
        elif s.layer == "projections" and s.is_entry and s.info is not None:
            out["projections.points_in"] += s.info
        elif s.layer == "checkers" and s.is_entry and s.info is not None:
            provenance, verdict = s.info
            if verdict == "inconclusive":
                out["checkers.inconclusive"] += 1
            elif provenance == "exact":
                out["checkers.exact_decisions"] += 1
    return {name: value / passes for name, value in out.items()}


def layer_self_ms(metrics: dict) -> dict[str, float]:
    return {layer: metrics[f"{layer}.self_ms"] for layer in LAYERS}
