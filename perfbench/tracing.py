"""Spans around calls into cantorlike's modules, and the per-layer metrics.

The tracer wraps the public functions of each module from outside: it
replaces the name in every module namespace that holds it (so calls between
modules and inside a module go through the wrapper) and the methods of
``IntervalSet``. Spans are kept in memory; nothing is written until the run
ends. A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator

# (module, function) pairs timed as spans; the span name is "module.function".
FUNCTIONS = (
    ("families", "iterate"),
    ("families", "removed_by_generation"),
    ("families", "level_stats"),
    ("families", "ifs_step"),
    ("analysis", "member_at_depth"),
    ("analysis", "member_limit"),
    ("analysis", "base_expansion"),
    ("analysis", "dimension_estimates"),
    ("analysis", "cantor_function"),
    ("counterexample", "tail_table"),
    ("counterexample", "tail_table_csv"),
    ("render", "render_svg"),
)
INTERVALSET_METHODS = ("total_length", "contains_point", "covers", "affine_image", "to_json")
ROOT_SPAN = "cli"  # the span around one cantorlike.cli.main(argv) call

SELF_TIME_SPANS = tuple(f"{m}.{f}" for m, f in FUNCTIONS) + tuple(
    f"exact.{m}" for m in INTERVALSET_METHODS)

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer.
LAYER_METRICS = {
    "families.iterate.self_s": ("s", "lower"),
    "families.iterate.calls": ("count", "lower"),
    "families.intervals_built": ("count", "lower"),
    "families.removed_by_generation.self_s": ("s", "lower"),
    "families.gaps_built": ("count", "lower"),
    "families.level_stats.self_s": ("s", "lower"),
    "families.ifs_step.self_s": ("s", "lower"),
    "families.denom_bits_max": ("bits", "lower"),
    "exact.total_length.self_s": ("s", "lower"),
    "exact.contains_point.self_s": ("s", "lower"),
    "exact.covers.self_s": ("s", "lower"),
    "exact.affine_image.self_s": ("s", "lower"),
    "exact.to_json.self_s": ("s", "lower"),
    "analysis.member_at_depth.self_s": ("s", "lower"),
    "analysis.member_limit.self_s": ("s", "lower"),
    "analysis.base_expansion.self_s": ("s", "lower"),
    "analysis.dimension_estimates.self_s": ("s", "lower"),
    "analysis.cantor_function.self_s": ("s", "lower"),
    "counterexample.tail_table.self_s": ("s", "lower"),
    "counterexample.tail_table_csv.self_s": ("s", "lower"),
    "counterexample.gaps_used_ratio": ("ratio", "higher"),
    "render.render_svg.self_s": ("s", "lower"),
    "render.iterate_calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def raise_to(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def under(self, idx: int, name: str) -> bool:
        """Whether span ``idx`` has an ancestor called ``name``."""
        idx = self.spans[idx].parent
        while idx >= 0:
            if self.spans[idx].name == name:
                return True
            idx = self.spans[idx].parent
        return False

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` recorded as a span; ``after(tracer, idx, args, result)`` runs
        once the span has ended, to count what the call built."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if after is not None:
                after(self, idx, args, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Per span, its duration minus the union of its children's intervals
    clipped to it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


# --- counters taken from results, outside the spans ------------------------------

def _after_iterate(t: Tracer, idx: int, args: tuple, stage) -> None:
    t.add("families.intervals_built", len(stage))
    bits = 0
    for iv in stage:
        bits = max(bits, iv.a.denominator.bit_length(), iv.b.denominator.bit_length())
    t.raise_to("families.denom_bits_max", bits)
    if t.under(idx, "render.render_svg"):
        t.add("render.iterate_under_render", 1)


def _after_removed(t: Tracer, idx: int, args: tuple, by_gen) -> None:
    gaps = sum(len(g) for g in by_gen)
    t.add("families.gaps_built", gaps)
    bits = max((max(g.a.denominator.bit_length(), g.b.denominator.bit_length())
                for gen in by_gen for g in gen), default=0)
    t.raise_to("families.denom_bits_max", bits)
    if t.under(idx, "counterexample.tail_table"):
        t.add("counterexample.gaps_under_tail_table", gaps)


def _after_tail_table(t: Tracer, idx: int, args: tuple, rows) -> None:
    t.add("counterexample.n_max", len(rows) - 1)


AFTER = {
    "families.iterate": _after_iterate,
    "families.removed_by_generation": _after_removed,
    "counterexample.tail_table": _after_tail_table,
}


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Route the traced functions of cantorlike through ``tracer`` for the duration."""
    from cantorlike import cli
    from cantorlike.exact import IntervalSet

    modules = [m for name, m in sys.modules.items()
               if name == "cantorlike" or name.startswith("cantorlike.")]
    undo: list[tuple[object, str, object]] = []
    try:
        for mod_name, fn_name in FUNCTIONS:
            original = getattr(sys.modules[f"cantorlike.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            traced = tracer.wrap(name, original, AFTER.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, value))
                        setattr(module, attr, traced)
        for method in INTERVALSET_METHODS:
            original = IntervalSet.__dict__[method]
            undo.append((IntervalSet, method, original))
            if isinstance(original, property):
                setattr(IntervalSet, method, property(tracer.wrap(f"exact.{method}", original.fget)))
            else:
                setattr(IntervalSet, method, tracer.wrap(f"exact.{method}", original))
        undo.append((cli, "main", cli.main))
        cli.main = tracer.wrap(ROOT_SPAN, cli.main)
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def layer_metrics(tracer: Tracer, bytes_out: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass, except trace.overhead_ratio.
    Layers that did not run read 0."""
    selfs = self_times(tracer.spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, st in zip(tracer.spans, selfs):
        by_name[span.name] = by_name.get(span.name, 0.0) + st
        calls[span.name] = calls.get(span.name, 0) + 1
    c = tracer.counts
    out = {name: 0.0 for name in LAYER_METRICS}
    for name in SELF_TIME_SPANS:
        out[f"{name}.self_s"] = by_name.get(name, 0.0)
    out["cli.self_s"] = by_name.get(ROOT_SPAN, 0.0)
    out["cli.bytes_out"] = bytes_out
    out["families.iterate.calls"] = calls.get("families.iterate", 0)
    out["families.intervals_built"] = c.get("families.intervals_built", 0)
    out["families.gaps_built"] = c.get("families.gaps_built", 0)
    out["families.denom_bits_max"] = c.get("families.denom_bits_max", 0)
    if c.get("counterexample.gaps_under_tail_table"):
        out["counterexample.gaps_used_ratio"] = c["counterexample.n_max"] / c["counterexample.gaps_under_tail_table"]
    if calls.get("render.render_svg"):
        out["render.iterate_calls"] = c.get("render.iterate_under_render", 0) / calls["render.render_svg"]
    del out["trace.overhead_ratio"]
    return out
