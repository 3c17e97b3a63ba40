"""Per-layer tracing of planecover, applied from outside the program.

``Tracer.installed()`` replaces every public function of the nine layer
modules, and every public method of a class they define, by a wrapper that
records a span: name, start, end, parent span and op id.  A function is
replaced in every module namespace that binds it (``classify`` binds
``normalize`` and ``pull_back``, ``census`` binds ``resolve`` and
``check_prod_relations``), so a call is caught whichever name it goes
through.  Leaving the context restores the originals, so untraced passes
run the program as shipped.

Spans live in flat in-memory arrays and are summarized after their pass;
those of the first traced pass are kept and written as JSON lines at the
end of the run.  A layer's self time is the time its spans cover minus
the time covered by their child spans; names are ``layer.function`` or
``layer.Class.method``, and the layer is the first part.  Dunder methods,
properties and class/static methods are not wrapped, so their time is
charged to the caller; so is the iteration of a generator, whose span ends
when the function returns it.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("group", "lattice", "cover", "normalize", "invariants", "classify", "census", "config", "cli")


#: Counters that need a call's result or its first argument, by span name.
_HOOKS = {
    "cover.check_prod_relations": lambda t, arg, res: t.add("cover.prod_pairs_checked", res.pairs_checked),
    "normalize.normalize": lambda t, arg, res: t.add("normalize.changed", res != arg),
    "normalize.resolve": lambda t, arg, res: t.add("normalize.resolve_rounds", res.rounds),
    "lattice.canonical": lambda t, arg, res: t.ranks.add(res.surface.rank),
    "lattice.embed": lambda t, arg, res: t.ranks.add(res.surface.rank),
    "classify.classify": lambda t, arg, res: t.classified.add(hash(arg)),
    "config.parse": lambda t, arg, res: t.add("config.parse_bytes", len(arg.encode("utf-8"))),
    "cli.main": lambda t, arg, res: t.add("cli.nonzero_exits", res != 0),
}


class Tracer:
    """Spans of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self.counts: Counter = Counter()
        self.ranks: set[int] = set()
        self.classified: set[int] = set()
        self._stack: list[int] = []

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] += amount

    def _wrap(self, name: str, func):
        name_id = len(self.names)
        self.names.append(name)
        name_of, parent, op, start, end = self.name_of, self.parent, self.op, self.start, self.end
        stack = self._stack
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args[0] if args else next(iter(kwargs.values()), None), result)
            return result

        return traced

    @contextmanager
    def installed(self):
        modules = [importlib.import_module(f"planecover.{layer}") for layer in LAYERS]
        namespaces = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "planecover"]
        undo = []
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            setattr(obj, attr, self._wrap(f"{layer}.{name}.{attr}", member))
                            undo.append((obj, attr, member))
        for namespace in namespaces:
            for name, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(namespace, name, wrappers[obj])
                    undo.append((namespace, name, obj))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def summary(self) -> "PassSummary":
        """Calls and self seconds per span name, calls per (parent, child) name, and counters."""
        names, name_of, parent, start, end = self.names, self.name_of, self.parent, self.start, self.end
        self_s = [e - s for s, e in zip(start, end)]
        calls: Counter = Counter()
        nested: Counter = Counter()
        for i, p in enumerate(parent):
            calls[names[name_of[i]]] += 1
            if p >= 0:
                self_s[p] -= end[i] - start[i]
                nested[names[name_of[p]], names[name_of[i]]] += 1
        seconds: Counter = Counter()
        for i, s in enumerate(self_s):
            seconds[names[name_of[i]]] += s
        return PassSummary(calls, seconds, nested, self.counts, max(self.ranks, default=0), len(self.classified))

    def write_jsonl(self, handle) -> int:
        """Write the spans, one JSON array per line after a header line; returns their number."""
        names, name_of, parent, op, start, end = (
            self.names, self.name_of, self.parent, self.op, self.start, self.end
        )
        handle.write('{"fields": ["id", "parent", "op", "name", "start", "end"]}\n')
        for i in range(len(start)):
            p = parent[i]
            handle.write(
                f'[{i}, {"null" if p < 0 else p}, {op[i]}, "{names[name_of[i]]}", '
                f"{start[i]!r}, {end[i]!r}]\n"
            )
        return len(start)


@dataclass(frozen=True)
class PassSummary:
    calls: Counter
    seconds: Counter
    nested: Counter
    counts: Counter
    max_rank: int
    distinct_models: int


def layer_metrics(summaries: list[PassSummary]) -> dict[str, float]:
    """Per-layer metrics, as means per traced pass and ratios over all of them."""
    calls: Counter = Counter()
    seconds: Counter = Counter()
    nested: Counter = Counter()
    counts: Counter = Counter()
    for summary in summaries:
        calls.update(summary.calls)
        seconds.update(summary.seconds)
        nested.update(summary.nested)
        counts.update(summary.counts)
    distinct_models = sum(summary.distinct_models for summary in summaries)
    passes = len(summaries)
    layer_self = Counter()
    for name, s in seconds.items():
        layer_self[name.split(".")[0]] += s

    def per_pass(value: float) -> float:
        return value / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {f"{layer}.self_s": per_pass(layer_self[layer]) for layer in LAYERS}
    classify_calls = calls["classify.classify"]
    patterns = nested["census.census", "cover.is_totally_ramified"]
    metrics.update(
        {
            "group.pair_calls": per_pass(calls["group.pair"] + calls["group.epsilon"] + calls["group.epsilon2"]),
            "group.span_calls": per_pass(calls["group.span"]),
            "lattice.intersect_calls": per_pass(calls["lattice.intersect"]),
            "lattice.embed_calls": per_pass(calls["lattice.embed"]),
            "lattice.index_of_calls": per_pass(calls["lattice.BlownPlane.index_of"]),
            "lattice.max_rank": max(summary.max_rank for summary in summaries),
            "cover.building_data_calls": per_pass(calls["cover.derive_building_data"]),
            "cover.prod_pairs_checked": per_pass(counts["cover.prod_pairs_checked"]),
            "cover.component_lookups": per_pass(calls["cover.CoverModel.component"]),
            "normalize.normalize_calls": per_pass(calls["normalize.normalize"]),
            "normalize.changed_ratio": ratio(counts["normalize.changed"], calls["normalize.normalize"]),
            "normalize.resolve_rounds": per_pass(counts["normalize.resolve_rounds"]),
            "normalize.auto_points": per_pass(nested["normalize.resolve", "cover.add_marked_point"]),
            "normalize.pull_back_calls": per_pass(calls["normalize.pull_back"]),
            "normalize.pull_back_self_s": per_pass(seconds["normalize.pull_back"]),
            "invariants.report_calls": per_pass(calls["invariants.invariant_report"]),
            "classify.classify_calls": per_pass(classify_calls),
            "classify.distinct_model_ratio": ratio(distinct_models, classify_calls),
            "classify.quadratic_moves": per_pass(calls["classify.quadratic_move"]),
            "census.patterns": per_pass(patterns),
            "census.rows_kept_ratio": ratio(nested["census.census", "classify.classify"], patterns),
            "config.parse_calls": per_pass(calls["config.parse"]),
            "config.parse_bytes": per_pass(counts["config.parse_bytes"]),
            "config.serialize_calls": per_pass(calls["config.ConfigDocument.serialize"]),
            "cli.nonzero_exits": per_pass(counts["cli.nonzero_exits"]),
        }
    )
    return metrics
