"""Outside-in tracing of the erdmc layers, from the benchmark's own files.

`SpanRecorder.install` wraps the public functions of each `erdmc` module
and rebinds every name under which a caller looks one up (for example
`erdmc.translator.enrich_scheme` as well as `erdmc.enrichment.enrich_scheme`),
so no file of the compiler changes. Each call records a span: name, start,
end, parent span and op id. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

# (defining module, function or Class.method, span name). Several functions
# may share a span name; together they form one layer metric.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("erdmc.cli", "main", "cli"),
    ("erdmc.lexer", "tokenize", "lexer.tokenize"),
    ("erdmc.parser", "parse_model", "parser"),
    ("erdmc.formula", "parse_formula", "formula.parse"),
    ("erdmc.formula", "parse_formula_tokens", "formula.parse"),
    ("erdmc.model", "validate_model", "model.validate"),
    ("erdmc.model", "effective_cardinality", "model.lookup"),
    ("erdmc.model", "effective_range", "model.lookup"),
    ("erdmc.model", "effective_inclusions", "model.lookup"),
    ("erdmc.model", "ERModel.restrictions_on", "model.lookup"),
    ("erdmc.model", "ERModel.set", "model.lookup"),
    ("erdmc.census", "census", "census"),
    ("erdmc.enrichment", "apply_input_defaults", "enrichment.defaults"),
    ("erdmc.enrichment", "enrich_scheme", "enrichment.rules"),
    ("erdmc.enrichment", "ensure_totality", "enrichment.totality"),
    ("erdmc.enrichment", "collapse_binary_relationships", "enrichment.collapse"),
    ("erdmc.enrichment", "ensure_structural_key", "enrichment.structural_key"),
    ("erdmc.enrichment", "ensure_compulsory", "enrichment.compulsory"),
    ("erdmc.enrichment", "ensure_uniqueness", "enrichment.uniqueness"),
    ("erdmc.enrichment", "next_label", "enrichment.next_label"),
    ("erdmc.translator", "translate", "translator"),
    ("erdmc.scheme", "check_scheme", "scheme.check"),
    ("erdmc.scheme", "resolve_formula", "scheme.resolve_formula"),
    ("erdmc.scheme", "EMDMScheme.set", "scheme.set"),
    ("erdmc.emitter", "emit_text", "emitter.text"),
    ("erdmc.emitter", "emit_structured", "emitter.structured"),
)

# Span name -> (count name, function of the wrapped call's result).
RESULT_COUNTS: dict[str, tuple[str, Callable[[object], int]]] = {
    "lexer.tokenize": ("lexer.tokens", len),
}

# Per-layer metrics computed from spans. "incl" sums the spans of a name that
# are not nested in a span of the same name; "self" subtracts covered children.
SPAN_METRICS: tuple[tuple[str, str, str], ...] = (
    ("lexer.tokenize_s", "incl", "lexer.tokenize"),
    ("parser.self_s", "self", "parser"),
    ("formula.parse_s", "incl", "formula.parse"),
    ("scheme.resolve_formula_s", "incl", "scheme.resolve_formula"),
    ("model.validate_s", "incl", "model.validate"),
    ("model.validate_calls", "calls", "model.validate"),
    ("model.lookup_s", "incl", "model.lookup"),
    ("model.lookup_calls", "calls", "model.lookup"),
    ("enrichment.defaults_s", "incl", "enrichment.defaults"),
    ("enrichment.rules_s", "incl", "enrichment.rules"),
    ("enrichment.totality_s", "incl", "enrichment.totality"),
    ("enrichment.collapse_s", "incl", "enrichment.collapse"),
    ("enrichment.structural_key_s", "incl", "enrichment.structural_key"),
    ("enrichment.compulsory_s", "incl", "enrichment.compulsory"),
    ("enrichment.uniqueness_s", "incl", "enrichment.uniqueness"),
    ("enrichment.next_label_calls", "calls", "enrichment.next_label"),
    ("enrichment.next_label_s", "incl", "enrichment.next_label"),
    ("translator.translate_s", "incl", "translator"),
    ("translator.self_s", "self", "translator"),
    ("census.s", "incl", "census"),
    ("scheme.check_s", "incl", "scheme.check"),
    ("scheme.check_calls", "calls", "scheme.check"),
    ("scheme.set_lookups", "calls", "scheme.set"),
    ("emitter.text_s", "incl", "emitter.text"),
    ("emitter.structured_s", "incl", "emitter.structured"),
    ("cli.self_s", "self", "cli"),
)

# Span fields, stored as lists for speed: name, start, end, parent index, op id.
NAME, START, END, PARENT, OP = range(5)


class SpanRecorder:
    """Holds the spans and result counts of one traced run in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:  # outside a traced op: record nothing
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                self.counts[self.op][count[0]] += count[1](result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry of LAYERS wherever an erdmc module binds it."""
        for module_name, attr, span_name in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self.wrap(span_name, getattr(cls, method)))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(span_name, original)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("erdmc"):
                    continue
                for name, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, name, wrapped)

    def _patch(self, owner: object, name: str, replacement: object) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Write the spans as tab-separated name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("name\tstart\tend\tparent\top\n")
            for s in self.spans:
                out.write(f"{s[NAME]}\t{s[START]!r}\t{s[END]!r}\t{s[PARENT]}\t{s[OP]}\n")


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of *intervals*."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [
        s[END] - s[START] - covered(s[START], s[END], children.get(i, []))
        for i, s in enumerate(spans)
    ]


def layer_metrics(recorder: SpanRecorder, scale: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics over the spans and counts of the ops in *scale*.

    Times of op k are multiplied by scale[k], its machine-speed factor.
    Besides SPAN_METRICS and RESULT_COUNTS this gives model.lookup_share:
    the part of translate time spent in model lookups called from it.
    """
    spans = recorder.spans
    selfs = self_times(spans)
    incl: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    lookup_in_translate = 0.0
    for i, s in enumerate(spans):
        factor = scale.get(s[OP])
        if factor is None:
            continue
        name = s[NAME]
        duration = (s[END] - s[START]) * factor
        calls[name] += 1
        own[name] += selfs[i] * factor
        ancestors = set()
        p = s[PARENT]
        while p >= 0:
            ancestors.add(spans[p][NAME])
            p = spans[p][PARENT]
        if name not in ancestors:
            incl[name] += duration
            if name == "model.lookup" and "translator" in ancestors:
                lookup_in_translate += duration
    kinds = {"incl": incl, "self": own, "calls": calls}
    out = {metric: float(kinds[kind][name]) for metric, kind, name in SPAN_METRICS}
    for count_name, _ in RESULT_COUNTS.values():
        out[count_name] = float(sum(recorder.counts[op][count_name] for op in scale))
    out["model.lookup_share"] = (
        lookup_in_translate / incl["translator"] if incl["translator"] else 0.0
    )
    return out


def layer_units() -> dict[str, str]:
    """The unit of each metric that layer_metrics returns."""
    units = {metric: "count" if kind == "calls" else "s" for metric, kind, _ in SPAN_METRICS}
    units.update((count_name, "count") for count_name, _ in RESULT_COUNTS.values())
    units["model.lookup_share"] = "ratio"
    return units
