"""Out-of-program tracing for the traced run.

The tracer replaces the module attributes through which rsl's layers call
each other (``rsl.parser.lex``, ``rsl.codegen.check``, ``rsl.harness.run``
and so on) with wrappers that record a span per call, and puts every
original back on exit. Spans share the id of the op that caused them, nest
through a stack, and stay in memory until the run dumps them. A span's self
time is its duration minus the durations of its direct children; the
program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _lines(text) -> int:
    return text.count("\n") + 1 if text else 0


def _check(args, kwargs, result):
    return _lines(args[0] if args else kwargs["source"]), len(result.diagnostics)


def _parse(args, kwargs, result):
    source = args[1] if len(args) > 1 else kwargs.get("source", "")
    return _lines(source), 0


def _program(args, kwargs, result):
    return len(args[0].statements), 0


def _generate(args, kwargs, result):
    return len(args[0].statements), len(result)


def _run(args, kwargs, result):
    return len(args[0].statements), int(isinstance(result, Exception))


def _export(args, kwargs, result):
    return len(args[0].trace), 0


def _translate(args, kwargs, result):
    return 0, result.passes


def _complete(args, kwargs, result):
    messages = args[1] if len(args) > 1 else kwargs["messages"]
    return 0, sum(len(m.content) for m in messages)


# (module, attribute, span name, measure). measure(args, kwargs, result)
# returns (statements or records handled, value added to the span's counter).
SPANS = (
    ("rsl", "check", "parser.check", _check),
    ("rsl.codegen", "check", "parser.check", _check),
    ("rsl.orchestrator", "check", "parser.check", _check),
    ("rsl.parser", "lex", "lexer.lex", _check),
    ("rsl.parser", "parse", "parser.parse", _parse),
    ("rsl.parser", "validate", "parser.validate", _program),
    ("rsl", "compose_feedback", "diagnostics.feedback", None),
    ("rsl.orchestrator", "compose_feedback", "diagnostics.feedback", None),
    ("rsl", "generate", "codegen.generate", _generate),
    ("rsl", "run", "sim.run", _run),
    ("rsl.harness", "run", "sim.run", _run),
    ("rsl", "trace_to_jsonl", "sim.trace_export", _export),
    ("rsl", "evaluate", "harness.evaluate", None),
    ("rsl.harness", "evaluate_accuracy", "harness.accuracy", None),
    ("rsl.harness", "replace", "orchestrator.prompt_parts", None),
    ("rsl.harness", "translate", "orchestrator.translate", _translate),
    ("rsl.orchestrator", "extract_rsl", "orchestrator.extract", None),
    ("rsl.orchestrator", "complete", "llm.complete", _complete),
)
# Called too often for a span each; only their calls are counted.
COUNTED = (
    ("rsl.diagnostics", "render", "diagnostics.render"),
    ("rsl.harness", "render", "diagnostics.render"),
    ("rsl.orchestrator", "render", "diagnostics.render"),
    ("rsl.codegen", "render", "diagnostics.render"),
)


class Tracer:
    def __init__(self) -> None:
        # (op, parent index, name, start, end, units); None while open.
        self.spans: list = []
        self.counters: Counter = Counter()
        self.calls: Counter = Counter()
        self.op_sizes: list[int] = []
        self._stack: list[int] = []
        self._patched: list = []

    def begin_op(self, size: int) -> None:
        self.op_sizes.append(size)

    def _span(self, name, original, measure):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(index)
            op = len(tracer.op_sizes) - 1
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (op, parent, name, start, end, 0)
            if measure is not None:
                units, extra = measure(args, kwargs, result)
                tracer.spans[index] = (op, parent, name, start, end, units)
                tracer.counters[name] += extra
            return result

        return wrapper

    def _count(self, name, original):
        counts = self.calls

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attribute, replacement) -> None:
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    @contextmanager
    def installed(self, extra_spans=()):
        """Wrap every traced name (plus (owner, attribute, span name) triples
        from the caller); restore all of them on exit. A name that rsl no
        longer has is an error, not a layer that silently reads 0."""
        missing = [
            f"{module}.{attribute}"
            for module, attribute, *_ in SPANS + COUNTED
            if not hasattr(importlib.import_module(module), attribute)
        ]
        if missing:
            raise RuntimeError(f"traced names missing from rsl: {', '.join(missing)}")
        try:
            for module, attribute, name, measure in SPANS:
                owner = importlib.import_module(module)
                self._patch(owner, attribute, self._span(name, getattr(owner, attribute), measure))
            for owner, attribute, name in extra_spans:
                self._patch(owner, attribute, self._span(name, getattr(owner, attribute), None))
            for module, attribute, name in COUNTED:
                owner = importlib.import_module(module)
                self._patch(owner, attribute, self._count(name, getattr(owner, attribute)))
            yield self
        finally:
            while self._patched:
                owner, attribute, original = self._patched.pop()
                setattr(owner, attribute, original)

    def call_counts(self) -> Counter:
        """Calls recorded per span or counted name."""
        return Counter(span[2] for span in self.spans) + self.calls

    def self_times(self) -> list[float]:
        own = [end - start for _, _, _, start, end, _ in self.spans]
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def dump(self, path) -> None:
        """One JSON array per span: op, span, parent, name, start and
        duration and self time in microseconds, units."""
        own = self.self_times()
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (op, parent, name, start, end, units) in enumerate(self.spans):
                fh.write(json.dumps([
                    op, index, parent, name, round((start - origin) * 1e6, 1),
                    round((end - start) * 1e6, 1), round(own[index] * 1e6, 1), units,
                ]) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures; ratios with an empty base are reported as 0."""
        ops = len(self.op_sizes)
        own = self.self_times()
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        units: dict[str, int] = defaultdict(int)
        calls: Counter = Counter(self.calls)
        per_op = defaultdict(lambda: defaultdict(float))
        per_op_units = defaultdict(lambda: defaultdict(int))
        for (op, _, name, start, end, n), mine in zip(self.spans, own):
            self_s[name] += mine
            total_s[name] += end - start
            units[name] += n
            calls[name] += 1
            per_op[op][name] += mine
            per_op_units[op][name] += n

        def ratio(a, b):
            return a / b if b else 0.0

        def ms_per_op(*names):
            return ratio(sum(self_s[n] for n in names) * 1e3, ops)

        def us_per_unit(names, unit_name):
            return ratio(sum(self_s[n] for n in names) * 1e6, units[unit_name])

        order = sorted(range(ops), key=lambda op: self.op_sizes[op])
        quarter = max(1, ops // 4)

        def scaling(names, unit_name):
            def cost(bucket):
                spent = sum(per_op[op][n] for op in bucket for n in names)
                return ratio(spent, sum(per_op_units[op][unit_name] for op in bucket))

            return ratio(cost(order[-quarter:]), cost(order[:quarter]))

        parser = ("parser.check", "parser.parse", "parser.validate")
        return {
            "lexer.self_ms_per_op": ms_per_op("lexer.lex"),
            "lexer.us_per_stmt": us_per_unit(("lexer.lex",), "lexer.lex"),
            "lexer.scaling": scaling(("lexer.lex",), "lexer.lex"),
            "parser.check_calls_per_op": ratio(calls["parser.check"], ops),
            "parser.parse.self_ms_per_op": ms_per_op("parser.parse"),
            "parser.validate.self_ms_per_op": ms_per_op("parser.validate"),
            "parser.us_per_stmt": us_per_unit(parser, "parser.check"),
            "parser.scaling": scaling(parser, "parser.check"),
            "parser.diagnostics_per_stmt": ratio(self.counters["parser.check"], units["parser.check"]),
            "diagnostics.feedback.self_ms_per_op": ms_per_op("diagnostics.feedback"),
            "diagnostics.render.calls_per_op": ratio(calls["diagnostics.render"], ops),
            "codegen.self_ms_per_op": ms_per_op("codegen.generate"),
            "codegen.us_per_stmt": us_per_unit(("codegen.generate",), "codegen.generate"),
            "codegen.bytes_per_stmt": ratio(self.counters["codegen.generate"], units["codegen.generate"]),
            "sim.run.self_ms_per_op": ms_per_op("sim.run"),
            "sim.us_per_stmt": us_per_unit(("sim.run",), "sim.run"),
            "sim.scaling": scaling(("sim.run",), "sim.run"),
            "sim.errors_frac": ratio(self.counters["sim.run"], calls["sim.run"]),
            "sim.trace_export.us_per_stmt": us_per_unit(("sim.trace_export",), "sim.trace_export"),
            "orchestrator.prompt_parts.self_ms_per_op": ms_per_op("orchestrator.prompt_parts"),
            "orchestrator.extract.self_ms_per_op": ms_per_op("orchestrator.extract"),
            "orchestrator.translate.self_ms_per_op": ms_per_op("orchestrator.translate"),
            "orchestrator.passes_per_op": ratio(self.counters["orchestrator.translate"], ops),
            "orchestrator.prompt_chars_per_pass": ratio(self.counters["llm.complete"], calls["llm.complete"]),
            "llm.complete.calls_per_op": ratio(calls["llm.complete"], ops),
            "llm.complete.self_ms_per_op": ms_per_op("llm.complete"),
            "llm.model_wait_ms_per_op": ratio(total_s["llm.model_wait"] * 1e3, ops),
            "llm.retries_per_op": ratio(calls["llm.model_wait"] - calls["llm.complete"], ops),
            "harness.evaluate.self_ms_per_op": ms_per_op("harness.evaluate"),
            "harness.accuracy.self_ms_per_op": ms_per_op("harness.accuracy"),
        }
