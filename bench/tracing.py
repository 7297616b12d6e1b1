"""Spans around maxplus calls, installed from outside the library.

``Tracer.install`` wraps the public entry points of each layer, plus the two
private helpers whose calls are the unit of work (``pteg._next_closure``,
one closure step, and ``invariance._assemble_generator``, one generator).
A module that imported a callable by name holds its own binding, so every
``maxplus`` module binding the original object is patched, and ``uninstall``
puts each one back.

A span is ``(id, parent, case, name, start_ns, end_ns)``.  Spans stay in
memory until ``flush`` writes them out (once per pass, so memory stays
bounded by one pass).  Work the tracer itself does
(scanning operands for Fraction entries, comparing closures) is recorded as
``trace.hook`` spans, so it is excluded from every layer's self time.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter_ns

HOOK = "trace.hook"


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the durations of its direct children."""
    children = defaultdict(int)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            children[parent] += end - start
    return {sid: end - start - children[sid] for sid, _, _, _, start, end in spans}


def _fractions(matrices) -> tuple[int, int]:
    entries = fractions = 0
    for m in matrices:
        rows = m.to_rows()
        entries += m.rows * m.cols
        fractions += sum(type(v) is Fraction for row in rows for v in row)
    return fractions, entries


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        # span name -> [calls, self time in ns] of the spans flushed so far
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.active = False
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._case = None
        self._case_start = 0
        self._patched: list[tuple] = []
        self._last_closure = None
        self._chain_fixed = False

    # -- spans -------------------------------------------------------

    def begin_case(self, key: str) -> None:
        self._case = key
        self._stack = [next(self._ids)]
        self._case_start = perf_counter_ns()
        self.active = True

    def end_case(self) -> None:
        end = perf_counter_ns()
        self.active = False
        self.spans.append((self._stack[0], None, self._case, "case", self._case_start, end))
        self._stack = []

    def _hook(self, fn, *args) -> None:
        start = perf_counter_ns()
        fn(*args)
        self.spans.append(
            (next(self._ids), self._stack[-1], self._case, HOOK, start, perf_counter_ns())
        )

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recorded as span ``name``; hooks see (args) / (args, result)."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                tracer._hook(before, args)
            stack = tracer._stack
            parent = stack[-1]
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, parent, tracer._case, name, start, end))
            if after is not None:
                tracer._hook(after, args, result)
            return result

        return traced

    # -- computed counts -----------------------------------------------

    def _operands(self, compute_ops=None):
        def before(args):
            fractions, entries = _fractions(a for a in args if hasattr(a, "to_rows"))
            self.counts["matrix.fraction_entries"] += fractions
            self.counts["matrix.operand_entries"] += entries
            if compute_ops is not None:
                compute_ops(args)

        return before

    def _matmul_ops(self, args):
        a, b = args
        self.counts["matrix.matmul.ops"] += a.rows * a.cols * b.cols

    def _star_ops(self, args):
        n = args[0].rows
        self.counts["matrix.star.ops"] += n**3
        self.maxima["matrix.star.max_n"] = max(self.maxima["matrix.star.max_n"], n)

    def _closure_step(self, args, result):
        # A closure step continues a chain when it starts from the previous
        # step's result.  Once a chain repeats a closure, every later step
        # of that chain recomputes the same matrix.
        _, current = args
        if current is not self._last_closure:
            self._chain_fixed = False
        self.counts["pteg.closure_steps"] += 1
        if self._chain_fixed:
            self.counts["pteg.wasted_steps"] += 1
        elif result.to_rows() == current.to_rows():
            self._chain_fixed = True
        self._last_closure = result

    def _built_block(self, args, result):
        key = "precedence.unrolled_n.max"
        self.maxima[key] = max(self.maxima[key], result.rows)

    def _retained(self, args, report):
        key = "invariance.generators_retained"
        self.maxima[key] = max(self.maxima[key], len(report.generators))

    # -- installation ------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "maxplus" and not mod_name.startswith("maxplus."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def _patch_method(self, cls, attr: str, name: str, before=None, after=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(name, raw.__func__, before, after))
        else:
            replacement = self.wrap(name, raw, before, after)
        setattr(cls, attr, replacement)
        self._patched.append((cls, attr, raw))

    def install(self, mp) -> None:
        """Wrap every traced callable of the imported ``maxplus`` package."""
        from maxplus import invariance, matrix, precedence, problems, pteg, semiring

        tm = matrix.TropicalMatrix
        self._patch_method(tm, "__matmul__", "matrix.matmul",
                           before=self._operands(self._matmul_ops))
        self._patch_method(tm, "star", "matrix.star",
                           before=self._operands(self._star_ops))
        self._patch_method(tm, "__add__", "matrix.add", before=self._operands())
        self._patch_method(tm, "__eq__", "matrix.compare", before=self._operands())
        self._patch_method(tm, "__le__", "matrix.compare", before=self._operands())
        self._patch_method(tm, "from_blocks", "matrix.from_blocks")
        self._patch_method(problems.ProblemFile, "instantiate", "problems.instantiate")

        functions = (
            (pteg.check_consistency, "pteg.check", None),
            (pteg._next_closure, "pteg.closure_step", self._closure_step),
            (pteg.synthesize_trajectory, "pteg.synthesize", None),
            (pteg.validate_trajectory, "pteg.validate", None),
            (precedence.build_block_matrix, "precedence.build_block", self._built_block),
            (precedence.finite_weak_feasibility, "precedence.weak_feasibility", None),
            (precedence.export_dot, "precedence.export_dot", None),
            (invariance.iterate_shrink, "invariance.iterate", self._retained),
            (invariance._assemble_generator, "invariance.assemble", None),
            (problems.parse_problem, "problems.parse", None),
            (semiring.parse_scalar, "semiring.parse", None),
            (semiring.format_scalar, "semiring.format", None),
            (mp.cli.main, "cli.main", None),
        )
        for original, name, after in functions:
            self._patch_everywhere(original, self.wrap(name, original, after=after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- results -----------------------------------------------------

    def flush(self, out) -> None:
        """Add the spans held so far to the totals, write them, drop them.

        Call it between cases only, when every span held is complete.
        """
        own = self_times(self.spans)
        for sid, parent, case, name, start, end in self.spans:
            self.totals[name][0] += 1
            self.totals[name][1] += own[sid]
            out.write(json.dumps([sid, parent, case, name, start, end]) + "\n")
        self.spans = []
