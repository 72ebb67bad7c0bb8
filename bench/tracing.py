"""Per-layer spans and counters, recorded from outside the engine.

:class:`Tracer` wraps each layer's public entry points by replacing the
name in every ``jointfeas`` module that holds it, and puts the originals
back on :meth:`Tracer.remove`.
Spans (name, start, end, parent, operation id) and counters are kept in
memory and only recorded while an operation is running, so the
benchmark's own output checks never show up in the trace.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from typing import Any, Callable

from jointfeas import cli, feasibility, files, geometry, hidden_variable, inequalities, simplex
from jointfeas.algebraic import Surd


def _tableau_cells(args, kwargs) -> int:
    rows = args[0] if args else kwargs["rows"]
    m = len(rows)
    n = len(rows[0]) if m else 0
    return m * (n + m + 1)


def _evaluator_layer(args, kwargs) -> str:
    surd = any(isinstance(a, Surd) for a in (*args, *kwargs.values()))
    return "inequalities.eval_surd" if surd else "inequalities.eval"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def _span(self, name: str | Callable[..., str], fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((label, 0.0, 0.0, parent, self.op))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (label, start, end, parent, self.op)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is not None:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_solve(self, args, kwargs, result) -> None:
        self.counts["simplex.pivots"] += result.pivots
        self.counts["simplex.tableau_cells"] += _tableau_cells(args, kwargs)

    def _after_dual_rays(self, args, kwargs, result) -> None:
        generators = args[0] if args else kwargs["generators"]
        self.counts["geometry.generators"] += len(generators)
        self.counts["geometry.rays"] += len(result[1])

    def _after_render(self, args, kwargs, result) -> None:
        self.counts["files.report_bytes"] += len(result.encode("utf-8"))

    # -- patching -----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if not name.startswith("jointfeas"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        entry_points = [
            (cli.run, "cli.run", None),
            (files.load_problem_file, "files.load_problem_file", None),
            (files.render_report, "files.render_report", self._after_render),
            (feasibility.decide, "feasibility.decide", None),
            (feasibility.verify_certificate, "feasibility.verify_certificate", None),
            (feasibility.brute_force_oracle, "feasibility.oracle", None),
            (simplex.solve_equality_feasibility, "simplex.solve", self._after_solve),
            (geometry.cone_membership, "geometry.cone_membership", None),
            (geometry.dual_rays, "geometry.dual_rays", self._after_dual_rays),
            (hidden_variable.construct_deterministic, "hidden_variable.construct", None),
            (hidden_variable.verify_factorization, "hidden_variable.verify_factorization", None),
        ]
        entry_points += [
            (getattr(inequalities, f), _evaluator_layer, None)
            for f in ("eval_chsh", "eval_triple_moment_bounds", "eval_bell_original", "eval_spin1_strengthened")
        ]
        for fn, name, after in entry_points:
            self._replace_everywhere(fn, self._span(name, fn, after))
        method = feasibility.MomentProblem.monomial_value
        self._patches.append((feasibility.MomentProblem, "monomial_value", method))
        feasibility.MomentProblem.monomial_value = self._counter("feasibility.monomial_value.calls", method)

    def remove(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> tuple[Counter[str], Counter[str], Counter[str]]:
        """Call counts, total seconds and self seconds per span name."""
        calls: Counter[str] = Counter()
        total: Counter[str] = Counter()
        child: Counter[int] = Counter()
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: Counter[str] = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[index]
        return calls, total, own

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans], "counts": self.counts}, fh)
