"""Timing wrappers around the names the CLI and the simulators look up at call time.

Spans are kept in memory as (name, parent id, start, end) and written out
at the end of a run.  Counters come from the wrapped calls' arguments
and return values, so they are exact and repeat from one execution of a
call to the next.  Nothing in the program is changed; ``install`` swaps
module attributes and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

#: layer span names; each is reported as inclusive seconds ``<name>_s``
LAYER_SPANS = (
    "circuit.parse", "sums.interpret", "sums.compose", "sim.projector",
    "rewrite.normalize_state", "rewrite.normalize_closed",
    "rewrite.normalize_open", "rewrite.normalize_random",
    "rewrite.find_rewrites", "rewrite.apply", "rewrite.simply_equivalent",
    "sums.evaluate", "fuzz.generate",
)
#: spans reported by self time: the span minus its direct children
SELF_SPANS = {"cli.main": "cli.self", "sim.recover_shift": "sim.self",
              "sim.measure_sim": "sim.self"}
COUNTERS = (
    "sums.interpret_vars", "rewrite.vars_in", "rewrite.vars_out",
    "rewrite.steps_elim", "rewrite.steps_z", "rewrite.steps_hh",
    "rewrite.phase_terms_out", "sums.evaluate_points",
    "sums.evaluate_refused", "rewrite.eval_fallbacks",
)


class Tracer:
    def __init__(self, ps):
        self.ps = ps
        self.spans: list[tuple[str, int, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn under a span; ``name`` may be a function of the arguments."""
        label = name(*args, **kwargs) if callable(name) else name
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[sid] = (label, parent, t0, t1)

    def _wrap(self, name, fn, count=None, on_error=None):
        def wrapper(*args, **kwargs):
            try:
                result = self.call(name, fn, *args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            if count is not None:
                count(args, result)
            return result
        return wrapper

    # -- counters from return values --------------------------------------

    def _count_interpret(self, args, result):
        self.counts["sums.interpret_vars"] += result.num_vars

    def _count_normalize(self, args, result):
        nf, trace = result
        c = self.counts
        c["rewrite.vars_in"] += args[0].num_vars
        c["rewrite.vars_out"] += nf.num_vars
        c["rewrite.phase_terms_out"] += len(nf.phase.monomials)
        for step in trace:
            c["rewrite.steps_" + step.rule.value.lower()] += 1

    def _count_evaluate(self, args, result):
        self.counts["sums.evaluate_points"] += 1 << args[0].num_vars

    def _count_refusal(self, exc):
        if isinstance(exc, self.ps.EvalGuardError):
            self.counts["sums.evaluate_refused"] += 1

    def _normalize_name(self, a, strategy=None):
        """Classify a normalization by strategy, then by input signature."""
        if strategy is not None and strategy.kind == "random":
            return "rewrite.normalize_random"
        n_in, n_out = a.signature
        if n_in:
            return "rewrite.normalize_open"
        return "rewrite.normalize_state" if n_out else "rewrite.normalize_closed"

    # -- patching ---------------------------------------------------------

    def install(self):
        ps = self.ps
        cli, sim, rewrite, fuzz = ps.cli, ps.sim, ps.rewrite, ps.fuzz
        interpret = ("sums.interpret", self._count_interpret, None)
        compose = ("sums.compose", None, None)
        normalize = (self._normalize_name, self._count_normalize, None)
        evaluate = ("sums.evaluate", self._count_evaluate, self._count_refusal)
        plan = {
            cli: {"parse": ("circuit.parse", None, None),
                  "recover_shift": ("sim.recover_shift", None, None),
                  "measure_sim": ("sim.measure_sim", None, None),
                  "simply_equivalent": ("rewrite.simply_equivalent", None, None),
                  "interpret": interpret, "compose": compose,
                  "normalize": normalize, "evaluate": evaluate},
            sim: {"interpret": interpret, "compose": compose,
                  "normalize": normalize, "evaluate": evaluate,
                  "projector_one": ("sim.projector", None, None)},
            rewrite: {"find_rewrites": ("rewrite.find_rewrites", None, None),
                      "apply": ("rewrite.apply", None, None)},
            fuzz: {"interpret": interpret, "compose": compose,
                   "random_path_sum_from_circuit": ("fuzz.generate", None, None)},
        }
        for module, names in plan.items():
            for attr, (name, count, on_error) in names.items():
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, count, on_error))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- reporting --------------------------------------------------------

    def layer_seconds(self, first: int = 0) -> dict:
        """Inclusive and self seconds per metric name, spans from ``first`` on."""
        spans = self.spans[first:]
        child = defaultdict(float)
        for name, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, parent, t0, t1) in enumerate(spans, start=first):
            if name in SELF_SPANS:
                out[SELF_SPANS[name] + "_s"] += t1 - t0 - child[i]
            else:
                out[name + "_s"] += t1 - t0
        return out

    def dump(self, path) -> None:
        """One JSON array per line: [id, parent id, name, start, end]."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, name, t0, t1]) + "\n")
