"""Spans around the public calls of each ``gysin`` layer, for the traced run.

The tracer wraps functions from outside the program.  Modules import
names directly (``pushforward`` holds its own ``schur_bialternant``,
``verification`` its own ``localization_sum``), so a wrapper replaces
every module-level binding of the original function in every loaded
``gysin`` module.  ``SparsePoly`` and ``Partition`` methods are replaced
on the class.  Mappings that hold function references (such as the CLI's
table of Schur constructions) are not rewritten; no workload calls through them.

Spans nest on a stack, so a span's self time is its duration minus the
time covered by its direct children.  Spans are kept in memory and
written out by the caller at the end of the run.  Counts (terms, fixed
points, points compared) are recorded by hooks at the same boundaries.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from gysin import cli, localization, partitions, pushforward, schur, verification
from gysin.partitions import Partition
from gysin.poly import SparsePoly

_fixed_points = localization.fixed_points


def _count_terms(key):
    def hook(counts, args, result):
        counts[key] += result.num_terms()
    return hook


def _count_mul(counts, args, result):
    if isinstance(result, SparsePoly):
        counts["poly.mul_out_terms"] += result.num_terms()


def _count_odd(counts, args, result):
    counts["pushforward.odd_terms"] += len(result)


def _count_numerator(counts, args, result):
    counts["pushforward.w_terms"] += args[0].num_terms()


def _count_sum(counts, args, result):
    V, space = args[0], args[1]
    points = len(_fixed_points(space))
    counts["localization.fixed_points"] += points
    counts["localization.monomial_evals"] += V.num_terms() * points


def _count_case(counts, args, result):
    counts["verification.oracle_compared"] += result.oracle_points
    counts["verification.oracle_skipped"] += result.oracle_match is None


# (module, function name, span kind, count hook); a name the module no
# longer defines is skipped and listed in Tracer.missing.
FUNCTIONS = [
    (cli, "main", "cli.main", None),
    (verification, "evaluate_case", "verification.case", _count_case),
    (pushforward, "pushforward_schur", "pushforward.schur", None),
    (pushforward, "pushforward_symmetric", "pushforward.symmetric", None),
    (pushforward, "pushforward_numerator", "pushforward.numerator", _count_numerator),
    (pushforward, "_extract_and_divide", "pushforward.extract_divide", None),
    (pushforward, "closed_form", "pushforward.closed_form", None),
    (schur, "schur_bialternant", "schur.bialternant", _count_terms("schur.out_terms")),
    (schur, "schur_squared_args", "schur.squared_args", None),
    (schur, "schur_dual_jacobi_trudi", "schur.dual_jacobi_trudi", None),
    (schur, "alternant", "schur.alternant", None),
    (schur, "vandermonde_factors", "schur.vandermonde_factors", None),
    (localization, "localization_sum", "localization.sum", _count_sum),
    (partitions, "decompose", "partitions.decompose", None),
    (partitions, "rho", "partitions.rho", None),
]

METHODS = [
    (SparsePoly, "__mul__", "poly.mul", _count_mul),
    (SparsePoly, "__rmul__", "poly.mul", _count_mul),
    (SparsePoly, "exact_div", "poly.exact_div", _count_terms("poly.quotient_terms")),
    (SparsePoly, "extract_odd_terms", "poly.extract_odd", _count_odd),
    (SparsePoly, "is_symmetric", "poly.is_symmetric", None),
    (SparsePoly, "evaluate", "poly.evaluate", None),
    (Partition, "from_text", "partitions.from_text", None),
]

LAYERS = ("cli", "verification", "pushforward", "schur", "poly", "localization", "partitions")


class Tracer:
    """Collects spans while installed; ``uninstall`` restores the program."""

    def __init__(self):
        self.spans = []          # (span id, parent id, kind, start, end, op index)
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)  # outermost spans of a kind only
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.missing = []
        self.hook_time = 0.0       # spent recording counts, excluded from self times
        self.root_hook_time = 0.0  # the part of hook_time outside every span
        self.op = -1
        self._stack = []         # [span id, child time]
        self._open = defaultdict(int)
        self._restore = []

    def _wrap(self, kind, fn, hook):
        clock = time.perf_counter
        stack, spans, open_kinds = self._stack, self.spans, self._open
        tracer = self

        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            spans.append(None)
            stack.append(frame)
            open_kinds[kind] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_kinds[kind] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[span_id] = (span_id, parent, kind, start, end, tracer.op)
                tracer.calls[kind] += 1
                tracer.self_time[kind] += duration - frame[1]
                if not open_kinds[kind]:
                    tracer.inclusive[kind] += duration
            if hook is not None:
                mark = clock()
                hook(tracer.counts, args, result)
                spent = clock() - mark
                tracer.hook_time += spent
                if stack:
                    stack[-1][1] += spent
                else:
                    tracer.root_hook_time += spent
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "gysin" or name.startswith("gysin."))]
        for module, name, kind, hook in FUNCTIONS:
            original = getattr(module, name, None)
            if original is None:
                self.missing.append(f"{module.__name__}.{name}")
                continue
            wrapper = self._wrap(kind, original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        for cls, name, kind, hook in METHODS:
            original = cls.__dict__.get(name)
            if original is None:
                self.missing.append(f"{cls.__name__}.{name}")
                continue
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(kind, original.__func__, hook))
            else:
                wrapper = self._wrap(kind, original, hook)
            self._restore.append((cls, name, original))
            setattr(cls, name, wrapper)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def layer_self(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for kind, seconds in self.self_time.items():
            out[kind.split(".", 1)[0]] += seconds
        return out

    def covered_time(self) -> float:
        """Time inside root spans, plus count hooks that ran outside them."""
        roots = sum(end - start for _, parent, _, start, end, _ in self.spans if parent < 0)
        return roots + self.root_hook_time

    def stages(self, op: int) -> dict:
        """Stage times of one CLI residue call, in the columns of the
        per-layer baseline table: Schur build, W = V * Vandermonde,
        extraction plus division, closed form."""
        mine = [s for s in self.spans if s[5] == op]
        kinds = {s[0]: s[2] for s in mine}
        out = {"schur_build_s": 0.0, "w_mul_s": 0.0, "extract_divide_s": 0.0,
               "closed_form_s": 0.0}
        for _, parent, kind, start, end, _ in mine:
            up = kinds.get(parent)
            if kind == "schur.bialternant" and up == "pushforward.schur":
                out["schur_build_s"] += end - start
            elif kind == "poly.mul" and up == "pushforward.symmetric":
                out["w_mul_s"] += end - start
            elif kind == "pushforward.extract_divide":
                out["extract_divide_s"] += end - start
            elif kind == "pushforward.closed_form" and up == "pushforward.schur":
                out["closed_form_s"] += end - start
        return out
