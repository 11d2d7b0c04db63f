"""Spans and counters recorded from outside the package.

``Tracer.install`` wraps each layer function at every name it is bound under
in the loaded ``fischerdec`` modules (so ``entire.quotient_polynomial`` and
the recursive self-calls through ``fischer.quotient_polynomial`` are both
seen), and counts ``Fraction`` and ``RationalComplex`` arithmetic by wrapping
the class operators.  Spans stay in memory; ``layer_metrics`` turns them into
per-layer totals after the timed region.  Nothing inside ``src/`` changes.

Every statistic is a number: one that a later change makes unreadable is
reported as 0, and its reason is kept in ``Tracer.missing`` for stderr.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

# (module, function) pairs wrapped as spans; each reports calls and self time.
LAYERS = (
    ("exactla", "solve_linear"),
    ("exactla", "ldl_decompose"),
    ("exactla", "congruence_reduce"),
    ("fischer", "fischer_operator_homogeneous"),
    ("fischer", "quotient_polynomial"),
    ("fischer", "decompose_recursive"),
    ("fischer", "decompose_series_formula"),
    ("entire", "decompose_entire"),
    ("entire", "order_estimate"),
    ("dirichlet", "solve"),
    ("dirichlet", "boundary_residual"),
    ("sphere", "gauss_decompose"),
    ("sphere", "sup_norm_estimate"),
    ("spectral", "verify_main_inequality"),
    ("spectral", "min_quadratic_form_eigenvalue"),
    ("spectral", "chebyshev_identity_check"),
    ("spectral", "sine_bound_check"),
    ("cli", "main"),
)
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
              "__mul__", "__rmul__", "__truediv__", "__rtruediv__")

SOLVE_STATS = ("exactla.solve_linear.unknowns_max", "exactla.solve_linear.unknowns_sum",
               "exactla.solve_linear.nonzeros_sum")

# Span record fields: [name, start, end, parent index].
NAME, START, END, PARENT = range(4)


def self_times(spans: list) -> list:
    """Per-span self time: duration minus the durations of its direct children.

    Spans come from one thread and nest, so direct children are disjoint and
    lie inside their parent; a recursive call is a child like any other.
    """
    child_total = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_total[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child_total[i] for i, span in enumerate(spans)]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts = {"fraction": 0, "complex": 0}
        self.unknowns: list = []        # per solve_linear call
        self.nonzeros: list = []
        self.boundary_points = 0
        self.missing: dict = {}         # metric name -> reason it reads 0
        self._nonzero_cache: dict = {}  # id(matrix) -> (matrix, nonzeros)
        # id(matrix) -> matrix for every graded system solved under
        # fischer_operator_homogeneous; holding each keeps its id unique, so a
        # system rebuilt after eviction counts as a new build.
        self._systems: dict = {}
        self._patches: list = []        # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, function):
        spans, stack = self.spans, self.stack
        before = self._before_solve if name == "exactla.solve_linear" else None
        after = self._after_boundary if name == "dirichlet.boundary_residual" else None

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    # The two hooks read arguments and results whose shape a later change may
    # alter; they must then drop their statistic, never fail the traced op.

    def _before_solve(self, args) -> None:
        matrix = args[0] if args else None
        stack = self.stack
        if stack and self.spans[stack[-1]][NAME] == "fischer.fischer_operator_homogeneous":
            self._systems.setdefault(id(matrix), matrix)
        try:
            hit = self._nonzero_cache.get(id(matrix))
            if hit is None or hit[0] is not matrix:
                hit = (matrix, sum(1 for row in matrix for entry in row if entry))
                self._nonzero_cache[id(matrix)] = hit
            self.unknowns.append(len(matrix))
            self.nonzeros.append(hit[1])
        except Exception as exc:
            self._drop(SOLVE_STATS, f"solve_linear arguments unreadable: {exc!r}")

    def _after_boundary(self, report) -> None:
        try:
            self.boundary_points += report.samples
        except Exception as exc:
            self._drop(("dirichlet.boundary_residual.points",),
                       f"boundary_residual result unreadable: {exc!r}")

    def _drop(self, names, reason: str) -> None:
        for name in names:
            self.missing.setdefault(name, reason)

    # -- install / uninstall -----------------------------------------------

    def _patch(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self) -> None:
        package = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "fischerdec" or n.startswith("fischerdec."))]
        for module_name, function_name in LAYERS:
            name = f"{module_name}.{function_name}"
            module = sys.modules.get(f"fischerdec.{module_name}")
            original = getattr(module, function_name, None) if module else None
            if not callable(original):
                self._drop((f"{name}.calls", f"{name}.self_s"), f"fischerdec.{name} not found")
                continue
            wrapper = self._wrap(name, original)
            for mod in package:
                for attribute, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attribute, wrapper)
        from fischerdec.rationals import RationalComplex

        for cls, key in ((Fraction, "fraction"), (RationalComplex, "complex")):
            for attribute in ARITHMETIC:
                if attribute in vars(cls):
                    self._patch(cls, attribute, self._counted(vars(cls)[attribute], key))

    def _counted(self, function, key: str):
        counts = self.counts

        def operator(a, b):
            counts[key] += 1
            return function(a, b)

        return operator

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Totals for the traced repetition, keyed by per-layer metric name."""
        calls: dict = {}
        self_s: dict = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            calls[span[NAME]] = calls.get(span[NAME], 0) + 1
            self_s[span[NAME]] = self_s.get(span[NAME], 0.0) + own
        out = {}
        for module_name, function_name in LAYERS:
            name = f"{module_name}.{function_name}"
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        attempts = sum(
            1 for span in self.spans
            if span[NAME] == "exactla.solve_linear" and span[PARENT] >= 0
            and self.spans[span[PARENT]][NAME] == "fischer.fischer_operator_homogeneous"
        )
        out.update({
            "rationals.fraction_ops": self.counts["fraction"],
            "rationals.complex_ops": self.counts["complex"],
            "exactla.solve_linear.unknowns_max": max(self.unknowns, default=0),
            "exactla.solve_linear.unknowns_sum": sum(self.unknowns),
            "exactla.solve_linear.nonzeros_sum": sum(self.nonzeros),
            "dirichlet.boundary_residual.points": self.boundary_points,
            "fischer.system_builds": len(self._systems),
            "fischer.system_hits": attempts - len(self._systems),
        })
        for name in self.missing:
            out[name] = 0
        return out
