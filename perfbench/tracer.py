"""Outside-in tracer for the isospec layers.

The tracer records a span (name, parent span, start, end) around every call
of the functions in ``FUNCTIONS`` and ``ENTRY_POINTS``.  It patches them
from outside the package: a module-level function is replaced in every
``isospec`` module namespace that bound it (``from .x import f`` copies the
binding), and a method is replaced on its class.  ``restore`` puts every
original object back.

``rationals`` gets no spans: ``as_fraction`` runs about a million times in
one verify-all pass, so wrapping it would distort the timing it measures.
Its cost shows in its callers' self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, qualified name) of every traced library function
FUNCTIONS = (
    ("spectral", "isospectral_check"),
    ("spectral", "invariant_subspace_check"),
    ("spectral", "discrete_family"),
    ("spectral", "matrix_on_basis"),
    ("spectral", "lattice_matrix"),
    ("spectral", "continuum_matrix"),
    ("spectral", "char_poly"),
    ("spectral", "eigenpairs_triangular"),
    ("spectral", "verify_pointwise"),
    ("representations", "realize_lattice"),
    ("representations", "apply_continuum"),
    ("representations", "ShiftOperator.apply"),
    ("representations", "ShiftOperator.__mul__"),
    ("polynomials", "Polynomial.shifted"),
    ("polynomials", "quasi_monomial"),
    ("polynomials", "convert_basis"),
    ("algebra", "AlgebraElement.__mul__"),
    ("operators", "second_order_element"),
    ("operators", "qes_quadratic_element"),
    ("operators", "three_point_operator"),
    ("oracles", "reference_polynomial"),
    ("oracles", "projective_equal"),
)
# entry points: run_suite spans are named by their suite argument, and of
# cli.main only the self time (argument parsing, JSON emission) is reported
ENTRY_POINTS = (("verify", "run_suite"), ("cli", "main"))
SUITES = ("heisenberg", "second-order", "stencils", "isospectral", "hermite", "presets", "qes")
# functions that mostly delegate: their total time is reported too
DELEGATING = frozenset({
    "spectral.isospectral_check", "spectral.invariant_subspace_check",
    "spectral.discrete_family", "spectral.matrix_on_basis",
    "spectral.lattice_matrix", "spectral.continuum_matrix",
    "representations.realize_lattice", "polynomials.convert_basis",
    "operators.second_order_element", "operators.qes_quadratic_element",
    "operators.three_point_operator",
})
# name -> (unit, better); the order is the order of BENCHMARK.json
LAYER_METRICS: dict[str, tuple[str, str]] = {}
for _fn in (f"{module}.{name}" for module, name in FUNCTIONS):
    LAYER_METRICS[f"{_fn}.calls"] = ("count", "lower")
    LAYER_METRICS[f"{_fn}.self_s"] = ("s", "lower")
    if _fn in DELEGATING:
        LAYER_METRICS[f"{_fn}.total_s"] = ("s", "lower")
for _suite in SUITES:
    LAYER_METRICS[f"verify.run_suite.{_suite}.total_s"] = ("s", "lower")
LAYER_METRICS.update({
    "cli.main.self_s": ("s", "lower"),
    "polynomials.quasi_monomial.repeat_share": ("ratio", "lower"),
    "spectral.char_poly.triangular_share": ("ratio", "higher"),
    "spectral.matrix.max_bits": ("bits", "lower"),
    "spectral.char_poly.max_bits": ("bits", "lower"),
    # filled in by run.py from the passes
    "trace.overhead_ratio": ("ratio", "lower"),
    "fail_ratio": ("ratio", "lower"),
    "run.certs_per_s": ("1/s", "higher"),
    "run.pass_wall_s": ("s", "lower"),
    "run.pass_cpu_s": ("s", "lower"),
})
# counts and ratios repeat exactly for a given seed; times do not
EXACT_METRICS = tuple(
    name for name in LAYER_METRICS
    if name.endswith((".calls", "_share", ".max_bits"))
)

# what the wrapper keeps of a call, for the ratios computed after the pass
_KEEP = {
    "polynomials.quasi_monomial": lambda args, result: (args[0], args[1]),
    "spectral.char_poly": lambda args, result: (args[0], result),
    "spectral.matrix_on_basis": lambda args, result: result,
}


class Tracer:
    """Spans of one pass, kept in memory until ``write_spans``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.kept: dict[str, list] = {name: [] for name in _KEEP}
        self.patches: list[tuple[object, str, object]] = []  # (owner, attr, original)
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = _KEEP.get(name)
        kept = self.kept.get(name)
        by_suite = name == "verify.run_suite"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [f"{name}.{args[0]}" if by_suite else name,
                      stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if keep is not None:
                kept.append(keep(args, result))
            return result

        return traced

    def install(self):
        """Patch every traced function; all isospec modules must be imported."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "isospec" or n.startswith("isospec.")]
        for module_name, qualname in FUNCTIONS + ENTRY_POINTS:
            module = sys.modules[f"isospec.{module_name}"]
            name = f"{module_name}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = vars(owner)[attr]
                self._patch(owner, attr, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self.patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass, except those run.py fills in."""
        selfs = self_times([(start, end, parent) for _, parent, start, end in self.spans])
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        for (name, _, start, end), own in zip(self.spans, selfs):
            calls[name] += 1
            self_s[name] += own
            total_s[name] += end - start
        out = {}
        for metric in LAYER_METRICS:
            name, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[name]
            elif kind == "self_s":
                out[metric] = self_s[name]
            elif kind == "total_s":
                out[metric] = total_s[name]
        out["polynomials.quasi_monomial.repeat_share"] = repeat_share(
            self.kept["polynomials.quasi_monomial"])
        char_polys = self.kept["spectral.char_poly"]
        out["spectral.char_poly.triangular_share"] = (
            sum(is_triangular(m.entries) for m, _ in char_polys) / len(char_polys)
            if char_polys else 0.0)
        out["spectral.matrix.max_bits"] = max(
            (max_bits(c for row in m.entries for c in row)
             for m in self.kept["spectral.matrix_on_basis"]), default=0)
        out["spectral.char_poly.max_bits"] = max(
            (max_bits(p.coeffs) for _, p in char_polys), default=0)
        return out

    def write_spans(self, path: str, pass_id: int):
        """Write the spans as JSON lines: id, parent, name, start, end, pass."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, parent, start, end) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "parent": parent, "name": name,
                                         "start": start, "end": end, "pass": pass_id}))
                handle.write("\n")


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children.  ``spans`` holds (start, end, parent
    index or -1); children may overlap each other or stick out of the
    parent, and each instant is subtracted once."""
    children = defaultdict(list)
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def repeat_share(keys) -> float:
    """Share of calls whose key was already requested earlier in the pass."""
    seen = set()
    repeats = 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return repeats / len(keys) if keys else 0.0


def is_triangular(entries) -> bool:
    n = len(entries)
    return (all(entries[i][j] == 0 for i in range(n) for j in range(i))
            or all(entries[i][j] == 0 for i in range(n) for j in range(i + 1, n)))


def max_bits(values) -> int:
    """Largest numerator or denominator bit length among the rationals."""
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for v in values), default=0)
