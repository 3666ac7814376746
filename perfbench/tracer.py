"""Outside-in tracing: spans around the calls into each module's public
functions, installed from the benchmark's own files.

Each entry point is wrapped at the attribute its callers look it up by
(``etaquad.cli.verify_identity`` for the CLI, ``etaquad.harness.parse``
for the campaign engine, ``Expression.jet3`` for everyone), so no source
file changes.  A span records its name, start, end, parent span, op id,
a work count (``points``) and whether it failed.  Spans are kept in
memory; ``Tracer.write`` saves them when the run ends.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# (module, attribute owner inside it or None, attribute, span name).
TARGETS = (
    ("etaquad.cli", None, "run", "cli.run"),
    ("etaquad", None, "parse", "expr.parse"),
    ("etaquad.cli", None, "parse", "expr.parse"),
    ("etaquad.harness", None, "parse", "expr.parse"),
    ("etaquad.expr", "Expression", "value", "expr.value"),
    ("etaquad.expr", "Expression", "__call__", "expr.value"),
    ("etaquad.expr", "Expression", "jet3", "expr.jet3"),
    ("etaquad.simpson", None, "integrate", "simpson.integrate"),
    ("etaquad.cli", None, "verify_identity", "identity.verify_identity"),
    ("etaquad.identity", None, "corrected_trapezoid", "identity.corrected_trapezoid"),
    ("etaquad.harness", None, "corrected_trapezoid", "identity.corrected_trapezoid"),
    ("etaquad.cli", None, "check_invex_set", "invex.check"),
    ("etaquad.cli", None, "check_preinvex", "invex.check"),
    ("etaquad.cli", None, "check_prequasiinvex", "invex.check"),
    ("etaquad.cli", None, "bound", "bounds.bound"),
    ("etaquad.harness", None, "bound", "bounds.bound"),
    ("etaquad", None, "integrate_certified", "quadrature.integrate_certified"),
    ("etaquad.cli", None, "integrate_certified", "quadrature.integrate_certified"),
    ("etaquad", None, "true_error", "quadrature.true_error"),
    ("etaquad.cli", None, "true_error", "quadrature.true_error"),
    ("etaquad.cli", None, "run_inequality_suite", "harness.run_inequality_suite"),
    ("etaquad.cli", None, "tournament", "harness.tournament"),
    ("etaquad.cli", None, "check_hh_classical", "harness.check_hh_classical"),
)

MARK = "_perfbench_span"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    points: int
    failed: bool
    # Extra work counts some spans carry (trials, gate passes, rows).
    extra: tuple = ()


def _owner(module: str, owner: str | None):
    mod = importlib.import_module(module)
    return getattr(mod, owner) if owner else mod


def installed() -> list[str]:
    """Every target attribute that currently holds a span wrapper."""
    out = []
    for module, owner, attr, _ in TARGETS:
        obj = getattr(_owner(module, owner), attr, None)
        if getattr(obj, MARK, None) is not None:
            out.append(f"{module}.{owner + '.' if owner else ''}{attr}")
    return out


def _size(x) -> int:
    return int(x.size) if isinstance(x, np.ndarray) else 1


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(x))) if isinstance(x, np.ndarray) else math.isfinite(x)


def _value_work(args, kwargs, out):
    """points = evaluation points; a non-finite value counts as an error."""
    return _size(args[1]), not _finite(out), ()


def _jet3_work(args, kwargs, out):
    return _size(args[1]), not all(_finite(c) for c in (out.d0, out.d1, out.d2, out.d3)), ()


def _invex_work(args, kwargs, out):
    return int(out.checked), False, ()


def _suite_work(args, kwargs, out):
    trials = kwargs["trials"] if "trials" in kwargs else args[2]
    return 0, False, (("harness.trials", int(trials)),
                      ("harness.gate_pass", out.hypothesis_passed),
                      ("harness.gate_checked", len(out.rows)))


def _certified_work(args, kwargs, out):
    return out.n, False, ()


WORK = {
    "expr.value": _value_work,
    "expr.jet3": _jet3_work,
    "invex.check": _invex_work,
    "harness.run_inequality_suite": _suite_work,
    "quadrature.integrate_certified": _certified_work,
}


class Tracer:
    """Installs span wrappers on enter and restores every attribute on exit."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object, bool]] = []

    def __enter__(self):
        try:
            for module, owner, attr, name in TARGETS:
                obj = _owner(module, owner)
                if not hasattr(obj, attr):
                    self.missing.append(f"{module}.{owner + '.' if owner else ''}{attr}")
                    continue
                own = attr in vars(obj)
                orig = vars(obj)[attr] if own else getattr(obj, attr)
                self._saved.append((obj, attr, orig, own))
                setattr(obj, attr, self._wrap(orig, name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            obj, attr, orig, own = self._saved.pop()
            if own:
                setattr(obj, attr, orig)
            else:
                delattr(obj, attr)

    def _wrap(self, fn, name):
        spans, stack, tracer = self.spans, self._stack, self
        work = WORK.get(name)
        counting = name == "simpson.integrate"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            seen = [0]
            if counting:
                # Count every point the oracle asks its integrand for.
                integrand = args[0]

                def counted(x):
                    seen[0] += _size(x)
                    return integrand(x)

                args = (counted,) + args[1:]
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, tracer.op, seen[0], True)
                raise
            end = time.perf_counter()
            stack.pop()
            # Work counts are taken after the clock stops; their cost lands
            # in the parent span, as tracing overhead.
            points, failed, extra = work(args, kwargs, out) if work else (0, False, ())
            if counting:
                points = seen[0]
            spans[idx] = Span(name, start, end, parent, tracer.op, points, failed, extra)
            return out

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def write(self, path: str) -> None:
        """One JSON array per line: name, op, parent, start, end, points, failed."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.op, s.parent, s.start, s.end, s.points, s.failed]))
                fh.write("\n")


def layer_table(spans: list[Span], lo: int, hi: int, report_bytes: int) -> dict[str, float]:
    """Per-layer counts and self times over ``spans[lo:hi]`` (one pass).

    A span's self time is its duration minus the durations of its direct
    children; spans nest, so the children cover disjoint parts of it.
    """
    child = defaultdict(float)
    for s in spans[lo:hi]:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    calls = defaultdict(int)
    points = defaultdict(int)
    errors = defaultdict(int)
    self_s = defaultdict(float)
    extra = defaultdict(int)
    in_certified = set()
    jet3_in_certified = 0
    for idx in range(lo, hi):
        s = spans[idx]
        calls[s.name] += 1
        points[s.name] += s.points
        errors[s.name] += s.failed
        self_s[s.name] += (s.end - s.start) - child[idx]
        for key, value in s.extra:
            extra[key] += value
        if s.name == "quadrature.integrate_certified" or s.parent in in_certified:
            in_certified.add(idx)
            jet3_in_certified += s.name == "expr.jet3"
    layer_self = defaultdict(float)
    for name, value in self_s.items():
        layer_self[name.split(".", 1)[0]] += value
    subintervals = points["quadrature.integrate_certified"]
    checked = extra["harness.gate_checked"]
    return {
        "expr.parse.calls": calls["expr.parse"],
        "expr.parse.self_s": self_s["expr.parse"],
        "expr.value.calls": calls["expr.value"],
        "expr.value.points": points["expr.value"],
        "expr.value.self_s": self_s["expr.value"],
        "expr.jet3.calls": calls["expr.jet3"],
        "expr.jet3.points": points["expr.jet3"],
        "expr.jet3.self_s": self_s["expr.jet3"],
        "expr.errors": errors["expr.value"] + errors["expr.jet3"] + errors["expr.parse"],
        "simpson.integrate.calls": calls["simpson.integrate"],
        "simpson.integrate.points": points["simpson.integrate"],
        "simpson.integrate.self_s": self_s["simpson.integrate"],
        "simpson.integrate.errors": errors["simpson.integrate"],
        "identity.verify_identity.calls": calls["identity.verify_identity"],
        "identity.verify_identity.self_s": self_s["identity.verify_identity"],
        "identity.corrected_trapezoid.calls": calls["identity.corrected_trapezoid"],
        "identity.corrected_trapezoid.self_s": self_s["identity.corrected_trapezoid"],
        "invex.check.calls": calls["invex.check"],
        "invex.check.points": points["invex.check"],
        "invex.check.self_s": self_s["invex.check"],
        "bounds.bound.calls": calls["bounds.bound"],
        "bounds.bound.self_s": self_s["bounds.bound"],
        "quadrature.integrate_certified.calls": calls["quadrature.integrate_certified"],
        "quadrature.integrate_certified.self_s": self_s["quadrature.integrate_certified"],
        "quadrature.subintervals": subintervals,
        "quadrature.jet3_per_subinterval": jet3_in_certified / subintervals if subintervals else 0.0,
        "quadrature.true_error.self_s": self_s["quadrature.true_error"],
        "harness.self_s": layer_self["harness"],
        "harness.trials": extra["harness.trials"],
        "harness.gate_pass_ratio": extra["harness.gate_pass"] / checked if checked else 0.0,
        "cli.run.calls": calls["cli.run"],
        "cli.self_s": self_s["cli.run"],
        "cli.report_bytes": report_bytes,
    }


def work_counts(table: dict[str, float]) -> dict[str, float]:
    """The entries of a layer table that must repeat exactly: all but times."""
    return {k: v for k, v in table.items() if not k.endswith("_s")}


def units() -> dict[str, str]:
    """Unit of every per-layer metric, by its name."""
    out = {}
    for name in layer_table([], 0, 0, 0):
        if name.endswith("_s"):
            out[name] = "s"
        elif name.endswith("_ratio") or name.endswith("_per_subinterval"):
            out[name] = "ratio"
        elif name.endswith("_bytes"):
            out[name] = "bytes"
        else:
            out[name] = "count"
    out.update({
        "trace.ops_per_s_untraced": "1/s",
        "trace.ops_per_s_traced": "1/s",
        "trace.overhead_frac": "ratio",
        "trace.spans": "count",
        "trace.pass_s": "s",
        "trace.unattributed_s": "s",
    })
    return out


def self_by_layer(table: dict[str, float]) -> dict[str, float]:
    """Self seconds per pass summed by module, from a layer table."""
    out = defaultdict(float)
    for name, value in table.items():
        if name.endswith("self_s"):
            out[name.split(".", 1)[0]] += value
    return dict(out)
