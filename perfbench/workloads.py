"""The three workloads: inputs drawn from a seed, the timed call of each
op, and the untimed check of its output.

An op is one user-visible request.  ``Op.run`` is the only part that is
timed; ``Op.check`` turns its raw output into an ``Outcome``.  Every
workload is a fixed list of ops (a *pass*) that the runner repeats, so a
pass does the same work every time and its work counts repeat exactly.

The package is driven only through its public entry points
(``etaquad.cli.run``, ``etaquad.parse``, ``etaquad.integrate_certified``
and ``etaquad.true_error``), each looked up on its module at call time so
that the traced run can wrap it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import etaquad
import etaquad.cli

# Fewest passes a timed run makes.  Together with the pass length this
# fixes the tail percentile of each workload (at least ten samples beyond
# it in every run): p75 for campaign (42 ops) and certify (44), p95 for
# verify (216).
MIN_PASSES = {"campaign": 6, "certify": 4, "verify": 8}

SIX_T_BOUNDS = "T2.1,T2.2,T2.3,T3.1,T3.2,T3.3"
TEN_SELECTORS = ("T2.1", "T2.2", "T2.3", "T3.1", "T3.2", "T3.3", "C2.1", "C2.2", "C2.3", "C2.4")


@dataclass(frozen=True)
class Outcome:
    ok: bool
    reason: str = ""
    report_bytes: int = 0


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    # Set when the input reproduces a defect listed in ROADMAP.md; a failure
    # of such an op is expected at the seed and counted, never hidden.
    known_defect: str | None = None
    # The input for the record: argv or problem description.
    spec: Any = None


def build(workload: str, seed: int, out_dir: str, quick: bool = False) -> list[Op]:
    """The pass of ``workload`` for ``seed``.  ``quick`` shrinks every op
    to the smallest size that still runs the same code, for the smoke test."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "campaign":
        return _campaign(rng, out_dir, quick)
    if workload == "certify":
        return _certify(rng, quick)
    if workload == "verify":
        return _verify(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _num(rng: random.Random, lo: float, hi: float) -> str:
    """A draw from [lo, hi] written as a short decimal for an argv."""
    return f"{rng.uniform(lo, hi):.4f}"


# ---------------------------------------------------------------------------
# campaign: `etaquad suite` over the mixed family, report written to a file.


def _campaign(rng: random.Random, out_dir: str, quick: bool) -> list[Op]:
    trials = 5 if quick else 150
    n_ops = 3 if quick else 7
    out = os.path.join(out_dir, "campaign-report.json")
    ops = []
    for _ in range(n_ops):
        argv = [
            "suite", "--family", "mixed", "--theorems", SIX_T_BOUNDS, "--q", "2",
            "--trials", str(trials), "--seed", str(rng.randrange(2**31)), "--out", out,
        ]
        ops.append(Op("suite", _cli_to_file(argv), _check_suite(out, trials * 6), spec=argv))
    return ops


def _cli_to_file(argv):
    def run():
        return etaquad.cli.run(list(argv))

    return run


def _check_suite(path: str, rows: int):
    def check(code) -> Outcome:
        if code != 0:
            return Outcome(False, f"exit code {code}")
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            report = json.loads(raw)
        except ValueError:
            return Outcome(False, "report is not valid JSON", len(raw))
        result = report["result"]
        if result["violations"] != 0:
            return Outcome(False, f"{result['violations']} violation(s)", len(raw))
        if len(result["rows"]) != rows:
            return Outcome(False, f"{len(result['rows'])} rows, expected {rows}", len(raw))
        if report["passed"] is not True:
            return Outcome(False, "passed is not true", len(raw))
        return Outcome(True, "", len(raw))

    return check


# ---------------------------------------------------------------------------
# certify: integrate_certified then true_error, as `integrate --with-true-error`.


@dataclass(frozen=True)
class Problem:
    source: str
    lo: float
    hi: float
    mode: str
    target: float | None = None
    fixed_n: int | None = None

    def describe(self) -> dict:
        return {
            "f": self.source, "a": self.hi, "b": self.lo, "mode": self.mode,
            "target": self.target, "fixed_n": self.fixed_n,
        }


@dataclass(frozen=True)
class Refused:
    """The package declined the input with one of its own error types."""

    error: str


def _certify(rng: random.Random, quick: bool) -> list[Op]:
    hyp_target, sup_target, uniform_n = (1e-8, 1e-6, 256) if quick else (1e-12, 1e-9, 4096)
    # Two perturbations of the ROADMAP's adaptive example function.
    smooth = [f"exp(x)*sin({_num(rng, 2.9, 3.1)}*x)+pow(x,6)" for _ in range(2)]
    defects = [
        # Defect 1: overflow gives a NaN value and certificate that is
        # reported as a result.  The oracle must never see it (Defect 2).
        (Problem(f"exp({_num(rng, 750, 850)}*x)", 0.0, 1.0, "hypothesis", target=1e-6),
         "ROADMAP Defect 1: NaN certificate reported as a result"),
        # Defect 3: the unchecked hypothesis under-certifies.
        (Problem(f"1/(1+{_num(rng, 20, 30)}*x*x)", -1.0, 1.0, "hypothesis", fixed_n=2),
         "ROADMAP Defect 3: certificate below the true error (Runge, n=2)"),
        (Problem(f"exp(-{_num(rng, 150, 250)}*x*x)", -3.0, 3.0, "hypothesis", target=1e-6),
         "ROADMAP Defect 3: certificate 0 for a narrow peak"),
    ]
    problems = list(defects)
    for mode in ("hypothesis", "sup"):
        problems += [(Problem(src, 0.0, 2.0, mode, fixed_n=uniform_n), None) for src in smooth]
    for src in smooth:
        problems.append((Problem(src, 0.0, 2.0, "hypothesis", target=hyp_target), None))
        problems.append((Problem(src, 0.0, 2.0, "sup", target=sup_target), None))
    return [
        Op("defect" if defect else f"{p.mode}-{'uniform' if p.fixed_n else 'adaptive'}",
           _certify_run(p, defect is not None),
           _check_certified, known_defect=defect, spec=p.describe())
        for p, defect in problems
    ]


def _certify_run(p: Problem, refusal_ok: bool):
    refusals = (etaquad.DomainError, etaquad.BudgetError, etaquad.ConvergenceError)

    def run():
        try:
            f = etaquad.parse(p.source)
            res = etaquad.integrate_certified(
                f, etaquad.PathSegment(b=p.lo, h=p.hi - p.lo),
                mode=p.mode, target=p.target, fixed_n=p.fixed_n,
            )
        except refusals as exc:
            if not refusal_ok:
                raise
            return Refused(type(exc).__name__)
        # The Simpson oracle bisects a non-finite integrand to its full
        # depth and can exhaust memory (ROADMAP Defect 2); never call it
        # on a non-finite certified result.
        if not (math.isfinite(res.value) and math.isfinite(res.certificate)):
            return res, None
        return res, etaquad.true_error(f, res)

    return run


def _check_certified(out) -> Outcome:
    if isinstance(out, Refused):
        return Outcome(True, f"refused with {out.error}")
    res, err = out
    if err is None:
        return Outcome(False, f"non-finite result reported (value={res.value}, "
                              f"certificate={res.certificate}); oracle not called")
    if not math.isfinite(err):
        return Outcome(False, f"oracle error is {err}")
    if err > res.certificate:
        return Outcome(False, f"true error {err:.3e} exceeds certificate {res.certificate:.3e}")
    return Outcome(True)


# ---------------------------------------------------------------------------
# verify: one-off CLI commands with stdout captured in memory.


def _verify(rng: random.Random) -> list[Op]:
    def n(lo, hi):
        return _num(rng, lo, hi)

    vi = "verify-identity"
    cases = [
        # Oscillatory and wide: deep Simpson with jets inside the kernel
        # integrand.  Only the amplitude is drawn: the Simpson depth, and so
        # the cost, jumps with the frequency and the length.
        ([vi, "--f", f"{n(0.9, 1.1)}*sin(40*x)*exp(-x/4)", "--a", "10", "--b", "0"], 0),
        ([vi, "--f", f"{n(0.9, 1.1)}*sin(40*x)*exp(-x/4)", "--a", "10", "--b", "0"], 0),
        ([vi, "--f", f"{n(0.9, 1.1)}*sin(40*x)*exp(-x/4)", "--a", "20", "--b", "0",
          "--eta", "scaled:0.5"], 0),
        ([vi, "--f", f"{n(0.5, 2)}*pow(x,4)", "--a", "1", "--b", "0"], 0),
        ([vi, "--f", f"exp({n(0.8, 1.2)}*x)", "--a", "2", "--b", "0",
          "--eta", f"scaled:{n(0.3, 0.7)}"], 0),
        ([vi, "--f", f"exp({n(0.8, 1.2)}*x)", "--a", "1", "--b", "-1", "--eta", "paper_piecewise"], 0),
        ([vi, "--f", f"sin({n(1, 2)}*x)+pow(x,3)", "--a", "-1.5", "--b", "0.5",
          "--eta", "paper_piecewise"], 0),
    ]
    for grid in ("65", "129"):
        half = n(1.5, 2.5)
        cases += [
            (["check-hypothesis", "--check", "preinvex", "--f=-abs(x)", "--eta", "paper_piecewise",
              "--dom", f"-{half}", half, "--grid", grid], 0),
            (["check-hypothesis", "--check", "prequasiinvex", "--f", f"{n(0.5, 2)}*pow(x-{n(0, 0.5)},2)",
              "--eta", "difference", "--dom", f"-{half}", half, "--grid", grid], 0),
            # paper_piecewise maps opposite-sign points outside the interval.
            (["check-hypothesis", "--check", "invex-set", "--eta", "paper_piecewise",
              "--dom", f"-{half}", half, "--grid", grid], 1),
        ]
    f_bound = f"exp({n(0.5, 2)}*x)"
    q = n(1.5, 3)
    cases += [
        (["bound", "--f", f_bound, "--a", "1", "--b", "0", "--theorem", sel, "--q", q], 0)
        for sel in TEN_SELECTORS
    ]
    cases += [
        (["tournament", "--f", f"exp({n(1.5, 2.5)}*x)", "--a", "1", "--b", "0", "--q-grid", "1,2,4"], 0),
        (["hh-classical", "--f", f"pow(x,2)+{n(0, 1)}", "--a", "0", "--b", n(1.5, 2.5)], 0),
        (["hh-classical", "--f", f"exp({n(0.5, 1.5)}*x)", "--a", "-1", "--b", n(0.5, 1.5)], 0),
        # sin is concave on [0, pi], so the convexity chain fails.
        (["hh-classical", "--f", "sin(x)", "--a", "0", "--b", n(1.5, 3)], 1),
    ]
    return [Op(argv[0], _cli_to_stdout(argv), _check_report(code), spec=argv) for argv, code in cases]


def _cli_to_stdout(argv):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = etaquad.cli.run(list(argv))
        return code, buf.getvalue()

    return run


def _check_report(expected: int):
    def check(out) -> Outcome:
        code, text = out
        size = len(text.encode("utf-8"))
        if code != expected:
            return Outcome(False, f"exit code {code}, expected {expected}", size)
        try:
            passed = json.loads(text)["passed"]
        except (ValueError, KeyError):
            return Outcome(False, "report is not valid JSON with a passed field", size)
        if passed is not (code == 0):
            return Outcome(False, f"passed={passed} disagrees with exit code {code}", size)
        return Outcome(True, "", size)

    return check
