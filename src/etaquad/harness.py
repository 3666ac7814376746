"""Randomised campaigns that stress the remainder bounds.

Each trial draws a function from a named family and a segment, computes
the exact remainder |integral - Q| with adaptive quadrature, gates every
bound on the hypothesis it actually needs (the chord or max inequality
for |f'''|^q sampled along the path), and records the ratio remainder /
bound.  A violation is a hypothesis-passing trial with ratio above
1 + 1e-9.  All randomness flows from one counter-based generator, so a
seed reproduces a campaign exactly, and extending the trial count only
appends trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import simpson
from .bounds import THEOREM_ORDER, BoundSpec, DerivativeData, bound
from .expr import Expression, parse
from .identity import PathSegment, corrected_trapezoid
from .invex import DifferenceMap, EtaMap, HypothesisReport, chord_slack, path_grid

__all__ = [
    "RATIO_SLACK",
    "GATE_TOL",
    "Family",
    "FAMILIES",
    "Instance",
    "TrialRow",
    "CampaignReport",
    "run_inequality_suite",
    "tournament",
    "sharpness_search",
    "check_hh_classical",
]

RATIO_SLACK = 1e-9   # ratio > 1 + this counts as a violation
GATE_TOL = 1e-9      # normalised slack allowed by the hypothesis gate
LHS_TOL = 1e-11      # absolute tolerance of the remainder's quadrature
ZERO_LHS_TOL = 1e-10  # |remainder| under this with a zero bound is a clean 0/0

CSV_COLUMNS = (
    "trial",
    "family",
    "a",
    "b",
    "h",
    "theorem",
    "q",
    "lhs",
    "bound",
    "ratio",
    "hypothesis_pass",
)


@dataclass(frozen=True)
class Family:
    """A parametric corpus of (expression, segment) draws.

    ``build`` maps a parameter vector inside [lo, hi] to an expression
    source plus a segment (b, h); builders clamp |h| into [0.1, 2] so
    segments never degenerate.
    """

    name: str
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    build_fn: Callable[[np.ndarray], tuple[str, float, float]]

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lo, self.hi)

    def clip(self, params: np.ndarray) -> np.ndarray:
        return np.clip(params, self.lo, self.hi)

    def build(self, params: np.ndarray) -> tuple[Expression, float, float]:
        source, b, h = self.build_fn(params)
        return parse(source), float(b), float(h)


def _clamp_h(h: float) -> float:
    sign = 1.0 if h >= 0.0 else -1.0
    return sign * min(2.0, max(0.1, abs(h)))


def _poly_source(coeffs) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        c_txt = f"({float(c)!r})"
        if k == 0:
            terms.append(c_txt)
        elif k == 1:
            terms.append(f"{c_txt}*x")
        else:
            terms.append(f"{c_txt}*pow(x,{k})")
    return " + ".join(terms)


def _build_poly(degree: int):
    def build(params):
        coeffs = params[: degree + 1]
        b = float(params[degree + 1])
        h = _clamp_h(float(params[degree + 2]))
        return _poly_source(coeffs), b, h

    return build


def _build_mono4(params):
    c, b, h = params
    return f"({float(c)!r})*pow(x,4)", float(b), _clamp_h(float(h))


def _build_exp(params):
    c, lam, b, h = params
    return f"({float(c)!r})*exp(({float(lam)!r})*x)", float(b), _clamp_h(float(h))


def _build_trig(params):
    c, omega, phase, b, h = params
    source = f"({float(c)!r})*sin(({float(omega)!r})*x + ({float(phase)!r}))"
    return source, float(b), _clamp_h(float(h))


FAMILIES = {
    "poly2": Family("poly2", (-5.0,) * 3 + (-2.0, -2.0), (5.0,) * 3 + (2.0, 2.0), _build_poly(2)),
    "poly6": Family("poly6", (-5.0,) * 7 + (-2.0, -2.0), (5.0,) * 7 + (2.0, 2.0), _build_poly(6)),
    "mono4": Family("mono4", (-5.0, -2.0, -2.0), (5.0, 2.0, 2.0), _build_mono4),
    "exp": Family("exp", (-5.0, -2.0, -2.0, -2.0), (5.0, 2.0, 2.0, 2.0), _build_exp),
    "trig": Family(
        "trig",
        (-5.0, 0.2, 0.0, -2.0, -2.0),
        (5.0, 3.0, 2.0 * math.pi, 2.0, 2.0),
        _build_trig,
    ),
}

_MIXED_POOL = ("poly6", "exp", "trig")


@dataclass(frozen=True)
class Instance:
    """One concrete question: an expression, a direction map, endpoints,
    and (optionally) the bound to hold it against."""

    f: Expression
    emap: EtaMap
    a: float
    b: float
    spec: BoundSpec | None = None

    def segment(self) -> PathSegment:
        return PathSegment.from_eta(self.emap, self.a, self.b)

    def summary(self) -> dict:
        out = {
            "f": self.f.source,
            "eta": self.emap.to_json(),
            "a": self.a,
            "b": self.b,
        }
        if self.spec is not None:
            out["theorem"] = self.spec.theorem
            out["q"] = self.spec.q
        return out


@dataclass(frozen=True)
class TrialRow:
    trial: int
    family: str
    a: float
    b: float
    h: float
    theorem: str
    q: float
    lhs: float
    bound: float
    ratio: float
    hypothesis_pass: bool

    def to_json(self) -> dict:
        return {col: getattr(self, col) for col in CSV_COLUMNS}


@dataclass
class CampaignReport:
    """Campaign totals plus the per-bound breakdown and raw rows."""

    trials: int
    hypothesis_passed: int
    violations: int
    max_ratio: float
    argmax: dict | None
    table: list[dict]
    rows: list[TrialRow] = field(default_factory=list, repr=False)

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "hypothesis_passed": self.hypothesis_passed,
            "violations": self.violations,
            "max_ratio": self.max_ratio,
            "argmax": self.argmax,
            "table": self.table,
            "rows": [r.to_json() for r in self.rows],
        }


def _safe_ratio(lhs_abs: float, bnd: float) -> float:
    if bnd > 0.0:
        return lhs_abs / bnd
    return 0.0 if lhs_abs <= ZERO_LHS_TOL else math.inf


def _gate(
    hypothesis: str, d3_path: np.ndarray, t: np.ndarray, d: DerivativeData, q: float
) -> bool:
    """Sampled hypothesis along the path, in the q-th power form the
    bounds consume: chord (preinvex) or endpoint max (prequasiinvex).
    The path runs from b (t = 0) to a (t = 1)."""
    slack = chord_slack(d3_path ** q, d.b3 ** q, d.a3 ** q, t, hypothesis == "prequasiinvex")
    return bool(np.max(slack) <= GATE_TOL)


def _remainder_and_path(f, b: float, h: float, grid_n: int):
    t = path_grid(grid_n)
    seg = PathSegment(b=b, h=h, a=b + h)
    q_value = corrected_trapezoid(f, seg)
    integral, _ = simpson.integrate(f.value, seg.b, seg.end, tol=LHS_TOL)
    d3_path = np.abs(f.jet3(b + t * h).d3)
    return integral - q_value, t, d3_path


def _trial(f, b: float, h: float, specs, grid_n: int):
    """The remainder over [b, b + h] and, per spec, (bound, ratio, gate
    passed), with A and B read at the path ends."""
    lhs, t, d3_path = _remainder_and_path(f, b, h, grid_n)
    data = DerivativeData(float(d3_path[-1]), float(d3_path[0]))  # t = 1 is a = b + h
    out = []
    for spec in specs:
        bnd = bound(spec, h, data).value
        ok = _gate(spec.hypothesis, d3_path, t, data, spec.q)
        out.append((bnd, _safe_ratio(abs(lhs), bnd), ok))
    return lhs, out


def _tally(gated: list[TrialRow]) -> dict:
    """Gate passes, violations and the largest ratio among gated rows."""
    return {
        "hypothesis_passed": len(gated),
        "violations": sum(r.ratio > 1.0 + RATIO_SLACK for r in gated),
        "max_ratio": max([0.0] + [r.ratio for r in gated]),
    }


def _pick(family, rng: np.random.Generator) -> Family:
    if isinstance(family, Family):
        return family
    if family == "mixed":
        return FAMILIES[_MIXED_POOL[int(rng.integers(0, len(_MIXED_POOL)))]]
    return FAMILIES[family]


def run_inequality_suite(
    family,
    specs: list[BoundSpec],
    trials: int,
    seed: int,
    grid_n: int = 65,
) -> CampaignReport:
    """Draw ``trials`` instances and hold each against every spec.

    ``family`` is a Family, a FAMILIES key, or "mixed".  Difference-map
    segments a = b + h are used throughout, so the path endpoints are the
    bound endpoints.  Per-instance work (remainder, derivative grid) is
    shared across specs.  The argmax is the first gated row with the
    largest positive ratio.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    rng = np.random.Generator(np.random.Philox(seed))
    rows: list[TrialRow] = []
    sources = []
    for trial in range(trials):
        fam = _pick(family, rng)
        f, b, h = fam.build(fam.sample(rng))
        lhs, results = _trial(f, b, h, specs, grid_n)
        sources.append(f.source)
        rows += [
            TrialRow(trial, fam.name, b + h, b, h, s.theorem, s.q, lhs, bnd, ratio, ok)
            for s, (bnd, ratio, ok) in zip(specs, results)
        ]

    gated = [r for r in rows if r.hypothesis_pass]
    table = []
    for k, s in enumerate(specs):  # spec k owns every len(specs)-th row from row k
        own = [r for r in rows[k :: len(specs)] if r.hypothesis_pass]
        table.append({"theorem": s.theorem, "q": s.q, **_tally(own)})
    peak = max((r for r in gated if r.ratio > 0.0), key=lambda r: r.ratio, default=None)
    argmax = None
    if peak is not None:
        argmax = {"trial": peak.trial, "family": peak.family, "f": sources[peak.trial]}
        argmax.update((k, getattr(peak, k)) for k in CSV_COLUMNS[2:-1])
    return CampaignReport(trials=len(rows), **_tally(gated), argmax=argmax, table=table, rows=rows)


def tournament(instance: Instance, q_grid: list[float], grid_n: int = 65) -> list[dict]:
    """All six bound variants per q, with the minimiser marked.

    Rows also carry the sampled hypothesis verdicts so a winning bound can
    be read together with whether its assumption held.  Ties go to the
    earliest variant in THEOREM_ORDER.
    """
    f = instance.f
    h = float(instance.emap(instance.a, instance.b))
    lhs, t, d3_path = _remainder_and_path(f, instance.b, h, grid_n)
    lhs_abs = abs(lhs)
    data = DerivativeData.from_function(f, instance.a, instance.b)

    out = []
    for q in q_grid:
        values = {}
        for thm in THEOREM_ORDER:
            try:
                spec = BoundSpec(thm, q)
            except ValueError:
                values[thm] = None
                continue
            values[thm] = bound(spec, h, data).value
        available = [thm for thm in THEOREM_ORDER if values[thm] is not None]
        if not available:
            raise ValueError(f"no bound is defined at q = {q}")
        winner = min(available, key=lambda thm: (values[thm], THEOREM_ORDER.index(thm)))
        out.append(
            {
                "q": q,
                "bounds": values,
                "winner": winner,
                "lhs": lhs_abs,
                "ratio_winner": _safe_ratio(lhs_abs, values[winner]),
                "preinvex_pass": _gate("preinvex", d3_path, t, data, q),
                "prequasiinvex_pass": _gate("prequasiinvex", d3_path, t, data, q),
            }
        )
    return out


def sharpness_search(
    spec: BoundSpec,
    family,
    iterations: int = 300,
    seed: int = 0,
    grid_n: int = 65,
) -> tuple[Instance | None, float]:
    """Coordinate-ascent search for the largest hypothesis-passing ratio.

    Random restarts seed a greedy sweep over the family parameters with a
    shrinking step schedule; every candidate evaluation counts against
    ``iterations``.  Returns the best instance found and its ratio; no
    optimality is claimed.  Gate-failing or degenerate candidates score
    -inf and are never returned unless nothing passes at all.
    """
    fam = family if isinstance(family, Family) else FAMILIES[family]
    path_grid(grid_n)  # score() below turns every ValueError into -inf
    rng = np.random.Generator(np.random.Philox(seed))
    spans = np.asarray(fam.hi) - np.asarray(fam.lo)

    def score(params):
        try:
            f, b, h = fam.build(params)
            _, [(_, ratio, ok)] = _trial(f, b, h, [spec], grid_n)
        except (ValueError, simpson.ConvergenceError):
            return -math.inf, None
        if not ok or math.isinf(ratio):
            return -math.inf, None
        return ratio, Instance(f, DifferenceMap(), a=b + h, b=b, spec=spec)

    best_ratio = -math.inf
    best_instance = None
    evals = 0
    while evals < iterations:
        params = fam.sample(rng)
        ratio, inst = score(params)
        evals += 1
        if ratio > best_ratio:
            best_ratio, best_instance = ratio, inst
        for frac in (0.3, 0.1, 0.03, 0.01):
            improved = True
            while improved and evals < iterations:
                improved = False
                for i in range(len(params)):
                    for direction in (1.0, -1.0):
                        if evals >= iterations:
                            break
                        cand = params.copy()
                        cand[i] += direction * frac * spans[i]
                        cand = fam.clip(cand)
                        cand_ratio, cand_inst = score(cand)
                        evals += 1
                        if cand_ratio > ratio:
                            params, ratio, inst = cand, cand_ratio, cand_inst
                            improved = True
                if ratio > best_ratio:
                    best_ratio, best_instance = ratio, inst
            if evals >= iterations:
                break
    return best_instance, best_ratio


def check_hh_classical(f, a: float, b: float, grid_n: int = 65, tol: float = 1e-9) -> HypothesisReport:
    """Sampled midpoint / mean / endpoint-average chain for f on [a, b].

    For convex f the chain f((a+b)/2) <= mean <= (f(a)+f(b))/2 holds; this
    evaluates both comparisons with an adaptive-quadrature mean.  ``grid_n``
    sets the oracle's minimum refinement depth.  checked counts the two
    comparisons; the witness marks the failing side with t = 0.5 (midpoint
    side) or t = 1.0 (endpoint side).
    """
    if not a < b:
        raise ValueError("needs a < b")
    fn = f.value if hasattr(f, "value") else f
    fa = float(fn(a))
    fb = float(fn(b))
    mid = float(fn(0.5 * (a + b)))
    min_depth = max(2, int(math.ceil(math.log2(max(2, grid_n - 1)))))
    oracle_tol = 1e-12 * max(1.0, abs(fa) + abs(fb)) * (b - a)
    integral, _ = simpson.integrate(fn, a, b, tol=oracle_tol, min_depth=min_depth)
    mean = integral / (b - a)
    right = 0.5 * (fa + fb)
    scale = max(1.0, abs(mid), abs(mean), abs(right))
    slack_mid = (mid - mean) / scale
    slack_right = (mean - right) / scale
    worst = max(slack_mid, slack_right)
    passed = worst <= tol
    witness = None
    if not passed:
        witness = (float(a), float(b), 0.5 if slack_mid >= slack_right else 1.0)
    return HypothesisReport(passed, 2, float(worst), witness)
