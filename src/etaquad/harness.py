"""Randomised campaigns that stress the remainder bounds.

Each trial draws a function from a named family and a segment, computes
the exact remainder |integral - Q| with adaptive quadrature, gates every
bound on the hypothesis it actually needs (the chord or max inequality
for |f'''|^q, or |f'''| for C2.1, sampled along the path), and records
the ratio remainder / bound.  A violation is a hypothesis-passing trial
with ratio above 1 + 1e-9.  All randomness flows from one counter-based
generator, and a draw is ``Generator.uniform`` bit for bit, so a seed
reproduces a campaign exactly and extending the trial count only appends trials.

A family is one expression template with named parameters.  A campaign
draws every trial first, then evaluates the trials of each family
together: one parse of the template, one oracle pass over all their
segments, one jet grid of |f'''| along all their paths, and per bound one
array of bounds and one gate.  Every step is elementwise or sums each
segment on its own, so a trial's row has the same bits alone as in any
batch.  ``tournament`` uses the same evaluator with a batch of one, and
``sharpness_search`` with one batch per sweep of its ascent.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field, fields

import numpy as np

from . import simpson
from .bounds import THEOREM_ORDER, BoundSpec, DerivativeData, bound, scalar_pow
from .expr import Expression, parse
from .identity import PathSegment, corrected_trapezoid
from .invex import CHORD_TOL, DEFAULT_GRID, DifferenceMap, EtaMap, HypothesisReport
from .invex import chord_slack, path_grid

__all__ = [
    "RATIO_SLACK",
    "Family",
    "FAMILIES",
    "Instance",
    "CampaignReport",
    "run_inequality_suite",
    "tournament",
    "sharpness_search",
    "check_hh_classical",
]

RATIO_SLACK = 1e-9   # ratio > 1 + this counts as a violation
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

    A draw is a vector inside [lo, hi]: the values of the template's
    parameters ``names``, then the segment's base point b and displacement
    h.  |h| is clamped into [0.1, 2] so segments never degenerate.
    """

    name: str
    template: str
    names: tuple[str, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    @functools.cached_property
    def _box(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.lo), np.subtract(self.hi, self.lo)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """``rng.uniform(lo, hi)`` bit for bit (NumPy's lo + (hi - lo) * random()), unchecked."""
        return self._box[0] + self._box[1] * rng.random(len(self.lo))

    def clip(self, params: np.ndarray) -> np.ndarray:
        return np.clip(params, self.lo, self.hi)

    def source(self, params: np.ndarray) -> str:
        """The template with each parameter written out as ``(value)``."""
        values = dict(zip(self.names, map(float, params)))
        pattern = r"\b(?:" + "|".join(self.names) + r")\b"
        return re.sub(pattern, lambda m: f"({values[m.group()]!r})", self.template)

    def build(self, params: np.ndarray) -> tuple[Expression, float, float]:
        _, b, h = _segments(np.asarray(params)[None, :])
        return parse(self.source(params)), float(b[0]), float(h[0])

    def bind(self, draws: np.ndarray) -> dict:
        """The template's parameters for a (trials x len(lo)) draw matrix,
        one contiguous array per name."""
        return dict(zip(self.names, draws[:, : len(self.names)].T.copy()))


def _clamp_h(h):
    return np.where(h >= 0.0, 1.0, -1.0) * np.clip(np.abs(h), 0.1, 2.0)


def _segments(draws: np.ndarray):
    """Ends a = b + h, base points b and clamped displacements h of a draw
    matrix."""
    b, h = draws[:, -2], _clamp_h(draws[:, -1])
    return b + h, b, h


def _poly(degree: int) -> tuple[str, tuple[str, ...]]:
    names = tuple(f"c{k}" for k in range(degree + 1))
    terms = ["c0", "c1*x"] + [f"c{k}*pow(x,{k})" for k in range(2, degree + 1)]
    return " + ".join(terms), names


FAMILIES = {
    "poly2": Family("poly2", *_poly(2), (-5.0,) * 3 + (-2.0, -2.0), (5.0,) * 3 + (2.0, 2.0)),
    "poly6": Family("poly6", *_poly(6), (-5.0,) * 7 + (-2.0, -2.0), (5.0,) * 7 + (2.0, 2.0)),
    "mono4": Family("mono4", "c*pow(x,4)", ("c",), (-5.0, -2.0, -2.0), (5.0, 2.0, 2.0)),
    "exp": Family(
        "exp", "c*exp(lam*x)", ("c", "lam"), (-5.0, -2.0, -2.0, -2.0), (5.0, 2.0, 2.0, 2.0)
    ),
    "trig": Family(
        "trig",
        "c*sin(omega*x + phase)",
        ("c", "omega", "phase"),
        (-5.0, 0.2, 0.0, -2.0, -2.0),
        (5.0, 3.0, 2.0 * math.pi, 2.0, 2.0),
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
        out = {"f": self.f.source, "eta": self.emap.to_json(), "a": self.a, "b": self.b}
        return out if self.spec is None else {**out, **self.spec.to_json()}


@dataclass
class CampaignReport:
    """Campaign totals, the per-bound table and the rows, dicts keyed by CSV_COLUMNS."""

    trials: int
    hypothesis_passed: int
    violations: int
    max_ratio: float
    argmax: dict | None
    table: list[dict]
    rows: list[dict] = field(repr=False)

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _safe_ratio(lhs_abs, bnd):
    """lhs_abs / bnd, with 0/0 read as 0 up to ZERO_LHS_TOL; elementwise."""
    ratio = np.where(lhs_abs <= ZERO_LHS_TOL, 0.0, math.inf)
    return np.divide(lhs_abs, bnd, out=ratio, where=bnd > 0.0)


def _evaluate(f, params: dict, a, b, h, specs, grid_n: int):
    """The remainders over [b, b + h] and, per spec, the arrays (bound,
    ratio, gate passed) for a batch of segments.

    ``a``, ``b`` and ``h`` are arrays with one entry per segment (floats
    are a batch of one), and f's parameters bind to ``params``, arrays with
    one entry per segment.  A = |f'''(a)| comes from the path grid's jet
    run, and B = |f'''(b)| is its t = 0 column, x = b exactly.  The gate is
    the sampled hypothesis along the path, in the power form the bound
    assumes (``hypothesis_q``): chord (preinvex) or endpoint max
    (prequasiinvex).
    """
    t = path_grid(grid_n)
    q_value = corrected_trapezoid(f, PathSegment(b=b, h=h), **params)
    integral, _ = simpson.integrate_segments(
        lambda x, seg: f.value(x, **{k: v[seg] for k, v in params.items()}),
        b, b + h, tol=LHS_TOL,
    )
    lhs = integral - q_value

    def column(v):
        return np.reshape(v, (-1, 1))

    x = np.hstack((column(b) + t * column(h), column(a)))
    d3 = np.abs(f.jet3(x, **{k: column(v) for k, v in params.items()}).d3)
    data = DerivativeData(d3[:, -1], d3[:, 0])
    d3 = d3[:, :-1]
    # |lhs| within a few rounding errors of the two terms it is the
    # difference of says nothing about R's size: its ratio is a clean 0.
    lhs_abs = np.abs(lhs)
    lhs_abs[lhs_abs <= 4.0 * np.finfo(float).eps * (np.abs(integral) + np.abs(q_value))] = 0.0
    gates = {}  # specs with one hypothesis and one exponent share their gate
    out = []
    for spec in specs:
        bnd = bound(spec, h, data).value
        q = spec.hypothesis_q
        key = (spec.hypothesis, q)
        if key not in gates:
            fb, fa = (column(scalar_pow(e, q)) for e in (data.b3, data.a3))
            slack = chord_slack(d3 ** q, fb, fa, t, spec.hypothesis == "prequasiinvex")
            gates[key] = np.max(slack, axis=1) <= CHORD_TOL
        out.append((bnd, _safe_ratio(lhs_abs, bnd), gates[key]))
    return lhs, out


def _tally(gated: list[dict]) -> dict:
    """Gate passes, violations and the largest ratio among gated rows."""
    return {
        "hypothesis_passed": len(gated),
        "violations": sum(r["ratio"] > 1.0 + RATIO_SLACK for r in gated),
        "max_ratio": max([0.0] + [r["ratio"] for r in gated]),
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
    grid_n: int = DEFAULT_GRID,
) -> CampaignReport:
    """Draw ``trials`` instances and hold each against every spec.

    ``family`` is a Family, a FAMILIES key, or "mixed".  Difference-map
    segments a = b + h are used throughout, so the path endpoints are the
    bound endpoints.  Every trial is drawn before any is evaluated, and
    the trials of each family are evaluated as one batch shared across
    specs.  The argmax is the first gated row with the largest positive
    ratio.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if not specs:
        raise ValueError("specs must name at least one bound")
    path_grid(grid_n)  # checked even when no trial is drawn
    rng = np.random.Generator(np.random.Philox(seed))
    drawn = []  # (family, draw) per trial
    groups: dict[Family, list[int]] = {}
    for trial in range(trials):
        fam = _pick(family, rng)
        drawn.append((fam, fam.sample(rng)))
        groups.setdefault(fam, []).append(trial)

    rows_of: list[list[dict]] = [[] for _ in range(trials)]
    for fam, idx in groups.items():
        batch = np.array([drawn[i][1] for i in idx])
        a, b, h = _segments(batch)
        f = parse(fam.template, fam.names)
        lhs, results = _evaluate(f, fam.bind(batch), a, b, h, specs, grid_n)
        a, b, h, lhs = (col.tolist() for col in (a, b, h, lhs))
        results = [tuple(col.tolist() for col in res) for res in results]
        for j, i in enumerate(idx):
            rows_of[i] = [
                dict(zip(CSV_COLUMNS, (i, fam.name, a[j], b[j], h[j], s.theorem, s.q,
                                       lhs[j], bnd[j], ratio[j], ok[j])))
                for s, (bnd, ratio, ok) in zip(specs, results)
            ]
    rows = [row for trial_rows in rows_of for row in trial_rows]

    gated = [r for r in rows if r["hypothesis_pass"]]
    table = []
    for k, s in enumerate(specs):  # spec k owns every len(specs)-th row from row k
        own = [r for r in rows[k :: len(specs)] if r["hypothesis_pass"]]
        table.append({"theorem": s.theorem, "q": s.q, **_tally(own)})
    peak = max((r for r in gated if r["ratio"] > 0.0), key=lambda r: r["ratio"], default=None)
    argmax = None
    if peak is not None:
        fam, draw = drawn[peak["trial"]]
        argmax = {"trial": peak["trial"], "family": peak["family"], "f": fam.source(draw)}
        argmax.update((k, peak[k]) for k in CSV_COLUMNS[2:-1])
    return CampaignReport(trials=len(rows), **_tally(gated), argmax=argmax, table=table, rows=rows)


def tournament(instance: Instance, q_grid: list[float], grid_n: int = DEFAULT_GRID) -> list[dict]:
    """All six bound variants per q, with the minimiser marked.

    Rows also carry the sampled hypothesis verdicts so a winning bound can
    be read together with whether its assumption held.  Ties go to the
    earliest variant in THEOREM_ORDER.
    """
    f = instance.f
    h = instance.segment().h
    specs = {}
    for q in q_grid:
        for thm in THEOREM_ORDER:
            try:
                specs[q, thm] = BoundSpec(thm, q)
            except ValueError:
                pass
        if (q, "T2.1") not in specs:  # T2.1 and T3.1 hold wherever any bound does
            raise ValueError(f"no bound is defined at q = {q}")
    lhs, results = _evaluate(f, {}, instance.a, instance.b, h, list(specs.values()), grid_n)
    judged = {key: [float(bnd[0]), float(ratio[0]), bool(ok[0])]
              for key, (bnd, ratio, ok) in zip(specs, results)}

    out = []
    for q in q_grid:
        values = {thm: judged[q, thm][0] if (q, thm) in judged else None for thm in THEOREM_ORDER}
        available = [thm for thm in THEOREM_ORDER if values[thm] is not None]
        winner = min(available, key=lambda thm: (values[thm], THEOREM_ORDER.index(thm)))
        out.append(
            {
                "q": q,
                "bounds": values,
                "winner": winner,
                "lhs": abs(float(lhs[0])),
                "ratio_winner": judged[q, winner][1],
                # The gates of T2.1 and T3.1 are those of their hypotheses at q.
                "preinvex_pass": judged[q, "T2.1"][2],
                "prequasiinvex_pass": judged[q, "T3.1"][2],
            }
        )
    return out


def sharpness_search(
    spec: BoundSpec,
    family,
    iterations: int = 300,
    seed: int = 0,
    grid_n: int = DEFAULT_GRID,
) -> tuple[Instance | None, float]:
    """Steepest-ascent search for the largest hypothesis-passing ratio.

    Each random restart climbs with a shrinking step schedule.  A sweep
    scores every ± step × span move of one parameter, clipped to the box,
    in one evaluator batch and takes the best improving move.  A failed
    gate, a degenerate candidate or a refused batch scores -inf.  Exactly
    ``iterations`` candidates are scored.  Returns the best instance and
    its ratio, or (None, -inf) if none passed; no optimality is claimed.
    """
    fam = family if isinstance(family, Family) else FAMILIES[family]
    path_grid(grid_n)  # scores() below turns every ValueError into -inf
    rng = np.random.Generator(np.random.Philox(seed))
    # Row 2i moves parameter i up by its span, row 2i + 1 down.
    moves = np.kron(np.diag(fam._box[1]), [[1.0], [-1.0]])
    f = parse(fam.template, fam.names)

    def scores(batch):
        """Each draw's ratio, -inf where the gate fails or the ratio is not finite."""
        try:
            _, [(_, ratio, ok)] = _evaluate(f, fam.bind(batch), *_segments(batch), [spec], grid_n)
        except (ValueError, simpson.ConvergenceError):
            return np.full(len(batch), -math.inf)
        return np.where(ok & np.isfinite(ratio), ratio, -math.inf)

    best_ratio = -math.inf
    best_draw = None
    evals = 0
    while evals < iterations:
        params = fam.sample(rng)
        [ratio] = scores(params[None, :])
        evals += 1
        for frac in (0.3, 0.1, 0.03, 0.01):
            while evals < iterations:
                cands = fam.clip(params + frac * moves)[: iterations - evals]
                cand_ratios = scores(cands)
                evals += len(cands)
                k = int(np.argmax(cand_ratios))
                if not cand_ratios[k] > ratio:
                    break
                params, ratio = cands[k], cand_ratios[k]
        if ratio > best_ratio:  # a climb's last ratio is its best
            best_ratio, best_draw = float(ratio), params
    if best_draw is None:
        return None, best_ratio
    f, b, h = fam.build(best_draw)
    return Instance(f, DifferenceMap(), a=b + h, b=b, spec=spec), best_ratio


def check_hh_classical(f, a: float, b: float, tol: float = CHORD_TOL) -> HypothesisReport:
    """Midpoint / mean / endpoint-average chain for f on [a, b].

    For convex f the chain f((a+b)/2) <= mean <= (f(a)+f(b))/2 holds; this
    evaluates both comparisons with the adaptive oracle's mean, at its
    tolerance scaled by max(1, |f(a)| + |f(b)|) * (b - a).  checked counts
    the two comparisons; the witness marks the failing side with t = 0.5
    (midpoint side) or t = 1.0 (endpoint side).
    """
    if not a < b:
        raise ValueError("needs a < b")
    fn = f.value if hasattr(f, "value") else f
    fa, mid, fb = map(float, fn(np.array([a, 0.5 * (a + b), b])))
    oracle_tol = simpson.TOL * max(1.0, abs(fa) + abs(fb)) * (b - a)
    integral, _ = simpson.integrate(fn, a, b, tol=oracle_tol)
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
