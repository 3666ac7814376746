"""Direction maps and grid-sampled hypothesis checks.

A direction map eta(v, u) generalises the straight-line displacement
v - u: the path from u toward v is u + t*eta(v, u) for t in [0, 1].  A set
is invex under a map when every such path stays inside it; a function f is
preinvex when f along the path lies under the chord (1-t)f(u) + t*f(v),
and prequasiinvex when it lies under max(f(u), f(v)).

The checks here sample (u, v, t) on uniform grids and report the worst
normalised slack together with a witness triple when the property fails;
the chord checks take f as a parsed ``Expression``.
They sweep the grid in blocks of at most ``expr.EVAL_CHUNK`` points, each
a slice of one u row; only the (u, v) directions grow with the grid.
Grid sampling refutes but never proves; a pass means "no counterexample on
this grid", which is exactly what the harness needs for gating.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import ClassVar

import numpy as np

from . import expr

__all__ = [
    "EtaMapError",
    "EtaMap",
    "DifferenceMap",
    "ScaledMap",
    "PiecewiseSignMap",
    "TablePiece",
    "TableMap",
    "eta_from_json",
    "Domain",
    "HypothesisReport",
    "chord_slack",
    "check_invex_set",
    "check_preinvex",
    "check_prequasiinvex",
]

ETA_SPELLINGS = "difference | paper_piecewise | scaled:<lam> | JSON object"
DEFAULT_GRID = 65  # grid points of a check, and of the harness's path gate
SET_TOL = 1e-12    # absolute slack allowed by check_invex_set
CHORD_TOL = 1e-9   # normalised slack allowed by the chord checks
# The largest grid a check samples.  The invex checks cost grid_n**3: the
# preinvex check of -abs(x) under paper_piecewise takes about 6 s at 513
# points on one Xeon core, and each doubling of the grid costs 8 times more.
MAX_GRID = 513


class EtaMapError(ValueError):
    """A direction map was queried outside its covered region."""


class EtaMap:
    """Base class: callable as m(v, u), serialisable via to_json()."""

    kind: ClassVar[str] = ""

    def __call__(self, v, u):
        raise NotImplementedError

    def to_json(self) -> dict:
        return {"kind": self.kind}


@dataclass(frozen=True)
class DifferenceMap(EtaMap):
    """eta(v, u) = v - u, the straight-line special case."""

    kind: ClassVar[str] = "difference"

    def __call__(self, v, u):
        return v - u


@dataclass(frozen=True)
class ScaledMap(EtaMap):
    """eta(v, u) = lam * (v - u) for a fixed nonzero lam."""

    lam: float
    kind: ClassVar[str] = "scaled"

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam == 0.0:
            raise ValueError("lam must be finite and nonzero")

    def __call__(self, v, u):
        return self.lam * (v - u)

    def to_json(self) -> dict:
        return {"kind": self.kind, "lambda": self.lam}


@dataclass(frozen=True)
class PiecewiseSignMap(EtaMap):
    """eta(v, u) = v - u when u and v share a weak sign, u - v otherwise.

    The classic example map under which f(u) = -|u| is preinvex though not
    convex.  The same-sign branch wins at zero.  Serialised kind tag:
    ``paper_piecewise``.
    """

    kind: ClassVar[str] = "paper_piecewise"

    def __call__(self, v, u):
        same = ((u <= 0.0) & (v <= 0.0)) | ((u >= 0.0) & (v >= 0.0))
        return np.where(same, v - u, u - v)


@dataclass(frozen=True)
class TablePiece:
    """One affine piece, valid on [u_lo, u_hi] x [v_lo, v_hi]."""

    u_lo: float
    u_hi: float
    v_lo: float
    v_hi: float
    c0: float
    cu: float
    cv: float

    def __post_init__(self):
        if not (self.u_lo < self.u_hi and self.v_lo < self.v_hi):
            raise ValueError("piece rectangle must have positive extent")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TableMap(EtaMap):
    """Piecewise-affine map given by a table of rectangular pieces.

    Piece interiors must be pairwise disjoint; on shared boundaries the
    earliest piece wins.  Querying an uncovered (u, v) raises EtaMapError.
    """

    pieces: tuple[TablePiece, ...]
    kind: ClassVar[str] = "table"

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("table map needs at least one piece")
        for i, p in enumerate(self.pieces):
            for q in self.pieces[i + 1 :]:
                overlap_u = min(p.u_hi, q.u_hi) > max(p.u_lo, q.u_lo)
                overlap_v = min(p.v_hi, q.v_hi) > max(p.v_lo, q.v_lo)
                if overlap_u and overlap_v:
                    raise ValueError("piece interiors overlap")

    def __call__(self, v, u):
        u_arr, v_arr = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        out = np.zeros(u_arr.shape)
        covered = np.zeros(u_arr.shape, dtype=bool)
        for p in self.pieces:
            mask = (
                (u_arr >= p.u_lo)
                & (u_arr <= p.u_hi)
                & (v_arr >= p.v_lo)
                & (v_arr <= p.v_hi)
                & ~covered
            )
            out = np.where(mask, p.c0 + p.cu * u_arr + p.cv * v_arr, out)
            covered |= mask
        if not covered.all():
            bad = np.argwhere(~covered)[0]
            raise EtaMapError(
                f"(u, v) = ({u_arr[tuple(bad)]}, {v_arr[tuple(bad)]}) is outside every piece"
            )
        return out

    def to_json(self) -> dict:
        return {"kind": self.kind, "pieces": [p.to_json() for p in self.pieces]}


def eta_from_json(spec) -> EtaMap:
    """The direction map ``spec`` names: an EtaMap.to_json() dict, that
    dict as JSON text, or a flag spelling (difference, paper_piecewise,
    scaled:<lam>).  Any other spec is a ValueError that lists these."""
    try:
        if isinstance(spec, str) and spec.startswith("scaled:"):
            spec = {"kind": "scaled", "lambda": spec[len("scaled:"):]}
        elif isinstance(spec, str):
            spec = json.loads(spec) if spec.lstrip().startswith("{") else {"kind": spec}
        kind = spec["kind"]
        if kind == "scaled":
            return ScaledMap(float(spec["lambda"]))
        if kind == "table":
            rows = [[float(p[f.name]) for f in fields(TablePiece)] for p in spec["pieces"]]
            return TableMap(tuple(TablePiece(*row) for row in rows))
        if kind == "difference":
            return DifferenceMap()
        if kind == "paper_piecewise":
            return PiecewiseSignMap()
        raise ValueError(f"unknown direction map kind {kind!r}")
    # A missing key, a value of the wrong type, as in the JSON text
    # {"kind": "scaled", "lambda": null}, or JSON nested too deep to read
    # is malformed input too.
    except (ValueError, LookupError, TypeError, OverflowError, RecursionError) as exc:
        why = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{why}; use {ETA_SPELLINGS}") from None


@dataclass(frozen=True)
class Domain:
    """A closed interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError("domain needs finite lo < hi")

    def grid(self, n: int) -> np.ndarray:
        return np.linspace(self.lo, self.hi, n)


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of a sampled check.

    ``worst_slack`` is the largest normalised violation observed (<= 0 or
    tiny when passing); ``witness`` is the first grid triple (u, v, t)
    attaining it, present exactly when the check failed.
    """

    passed: bool
    checked: int
    worst_slack: float
    witness: tuple[float, float, float] | None

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "checked": self.checked,
            "worst_slack": self.worst_slack,
            "witness": list(self.witness) if self.witness is not None else None,
        }


def path_grid(grid_n: int) -> np.ndarray:
    """grid_n points t on [0, 1]; both path endpoints must be sampled."""
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    if grid_n > MAX_GRID:
        raise ValueError(f"grid_n must be at most {MAX_GRID}, got {grid_n}")
    return np.linspace(0.0, 1.0, grid_n)


def _directions(emap: EtaMap, u: np.ndarray) -> np.ndarray:
    """eta(v, u) for every pair of grid points, indexed [u, v, 0]."""
    return emap(u[None, :, None], u[:, None, None])


def _verdict(slack, u: np.ndarray, t: np.ndarray, tol: float) -> HypothesisReport:
    """The worst slack(i, vs) (indexed [v, t]) over u rows i and v slices
    vs, and the first (u, v, t) attaining it in C order; a NaN slack is the
    worst and fails.  The blocks, EVAL_CHUNK // t.size v values (at least
    one) each, run in C order, and none is big enough to be mmap'd afresh."""
    n_v = max(1, expr.EVAL_CHUNK // t.size)
    blocks = [(i, slice(j, j + n_v)) for i in range(u.size) for j in range(0, u.size, n_v)]
    block_worst = np.array([np.max(slack(i, vs)) for i, vs in blocks])
    worst = float(np.max(block_worst))
    passed = worst <= tol
    witness = None
    if not passed:
        i, vs = blocks[int(np.argmax(block_worst))]
        values = slack(i, vs)
        j, k = np.unravel_index(int(np.argmax(values)), values.shape)
        witness = (float(u[i]), float(u[vs][j]), float(t[k]))
    return HypothesisReport(passed, u.size * u.size * t.size, worst, witness)


def check_invex_set(
    emap: EtaMap,
    dom: Domain,
    grid_n: int = DEFAULT_GRID,
    sample: Domain | None = None,
    tol: float = SET_TOL,
) -> HypothesisReport:
    """Does every sampled path u -> v stay inside ``dom``?

    Endpoints u, v are drawn from ``sample`` (default: dom itself), so
    paths from a small box can be checked against a larger domain.  Slack
    is the absolute distance a path point escapes [dom.lo, dom.hi].
    """
    box = sample if sample is not None else dom
    t, u = path_grid(grid_n), box.grid(grid_n)
    eta = _directions(emap, u)

    def slack(i, vs):
        points = u[i] + t * eta[i, vs]
        return np.maximum(np.maximum(dom.lo - points, points - dom.hi), 0.0)

    return _verdict(slack, u, t, tol)


def _sample(f: expr.Expression, x: np.ndarray) -> np.ndarray:
    """f's values at x, of x's shape; DomainError names the first x whose
    value is not finite."""
    y = f.value(x)
    if not np.isfinite(y).all():
        bad = ~np.isfinite(y)
        raise expr.DomainError(f"f is {y[bad][0]} at x = {float(x[bad][0])!r}")
    return y


def chord_slack(fpath, fu, fv, t, quasi: bool):
    """Normalised excess of f on the path over the chord (1-t)f(u) + t*f(v),
    or over max(f(u), f(v)) when ``quasi``; positive where the hypothesis
    fails.  Arguments broadcast."""
    rhs = np.maximum(fu, fv) if quasi else (1.0 - t) * fu + t * fv
    # The scale first, so its temporaries are freed before the difference
    # exists: one full-grid array fewer at the peak.
    scale = np.maximum(1.0, np.maximum(np.abs(rhs), np.abs(fpath)))
    return (fpath - rhs) / scale


def _chord_check(f, emap, dom, grid_n, tol, quasi: bool) -> HypothesisReport:
    t, u = path_grid(grid_n), dom.grid(grid_n)
    fu = _sample(f, u)
    eta = _directions(emap, u)

    def slack(i, vs):
        return chord_slack(_sample(f, u[i] + t * eta[i, vs]), fu[i], fu[vs, None], t, quasi)

    return _verdict(slack, u, t, tol)


def check_preinvex(
    f, emap: EtaMap, dom: Domain, grid_n: int = DEFAULT_GRID, tol: float = CHORD_TOL
) -> HypothesisReport:
    """Sampled chord test f(u + t*eta(v,u)) <= (1-t)f(u) + t*f(v)."""
    return _chord_check(f, emap, dom, grid_n, tol, quasi=False)


def check_prequasiinvex(
    f, emap: EtaMap, dom: Domain, grid_n: int = DEFAULT_GRID, tol: float = CHORD_TOL
) -> HypothesisReport:
    """Sampled test f(u + t*eta(v,u)) <= max(f(u), f(v))."""
    return _chord_check(f, emap, dom, grid_n, tol, quasi=True)
