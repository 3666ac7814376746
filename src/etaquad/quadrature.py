"""Composite corrected-trapezoid integration with error certificates.

The segment from b to b + h is split into subintervals; on each, the
corrected trapezoid rule is applied and a rigorous-style local error bound
is attached:

  * ``sup`` mode, the default, encloses f''' over each whole subinterval
    with one interval jet (``Expression.enclose3``) and charges
    w^4/192 * sup|f'''|, making no shape assumption;
  * ``hypothesis`` mode trusts preinvexity of |f'''| along the path and
    charges w^4/384 * (|f'''(left)| + |f'''(right)|) per subinterval of
    width w.

The certificate is the sum of local bounds.  A fixed uniform n accepts
every subinterval at once; a target bisects level by level, accepting a
subinterval once its bound is at most target * |w| / |h|, so the
certificate is at most the target up to rounding.  An unbounded
enclosure (the subinterval meets a pole, a log or fractional-pow edge or
the abs kink) is bisected under a target and refused under a fixed n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import simpson
from .expr import DomainError
from .identity import PathSegment

__all__ = [
    "MODES",
    "BudgetError",
    "CertifiedResult",
    "integrate_certified",
    "true_error",
]

MODES = ("sup", "hypothesis")  # the first is integrate_certified's default
DEFAULT_BUDGET = 1 << 20
# The partition's columns, as CertifiedResult holds them and its JSON names them.
PARTITION_COLUMNS = ("left", "right", "local_value", "local_bound")


class BudgetError(RuntimeError):
    """A partition would exceed the subinterval budget."""


@dataclass(frozen=True, eq=False)
class CertifiedResult:
    """Composite value plus the certificate that bounds its error; the
    partition is held as four read-only arrays in path order (left may
    exceed right when the displacement is negative)."""

    value: float
    certificate: float
    mode: str
    left: np.ndarray
    right: np.ndarray
    local_value: np.ndarray
    local_bound: np.ndarray
    segment: PathSegment

    @property
    def n(self) -> int:
        return len(self.left)

    def to_json(self) -> dict:
        columns = (getattr(self, name).tolist() for name in PARTITION_COLUMNS)
        return {
            "value": self.value,
            "certificate": self.certificate,
            "mode": self.mode,
            "n": self.n,
            "partition": [dict(zip(PARTITION_COLUMNS, piece)) for piece in zip(*columns)],
        }


def _jets(f, x: np.ndarray) -> np.ndarray:
    """Rows d0, d1, d3 of the jet at each point: all the local rule reads."""
    j = f.jet3(x)
    return np.stack((j.d0, j.d1, j.d3))


def _local(f, left, right, jets_left, jets_right, mode: str, bisect: bool):
    """Local values and error bounds of the subintervals [left, right];
    with ``bisect``, a sup bound may be +inf, for the caller to split."""
    w = right - left
    with np.errstate(all="ignore"):  # non-finite results are refused below
        values = w * (jets_left[0] + jets_right[0]) / 2.0
        values += w * w / 12.0 * (jets_left[1] - jets_right[1])
        if mode == "hypothesis":
            bounds = np.abs(w) ** 4 / 384.0 * (np.abs(jets_left[2]) + np.abs(jets_right[2]))
        else:
            d3 = f.enclose3(np.minimum(left, right), np.maximum(left, right)).d3
            bounds = np.abs(w) ** 4 / 192.0 * np.maximum(np.abs(d3.lo), np.abs(d3.hi))
    finite = np.isfinite(bounds)
    if bisect and mode == "sup":
        finite |= bounds == np.inf
    bad = ~(np.isfinite(values) & finite)
    if bad.any():
        raise DomainError(f"non-finite local value {values[bad][0]:.3e} or bound {bounds[bad][0]:.3e} "
                          f"on subinterval [{left[bad][0]}, {right[bad][0]}]")
    return values, bounds


def integrate_certified(
    f,
    seg: PathSegment,
    mode: str = MODES[0],
    target: float | None = None,
    fixed_n: int | None = None,
) -> CertifiedResult:
    """Integrate f over the segment with a per-subinterval certificate.

    Exactly one refinement policy applies: ``fixed_n`` partitions the
    segment uniformly; otherwise ``target`` bisects level by level every
    subinterval of width w whose bound exceeds ``target * |w| / |h|``,
    and the halves reuse their parent's end jets, as do the halves of an
    unbounded ``sup`` enclosure.  BudgetError is raised before a level
    would hold more than DEFAULT_BUDGET subintervals (``fixed_n``, or the
    accepted plus twice the unaccepted); DomainError on any other
    non-finite local value or bound.  The partition is in path order,
    from b to b + h.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if (fixed_n is None) == (target is None):
        raise ValueError("give exactly one of fixed_n or target")
    if fixed_n is not None and fixed_n < 1:
        raise ValueError("fixed_n must be positive")
    if target is not None and not (target > 0.0 and math.isfinite(target)):
        raise ValueError("target must be a positive finite bound")
    if fixed_n is not None and fixed_n > DEFAULT_BUDGET:
        raise BudgetError(f"fixed_n {fixed_n} is above the budget of {DEFAULT_BUDGET}")

    # A uniform partition is one level on which every subinterval is accepted.
    share = math.inf if target is None else target / abs(seg.h)
    nodes = np.linspace(seg.b, seg.end, (fixed_n or 1) + 1)
    jets = _jets(f, nodes)
    left, right, jl, jr = nodes[:-1], nodes[1:], jets[:, :-1], jets[:, 1:]
    parts = []
    while True:
        values, bounds = _local(f, left, right, jl, jr, mode, target is not None)
        ok = bounds <= share * np.abs(right - left)
        parts.append((left[ok], right[ok], values[ok], bounds[ok]))
        split = ~ok
        n_split = int(np.count_nonzero(split))
        if not n_split:
            break
        accepted = sum(p[0].size for p in parts)
        if accepted + 2 * n_split > DEFAULT_BUDGET:
            worst = np.argmax(np.where(split, bounds, -np.inf))
            raise BudgetError(f"target {target:.3e} not reached with {accepted + n_split} "
                              f"subintervals (budget {DEFAULT_BUDGET}); worst "
                              f"[{float(left[worst])!r}, {float(right[worst])!r}] "
                              f"has bound {bounds[worst]:.3e}")
        left, right, jl, jr = left[split], right[split], jl[:, split], jr[:, split]
        mid = 0.5 * (left + right)
        jm = _jets(f, mid)
        left, right = np.concatenate((left, mid)), np.concatenate((mid, right))
        jl, jr = np.concatenate((jl, jm), axis=1), np.concatenate((jm, jr), axis=1)
    columns = [np.concatenate(c) for c in zip(*parts)]
    order = np.argsort(columns[0] if seg.h > 0 else -columns[0], kind="stable")
    columns = [c[order] for c in columns]
    for c in columns:
        c.setflags(write=False)
    value, certificate = (math.fsum(c.tolist()) for c in columns[2:])
    return CertifiedResult(value, certificate, mode, *columns, seg)


def true_error(f, result: CertifiedResult) -> float:
    """|oracle integral - certified value| via the adaptive Gauss–Kronrod
    oracle (``simpson.integrate``) at its default tolerance."""
    seg = result.segment
    oracle, _ = simpson.integrate(f.value, seg.b, seg.end)
    return abs(oracle - result.value)
