"""Corrected-trapezoid functional and its exact third-derivative remainder.

For a segment from b to b + h the functional

    Q = h*(f(b) + f(b+h))/2 + h^2/12 * (f'(b) - f'(b+h))

satisfies, for any f with an absolutely continuous second derivative,

    integral_b^{b+h} f  -  Q  =  h^4/12 * integral_0^1 w(t) f'''(b + t h) dt

with the weight w(t) = t(1-t)(2t-1).  Both sides are computed here from
jets and adaptive quadrature, entirely independently of each other, so the
identity doubles as a cross-check of the jet arithmetic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import simpson
from .invex import EtaMap

__all__ = [
    "kernel_weight",
    "PathSegment",
    "IdentityReport",
    "corrected_trapezoid",
    "kernel_integral",
    "verify_identity",
]

ABS_TOL = 1e-10  # absolute part of the identity comparison
REL_TOL = 1e-9  # relative part of the identity comparison


def kernel_weight(t):
    """w(t) = t(1-t)(2t-1); integrates to zero, antisymmetric about 1/2."""
    return t * (1.0 - t) * (2.0 * t - 1.0)


@dataclass(frozen=True)
class PathSegment:
    """Oriented segment from ``b`` to ``b + h`` with nonzero displacement.

    ``b`` and ``h`` may also be arrays, one entry per segment of a batch.
    """

    b: float
    h: float

    def __post_init__(self):
        if not np.isfinite(self.h).all() or (np.asarray(self.h) == 0.0).any():
            raise ValueError("displacement h must be finite and nonzero")
        if not np.isfinite(self.b).all():
            raise ValueError("base point b must be finite")

    @classmethod
    def from_eta(cls, emap: EtaMap, a: float, b: float) -> "PathSegment":
        return cls(b=float(b), h=float(emap(a, b)))

    @property
    def end(self) -> float:
        return self.b + self.h


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of the remainder identity plus the comparison verdict."""

    lhs: float
    rhs: float
    abs_diff: float
    quadrature_error_estimate: float
    passed: bool

    def to_json(self) -> dict:
        return asdict(self)


@np.errstate(all="ignore")  # arrays overflow to inf and nan silently, as floats do
def corrected_trapezoid(f, seg: PathSegment, **params) -> float:
    """Q over the segment from one jet run at b and b + h, a float when they
    are; ``params`` binds the parameters of f (see ``Expression.value``)."""
    j = f.jet3(np.array([seg.b, seg.end]), **params)
    q = seg.h * (j.d0[0] + j.d0[1]) / 2.0 + seg.h * seg.h / 12.0 * (j.d1[0] - j.d1[1])
    return q if np.ndim(q) else float(q)


def _weighted_third(f, seg: PathSegment):
    def integrand(t):
        return kernel_weight(t) * f.jet3(seg.b + t * seg.h).d3

    return integrand


def kernel_integral(f, seg: PathSegment) -> float:
    """integral_0^1 w(t) f'''(b + t h) dt by adaptive quadrature."""
    value, _ = simpson.integrate(_weighted_third(f, seg), 0.0, 1.0)
    return value


def verify_identity(f, seg: PathSegment, tol: float = ABS_TOL) -> IdentityReport:
    """Evaluate both sides of the remainder identity and compare.

    Passes when |lhs - rhs| <= max(tol, REL_TOL * max(|lhs|, |rhs|)).  Both
    quadratures run at tol/10 so the comparison is not dominated by the
    oracle's own error.
    """
    q = corrected_trapezoid(f, seg)
    integral, int_est = simpson.integrate(f.value, seg.b, seg.end, tol=tol / 10.0)
    lhs = integral - q

    factor = seg.h ** 4 / 12.0
    kernel, kernel_est = simpson.integrate(
        _weighted_third(f, seg), 0.0, 1.0, tol=tol / 10.0
    )
    rhs = factor * kernel

    abs_diff = abs(lhs - rhs)
    passed = abs_diff <= max(tol, REL_TOL * max(abs(lhs), abs(rhs)))
    return IdentityReport(
        lhs=lhs,
        rhs=rhs,
        abs_diff=abs_diff,
        quadrature_error_estimate=int_est + abs(factor) * kernel_est,
        passed=passed,
    )
