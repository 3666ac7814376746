"""Closed-form bounds on the corrected-trapezoid remainder.

Ten selectable variants, keyed T2.1..T3.3 and C2.1..C2.4.  All bound
|integral - Q| over the segment from b to b + h in terms of the endpoint
third-derivative magnitudes A = |f'''(a)| and B = |f'''(b)| and a power
h^4.  The T2.x family assumes |f'''|^q is preinvex along the path and uses
a power mean of (A, B); the T3.x family assumes prequasiinvexity and uses
max(A, B).  The C2.x values are the straight-line corollaries.

``bound`` computes on arrays with one entry per segment; floats run as a
one-entry array, so a segment has the same bits alone as in any batch.

Every prefactor decomposes into moments of the weight w(t) = t(1-t)(2t-1)
that are also exposed individually, so each closed form can be cross-
checked against quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SELECTORS",
    "THEOREM_ORDER",
    "BoundSpec",
    "DerivativeData",
    "BoundValue",
    "moment_c1",
    "moment_c2",
    "holder_weighted_moment",
    "beta_moment",
    "abs_moment",
    "gamma_ratio",
    "bound",
]

# selector -> (hypothesis the bound assumes for |f'''|^r along the path,
# whether it needs q > 1 for the conjugate exponent (q >= 1 otherwise),
# the exponent r: None for the spec's q).  C2.1's value h^4/384*(A+B) is
# T2.1 at q = 1, so it holds only where |f'''| itself is preinvex.
SELECTORS = {
    "T2.1": ("preinvex", False, None),
    "T2.2": ("preinvex", True, None),
    "T2.3": ("preinvex", True, None),
    "T3.1": ("prequasiinvex", False, None),
    "T3.2": ("prequasiinvex", True, None),
    "T3.3": ("prequasiinvex", True, None),
    "C2.1": ("preinvex", False, 1.0),
    "C2.2": ("preinvex", False, None),
    "C2.3": ("prequasiinvex", False, None),
    "C2.4": ("prequasiinvex", False, None),
}

# The six theorems, in the tournament's tie-break order.
THEOREM_ORDER = tuple(SELECTORS)[:6]


@dataclass(frozen=True)
class BoundSpec:
    """Which bound to evaluate, and at which exponent q."""

    theorem: str
    q: float = 1.0

    def __post_init__(self):
        if self.theorem not in SELECTORS:
            raise ValueError(f"unknown bound selector {self.theorem!r}")
        if not math.isfinite(self.q):
            raise ValueError("q must be finite")
        if SELECTORS[self.theorem][1]:  # needs q > 1
            if self.q <= 1.0:
                raise ValueError(f"{self.theorem} requires q > 1")
        elif self.q < 1.0:
            raise ValueError(f"{self.theorem} requires q >= 1")

    @property
    def hypothesis(self) -> str:
        """What the bound assumes of |f'''|^r: preinvex or prequasiinvex."""
        return SELECTORS[self.theorem][0]

    @property
    def hypothesis_q(self) -> float:
        """The exponent r of the hypothesis on |f'''|^r: q, or 1 for C2.1."""
        return SELECTORS[self.theorem][2] or self.q

    @property
    def p(self) -> float:
        """Conjugate exponent q/(q-1); defined only for q > 1."""
        if self.q <= 1.0:
            raise ValueError("conjugate exponent needs q > 1")
        return self.q / (self.q - 1.0)

    def to_json(self) -> dict:
        return {"theorem": self.theorem, "q": self.q}


@dataclass(frozen=True)
class DerivativeData:
    """Endpoint third-derivative magnitudes A = |f'''(a)|, B = |f'''(b)|,
    arrays with one entry per segment, or floats for one segment."""

    a3: float
    b3: float

    def __post_init__(self):
        ends = np.array(np.broadcast_arrays(self.a3, self.b3), dtype=float)
        if not (np.isfinite(ends) & (ends >= 0.0)).all():
            raise ValueError("derivative magnitudes must be finite and nonnegative")

    @classmethod
    def from_function(cls, f, a: float, b: float) -> "DerivativeData":
        return cls(*np.abs(f.jet3(np.array([a, b], dtype=float)).d3).tolist())


@dataclass(frozen=True)
class BoundValue:
    """A bound evaluation with the constants that entered it, for audit."""

    value: float
    spec: BoundSpec
    constants_used: dict

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "theorem": self.spec.theorem,
            "q": self.spec.q,
            "constants_used": dict(self.constants_used),
        }


def moment_c1() -> float:
    """integral_0^1 t(1-t)|2t-1| dt = 1/16."""
    return 1.0 / 16.0


def moment_c2() -> float:
    """integral_0^1 t^2(1-t)|2t-1| dt = integral_0^1 t(1-t)^2|2t-1| dt = 1/32."""
    return 1.0 / 32.0


def holder_weighted_moment(p: float) -> float:
    """integral_0^1 t(1-t)|2t-1|^p dt = 1 / (2(p+1)(p+3)) for p > 1."""
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    return 1.0 / (2.0 * (p + 1.0) * (p + 3.0))


def beta_moment(p: float) -> float:
    """integral_0^1 (t - t^2)^p dt = 2^(-1-2p) sqrt(pi) Gamma(1+p)/Gamma(3/2+p)."""
    if not p > 0.0:
        raise ValueError("p must be positive")
    log_val = (
        (-1.0 - 2.0 * p) * math.log(2.0)
        + 0.5 * math.log(math.pi)
        + math.lgamma(1.0 + p)
        - math.lgamma(1.5 + p)
    )
    return math.exp(log_val)


def abs_moment(q: float) -> float:
    """integral_0^1 t|2t-1|^q dt = integral_0^1 (1-t)|2t-1|^q dt = 1/(2(q+1))."""
    if not q > 0.0:
        raise ValueError("q must be positive")
    return 1.0 / (2.0 * (q + 1.0))


def gamma_ratio(p: float) -> float:
    """Gamma(1+p)/Gamma(3/2+p), computed stably via lgamma."""
    if not p > 0.0:
        raise ValueError("p must be positive")
    return math.exp(math.lgamma(1.0 + p) - math.lgamma(1.5 + p))


def scalar_pow(base: np.ndarray, exponent) -> np.ndarray:
    """base ** exponent element by element with Python's pow, the C
    library's: numpy's vectorised power can differ from it in the last
    place, and a batch must give each segment the bits of a batch of one."""
    return np.array([v ** exponent for v in base.tolist()]).reshape(base.shape)


def _power_mean(a, b, q: float):
    mean = scalar_pow((scalar_pow(a, q) + scalar_pow(b, q)) / 2.0, 1.0 / q)
    # Exact at a == b: skip the pow round trip so symmetric data gives
    # bit-identical T2.1 and T3.1 values.
    return np.where(a == b, a, mean)


def bound(spec: BoundSpec, h, d: DerivativeData, tight: bool = False) -> BoundValue:
    """Evaluate the selected bound for displacement ``h`` and data ``d``.

    ``h``, ``d.a3`` and ``d.b3`` broadcast as arrays; the value is a float
    when all three are floats.  ``tight`` applies only to T3.3: the printed
    constant h^4/48*(...) can be sharpened by 2^(-1/p) by splitting the
    weight integral at t = 1/2; the default reproduces the printed form.
    """
    floats = not any(isinstance(v, np.ndarray) for v in (h, d.a3, d.b3))
    h, A, B = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (h, d.a3, d.b3))
    if not np.isfinite(h).all():
        raise ValueError("displacement h must be finite")
    if tight and spec.theorem != "T3.3":
        raise ValueError("tight variant exists only for T3.3")

    h4 = scalar_pow(h, 4)
    q = spec.q
    thm = spec.theorem

    if thm in ("T2.1", "C2.2"):
        value = h4 / 192.0 * _power_mean(A, B, q)
        constants = {
            "kernel_moment": moment_c1(),
            "weighted_kernel_moments": moment_c2(),
            "prefactor": 1.0 / 192.0,
        }
        if thm == "C2.2":
            # The printed corollary constant 1/384 agrees with the power
            # mean form only at q = 1; the power mean form is what holds.
            constants["printed_q1_prefactor"] = 1.0 / 384.0
    elif thm == "C2.1":
        value = h4 / 384.0 * (A + B)
        constants = {"weighted_kernel_moments": moment_c2(), "prefactor": 1.0 / 384.0}
    elif thm in ("T3.1", "C2.3", "C2.4"):
        value = h4 / 192.0 * np.maximum(A, B)
        constants = {"kernel_moment": moment_c1(), "prefactor": 1.0 / 192.0}
    elif thm in ("T2.2", "T3.2"):
        p = spec.p
        if thm == "T2.2":
            prefactor = 1.0 / (24.0 * 6.0 ** (1.0 / q))
            ends = scalar_pow(scalar_pow(A, q) + scalar_pow(B, q), 1.0 / q)
        else:
            prefactor = 1.0 / (24.0 * 3.0 ** (1.0 / q))
            ends = np.maximum(A, B)
        value = h4 * prefactor * ((p + 1.0) * (p + 3.0)) ** (-1.0 / p) * ends
        constants = {"holder_weighted_moment": holder_weighted_moment(p), "prefactor": prefactor}
    elif thm == "T2.3":
        p = spec.p
        gr = gamma_ratio(p)
        value = (
            h4
            / 96.0
            * math.sqrt(math.pi) ** (1.0 / p)
            * gr ** (1.0 / p)
            * (q + 1.0) ** (-1.0 / q)
            * scalar_pow(scalar_pow(A, q) + scalar_pow(B, q), 1.0 / q)
        )
        constants = {
            "beta_moment": beta_moment(p),
            "abs_moment": abs_moment(q),
            "gamma_ratio": gr,
            "prefactor": 1.0 / 96.0,
        }
    else:  # T3.3
        p = spec.p
        gr = gamma_ratio(p)
        value = (
            h4
            / 48.0
            * math.sqrt(math.pi) ** (1.0 / p)
            * gr ** (1.0 / p)
            * (q + 1.0) ** (-1.0 / q)
            * np.maximum(A, B)
        )
        constants = {
            "beta_moment": beta_moment(p),
            "kernel_abs_moment": 1.0 / (q + 1.0),
            "gamma_ratio": gr,
            "prefactor": 1.0 / 48.0,
            "tight_factor": 2.0 ** (-1.0 / p),
        }
        if tight:
            value *= 2.0 ** (-1.0 / p)
    return BoundValue(float(value[0]) if floats else value, spec, constants)
